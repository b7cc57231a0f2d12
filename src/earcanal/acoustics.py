"""Impulse-response measurement chain and acoustic similarity.

A maximum length sequence (MLS) excites the acoustic plant; the plant's
impulse response is recovered by synchronous averaging of the repeated
periods followed by circular cross-correlation with the sequence.  Both
ends use the period: a simulated recording is one period's linear
convolution, its tail folded onto the period and tiled, and the
correlation with an m-sequence is a Walsh-Hadamard transform between two
fixed permutations, computed with additions only (Cohn & Lempel, IEEE
Trans. Inf. Theory 23(1), 1977; Borish & Angell, JAES 31(7), 1983).
:func:`period_mean` averages every take's periods, one at a time, so no
take holds a whole float64 recording: :func:`recover_impulse_response`
feeds it a recording's period slices, 16-bit samples included, and
:func:`noisy_period_mean` a simulated take's noisy copies of its plant's
one steady period, each drawn as it is added.
:func:`correlate_period` correlates the average.
The recovered response is then reduced to a comparable feature: leading
dead time is trimmed, the minimum-phase equivalent is taken (a canal
response is minimum phase, and this removes residual alignment
differences between takes), the band of interest is isolated with a
Butterworth bandpass, and the result is truncated to a common length and
scaled to unit power.  Features are compared with cosine similarity.

Every stage takes a 1D float64 array and returns one, and
:func:`response_feature` is the one place that fixes their order: trim,
minimum phase, bandpass, unit power.  The sample rate is a parameter of
the two functions that need it, the bandpass and the chain.  Samples are
checked for finiteness once, at the end: any NaN or inf makes the power
that :func:`normalize_power` divides by non-finite, and it raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from earcanal.analysis import SimilarityMatrix, mirror_upper
from earcanal.config import DEFAULTS, readonly_view

MIN_PHASE_FLOOR = 1e-10

# Feedback taps of a maximal-length shift register for each order: with
# taps T, the register bits satisfy s[k+m] = s[k] ^ XOR(s[k+t] for t in T).
# These are the first option per order of the standard tables (Golomb,
# *Shift Register Sequences*), the same taps scipy.signal.max_len_seq uses.
_MLS_TAPS = {
    2: (1,), 3: (2,), 4: (3,), 5: (3,), 6: (5,), 7: (6,), 8: (7, 6, 1),
    9: (5,), 10: (7,), 11: (9,), 12: (11, 10, 4), 13: (12, 11, 8),
    14: (13, 12, 2), 15: (14,), 16: (15, 13, 4), 17: (14,), 18: (11,),
    19: (18, 17, 14), 20: (17,), 21: (19,), 22: (21,), 23: (18,),
    24: (23, 22, 17),
}


@dataclass(frozen=True)
class ExcitationSignal:
    """Maximum length sequence mapped to +-1, of length 2**order - 1.

    Circular autocorrelation is two-valued: ``length`` at lag 0 and -1 at
    every other lag, which is what makes circular cross-correlation an
    exact deconvolver.
    """

    samples: np.ndarray
    order: int

    def __post_init__(self) -> None:
        s = readonly_view(self.samples)
        if s.ndim != 1:
            raise ValueError("excitation samples must be a 1D sequence")
        if s.shape[0] != 2**self.order - 1:
            raise ValueError(
                f"length {s.shape[0]} does not equal 2**{self.order} - 1"
            )
        if not np.all(np.abs(s) == 1.0):
            raise ValueError("excitation samples must all be +1 or -1")
        object.__setattr__(self, "samples", s)

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @functools.cached_property
    def _hadamard_permutations(self) -> tuple:
        """``(cols, rows)``, the int32 permutations that turn circular
        correlation with this sequence into a Walsh-Hadamard transform of
        size ``2**order``; the same for every take, so built once.

        With b the sequence's bits (1 for +1), sample n goes to column
        ``sum_i b[n+i] << i``, its m-bit window.  In an m-sequence each
        later bit is a fixed linear function of a window, b[n+j] =
        <r_j, window_n> over GF(2), so correlation lag k reads transform
        row r_(-k).  Bit i of r_j is b[n_i + j], n_i being the sample
        whose window is ``1 << i``.  Raises ValueError unless the windows
        are all distinct and nonzero and b[n+m] = <r_m, window_n>: only
        then is the sequence an m-sequence.
        """
        m, length = self.order, self.length
        bits = (self.samples > 0).astype(np.int32)
        ext = np.concatenate([bits, bits])
        cols = np.zeros(length, np.int32)
        for i in range(m):
            cols |= ext[i : i + length] << i
        # L windows cover all L nonzero values only if none repeats
        if np.bincount(cols, minlength=length + 1)[1:].min() != 1:
            raise ValueError("excitation is not a maximum length sequence: a window repeats")
        where = np.empty(length + 1, np.int32)
        where[cols] = np.arange(length)
        unit = where[1 << np.arange(m)]
        feedback = int(np.dot(ext[unit + m], 1 << np.arange(m)))
        parity = cols & feedback
        for shift in (16, 8, 4, 2, 1):
            parity ^= parity >> shift
        if not np.array_equal(parity & 1, ext[m : m + length]):
            raise ValueError("excitation is not a maximum length sequence: it is not linear")
        rows = np.zeros(length, np.int32)
        for i, start in enumerate(unit):
            rows |= ext[start + length : start : -1] << i
        cols.flags.writeable = rows.flags.writeable = False
        return cols, rows


def generate_mls(order: int) -> ExcitationSignal:
    """Maximum length sequence from a linear-feedback shift register.

    ``order`` is the register length m; the sequence has period 2**m - 1.
    Orders 2 through 24 have known primitive feedback taps.  The register
    starts from the all-ones state, so the sequence for a given order is
    a fixed, reproducible signal.
    """
    if not (2 <= int(order) <= 24):
        raise ValueError(f"order must be between 2 and 24, got {order}")
    order = int(order)
    taps = _MLS_TAPS[order]
    s = np.empty(2**order - 1, dtype=np.uint8)
    s[:order] = 1
    n, top = order, max(taps)
    while n < s.shape[0]:
        # Over GF(2), p(x)**2 = p(x**2), so the recurrence also holds
        # with every offset scaled by a power of two d.  With the largest
        # d for which d*order samples are known, one vectorised XOR
        # yields the next d*(order - top) samples from known ones alone.
        d = 1 << ((n // order).bit_length() - 1)
        start = n - d * order
        count = min(d * (order - top), s.shape[0] - n)
        block = s[n : n + count]
        block[:] = s[start : start + count]
        for t in taps:
            block ^= s[start + d * t : start + d * t + count]
        n += count
    return ExcitationSignal(s * 2.0 - 1.0, order)


def simulate_measurement(
    excitation: ExcitationSignal,
    plant,
    repeats: int = DEFAULTS.repeats,
) -> np.ndarray:
    """Play ``repeats + 1`` excitation periods through a linear plant.

    The plant starts from rest, so the first emitted period carries its
    charge-up transient; every later period equals the circular
    convolution of one excitation period with the plant, which is what
    the recovery step relies on after discarding the first period.  So
    one period is convolved linearly: its first period of output is the
    transient one, and that plus the tail spilling past it is the steady
    period, tiled ``repeats`` times.
    The recording is noiseless; :func:`add_noise` then models the
    microphone chain.  Takes of one plant differ only in their noise, so
    a caller simulating many takes keeps one steady period,
    ``simulate_measurement(excitation, plant, 1)[excitation.length:]``,
    and averages each take's noisy copies of it with
    :func:`noisy_period_mean`.
    """
    h = np.asarray(plant, dtype=np.float64)
    length = excitation.length
    if h.ndim != 1 or h.shape[0] < 1:
        raise ValueError("plant must be a nonempty 1D impulse response")
    if h.shape[0] > length:
        raise ValueError(
            f"plant ({h.shape[0]} taps) must not exceed one excitation period ({length})"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    tail = h.shape[0] - 1
    n = _next_pow2(length + tail)
    y = np.fft.irfft(np.fft.rfft(excitation.samples, n) * np.fft.rfft(h, n), n)
    clean = np.empty((repeats + 1) * length)
    clean[:length] = y[:length]
    y[:tail] += y[length : length + tail]
    clean[length:].reshape(repeats, length)[:] = y[:length]
    return clean


def add_noise(recording: np.ndarray, noise_rms: float, rng) -> np.ndarray:
    """Additive white Gaussian noise of the given RMS, drawn from ``rng``
    (a seed or Generator); a new array unless ``noise_rms`` is 0, in
    which case the recording itself is returned."""
    if noise_rms < 0:
        raise ValueError("noise_rms must be nonnegative")
    if noise_rms == 0:
        return recording
    # added into the noise buffer; addition commutes, so this is
    # recording + noise bit for bit without a second full-size array
    noisy = np.random.default_rng(rng).normal(0.0, noise_rms, size=recording.shape)
    noisy += recording
    return noisy


def period_mean(period_at, repeats: int) -> np.ndarray:
    """The mean of the periods ``period_at(k)``, k < ``repeats``, each
    made only when it is added.  They are added in order into a float64
    sum that starts at 0, and the sum is divided by ``repeats``: bit for
    bit numpy's mean of the stacked periods along axis 0, -0.0 included.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    total = np.add(0.0, period_at(0), dtype=np.float64)
    for k in range(1, repeats):
        total += period_at(k)
    total /= repeats
    return total


def noisy_period_mean(
    steady: np.ndarray, noise_rms: float, rng, repeats: int
) -> np.ndarray:
    """Bit for bit, the mean of the last ``repeats`` periods of
    ``add_noise(np.tile(steady, repeats + 1), noise_rms, rng)``, which is
    the average :func:`recover_impulse_response` takes, without that
    recording.  Each period's noise is drawn by :func:`add_noise` as
    :func:`period_mean` adds the period, which gives ``rng`` (a seed or
    Generator) the same normals as one draw; the warm-up period is drawn
    and dropped.  At most two periods are held.
    """
    rng = np.random.default_rng(rng)
    add_noise(steady, noise_rms, rng)  # the warm-up period
    return period_mean(lambda k: add_noise(steady, noise_rms, rng), repeats)


def correlate_period(period: np.ndarray, excitation: ExcitationSignal) -> np.ndarray:
    """The plant impulse response from one averaged steady period.

    Circular cross-correlation with the excitation inverts the
    convolution.  It is a fast Walsh-Hadamard transform: the period is
    scattered into a ``2**order`` buffer by the excitation's column
    permutation, transformed one bit per stage with additions and
    subtractions, and gathered by its row permutation (Cohn & Lempel,
    IEEE Trans. Inf. Theory 23(1), 1977; Borish & Angell, JAES 31(7),
    1983).  A +1 sample is bit 1, which the transform counts as -1,
    hence the sign of the scale.  Because the MLS autocorrelation's
    off-peak value is -1 rather than 0, the correlation scaled by
    1/(length+1) recovers every tap offset by -sum(h)/(length+1); the
    offset is removed exactly by adding the sum of the biased estimate
    (the bias makes that sum equal sum(h)/(length+1)).  Raises
    ValueError if the excitation is not an m-sequence.
    """
    length = excitation.length
    if period.shape != (length,):
        raise ValueError(f"period of shape {period.shape}, need ({length},)")
    cols, rows = excitation._hadamard_permutations
    a = np.zeros(length + 1)
    a[cols] = period
    # constant-geometry stages: each transforms the lowest index bit and
    # rotates it to the top, so after ``order`` stages the order is natural
    b, half = np.empty_like(a), a.shape[0] // 2
    for _ in range(excitation.order):
        np.add(a[0::2], a[1::2], out=b[:half])
        np.subtract(a[0::2], a[1::2], out=b[half:])
        a, b = b, a
    corr = a[rows] * (-1.0 / (length + 1))
    return corr + corr.sum()


def recover_impulse_response(
    recorded: np.ndarray,
    excitation: ExcitationSignal,
    repeats: int = DEFAULTS.repeats,
) -> np.ndarray:
    """Recover the plant impulse response from a repeated-MLS recording.

    The first period is discarded as warm-up; :func:`period_mean`
    averages the remaining ``repeats`` period slices sample-wise, one
    slice at a time and with no float64 copy of the recording
    (synchronous addition, suppressing uncorrelated noise by
    1/sqrt(repeats)); :func:`correlate_period` then inverts the
    convolution.  Raises ValueError if the excitation is not an m-sequence.
    """
    rec = np.asarray(recorded)
    length = excitation.length
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if rec.ndim != 1:
        raise ValueError(f"recording must be one-dimensional, got shape {rec.shape}")
    need = (repeats + 1) * length
    if rec.shape[0] < need:
        raise ValueError(
            f"recording holds {rec.shape[0]} samples, need at least {need} "
            f"({repeats + 1} periods of {length})"
        )
    return correlate_period(period_mean(lambda k: rec[(k + 1) * length : (k + 2) * length],
                                        repeats), excitation)


def trim_pre_rise(
    ir: np.ndarray, threshold_fraction: float = DEFAULTS.trim_threshold
) -> np.ndarray:
    """Drop everything before the response rises above a peak fraction.

    The cut lands at the first sample whose magnitude reaches
    ``threshold_fraction`` of the peak magnitude, so takes with different
    acoustic/latency delays align to a common start.  Returns the view
    ``ir[start:]``.
    """
    if not (0.0 < threshold_fraction < 1.0):
        raise ValueError(f"threshold_fraction must be in (0, 1), got {threshold_fraction}")
    mags = np.abs(ir)
    peak = mags.max()
    if peak == 0.0:
        raise ValueError("cannot trim an all-zero response")
    start = int(np.argmax(mags >= threshold_fraction * peak))
    return ir[start:]


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def minimum_phase(ir: np.ndarray) -> np.ndarray:
    """Minimum-phase sequence with the same magnitude spectrum.

    The log magnitude and the phase of a minimum-phase system form a
    Hilbert-transform pair; folding the real cepstrum onto its causal
    half realizes that relation without an explicit Hilbert kernel (the
    homomorphic construction of Oppenheim & Schafer, *Discrete-Time
    Signal Processing*, ch. 13).  Every signal in the construction is
    real, so it runs on half spectra (``rfft``/``irfft``), in place.
    Magnitude bins below ``MIN_PHASE_FLOOR`` of the peak are clamped
    before the log, the standard safeguard against true spectral nulls;
    a peak so small that the floor underflows to 0 raises ValueError.

    The transform length n_fft, which sets the cepstral aliasing, is
    twice the input length rounded up to a power of two, at least 4096;
    the output keeps the full n_fft length so its magnitude spectrum can
    be compared bin-for-bin against the padded input.  The folded
    cepstrum of a finite response is infinitely long, so any n_fft
    aliases its tail.  For the 65,535-sample responses of MLS order 16
    n_fft is 131,072 points.  On the criterion-7 cohort the finished features
    (peak about 0.35) lie within 4.8e-4 max-abs of an n_fft of 2**22 on
    take 0 of each subject, and within 4.7e-4 of an 8x n_fft, four
    times the transform, over all 40 takes.
    """
    n_fft = max(4096, _next_pow2(2 * len(ir)))
    spec = np.fft.rfft(ir, n_fft)
    mag = np.abs(spec)
    peak = mag.max()
    # a floor of 0 would leave the log of a null at -inf
    if MIN_PHASE_FLOOR * peak <= 0.0:
        raise ValueError(
            f"cannot take the minimum phase of a response whose peak spectral "
            f"magnitude {peak:g} is too small: {MIN_PHASE_FLOOR:g} of it underflows to 0"
        )
    # Callers run this on several takes at once, so each buffer is freed
    # as soon as the next exists.  The log magnitude goes into the
    # spectrum's real part, which spares irfft a real-to-complex copy.
    np.maximum(mag, MIN_PHASE_FLOOR * peak, out=mag)
    np.log(mag, out=spec.real)
    spec.imag = 0.0
    del mag
    cep = np.fft.irfft(spec, n_fft)
    del spec
    # fold: keep c[0] (and c[n_fft/2] for even n_fft), double the causal
    # half, zero the anticausal half
    cep[1 : (n_fft + 1) // 2] *= 2.0
    cep[n_fft // 2 + 1 :] = 0.0
    spec = np.fft.rfft(cep)
    del cep
    np.exp(spec, out=spec)
    return np.fft.irfft(spec, n_fft)


def applied_band(sample_rate: int, low_hz: float, high_hz: float) -> tuple:
    """Resolve requested band edges against the Nyquist limit.

    Returns ``(low, high, clamped)``.  A high edge in the top 1% below
    Nyquist is clamped to 0.99*Nyquist, where the bilinear design is
    still well conditioned; an edge at or beyond Nyquist is an error
    rather than a clamp.
    """
    nyq = sample_rate / 2.0
    if low_hz <= 0:
        raise ValueError(f"low edge must be positive, got {low_hz}")
    if high_hz >= nyq:
        raise ValueError(f"high edge {high_hz} Hz is at or beyond Nyquist ({nyq} Hz)")
    high = min(high_hz, 0.99 * nyq)
    if low_hz >= high:
        raise ValueError(f"band edges out of order: ({low_hz}, {high_hz}) at fs {sample_rate}")
    return float(low_hz), float(high), high != high_hz


def butterworth_bandpass(
    ir: np.ndarray,
    low_hz: float = DEFAULTS.band_low_hz,
    high_hz: float = DEFAULTS.band_high_hz,
    filter_order: int = DEFAULTS.filter_order,
    sample_rate: int = DEFAULTS.sample_rate,
) -> np.ndarray:
    """Forward-only digital Butterworth bandpass.

    ``filter_order`` is the total bandpass order (poles), so it must be
    even; the -3 dB points land on the requested edges because the
    bilinear transform pre-warps the design frequencies.  It convolves
    with the filter's impulse response, its tail cut, in time linear in
    the input length; :func:`response_feature` passes only what it keeps.
    """
    if filter_order < 2 or filter_order % 2 != 0:
        raise ValueError(f"filter_order must be a positive even integer, got {filter_order}")
    low, high, _clamped = applied_band(sample_rate, low_hz, high_hz)
    # output sample n is one dot product of x[:n + 1] with the first n + 1
    # response samples (less the cut tail), so a prefix gives what the whole gives there
    h = _bandpass_impulse_response(sample_rate, low, high, filter_order, ir.shape[0])
    return np.convolve(ir, h)[: ir.shape[0]]


def _butter_sections(sample_rate: int, low: float, high: float, filter_order: int):
    """Digital Butterworth bandpass of total order ``filter_order``, -3 dB
    at ``low`` and ``high`` Hz: a gain and, per pole pair, one section
    ``(b1, b2, a1, a2)``, (1 + b1/z + b2/z**2) / (1 + a1/z + a2/z**2).

    The analog low-pass prototype's poles, pre-warped band edges, the
    low-pass to band-pass substitution, then the bilinear transform
    (Oppenheim & Schafer, *Discrete-Time Signal Processing*, ch. 7), as in
    scipy.signal.butter; the poles are never multiplied out, which would move them.
    """
    order = filter_order // 2
    # prototype: poles evenly spaced on the left half of the unit circle
    p = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64) / (2 * order))
    # pre-warp, with frequencies in half-cycles per sample (fs = 2)
    warped = 2 * 2.0 * np.tan(np.pi * (np.array([low, high]) / (sample_rate / 2)) / 2.0)
    bw = warped[1] - warped[0]
    wo = np.sqrt(warped[0] * warped[1])
    # low-pass to band-pass: each pole splits into two, shifted to +-wo;
    # the band-pass gains ``order`` zeros at s = 0
    p_lp = p * bw / 2
    p_bp = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2), p_lp - np.sqrt(p_lp**2 - wo**2)))
    # bilinear transform: s = 0 maps to z = 1 and the zeros at infinity
    # to z = -1 (Nyquist)
    p_z = (4.0 + p_bp) / (4.0 - p_bp)
    radius = float(np.abs(p_z).max())
    if radius >= 1.0:  # the recursion would grow without bound
        raise ValueError(f"the order-{filter_order} bandpass over ({low:g}, {high:g}) Hz at "
                         f"fs {sample_rate} is unstable (pole modulus {radius:.6f}); "
                         "lower filter_order or widen the band")
    k = bw**order * np.real(4.0**order / np.prod(4.0 - p_bp))
    # a section per conjugate pair, or for the two real poles of an odd order on a wide
    # band; by pole angle the lower half take both zeros at z = 1, the upper half both at
    # -1, and an odd middle section one of each: it runs first (last, it cost 6e-9 of peak)
    real = p_z[p_z.imag == 0].real
    pairs = [(q, q.conjugate()) for q in p_z[p_z.imag > 0]] + ([tuple(real)] if real.size else [])
    pairs.sort(key=lambda pair: abs(np.angle(pair[0])) + abs(np.angle(pair[1])))
    half, odd = divmod(len(pairs), 2)
    pairs = pairs[half : half + odd] + pairs[:half] + pairs[half + odd :]
    zeros = [(0.0, -1.0)] * odd + [(-2.0, 1.0)] * half + [(2.0, 1.0)] * half
    return float(k), [(b1, b2, float(-(q + r).real), float((q * r).real))
                      for (b1, b2), (q, r) in zip(zeros, pairs)]


@functools.lru_cache(maxsize=16)
def _bandpass_impulse_response(sample_rate: int, low: float, high: float, filter_order: int,
                               length: int) -> np.ndarray:
    """The first ``length`` impulse-response samples, read-only, less a
    tail summing below 2**-60 of the peak (4,129 samples remain of the
    default design's).  Cached: every take of a run uses one design."""
    k, sections = _butter_sections(sample_rate, low, high, filter_order)
    h = [k] + [0.0] * (length - 1)
    # one section after another: y[n] = x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
    for b1, b2, a1, a2 in sections:
        x1 = x2 = y1 = y2 = 0.0
        for i, x in enumerate(h):
            y = x + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
            h[i], x1, x2, y1, y2 = y, x, x1, y, y1
    tail = np.cumsum(np.abs(h)[::-1])[::-1]  # sum of |h[n:]|; a NaN cuts nothing
    return readonly_view(h[: length - np.count_nonzero(tail < 2.0**-60 * np.abs(h).max())])


def normalize_power(x: np.ndarray) -> np.ndarray:
    """Scale so the total signal power sums to exactly 1.

    Raises ValueError on a power that is zero or not finite; a NaN or inf
    sample anywhere makes the sum of squares non-finite.
    """
    power = float(np.sum(x * x))
    if power == 0.0:
        raise ValueError("cannot normalize a zero-energy response")
    if not np.isfinite(power):
        raise ValueError(f"cannot normalize a response of non-finite power {power}")
    return x / np.sqrt(power)


def response_feature(
    ir: np.ndarray,
    trim_threshold: float = DEFAULTS.trim_threshold,
    low_hz: float = DEFAULTS.band_low_hz,
    high_hz: float = DEFAULTS.band_high_hz,
    filter_order: int = DEFAULTS.filter_order,
    feature_length: int = DEFAULTS.feature_length,
    sample_rate: int = DEFAULTS.sample_rate,
) -> np.ndarray:
    """Full feature chain: trim, minimum phase, bandpass, fixed length,
    unit power.

    Truncation to ``feature_length`` happens before the bandpass, so the
    filter runs only over the samples the feature keeps; zero-padding (if
    the response is shorter) follows the bandpass, and normalization
    comes last so the finished feature has unit power over a time axis
    shared by every take.
    """
    if feature_length < 1:
        raise ValueError(f"feature_length must be positive, got {feature_length}")
    out = trim_pre_rise(ir, trim_threshold)
    out = minimum_phase(out)
    x = butterworth_bandpass(out[:feature_length], low_hz, high_hz, filter_order, sample_rate)
    if x.shape[0] < feature_length:
        x = np.concatenate([x, np.zeros(feature_length - x.shape[0])])
    return normalize_power(x)


def _similarity_blocks(feats: np.ndarray, takes: np.ndarray) -> tuple:
    """(m, m) mean and population std of the similarity over each
    subject pair's take pairs; ``feats`` holds subject s's ``takes[s]``
    takes in consecutive rows.  The similarity of two takes is their
    time-aligned cosine; every take pair is a cell of one Gram product,
    and every subject pair a block of it.
    """
    if feats.shape[1] < 1:
        raise ValueError("features must be nonempty")
    norms = np.linalg.norm(feats, axis=1)
    if (norms == 0.0).any():
        raise ValueError("cosine similarity is undefined for a zero-norm operand")
    sims = feats @ feats.T / np.outer(norms, norms)
    starts = np.cumsum(takes) - takes
    pairs = np.outer(takes, takes)

    def block_sums(x):
        return np.add.reduceat(np.add.reduceat(x, starts, axis=0), starts, axis=1)

    means = block_sums(sims) / pairs
    dev = sims - np.repeat(np.repeat(means, takes, axis=0), takes, axis=1)
    return means, np.sqrt(block_sums(dev * dev) / pairs)


def acoustic_similarity(f_a, f_b) -> float:
    """Cosine similarity of two features, truncated to the shorter: the
    matrix computation of :func:`_similarity_blocks` on one take each."""
    a, b = np.asarray(f_a, dtype=np.float64), np.asarray(f_b, dtype=np.float64)
    n = min(a.shape[0], b.shape[0])
    means, _ = _similarity_blocks(np.stack([a[:n], b[:n]]), np.ones(2, np.int64))
    return float(means[0, 1])


def acoustic_similarity_matrix(features):
    """Inter-subject similarity from ``(subject_id, take_index, feature)``
    triples, all features of one length: each cell holds the mean cosine
    over the cross-subject take pairs and its population std."""
    by_subject: dict = {}
    for sid, _take, feat in features:
        by_subject.setdefault(sid, []).append(np.asarray(feat, dtype=np.float64))
    ids = list(by_subject)
    if len(ids) < 2:
        raise ValueError("need at least 2 subjects for a similarity matrix")
    takes = np.array([len(by_subject[sid]) for sid in ids])
    # np.stack raises ValueError on features of unequal length
    feats = np.stack([f for sid in ids for f in by_subject[sid]])
    means, stds = _similarity_blocks(feats, takes)
    return SimilarityMatrix(tuple(ids), mirror_upper(means), stds=mirror_upper(stds))
