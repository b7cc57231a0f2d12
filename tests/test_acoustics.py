"""MLS measurement chain, feature extraction, and acoustic similarity."""

import re
import tracemalloc

import numpy as np
import pytest

from earcanal.acoustics import (
    MIN_PHASE_FLOOR,
    ExcitationSignal,
    acoustic_similarity,
    acoustic_similarity_matrix,
    add_noise,
    applied_band,
    butterworth_bandpass,
    correlate_period,
    generate_mls,
    minimum_phase,
    noisy_period_mean,
    normalize_power,
    period_mean,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
    trim_pre_rise,
    _bandpass_impulse_response,
    _butter_sections,
)
from earcanal.config import DEFAULTS
from earcanal.synth import generate_plant, make_subject_family


def ir(samples):
    return np.asarray(samples, dtype=np.float64)


def signal_from_roots(radii_angles, gain=1.0):
    """Real FIR coefficients from conjugate root pairs (radius, angle)."""
    roots = []
    for r, a in radii_angles:
        roots.extend([r * np.exp(1j * a), r * np.exp(-1j * a)])
    return gain * np.real(np.poly(roots))


def test_mls_length_and_levels():
    for order in (2, 3, 8, 12):
        mls = generate_mls(order)
        assert mls.length == 2**order - 1
        assert np.all(np.abs(mls.samples) == 1.0)
        assert mls.samples.sum() == 1.0  # one extra +1 per period


def test_mls_order_bounds():
    with pytest.raises(ValueError):
        generate_mls(1)
    with pytest.raises(ValueError):
        generate_mls(25)


def test_mls_circular_autocorrelation_two_valued():
    mls = generate_mls(3).samples  # short enough for the direct double sum
    L = len(mls)
    for lag in range(L):
        acf = sum(mls[n] * mls[(n + lag) % L] for n in range(L))
        assert acf == (L if lag == 0 else -1.0)


def test_mls_is_reproducible():
    np.testing.assert_array_equal(generate_mls(10).samples, generate_mls(10).samples)


def complex_fft_minimum_phase(x, n_fft):
    """Reference cepstral fold on full complex spectra, the construction
    ``minimum_phase`` computes on half spectra."""
    mag = np.abs(np.fft.fft(x, n_fft))
    cep = np.fft.ifft(np.log(np.maximum(mag, MIN_PHASE_FLOOR * mag.max()))).real
    fold = np.zeros(n_fft)
    fold[0] = cep[0]
    fold[1 : (n_fft + 1) // 2] = 2.0 * cep[1 : (n_fft + 1) // 2]
    if n_fft % 2 == 0:
        fold[n_fft // 2] = cep[n_fft // 2]
    return np.fft.ifft(np.exp(np.fft.fft(fold))).real


def test_excitation_validation():
    with pytest.raises(ValueError):
        ExcitationSignal(np.ones(6), order=3)  # 2**3 - 1 = 7
    with pytest.raises(ValueError):
        ExcitationSignal(np.array([1.0, -1.0, 0.5, 1, 1, 1, 1]), order=3)


def test_second_period_is_circular_convolution():
    mls = generate_mls(6)
    h = np.array([1.0, -0.4, 0.2, 0.05])
    rec = simulate_measurement(mls, ir(h), repeats=2)
    circ = np.real(np.fft.ifft(np.fft.fft(mls.samples)
                               * np.fft.fft(h, mls.length)))
    L = mls.length
    np.testing.assert_allclose(rec[L:2 * L], circ, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rec[2 * L:3 * L], circ, rtol=0, atol=1e-12)


def test_simulate_rejects_bad_inputs():
    mls = generate_mls(4)
    with pytest.raises(ValueError):
        simulate_measurement(mls, ir(np.ones(16)))  # longer than one period
    with pytest.raises(ValueError):
        simulate_measurement(mls, ir([1.0]), repeats=0)


def test_simulate_noise_is_seed_deterministic():
    rec = simulate_measurement(generate_mls(5), ir([1.0, 0.3]))
    a = add_noise(rec, 0.1, 42)
    b = add_noise(rec, 0.1, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_simulate_is_the_noiseless_recording_plus_noise():
    mls = generate_mls(8)
    plant = ir(0.7 ** np.arange(40))
    clean = simulate_measurement(mls, plant, repeats=3)
    for seed in range(3):
        noise = np.random.default_rng(seed).normal(0.0, 0.2, size=clean.shape)
        np.testing.assert_array_equal(add_noise(clean, 0.2, seed), clean + noise)


def test_add_noise_validation():
    rec = np.ones(8)
    assert add_noise(rec, 0.0, 1) is rec
    with pytest.raises(ValueError):
        add_noise(rec, -0.1, 1)


def test_recovery_is_exact_without_noise():
    mls = generate_mls(8)
    rng = np.random.default_rng(0)
    h = rng.normal(size=100)
    rec = simulate_measurement(mls, ir(h), repeats=3)
    out = recover_impulse_response(rec, mls, repeats=3)
    np.testing.assert_allclose(out[:100], h, rtol=0, atol=1e-10)
    np.testing.assert_allclose(out[100:], np.zeros(mls.length - 100),
                               rtol=0, atol=1e-10)


def test_recovery_restores_the_dc_component():
    # all-positive plant: the correlation bias is proportional to sum(h),
    # which is as large as it gets relative to the taps here
    mls = generate_mls(7)
    h = np.full(20, 0.5)
    rec = simulate_measurement(mls, ir(h), repeats=2)
    out = recover_impulse_response(rec, mls, repeats=2)
    np.testing.assert_allclose(out[:20], h, rtol=0, atol=1e-11)


def test_recovery_matches_direct_correlation():
    # independent reference: time-domain circular correlation, direct sums
    mls = generate_mls(4)
    L = mls.length
    h = np.array([0.9, -0.2, 0.4, 0.0, 0.1])
    rec = simulate_measurement(mls, ir(h), repeats=2)
    avg = (rec[L:2 * L] + rec[2 * L:3 * L]) / 2.0
    corr = np.array([
        sum(avg[n] * mls.samples[(n - k) % L] for n in range(L))
        for k in range(L)
    ]) / (L + 1)
    expected = corr + corr.sum()
    got = recover_impulse_response(rec, mls, repeats=2)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[:5], h, rtol=0, atol=1e-12)


def test_recovery_needs_enough_periods():
    mls = generate_mls(4)
    with pytest.raises(ValueError):
        recover_impulse_response(np.zeros(3 * mls.length - 1), mls, repeats=2)
    with pytest.raises(ValueError):
        recover_impulse_response(np.zeros(4 * mls.length), mls, repeats=0)
    for period in (np.zeros(1), np.zeros(mls.length + 1), np.zeros((1, mls.length))):
        with pytest.raises(ValueError, match="period of shape"):
            correlate_period(period, mls)
    with pytest.raises(ValueError, match="repeats"):
        noisy_period_mean(np.zeros(mls.length), 0.1, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        noisy_period_mean(np.zeros(mls.length), -0.1, 0, 2)


@pytest.mark.parametrize("shape", [(), (2, 30)])
def test_recovery_rejects_a_recording_that_is_not_one_dimensional(shape):
    # a (2, 30) recording holds 60 samples in 2 rows, not 2 samples
    with pytest.raises(ValueError, match=rf"one-dimensional, got shape {re.escape(str(shape))}"):
        recover_impulse_response(np.ones(shape), generate_mls(3), 1)


def test_period_mean_is_numpys_mean_over_the_periods():
    rng = np.random.default_rng(4)
    for repeats in range(1, 7):
        rows = rng.normal(size=(repeats, 40))
        rows[rng.random(rows.shape) < 0.5] = -0.0
        rows[:, :3] = -0.0  # columns that are -0.0 in every period
        pcm = rng.integers(-32768, 32768, size=(repeats, 40)).astype(np.int16)
        for periods in (rows, pcm):
            got = period_mean(lambda k: periods[k], repeats)
            assert got.tobytes() == periods.mean(axis=0).tobytes(), (repeats, periods.dtype)
        assert np.signbit(rows[0, 0])  # the first period is left as it was
    # a recording holding -0.0 samples recovers what the mean of its
    # stacked periods does
    mls = generate_mls(3)
    for repeats in range(1, 5):
        need = (repeats + 1) * mls.length
        rec = rng.normal(size=need + 2)
        rec[rng.random(need + 2) < 0.5] = -0.0
        want = correlate_period(rec[mls.length:need].reshape(repeats, -1).mean(axis=0), mls)
        got = recover_impulse_response(rec, mls, repeats)
        assert got.tobytes() == want.tobytes(), repeats


def test_noise_and_average_peaks_below_one_recording():
    mls = generate_mls(14)
    steady = simulate_measurement(mls, ir(0.9 ** np.arange(512)), 1)[mls.length:]
    repeats = DEFAULTS.repeats
    # made untraced: the first Generator of a process imports modules
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        noisy_period_mean(steady, 0.5, rng, repeats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the noisy recording that add_noise makes before averaging
    assert peak < (repeats + 1) * mls.length * 8


def test_hadamard_permutations_are_bijections():
    for order in range(2, 21):
        cols, rows = generate_mls(order)._hadamard_permutations
        assert cols.dtype == rows.dtype == np.int32
        # every nonzero m-bit window once; index 0 stays out of the gather
        nonzero = np.arange(1, 2**order)
        np.testing.assert_array_equal(np.sort(cols), nonzero)
        np.testing.assert_array_equal(np.sort(rows), nonzero)


def direct_correlation(avg, samples):
    """sum_n avg[n] s[n - k] for every lag k, from the circulant matrix."""
    L = samples.shape[0]
    lags = (np.arange(L)[None, :] - np.arange(L)[:, None]) % L
    corr = samples[lags] @ avg / (L + 1)
    return corr + corr.sum()


@pytest.mark.parametrize("order", [2, 3, 5, 8, 9])
def test_recovery_of_any_m_sequence_is_the_direct_correlation(order):
    # the reversed sequence is the m-sequence of the reciprocal primitive
    # polynomial; a shift starts the register elsewhere
    base = generate_mls(order).samples
    rng = np.random.default_rng(order)
    for samples in (base, base[::-1], np.roll(base, 3 * order)):
        mls = ExcitationSignal(samples.copy(), order)
        L = mls.length
        rec = rng.normal(size=3 * L)
        want = direct_correlation((rec[L:2 * L] + rec[2 * L:]) / 2.0, mls.samples)
        got = recover_impulse_response(rec, mls, repeats=2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# the lexicographically least de Bruijn sequence of order 5 with one 0
# dropped from its run of five: every nonzero 5-bit window once, as in an
# m-sequence, but no linear recurrence yields it
DE_BRUIJN_5 = np.array([int(c) for c in "0000100011001010011101011011111"]) * 2.0 - 1.0


def test_recovery_rejects_a_sequence_that_is_not_an_m_sequence():
    mls = generate_mls(5)
    for samples, reason in [
        (DE_BRUIJN_5, "not linear"),
        (-mls.samples, "window repeats"),  # the all-zero window appears
        (np.random.default_rng(0).choice([-1.0, 1.0], 31), "window repeats"),
    ]:
        excitation = ExcitationSignal(samples, 5)  # still constructs
        with pytest.raises(ValueError, match=reason):
            recover_impulse_response(np.zeros(3 * 31), excitation, repeats=2)


def test_averaging_suppresses_noise():
    mls = generate_mls(10)
    h = np.array([1.0, 0.5, 0.25])
    res = {}
    for repeats in (1, 9):
        rec = add_noise(simulate_measurement(mls, ir(h), repeats=repeats), 0.1, 7)
        got = recover_impulse_response(rec, mls, repeats=repeats)
        res[repeats] = np.sqrt(np.mean((got[3:] - 0.0) ** 2))
    # nine averages cut the noise floor ~3x; allow wide slack
    assert res[9] < 0.6 * res[1]


def test_trim_cuts_at_the_rise():
    out = trim_pre_rise(ir([0.001, -0.02, 0.5, 1.0, 0.2]))
    np.testing.assert_array_equal(out, [0.5, 1.0, 0.2])


def test_trim_threshold_is_a_peak_fraction():
    out = trim_pre_rise(ir([0.3, 2.0, 1.0]), threshold_fraction=0.2)
    np.testing.assert_array_equal(out, [2.0, 1.0])  # 0.3 < 0.2*2.0
    out = trim_pre_rise(ir([0.5, 2.0, 1.0]), threshold_fraction=0.2)
    np.testing.assert_array_equal(out, [0.5, 2.0, 1.0])


def test_trim_validation():
    with pytest.raises(ValueError):
        trim_pre_rise(ir(np.zeros(8)))
    with pytest.raises(ValueError):
        trim_pre_rise(ir([1.0]), threshold_fraction=0.0)
    with pytest.raises(ValueError):
        trim_pre_rise(ir([1.0]), threshold_fraction=1.0)


def test_minimum_phase_flips_a_two_tap_maximum_phase_pair():
    out = minimum_phase(ir([1.0, 2.0]))
    np.testing.assert_allclose(out[:2], [2.0, 1.0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(out[2:], np.zeros(len(out) - 2),
                               rtol=0, atol=1e-9)


def test_minimum_phase_keeps_a_minimum_phase_pair():
    out = minimum_phase(ir([2.0, 1.0]))
    np.testing.assert_allclose(out[:2], [2.0, 1.0], rtol=0, atol=1e-9)


def test_minimum_phase_preserves_magnitude_spectrum():
    sig = signal_from_roots([(0.7, 0.9), (0.4, 2.1), (1.6, 0.5)], gain=0.8)
    src = ir(sig)
    out = minimum_phase(src)
    assert len(out) == 4096
    got = np.abs(np.fft.rfft(out))
    want = np.abs(np.fft.rfft(src, 4096))
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_minimum_phase_front_loads_energy():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pairs = [(float(rng.uniform(*lim)), float(rng.uniform(0.1, np.pi - 0.1)))
                 for lim in rng.choice([(0.2, 0.85), (1.18, 5.0)], size=3)]
        sig = signal_from_roots(pairs)
        sig /= np.linalg.norm(sig)  # unit energy so the tolerance is absolute
        out = minimum_phase(ir(sig))
        padded = np.zeros(4096)
        padded[:len(sig)] = sig
        lead = np.cumsum(out * out) - np.cumsum(padded * padded)
        assert lead.min() >= -1e-9


def test_minimum_phase_default_fft_length():
    out = minimum_phase(ir(np.ones(10)))
    assert len(out) == 4096  # max(4096, 2**ceil(log2(20)))
    out = minimum_phase(ir(signal_from_roots([(0.5, 1.0)] * 400)))
    assert len(out) == 4096  # 2 * 801 rounds up to 2048, below the floor
    out = minimum_phase(ir(0.99 ** np.arange(3000)))
    assert len(out) == 8192  # 2 * 3000 rounds up to 8192


@pytest.mark.filterwarnings("error")
def test_minimum_phase_rejects_a_response_too_small_to_clamp():
    # the clamp floor, 1e-10 of a subnormal peak, underflows to 0, which
    # would leave the log of a spectral null at -inf
    with pytest.raises(ValueError, match="too small"):
        minimum_phase(ir([5e-324, -5e-324, 1e-323]))
    with pytest.raises(ValueError, match="too small"):
        minimum_phase(ir(np.zeros(8)))


def test_default_fft_length_stays_near_the_eightfold_transform():
    # The default n_fft (2x the trimmed response) aliases more of the
    # cepstrum than the 8x rule it replaced; on one take of each
    # criterion-7 subject the features stay within the stated tolerance.
    excitation = generate_mls(DEFAULTS.mls_order)
    for sidx, spec in enumerate(make_subject_family(0)):
        clean = simulate_measurement(excitation, generate_plant(spec.plant), DEFAULTS.repeats)
        recording = add_noise(clean, 0.5, [0, sidx, 0])
        raw = recover_impulse_response(recording, excitation, DEFAULTS.repeats)
        trimmed = trim_pre_rise(raw)
        got = response_feature(raw)
        n_fft = max(4096, 1 << (8 * len(trimmed) - 1).bit_length())
        # the chain of response_feature, with the reference fold at 8x
        eightfold = normalize_power(butterworth_bandpass(
            complex_fft_minimum_phase(trimmed, n_fft)[: DEFAULTS.feature_length]))
        assert float(np.abs(got - eightfold).max()) <= 6e-4
        assert float(got @ eightfold) >= 0.99999  # both have unit power


def test_minimum_phase_matches_the_complex_fft_fold():
    rng = np.random.default_rng(7)
    cases = [rng.normal(size=n) * np.exp(-np.arange(n) / (n / 4)) for n in (10, 300)]
    cases.append(np.array([1.0, -1.0]))  # a true null at DC: the floor applies
    worst = 0.0
    for x in cases:
        out = minimum_phase(ir(x))
        ref = complex_fft_minimum_phase(x, len(out))
        worst = max(worst, float(np.abs(out - ref).max()))
    assert worst <= 1e-12


def test_band_clamp_near_nyquist():
    low, high, clamped = applied_band(44100, 100.0, 22000.0)
    assert (low, high, clamped) == (100.0, 21829.5, True)  # 0.99 * 22050
    low, high, clamped = applied_band(44100, 100.0, 20000.0)
    assert (low, high, clamped) == (100.0, 20000.0, False)


def test_band_validation():
    with pytest.raises(ValueError):
        applied_band(44100, 100.0, 22050.0)  # at Nyquist
    with pytest.raises(ValueError):
        applied_band(44100, 100.0, 30000.0)  # beyond
    with pytest.raises(ValueError):
        applied_band(44100, 0.0, 1000.0)
    with pytest.raises(ValueError):
        applied_band(8000, 3960.1, 3970.0)  # low above the clamped high


def test_bandpass_frequency_response():
    # drive with a unit impulse and read the filter's own response
    pulse = np.zeros(16384)
    pulse[0] = 1.0
    out = butterworth_bandpass(ir(pulse),
                               low_hz=400.0, high_hz=4000.0, filter_order=4)
    spec = np.abs(np.fft.rfft(out))
    freqs = np.fft.rfftfreq(16384, d=1 / 44100)

    def mag_at(f):
        return spec[np.argmin(np.abs(freqs - f))]

    assert mag_at(1265.0) > 0.98  # geometric center of the band
    np.testing.assert_allclose(mag_at(400.0), np.sqrt(0.5), rtol=0.02)
    np.testing.assert_allclose(mag_at(4000.0), np.sqrt(0.5), rtol=0.02)
    assert mag_at(40.0) < 0.01
    assert mag_at(20000.0) < 0.01
    assert spec[0] < 1e-12  # DC is exactly nulled by the bandpass zeros


def test_bandpass_order_is_total_pole_count():
    # one section of two poles each; an odd half order on the wide band
    # leaves two real poles, which share a section
    for band in ((400.0, 4000.0), (100.0, 21829.5), (20.0, 1000.0)):
        for total in (2, 4, 6, 8, 40, 64):
            _k, sections = _butter_sections(44100, *band, total)
            assert 2 * len(sections) == total


def test_unstable_bandpass_design_is_rejected():
    # the poles of orders 8 and 12 over (20, 1000) Hz lie within 0.0011
    # of the unit circle, and the responses decay: the tail below 2**-60
    # of the peak is cut before 2**17 samples
    for total in (8, 12):
        h = _bandpass_impulse_response(44100, 20.0, 1000.0, total, 1 << 17)
        assert h.shape[0] < 1 << 17 and np.isfinite(h).all()
    # a low edge of 1e-30 Hz rounds a pole onto the unit circle
    with pytest.raises(ValueError, match=r"order-4 bandpass over \(1e-30, 21829.5\) Hz at fs "
                                         r"44100 is unstable \(pole modulus 1.000000\)"):
        butterworth_bandpass(ir(np.ones(64)), 1e-30)


def test_bandpass_tail_cut_is_below_rounding():
    low, high, _clamped = applied_band(44100, DEFAULTS.band_low_hz, DEFAULTS.band_high_hz)
    # however long the input, the default design keeps a few thousand samples
    h = _bandpass_impulse_response(44100, low, high, DEFAULTS.filter_order, 1 << 17)
    assert 3000 < h.shape[0] < 6000
    # the uncut response over 2**14 samples, the sections run one after another
    n = 1 << 14
    k, sections = _butter_sections(44100, low, high, DEFAULTS.filter_order)
    uncut = [k] + [0.0] * (n - 1)
    for b1, b2, a1, a2 in sections:
        x1 = x2 = y1 = y2 = 0.0
        for i, x in enumerate(uncut):
            uncut[i] = y = x + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
            x1, x2, y1, y2 = x, x1, y, y1
    np.testing.assert_array_equal(h, uncut[: h.shape[0]])
    x = np.random.default_rng(5).normal(size=n) * 0.9995 ** np.arange(n)
    want = np.convolve(x, uncut)[:n]
    # 1.2e-17 of the peak measured
    assert float(np.abs(butterworth_bandpass(x) - want).max()) <= 1e-16 * np.abs(want).max()


def test_bandpass_validation():
    with pytest.raises(ValueError):
        butterworth_bandpass(ir([1.0]), filter_order=3)
    with pytest.raises(ValueError):
        butterworth_bandpass(ir([1.0]), filter_order=0)


def test_normalize_power_unit_sum_of_squares():
    feat = normalize_power(ir([3.0, 4.0]))
    np.testing.assert_array_equal(feat, [0.6, 0.8])
    assert float(np.sum(feat**2)) == 1.0


def test_normalize_validation():
    with pytest.raises(ValueError):
        normalize_power(ir(np.zeros(4)))


def test_response_feature_length_and_power():
    rng = np.random.default_rng(3)
    raw = ir(np.concatenate([np.zeros(50), signal_from_roots(
        [(0.6, 0.8), (0.8, 2.0)]), 0.001 * rng.normal(size=200)]))
    feat = response_feature(raw, feature_length=512)
    assert len(feat) == 512
    assert abs(float(np.sum(feat**2)) - 1.0) < 1e-12


def test_response_feature_pads_when_requested_longer():
    feat = response_feature(ir([1.0, 0.4, 0.2]), feature_length=5000)
    assert len(feat) == 5000
    np.testing.assert_array_equal(feat[4096:], np.zeros(904))


def test_response_feature_bandpasses_only_the_kept_prefix():
    rng = np.random.default_rng(11)
    raw = ir(np.concatenate([np.zeros(30), rng.normal(size=400) * 0.98 ** np.arange(400)]))
    for feature_length in (1, 256, 2048, 4096, 5000):
        got = response_feature(raw, feature_length=feature_length)
        # reference: bandpass the whole minimum-phase output, then truncate
        full = butterworth_bandpass(minimum_phase(trim_pre_rise(raw)))
        x = full[:feature_length]
        x = np.concatenate([x, np.zeros(feature_length - len(x))])
        want = normalize_power(ir(x))
        np.testing.assert_array_equal(got, want)


def test_response_feature_validation():
    with pytest.raises(ValueError):
        response_feature(ir([1.0, 0.5]), feature_length=0)
    # a non-finite sample makes the power non-finite, which normalize_power rejects
    with pytest.raises(ValueError, match="non-finite power"):
        response_feature(ir([1.0, np.nan, 0.5]))


def test_similarity_identities():
    a = np.array([0.6, 0.8])
    assert acoustic_similarity(a, a) == pytest.approx(1.0, abs=1e-15)
    assert acoustic_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert acoustic_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
        np.sqrt(0.5), rel=1e-15)


def test_similarity_truncates_to_shorter():
    assert acoustic_similarity([1.0, 0.0, 9.9], [1.0, 0.0]) == pytest.approx(1.0)


def test_similarity_validation():
    with pytest.raises(ValueError):
        acoustic_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        acoustic_similarity(np.empty(0), np.empty(0))


def matrix_fixture():
    f = {
        ("a", 0): [1.0, 0.0], ("a", 1): [1.0, 0.0],
        ("b", 0): [1.0, 1.0], ("b", 1): [1.0, 0.0],
        ("c", 0): [0.0, 1.0], ("c", 1): [0.0, -1.0],
    }
    return [(sid, take, np.array(v)) for (sid, take), v in f.items()]


def test_similarity_matrix_means_and_stds():
    m = acoustic_similarity_matrix(matrix_fixture())
    assert m.ids == ("a", "b", "c")
    r = np.sqrt(0.5)
    # four take pairs per cell: a x b = {r, 1, r, 1}, a x c = {0, 0, 0, 0}
    assert m.cell("a", "b") == pytest.approx((r + 1) / 2)
    assert m.cell("a", "c") == pytest.approx(0.0, abs=1e-15)
    assert m.cell("b", "c") == pytest.approx((r - r + 0 + 0) / 4)
    np.testing.assert_allclose(m.stds[0, 1],
                               np.std([r, 1.0, r, 1.0]), rtol=1e-12)
    np.testing.assert_array_equal(m.values, m.values.T)


def test_similarity_matrix_needs_two_subjects():
    with pytest.raises(ValueError):
        acoustic_similarity_matrix([("a", 0, np.ones(3))])


def test_full_chain_same_plant_is_self_similar():
    mls = generate_mls(10)
    plant = signal_from_roots([(0.8, 0.3), (0.6, 1.4)], gain=0.9)
    feats = []
    for take in range(2):
        rec = add_noise(simulate_measurement(mls, ir(plant), repeats=3), 0.001, take)
        rec_ir = recover_impulse_response(rec, mls, repeats=3)
        feats.append(response_feature(rec_ir, feature_length=256))
    assert acoustic_similarity(feats[0], feats[1]) > 0.999


def reference_similarity(a, b):
    """The per-pair body the Gram product replaced."""
    n = min(a.shape[0], b.shape[0])
    a, b = a[:n], b[:n]
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def reference_matrix(features):
    """The double loop over subject pairs and take pairs the Gram
    product replaced: (ids, means, stds)."""
    by_subject = {}
    for sid, _take, feat in features:
        by_subject.setdefault(sid, []).append(feat)
    ids = list(by_subject)
    m = len(ids)
    values = np.full((m, m), np.nan)
    stds = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(i + 1, m):
            sims = np.array([reference_similarity(fa, fb)
                             for fa in by_subject[ids[i]] for fb in by_subject[ids[j]]])
            values[i, j] = values[j, i] = sims.mean()
            stds[i, j] = stds[j, i] = sims.std()
    return tuple(ids), values, stds


# ids and data are those of the cosine cases when a second similarity
# was tested here too, so results compare across versions of the suite
@pytest.mark.parametrize("seed", range(4), ids="{}-vector".format)
def test_gram_product_matches_the_pair_loop(seed):
    rng = np.random.default_rng([seed, len("vector")])
    length = int(rng.integers(1, 64))
    features = []
    for s in range(5):
        for take in range(int(rng.integers(1, 7))):  # unequal take counts
            f = rng.normal(size=length)
            f[rng.random(length) < 0.25] = 0.0
            f[0] = 1.0 + rng.random()  # no zero feature, no disjoint support
            features.append((f"s{s}", take, f))
    features = [features[i] for i in rng.permutation(len(features))]
    m = acoustic_similarity_matrix(features)
    ids, values, stds = reference_matrix(features)
    assert m.ids == ids
    np.testing.assert_allclose(m.values, values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m.stds, stds, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(m.values, m.values.T)
    np.testing.assert_array_equal(m.stds, m.stds.T)
    a, b = features[0][2], features[1][2][: max(1, length // 2)]
    assert abs(acoustic_similarity(a, b) - reference_similarity(a, b)) <= 1e-12


def test_similarity_matrix_checks_only_cross_subject_pairs():
    feats = [("a", 0, np.array([1.0, 0.0])), ("a", 1, np.array([0.0, 1.0])),
             ("b", 0, np.array([1.0, -1.0])), ("c", 0, np.array([0.0, 0.0]))]
    with pytest.raises(ValueError, match="zero-norm"):
        acoustic_similarity_matrix(feats)


def test_similarity_matrix_needs_features_of_one_length():
    with pytest.raises(ValueError):
        acoustic_similarity_matrix([("a", 0, np.ones(3)), ("b", 0, np.ones(4))])
