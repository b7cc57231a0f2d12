"""The numpy signal code against scipy, the reference it replaced.

The package computes the MLS, the Butterworth design, the bandpass,
the measurement convolution and the WAV decoding itself; scipy is a
test dependency only.  Each replacement is pinned here to the scipy
call it stands in for, with the tolerance stated in the test, and the
WAV layouts scipy reads are run through the CLI.  The one-period
simulation and the Hadamard-transform recovery are pinned the same way
to copies of the tiled FFT simulation and odd-length FFT correlation
they replaced.
"""

import json
import struct

import numpy as np
import pytest
from scipy import signal
from scipy.io import wavfile

from earcanal import acoustics, cli
from earcanal.acoustics import (
    ExcitationSignal,
    add_noise,
    applied_band,
    butterworth_bandpass,
    generate_mls,
    minimum_phase,
    normalize_power,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
    trim_pre_rise,
)
from earcanal.cli import main
from earcanal.config import DEFAULTS
from earcanal.synth import generate_plant, make_subject_family


def relative_to_peak(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_mls_is_scipy_max_len_seq_for_every_order():
    for order in range(2, 25):
        bits, _state = signal.max_len_seq(order)
        # the samples are +-1 (ExcitationSignal checks), so the signs say it all
        assert np.array_equal(generate_mls(order).samples > 0, bits == 1), order


# the default band is clamped at 0.99 * Nyquist
BANDS = [(400.0, 4000.0), (DEFAULTS.band_low_hz, DEFAULTS.band_high_hz), (20.0, 1000.0)]


@pytest.mark.parametrize("total", [2, 4, 6, 8])
def test_butterworth_design_matches_scipy_butter(total):
    for low_hz, high_hz in BANDS:
        low, high, _clamped = applied_band(44100, low_hz, high_hz)
        b, a = acoustics._butter_bandpass(44100, low, high, total)
        want_b, want_a = signal.butter(total // 2, [low, high], btype="bandpass", fs=44100)
        assert relative_to_peak(b, want_b) <= 1e-13
        assert relative_to_peak(a, want_a) <= 1e-13
    assert applied_band(44100, DEFAULTS.band_low_hz, DEFAULTS.band_high_hz)[2]


# Above total order 4 the (b, a) recursion itself is ill-conditioned:
# on the default band at order 8, lfilter and this filter each deviate
# from an extended-precision run of that recursion by 1.4e-11 of the
# peak, and at order 8 on (20, 1000) Hz the design has a root of ``a``
# outside the unit circle.  So orders 6 and 8 are compared on the
# default band, order 8 to 1e-10.
@pytest.mark.parametrize("total, band, tolerance", [
    *[(total, band, 1e-12) for total in (2, 4) for band in BANDS[:2] + [(50.0, 10000.0)]],
    (6, BANDS[1], 1e-12),
    (8, BANDS[1], 1e-10),
])
def test_bandpass_matches_scipy_lfilter(total, band, tolerance):
    rng = np.random.default_rng(total)
    low, high, _clamped = applied_band(44100, *band)
    b, a = signal.butter(total // 2, [low, high], btype="bandpass", fs=44100)
    # a decaying response like the feature chain's, and plain noise
    for x in (rng.normal(size=2048) * 0.998 ** np.arange(2048), rng.normal(size=700)):
        got = butterworth_bandpass(x, *band, total)
        assert relative_to_peak(got, signal.lfilter(b, a, x)) <= tolerance


@pytest.mark.parametrize("order, taps, repeats", [(8, 1, 1), (12, 2048, 2), (16, 2048, 5)])
def test_simulate_matches_scipy_fftconvolve(order, taps, repeats):
    excitation = generate_mls(order)
    plant = np.random.default_rng(order).normal(size=taps) * 0.995 ** np.arange(taps)
    got = simulate_measurement(excitation, plant, repeats)
    x = np.tile(excitation.samples, repeats + 1)
    want = signal.fftconvolve(x, plant)[: x.shape[0]]
    assert got.shape == want.shape
    assert relative_to_peak(got, want) <= 1e-12


def scipy_feature(recording, excitation):
    """The feature chain as it ran on scipy: trim and minimum phase as in
    the package, then scipy's ``butter`` and ``lfilter`` on the kept prefix."""
    raw = recover_impulse_response(recording, excitation, DEFAULTS.repeats)
    mp = minimum_phase(trim_pre_rise(raw, DEFAULTS.trim_threshold))
    x = mp[: DEFAULTS.feature_length]
    low, high, _clamped = applied_band(44100, DEFAULTS.band_low_hz, DEFAULTS.band_high_hz)
    b, a = signal.butter(DEFAULTS.filter_order // 2, [low, high], btype="bandpass", fs=44100)
    y = signal.lfilter(b, a, x)
    y = np.concatenate([y, np.zeros(DEFAULTS.feature_length - y.shape[0])])
    return normalize_power(y)


def test_criterion_7_features_match_the_scipy_chain():
    # the criterion-7 cohort (family seed 0, default config, noise 0.5);
    # one take per subject, the first and the last in turn
    order, noise = DEFAULTS.mls_order, 0.5
    bits, _state = signal.max_len_seq(order)
    scipy_excitation = ExcitationSignal(bits * 2.0 - 1.0, order)
    excitation = generate_mls(order)
    for sidx, spec in enumerate(make_subject_family(0)):
        plant = generate_plant(spec.plant)
        take = 9 * (sidx % 2)
        rng = [0, sidx, take]
        clean = simulate_measurement(excitation, plant, DEFAULTS.repeats)
        got = response_feature(recover_impulse_response(add_noise(clean, noise, rng), excitation))
        x = np.tile(scipy_excitation.samples, DEFAULTS.repeats + 1)
        recording = add_noise(signal.fftconvolve(x, plant)[: x.shape[0]], noise, rng)
        want = scipy_feature(recording, scipy_excitation)
        assert float(np.max(np.abs(got - want))) <= 1e-12


# The measurement chain as it ran before the period was used: every
# tiled period convolved at a 5-smooth FFT size, and the correlation as
# FFTs of the odd period length.
def fast_len(n):
    best = 1 << max(0, int(n - 1).bit_length())
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 * (1 << max(0, int(-(-n // p35) - 1).bit_length())))
            p35 *= 3
        p5 *= 5
    return best


def tiled_simulation(excitation, plant, repeats):
    x = np.tile(excitation.samples, repeats + 1)
    n = fast_len(x.shape[0] + plant.shape[0] - 1)
    return np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(plant, n), n)[: x.shape[0]]


def fft_recovery(recorded, excitation, repeats):
    L = excitation.length
    avg = recorded[L : (repeats + 1) * L].reshape(repeats, L).mean(axis=0)
    spec = np.fft.rfft(avg) * np.conj(np.fft.rfft(excitation.samples))
    corr = np.fft.irfft(spec, n=L) / (L + 1)
    return corr + corr.sum()


@pytest.mark.parametrize("order", range(2, 19))
def test_one_period_chain_matches_the_tiled_fft_chain(order):
    excitation = generate_mls(order)
    L = excitation.length
    rng = np.random.default_rng(order)
    repeats = 3 if order <= 14 else 1
    for taps in sorted({1, 2, L // 3 + 1, L - 1, L}):
        plant = rng.normal(size=taps) * 0.9995 ** np.arange(taps)
        got = simulate_measurement(excitation, plant, repeats)
        want = tiled_simulation(excitation, plant, repeats)
        assert got.shape == want.shape
        assert relative_to_peak(got, want) <= 1e-12, taps
        ir = recover_impulse_response(want, excitation, repeats)
        assert relative_to_peak(ir, fft_recovery(want, excitation, repeats)) <= 1e-12, taps
    # a recording that is not periodic, as a WAV take is, with a tail
    # past the periods the recovery reads
    recorded = rng.normal(size=(repeats + 1) * L + 5)
    ir = recover_impulse_response(recorded, excitation, repeats)
    assert relative_to_peak(ir, fft_recovery(recorded, excitation, repeats)) <= 1e-12


def test_criterion_7_features_match_the_tiled_fft_chain():
    # every take of the criterion-7 cohort (family seed 0, default config)
    excitation = generate_mls(DEFAULTS.mls_order)
    for sidx, spec in enumerate(make_subject_family(0)):
        plant = generate_plant(spec.plant)
        clean = simulate_measurement(excitation, plant, DEFAULTS.repeats)
        old_clean = tiled_simulation(excitation, plant, DEFAULTS.repeats)
        for take in range(DEFAULTS.takes):
            rng = [0, sidx, take]
            got = response_feature(recover_impulse_response(
                add_noise(clean, DEFAULTS.noise_rms, rng), excitation))
            old = add_noise(old_clean, DEFAULTS.noise_rms, rng)
            want = response_feature(fft_recovery(old, excitation, DEFAULTS.repeats))
            assert float(np.max(np.abs(got - want))) <= 1e-12, (sidx, take)


GUID_PCM = struct.pack("<H", 1) + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff_wav(pcm, rate=44100, extensible=False, before_data=(), after_data=()):
    """A mono 16-bit RIFF/WAVE file around ``pcm``.  ``before_data`` and
    ``after_data`` are extra ``(chunk_id, payload)`` chunks; an odd
    payload gets its pad byte."""
    def chunk(cid, payload):
        return cid + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) % 2)

    if extensible:
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, rate, 2 * rate, 2, 16, 22, 16, 0x4) + GUID_PCM
    else:
        fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVE" + chunk(b"fmt ", fmt)
    body += b"".join(chunk(c, p) for c, p in before_data)
    body += chunk(b"data", np.asarray(pcm, dtype="<i2").tobytes())
    body += b"".join(chunk(c, p) for c, p in after_data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def wav_variants(pcm):
    odd = [(b"LIST", b"INFOISFT\x05\x00\x00\x00test\x00"), (b"junk", b"abc")]
    return {
        "pcm": riff_wav(pcm),
        "extensible": riff_wav(pcm, extensible=True),
        "odd_chunks": riff_wav(pcm, before_data=odd, after_data=odd[1:]),
        "extensible_odd_chunks": riff_wav(pcm, extensible=True, before_data=odd[::-1]),
    }


# scipy warns that it skips the chunks it does not know
@pytest.mark.filterwarnings("ignore:Chunk .non-data. not understood")
def test_wav_reader_is_sample_equal_to_scipy(tmp_path):
    pcm = np.random.default_rng(5).integers(-32768, 32768, size=1001).astype(np.int16)
    for name, data in {**wav_variants(pcm), "scipy_written": None}.items():
        path = tmp_path / f"{name}.wav"
        if data is None:
            wavfile.write(path, 44100, pcm)
        else:
            path.write_bytes(data)
        rate, want = wavfile.read(path)
        assert rate == 44100 and want.dtype == np.int16
        np.testing.assert_array_equal(want, pcm)
        got = cli._wav_pcm(path.read_bytes(), 44100) / 32768.0
        np.testing.assert_array_equal(got, want.astype(np.float64) / 32768.0)


def test_extensible_and_odd_chunk_takes_give_the_pcm_features(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mls_order": 8, "takes": 2, "repeats": 2}))
    excitation = generate_mls(8)
    outputs = {}
    for k, sid in enumerate(("a", "b")):
        rec = simulate_measurement(excitation, (0.7 + 0.1 * k) ** np.arange(40), 2)
        pcm = np.round(rec / np.abs(rec).max() * 0.9 * 32767.0).astype(np.int16)
        for name, data in wav_variants(pcm).items():
            (tmp_path / f"{sid}_{name}.wav").write_bytes(data)
    for name in wav_variants(np.zeros(1, np.int16)):
        manifest = tmp_path / f"{name}.json"
        manifest.write_text(json.dumps(
            {"subjects": {sid: {"takes": [f"{sid}_{name}.wav"]} for sid in ("a", "b")}}))
        out = tmp_path / f"out_{name}"
        assert main(["acoustic", "--config", str(cfg), "--out", str(out),
                     "--manifest", str(manifest)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "acoustic_similarity.csv" in outputs["pcm"]
    for name, files in outputs.items():
        assert files == outputs["pcm"], name
