"""Trace synthesis and single-frequency amplitude extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightpos import signal
from lightpos.signal import (
    NyquistError,
    OOK_FUNDAMENTAL,
    ResolutionError,
    SampleTrace,
    WaveComponent,
    extract_amplitude,
    extract_amplitudes,
    identify_lamps,
    synthesize_trace,
    synthesize_traces,
)


def test_component_validation():
    with pytest.raises(ValueError):
        WaveComponent(0.0, 1.0, "sine")  # dc must use the dc shape
    with pytest.raises(ValueError):
        WaveComponent(10.0, 1.0, "dc")
    with pytest.raises(ValueError):
        WaveComponent(10.0, 1.0, "triangle")
    for freq, peak in ((math.nan, 1.0), (10.0, math.inf), (10.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            WaveComponent(freq, peak, "sine")


def test_synthesis_rejects_nyquist_violation():
    with pytest.raises(NyquistError):
        synthesize_trace([WaveComponent(400.0, 1.0, "sine")], 640.0, 1.0)


def test_pure_sine_extraction_exact():
    trace = synthesize_trace([WaveComponent(65.0, 3.5, "sine")], 640.0, 1.0)
    assert extract_amplitude(trace, 65.0) == pytest.approx(3.5, rel=1e-12)


def test_ook_square_fundamental():
    trace = synthesize_trace([WaveComponent(65.0, 100.0, "square_ook")],
                             640.0, 1.0)
    expected = OOK_FUNDAMENTAL * 100.0
    assert extract_amplitude(trace, 65.0) == pytest.approx(expected, rel=1e-9)


def test_ook_time_average_is_half_peak():
    trace = synthesize_trace([WaveComponent(65.0, 100.0, "square_ook")],
                             640.0, 1.0)
    assert np.mean(trace.samples) == pytest.approx(50.0, rel=1e-9)


def test_dc_rejection_exact():
    trace = synthesize_trace([WaveComponent(0.0, 850.0, "dc")], 640.0, 1.0)
    assert extract_amplitude(trace, 65.0) == 0.0


def test_extraction_linearity():
    base = synthesize_trace([WaveComponent(65.0, 1.0, "square_ook")],
                            640.0, 1.0)
    scaled = synthesize_trace([WaveComponent(65.0, 7.25, "square_ook")],
                              640.0, 1.0)
    a1 = extract_amplitude(base, 65.0)
    a2 = extract_amplitude(scaled, 65.0)
    assert a2 == pytest.approx(7.25 * a1, rel=1e-12)


def test_interferers_leave_target_amplitude_intact():
    comps = [
        WaveComponent(65.0, 100.0, "square_ook"),
        WaveComponent(0.0, 850.0, "dc"),
        WaveComponent(100.0, 30.0, "sine"),
    ]
    trace = synthesize_trace(comps, 640.0, 1.0)
    got = extract_amplitude(trace, 65.0)
    assert got == pytest.approx(OOK_FUNDAMENTAL * 100.0, rel=0.02)


def test_three_ook_lamps_separate_exactly_when_commensurate():
    # 0.4 s at 640 Hz holds an integer number of periods of every tone,
    # so the single-bin projection separates them exactly.
    comps = [WaveComponent(f, p, "square_ook")
             for f, p in ((55.0, 80.0), (65.0, 50.0), (75.0, 20.0))]
    trace = synthesize_trace(comps, 640.0, 0.4)
    for f, p in ((55.0, 80.0), (65.0, 50.0), (75.0, 20.0)):
        got = extract_amplitude(trace, f)
        assert got == pytest.approx(OOK_FUNDAMENTAL * p, rel=1e-9)


def test_three_ook_lamps_short_window_leakage_bounded():
    # A 0.3 s window truncates the tones mid-period; the resulting
    # leakage is bounded but not zero, worst for the weakest lamp.
    comps = [WaveComponent(f, p, "square_ook")
             for f, p in ((55.0, 80.0), (65.0, 50.0), (75.0, 20.0))]
    trace = synthesize_trace(comps, 640.0, 0.3)
    for f, p in ((55.0, 80.0), (65.0, 50.0), (75.0, 20.0)):
        got = extract_amplitude(trace, f)
        assert got == pytest.approx(OOK_FUNDAMENTAL * p, rel=0.16)


def test_noise_seeded_and_deterministic():
    comps = [WaveComponent(65.0, 10.0, "square_ook")]
    a = synthesize_trace(comps, 640.0, 1.0, gaussian_noise_sd=1.0, seed=5)
    b = synthesize_trace(comps, 640.0, 1.0, gaussian_noise_sd=1.0, seed=5)
    c = synthesize_trace(comps, 640.0, 1.0, gaussian_noise_sd=1.0, seed=6)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_extract_rejects_out_of_band_frequency():
    trace = synthesize_trace([WaveComponent(65.0, 1.0, "sine")], 640.0, 1.0)
    with pytest.raises(ValueError):
        extract_amplitude(trace, 0.0)
    with pytest.raises(ValueError):
        extract_amplitude(trace, 320.0)


def test_extract_needs_one_full_period():
    trace = SampleTrace(640.0, np.zeros(64))  # 0.1 s
    with pytest.raises(ValueError):
        extract_amplitude(trace, 5.0)


def test_identify_lamps_resolution_guard():
    trace = synthesize_trace([WaveComponent(65.0, 1.0, "sine")], 640.0, 0.3)
    with pytest.raises(ResolutionError):
        identify_lamps(trace, [65.0, 66.0])


def test_identify_lamps_noise_floor_zeroes_absent_lamps():
    comps = [WaveComponent(65.0, 100.0, "square_ook")]
    trace = synthesize_trace(comps, 640.0, 0.3, gaussian_noise_sd=0.5, seed=1)
    readings = {r.freq_hz: r.amplitude
                for r in identify_lamps(trace, [55.0, 65.0, 75.0])}
    assert readings[55.0] == 0.0
    assert readings[75.0] == 0.0
    assert readings[65.0] == pytest.approx(OOK_FUNDAMENTAL * 100.0, rel=0.03)


def test_batched_synthesis_validates_inputs():
    comps = [WaveComponent(65.0, 1.0, "sine")]
    with pytest.raises(ValueError):
        synthesize_traces(comps, [[1.0], [-1.0]], 640.0, 1.0)
    with pytest.raises(NyquistError):
        synthesize_traces([WaveComponent(320.0, 1.0, "sine")], [[1.0]],
                          640.0, 1.0)
    with pytest.raises(ValueError):
        extract_amplitudes(np.zeros((2, 64)), 640.0, [65.0, 5.0])
    # Noise needs a seed per trace, and a finite, nonnegative sd.
    for seeds in (None, [1, None]):
        with pytest.raises(ValueError, match="seed"):
            synthesize_traces(comps, [[1.0], [2.0]], 640.0, 1.0, 0.5, seeds)
    with pytest.raises(ValueError, match="seed"):
        synthesize_trace(comps, 640.0, 1.0, gaussian_noise_sd=0.5)
    for sd in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise sd"):
            synthesize_traces(comps, [[1.0]], 640.0, 1.0, sd, [0])


# Reference signal layer: one trace at a time, as synthesis and extraction
# were written before they were batched; the oracle for both.

def _ref_synthesize(components, rate_hz, duration_s, noise_sd, seed):
    n = int(round(rate_hz * duration_s))
    t = np.arange(n) / rate_hz
    x = np.zeros(n)
    for c in components:
        if c.shape == "dc":
            x += c.peak
        elif c.shape == "sine":
            x += c.peak * np.sin(2 * math.pi * c.freq_hz * t)
        else:
            x += 0.5 * c.peak
            h = 1
            while c.freq_hz * h < rate_hz / 2:
                x += (2 * c.peak / (math.pi * h)) * np.sin(
                    2 * math.pi * c.freq_hz * h * t)
                h += 2
    if noise_sd > 0:
        x = x + np.random.default_rng(seed).normal(0.0, noise_sd, size=n)
    return x


def _ref_extract(samples, rate_hz, freq_hz):
    periods = math.floor(len(samples) * freq_hz / rate_hz)
    m = min(int(round(periods * rate_hz / freq_hz)), len(samples))
    w = samples[:m] - np.mean(samples[:m])
    phase = -2j * math.pi * freq_hz / rate_hz * np.arange(m)
    return 2.0 * abs(np.sum(w * np.exp(phase))) / m


_peak = st.one_of(st.just(0.0), st.floats(0.0, 1000.0))


@st.composite
def _trace_batches(draw):
    rate = draw(st.sampled_from([100.0, 640.0, 1000.0, 1333.0]))
    duration = draw(st.floats(0.05, 0.6))
    n = int(round(rate * duration))
    # Frequencies below Nyquist that fill at least one period of the trace.
    freq = st.floats(1.01 * rate / n, 0.499 * rate)
    components = [WaveComponent(draw(freq), 1.0,
                                draw(st.sampled_from(["sine", "square_ook"])))
                  for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        components.insert(0, WaveComponent(0.0, 1.0, "dc"))
    n_traces = draw(st.integers(1, 5))
    peaks = draw(st.lists(st.lists(_peak, min_size=len(components),
                                   max_size=len(components)),
                          min_size=n_traces, max_size=n_traces))
    seeds = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n_traces,
                          max_size=n_traces))
    noise_sd = draw(st.sampled_from([0.0, 0.5, 3.0]))
    freqs = draw(st.lists(freq, min_size=1, max_size=4))
    return components, peaks, rate, duration, noise_sd, seeds, freqs


@settings(max_examples=150, deadline=None)
@given(_trace_batches())
def test_batched_signal_rows_equal_single_traces(batch):
    components, peaks, rate, duration, noise_sd, seeds, freqs = batch
    freqs = freqs + [c.freq_hz for c in components if c.shape != "dc"]
    x = synthesize_traces(components, peaks, rate, duration, noise_sd, seeds)
    amps = extract_amplitudes(x, rate, freqs)
    assert x.shape == (len(peaks), int(round(rate * duration)))
    assert amps.shape == (len(peaks), len(freqs))
    for row, row_amps, row_peaks, seed in zip(x, amps, peaks, seeds):
        own = [WaveComponent(c.freq_hz, p, c.shape)
               for c, p in zip(components, row_peaks)]
        single = synthesize_trace(own, rate, duration, noise_sd, seed)
        assert np.array_equal(row, single.samples)
        assert np.array_equal(row, _ref_synthesize(own, rate, duration,
                                                   noise_sd, seed))
        for f, amp in zip(freqs, row_amps):
            assert amp == extract_amplitude(single, f)
            assert amp == _ref_extract(row, rate, f)


@settings(max_examples=60, deadline=None)
@given(_trace_batches())
def test_cached_bases_equal_uncached_expressions(batch):
    # The sine and phasor rows come from a cache; traces and amplitudes
    # must equal the uncached expressions of the reference byte for byte,
    # whether the rows are computed for this call or reused from it.
    components, peaks, rate, duration, noise_sd, seeds, freqs = batch
    want = np.array([
        _ref_synthesize([WaveComponent(c.freq_hz, p, c.shape)
                         for c, p in zip(components, row_peaks)],
                        rate, duration, noise_sd, seed)
        for row_peaks, seed in zip(peaks, seeds)])
    want_amps = np.array([[_ref_extract(row, rate, f) for f in freqs]
                          for row in want])
    signal._sine_row.cache_clear()
    signal._phasor_row.cache_clear()
    for _ in range(2):
        x = synthesize_traces(components, peaks, rate, duration, noise_sd,
                              seeds)
        assert x.tobytes() == want.tobytes()
        assert extract_amplitudes(x, rate, freqs).tobytes() == \
            want_amps.tobytes()


def test_scene_traces_reuse_cached_bases():
    # A scene's traces, ambient DC and square-OOK flashes of 55-105 Hz at
    # 640 Hz, need a few sine and phasor rows: the first call computes
    # each once, the second reads every one from the cache, and both give
    # the uncached expressions byte for byte.
    rate, duration, noise_sd = 640.0, 0.3, 0.5
    flashes = [55.0, 65.0, 75.0, 85.0, 95.0, 105.0]
    components = [WaveComponent(0.0, 1.0, "dc")] + [
        WaveComponent(f, 1.0, "square_ook") for f in flashes]
    rng = np.random.default_rng(5)
    peaks = np.column_stack([np.full(8, 850.0),
                             rng.uniform(0.0, 120.0, (8, len(flashes)))])
    seeds = list(range(8))
    want = np.array([
        _ref_synthesize([WaveComponent(c.freq_hz, p, c.shape)
                         for c, p in zip(components, row_peaks)],
                        rate, duration, noise_sd, seed)
        for row_peaks, seed in zip(peaks, seeds)])
    want_amps = np.array([[_ref_extract(row, rate, f) for f in flashes]
                          for row in want])
    # One sine row per odd harmonic below Nyquist: 13 in all.
    harmonics = sum(1 for f in flashes for h in range(1, 12, 2)
                    if f * h < rate / 2)
    signal._sine_row.cache_clear()
    signal._phasor_row.cache_clear()
    for call in range(2):
        x = synthesize_traces(components, peaks, rate, duration, noise_sd,
                              seeds)
        assert x.tobytes() == want.tobytes()
        assert extract_amplitudes(x, rate, flashes).tobytes() == \
            want_amps.tobytes()
        for row_fn, rows in ((signal._sine_row, harmonics),
                             (signal._phasor_row, len(flashes))):
            info = row_fn.cache_info()
            assert (info.misses, info.hits) == (rows, call * rows)


def test_cached_basis_rows_are_read_only():
    for row in (signal._sine_row(192, 640.0, 2 * math.pi * 65.0),
                signal._phasor_row(192, 640.0, 65.0)):
        with pytest.raises(ValueError):
            row[0] = 0.0
    # A trace is a fresh array: writing to it leaves the cache as it was.
    x = synthesize_traces([WaveComponent(65.0, 1.0, "sine")], [[2.0]],
                          640.0, 0.3)
    x[:] = 0.0
    assert synthesize_traces([WaveComponent(65.0, 1.0, "sine")], [[2.0]],
                             640.0, 0.3).any()
