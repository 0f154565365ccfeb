"""Trace synthesis and single-frequency amplitude extraction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # The amplitude map refuses what synthesis and extraction refuse.
    with pytest.raises(NyquistError):
        signal.amplitude_map([WaveComponent(320.0, 1.0, "sine")], 640.0, 1.0,
                             [65.0])
    with pytest.raises(ValueError, match="period"):
        signal.amplitude_map(comps, 640.0, 0.1, [65.0, 5.0])
    # Noise needs one seed per trace, and a finite, nonnegative sd.
    for seeds in (None, [1, None], [1, 2, 3]):
        with pytest.raises(ValueError, match="seed"):
            synthesize_traces(comps, [[1.0], [2.0]], 640.0, 1.0, 0.5, seeds)
    with pytest.raises(ValueError, match="seed"):
        synthesize_trace(comps, 640.0, 1.0, gaussian_noise_sd=0.5)
    for sd in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise sd"):
            synthesize_traces(comps, [[1.0]], 640.0, 1.0, sd, [0])


def test_synthesis_bounds_its_work():
    # One sample or one harmonic over each cap is refused before any
    # trace is allocated; at the cap, synthesis runs.
    dc = [WaveComponent(0.0, 1.0, "dc")]
    cap = signal.MAX_TRACE_SAMPLES
    assert synthesize_traces(dc, [[1.0]], 1000.0, cap / 1000).shape == (1, cap)
    with pytest.raises(ValueError, match="samples"):
        synthesize_traces(dc, [[1.0]], 1000.0, (cap + 1) / 1000)
    # A square flash at f Hz sums the odd harmonics h with f h < rate / 2.
    h = 2 * signal.MAX_SQUARE_HARMONICS + 1
    at_cap = [WaveComponent(500.0 / (h - 1), 1.0)]
    assert synthesize_traces(at_cap, [[1.0]], 1000.0, 1.0).shape == (1, 1000)
    with pytest.raises(ValueError, match="harmonics"):
        synthesize_traces([WaveComponent(500.0 / (h + 1), 1.0)], [[1.0]],
                          1000.0, 1.0)


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


# Synthesis then extraction, and the amplitude map, sum the same terms
# in different orders, so their amplitudes agree to round-off.  A trace
# sample sums T terms (ambient DC, each flash's half-peak and odd
# harmonics, the noise) whose magnitudes add up to L; the phasors and
# sine rows are the same rows on both sides.  A recursive sum of
# k terms is off by at most about k u times the sum of their magnitudes,
# u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., sec. 4.2).  So a sample is off by at most T u L, its window
# mean of m <= n samples by (T + m) u L, and a mean-removed sample (at
# most 2L) by (2T + m + 2) u L; projecting m of them on unit phasors
# adds (m + 1) u 2L each.  An amplitude, 2/m times the projection, is
# then off by at most 2 u L (2T + 3m + 4) <= 8 (n + T) u L.  The map's
# sums (each unit component and the noise projected on n phasor
# samples, then summed over components) have the same form, so the two
# sides differ by at most 16 (n + T) u L.
#
# That counts relative errors only, and a subnormal level underflows it
# to 0.  With gradual underflow an operation is fl(x op y) =
# (x op y)(1 + d) + e, |d| <= u, where e = 0 for a sum or difference and
# |e| <= lambda u = 2**-1075 for a product or quotient, lambda = 2**-1022
# being the smallest normal number (Higham, 2nd ed., sec. 2.1).  A
# rounding that the count above bounds by u L (or u 2L) is then off by
# at most u (L + lambda) (or u 2(L + lambda)), so L + lambda in place of
# L bounds both sides' difference: 16 (n + T) u (L + lambda).

def _roundoff_bound(components, rate_hz, n, noise_max):
    """16 (n + T) u (L + lambda) for one trace of ``components`` at their
    peaks."""
    level, terms = noise_max, 1
    for c in components:
        coefs = [1.0]
        if c.shape == "square_ook":
            coefs = [0.5] + [2 / (math.pi * h)
                             for h in range(1, int(rate_hz / c.freq_hz) + 2, 2)
                             if c.freq_hz * h < rate_hz / 2]
        level += c.peak * sum(coefs)
        terms += len(coefs)
    return 16 * (n + terms) * 2.0**-53 * (level + 2.0**-1022)


# The bound grows with the samples per trace, and the oracle synthesizes
# every harmonic of every trace, so the traces stay at most 800 samples
# long (1333 Hz over 0.6 s), a few sensor windows.
@settings(max_examples=100, deadline=None)
@given(_trace_batches())
# A subnormal peak: the two sides differ by one subnormal, 5e-324, where a
# bound without the underflow term reads 0.
@example(
    batch=([WaveComponent(freq_hz=5.0, peak=1.0, shape='sine'),
            WaveComponent(freq_hz=5.0, peak=1.0, shape='sine'),
            WaveComponent(freq_hz=4.875, peak=1.0, shape='sine')],
           [[0.0, 0.0, 2.2250738585e-313]],
           100.0,
           0.25,
           0.0,
           [0],
           [4.875]),
)
def test_amplitude_map_equals_synthesis_then_extraction(batch):
    components, peaks, rate, duration, noise_sd, seeds, freqs = batch
    n = int(round(rate * duration))
    amap = signal.amplitude_map(components, rate, duration, freqs)
    assert not any(a.flags.writeable for a in amap)
    noise = signal.trace_noise(seeds, noise_sd, n) if noise_sd else None
    got = amap.amplitudes(peaks, seeds, noise_sd)
    want = extract_amplitudes(
        synthesize_traces(components, peaks, rate, duration, noise_sd, seeds),
        rate, freqs)
    for f, row_peaks in enumerate(peaks):
        own = [WaveComponent(c.freq_hz, p, c.shape)
               for c, p in zip(components, row_peaks)]
        noise_max = 0.0 if noise is None else np.max(np.abs(noise[f]))
        assert np.all(np.abs(got[f] - want[f])
                      <= _roundoff_bound(own, rate, n, noise_max))
    # A lamp at peak 0 adds exactly nothing, with or without noise.
    lamp = WaveComponent(freqs[0], 1.0, "square_ook")
    with_lamp = signal.amplitude_map(components + [lamp], rate, duration,
                                     freqs)
    zero = np.column_stack([peaks, np.zeros(len(peaks))])
    assert (with_lamp.amplitudes(zero, seeds, noise_sd).tobytes()
            == got.tobytes())
    # Without noise, a DC-only trace extracts exactly 0.
    dc_only = np.zeros((len(peaks), len(components) + 1))
    dc_only[:, 0] = 1000.0
    dc_map = signal.amplitude_map([WaveComponent(0.0, 1.0, "dc")]
                                  + components, rate, duration, freqs)
    assert not dc_map.amplitudes(dc_only).any()


def test_signal_calls_keep_no_memory():
    # Synthesis, extraction and the amplitude map keep nothing between
    # calls: twenty calls of each over distinct ~40k-sample grids (each
    # sine, phasor or map row a few hundred kB) leave under 1 MB behind.
    components = [WaveComponent(0.0, 850.0, "dc"),
                  WaveComponent(65.0, 30.0, "square_ook"),
                  WaveComponent(85.0, 20.0, "square_ook")]
    freqs = [65.0, 85.0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20):
            rate, duration = 640.0 + i, 62.5
            trace = synthesize_trace(components, rate, duration)
            extract_amplitudes(trace.samples[None], rate, freqs)
            signal.amplitude_map(components, rate, duration, freqs)
        del trace
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
