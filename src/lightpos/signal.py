"""Time-domain light-sensor trace synthesis and single-frequency
amplitude extraction.

Lamps flash on/off at distinct rates; the per-lamp intensity is
recovered as the amplitude of the fundamental at the lamp's flash
frequency.  Extraction uses a single-bin discrete Fourier projection
(Goertzel-style) over a window trimmed to an integer number of periods,
which is exact for commensurate tones and rejects DC exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SHAPE_DC = "dc"
SHAPE_SINE = "sine"
SHAPE_SQUARE_OOK = "square_ook"

# Fundamental amplitude of a 0-to-peak 50%-duty square wave, per unit peak.
OOK_FUNDAMENTAL = 2.0 / math.pi

# Bounds on the work one synthesis may ask for: samples per trace (a
# trace is allocated whole), and odd harmonics summed per square
# component (a square flash of f Hz sums about rate / 4f of them).  Real
# sensor windows are a few hundred samples with a few harmonics.
MAX_TRACE_SAMPLES = 50_000
MAX_SQUARE_HARMONICS = 1000

# ``AmplitudeMap.amplitudes`` draws the sensor noise of at most this many
# traces at a time, which bounds its memory on long runs.
TRACE_BATCH = 4096


class NyquistError(ValueError):
    """Raised when a component frequency violates the sampling rate."""


class ResolutionError(ValueError):
    """Raised when candidate frequencies are closer than the window
    resolution."""


@dataclass(frozen=True)
class WaveComponent:
    """One additive component of a sensor trace.

    ``square_ook`` alternates between 0 and ``peak`` at 50% duty;
    synthesis band-limits it at Nyquist (the sensor sees no energy above
    rate/2), so its time average is exactly peak/2 and its fundamental
    exactly (2/pi) * peak.
    """

    freq_hz: float
    peak: float
    shape: str = SHAPE_SQUARE_OOK

    def __post_init__(self):
        if self.shape not in (SHAPE_DC, SHAPE_SINE, SHAPE_SQUARE_OOK):
            raise ValueError(f"unknown shape {self.shape!r}")
        if (self.freq_hz == 0) != (self.shape == SHAPE_DC):
            raise ValueError("freq_hz must be 0 exactly for dc components")
        if not (0 <= self.freq_hz < math.inf and 0 <= self.peak < math.inf):
            raise ValueError("frequency and peak must be finite and >= 0")


@dataclass(frozen=True)
class SampleTrace:
    rate_hz: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.rate_hz <= 0 or len(self.samples) < 2:
            raise ValueError("trace needs a positive rate and at least 2 samples")


@dataclass(frozen=True)
class PeakReading:
    freq_hz: float
    amplitude: float


def _sine_row(n: int, rate_hz: float, omega: float) -> np.ndarray:
    """sin(omega t) at the n sample times t = arange(n) / rate_hz."""
    return np.sin(omega * (np.arange(n) / rate_hz))


def _phasor_row(m: int, rate_hz: float, freq_hz: float) -> np.ndarray:
    """exp(-2j pi freq_hz k / rate_hz) for k = 0 .. m-1."""
    return np.exp(-2j * math.pi * freq_hz / rate_hz * np.arange(m))


def synthesize_traces(components, peaks, rate_hz: float, duration_s: float,
                      gaussian_noise_sd: float = 0.0, seeds=None) -> np.ndarray:
    """F traces that share the frequencies and shapes of ``components``,
    as an (F, samples) array.

    Trace f gives component c the peak ``peaks[f, c]``; the components'
    own peaks are not used.  Each trace sums its components in list order
    at rate_hz over duration_s, then adds Gaussian noise from its own
    seed, ``seeds[f]``, so row f equals the trace ``synthesize_trace``
    makes from the same components, peaks and seed.  Noise without seeds
    raises ValueError, and so does a trace of more than MAX_TRACE_SAMPLES
    samples or a square component of more than MAX_SQUARE_HARMONICS odd
    harmonics below Nyquist.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if not 0 <= gaussian_noise_sd < math.inf:
        raise ValueError("noise sd must be nonnegative and finite")
    fmax = max((c.freq_hz for c in components), default=0.0)
    if rate_hz <= 2 * fmax:
        raise NyquistError(f"rate {rate_hz} Hz <= 2 x {fmax} Hz component")
    n = int(round(rate_hz * duration_s))
    if n > MAX_TRACE_SAMPLES:
        raise ValueError(f"{rate_hz} Hz over {duration_s} s makes {n} "
                         f"samples, more than {MAX_TRACE_SAMPLES}")
    for c in components:
        # The harmonic loop below sums h = 2 * MAX_SQUARE_HARMONICS + 1
        # exactly when this holds.
        if (c.shape == SHAPE_SQUARE_OOK and c.freq_hz
                * (2 * MAX_SQUARE_HARMONICS + 1) < rate_hz / 2):
            raise ValueError(
                f"a {c.freq_hz} Hz square flash at {rate_hz} Hz sums more "
                f"than {MAX_SQUARE_HARMONICS} odd harmonics")
    peaks = np.asarray(peaks, dtype=float).reshape(-1, len(components))
    if np.any(peaks < 0):
        raise ValueError("peaks must be nonnegative")
    x = np.zeros((len(peaks), n))
    for c, peak in zip(components, peaks.T):
        if c.shape == SHAPE_DC:
            x += peak[:, None]
        elif c.shape == SHAPE_SINE:
            x += peak[:, None] * _sine_row(n, rate_hz, 2 * math.pi * c.freq_hz)
        else:
            # Band-limited OOK square: DC peak/2 plus odd sine harmonics
            # strictly below Nyquist.
            x += (0.5 * peak)[:, None]
            h = 1
            while c.freq_hz * h < rate_hz / 2:
                x += (2 * peak / (math.pi * h))[:, None] * _sine_row(
                    n, rate_hz, 2 * math.pi * c.freq_hz * h)
                h += 2
    if gaussian_noise_sd > 0:
        noise = trace_noise(seeds, gaussian_noise_sd, n)
        if len(noise) != len(x):
            raise ValueError(f"{len(noise)} noise seeds for {len(x)} traces")
        x = x + noise
    return x


def trace_noise(seeds, sd: float, n: int) -> np.ndarray:
    """Gaussian sensor noise of n samples per trace, one row per seed:
    row f is ``np.random.default_rng(seeds[f]).normal(0, sd, n)``.  A
    missing seed raises ValueError."""
    if seeds is None or None in seeds:
        raise ValueError("trace noise needs a seed per trace")
    noise = np.empty((len(seeds), n))
    for row, seed in zip(noise, seeds):
        row[:] = np.random.default_rng(seed).normal(0.0, sd, size=n)
    return noise


def synthesize_trace(components, rate_hz: float, duration_s: float,
                     gaussian_noise_sd: float = 0.0, seed=None) -> SampleTrace:
    """Sum the components at rate_hz over duration_s, plus seeded
    Gaussian noise.  Deterministic per seed; noise without a seed raises
    ValueError.  The batch of one of ``synthesize_traces``."""
    x = synthesize_traces(components, [[c.peak for c in components]],
                          rate_hz, duration_s, gaussian_noise_sd, [seed])
    return SampleTrace(rate_hz, x[0])


def _trim_window(n: int, rate_hz: float, freq_hz: float) -> int:
    """Window length in samples covering a whole number of periods of a
    frequency in (0, rate/2): NyquistError outside it, ValueError when the
    n samples hold less than one period."""
    if not 0 < freq_hz < rate_hz / 2:
        raise NyquistError(f"frequency {freq_hz} Hz outside the Nyquist "
                           f"band (0, {rate_hz / 2}) Hz")
    periods = math.floor(n * freq_hz / rate_hz)
    if periods < 1:
        raise ValueError(f"a {n}-sample window at {rate_hz} Hz is shorter "
                         f"than one period of {freq_hz} Hz")
    return min(int(round(periods * rate_hz / freq_hz)), n)


def check_flashes(freqs, rate_hz: float, n: int):
    """The one rule for which flash frequencies a window of n samples at
    rate_hz can tell apart: each below Nyquist (else NyquistError), each
    filling at least one whole period (else ValueError), and any two more
    than the window's resolution rate_hz / n apart (else
    ResolutionError)."""
    for f in freqs:
        _trim_window(n, rate_hz, f)
    # Only a pair needs the resolution, so no n divides without one.
    for i, f in enumerate(freqs):
        for g in freqs[i + 1:]:
            if abs(f - g) <= rate_hz / n:
                raise ResolutionError(
                    f"frequencies {f} and {g} Hz closer than the "
                    f"{rate_hz / n:.3f} Hz resolution of a {n}-sample window")


def extract_amplitudes(samples, rate_hz: float, freqs) -> np.ndarray:
    """Amplitudes of the sinusoidal components at each of L frequencies in
    each of F traces: ``samples`` is (F, n), the result (F, L).

    Per frequency, a single-bin DFT projection over a period-trimmed
    window; the window mean is removed first, so a pure DC trace extracts
    exactly 0.  Row f equals ``extract_amplitude`` of trace f.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    out = np.empty((len(samples), len(freqs)))
    for j, freq_hz in enumerate(freqs):
        m = _trim_window(n, rate_hz, freq_hz)
        w = samples[:, :m] - np.mean(samples[:, :m], axis=-1, keepdims=True)
        z = np.sum(w * _phasor_row(m, rate_hz, freq_hz), axis=-1)
        # hypot equals scalar abs() of a complex bit for bit; the vector
        # complex np.abs may differ from it in the last bit.
        out[:, j] = 2.0 * np.hypot(z.real, z.imag) / m
    return out


def extract_amplitude(trace: SampleTrace, freq_hz: float) -> float:
    """Amplitude of the sinusoidal component at freq_hz: the batch of one
    of ``extract_amplitudes``."""
    return float(extract_amplitudes(trace.samples[None], trace.rate_hz,
                                    [freq_hz])[0, 0])


class AmplitudeMap(NamedTuple):
    """Synthesis followed by extraction, as the one linear map it is.

    For F traces of C components (peaks (F, C)) and sensor noise (F, n),
    the amplitudes at L frequencies are 2/m * |peaks @ P + noise @ Q|.
    P (C, 2L) holds each unit-peak component projected on the
    window-trimmed, mean-removed phasors; Q (n, 2L) holds those phasors,
    zero past each frequency's window; m (L,) holds the window lengths.
    P and Q store the real parts of the projections in their first L
    columns and the imaginary parts in the last L, so the map is real
    matrix products.  The map draws the noise itself, trace by trace
    from each trace's seed as ``trace_noise`` does, so its amplitudes
    are those of the traces ``synthesize_traces`` makes from the same
    peaks, sd and seeds.
    """

    P: np.ndarray
    Q: np.ndarray
    m: np.ndarray

    def amplitudes(self, peaks, seeds=None, sd: float = 0.0) -> np.ndarray:
        """The (F, L) amplitudes of the traces of ``peaks`` (F, C), each
        with Gaussian sensor noise of sd ``sd`` drawn from its own seed,
        ``seeds[f]`` (sd 0: no noise, and no seeds needed).  The noise of
        at most TRACE_BATCH traces is drawn at a time; a seed count other
        than F, or a missing seed, raises ValueError."""
        peaks = np.asarray(peaks, dtype=float)
        z = np.zeros((len(peaks), self.P.shape[1]))
        if sd:
            if seeds is not None and len(seeds) != len(peaks):
                raise ValueError(f"{len(seeds)} noise seeds for "
                                 f"{len(peaks)} traces")
            for lo in range(0, len(peaks), TRACE_BATCH):
                z[lo:lo + TRACE_BATCH] = trace_noise(
                    seeds[lo:lo + TRACE_BATCH], sd, len(self.Q)) @ self.Q
        # Component by component, as synthesis sums them, so that a
        # component at peak 0 adds exactly nothing.
        for peak, row in zip(peaks.T, self.P):
            z += peak[:, None] * row
        half = len(self.m)
        return 2.0 * np.hypot(z[:, :half], z[:, half:]) / self.m


def amplitude_map(components, rate_hz: float, duration_s: float,
                  freqs) -> AmplitudeMap:
    """The map from peaks and noise to amplitudes of traces that
    ``synthesize_traces`` makes from ``components`` (their frequencies
    and shapes; their peaks are not used) at rate_hz over duration_s,
    read at ``freqs`` as ``extract_amplitudes`` reads them.

    Its amplitudes equal that synthesis and extraction up to round-off:
    the map sums the same terms in another order.  Each call builds a new
    map, with read-only arrays: a ``sim.Scenario`` builds its map once,
    and every measurement on that scenario shares it.  Inputs that
    synthesis or extraction refuse raise the same errors here.
    """
    unit = synthesize_traces(components, np.eye(len(components)), rate_hz,
                             duration_s)
    n = unit.shape[1]
    q = np.zeros((n, len(freqs)), dtype=complex)
    m = np.empty(len(freqs))
    for j, freq_hz in enumerate(freqs):
        window = _trim_window(n, rate_hz, freq_hz)
        phasor = _phasor_row(window, rate_hz, freq_hz)
        q[:window, j] = phasor - np.mean(phasor)
        m[j] = window
    # Row by row, so each component's row is the same in every map.  The
    # mean-removed projection rejects DC exactly; the computed one leaves
    # round-off.
    p = np.array([np.zeros(len(freqs), complex) if c.shape == SHAPE_DC
                  else row @ q
                  for row, c in zip(unit, components)])
    amap = AmplitudeMap(np.hstack([p.real, p.imag]),
                        np.hstack([q.real, q.imag]), m)
    for a in amap:
        a.flags.writeable = False
    return amap


def identify_lamps(trace: SampleTrace, candidates) -> list[PeakReading]:
    """Per-candidate amplitudes, zeroing readings below the noise floor.

    The floor is 3x the median off-candidate DFT bin magnitude of the
    trace.  The candidates must pass ``check_flashes`` on the trace's N
    samples, as a scenario's lamp flashes do on its window: each below
    Nyquist, each filling a whole period, and any two more than the
    resolution rate/N apart.
    """
    candidates = [float(f) for f in candidates]
    n = len(trace.samples)
    check_flashes(candidates, trace.rate_hz, n)
    resolution = trace.rate_hz / n

    spectrum = np.abs(np.fft.rfft(trace.samples - np.mean(trace.samples)))
    freqs = np.fft.rfftfreq(n, d=1.0 / trace.rate_hz)
    off = np.ones(len(freqs), dtype=bool)
    off[0] = False
    for f in candidates:
        off &= np.abs(freqs - f) > resolution
    floor = 3.0 * 2.0 * np.median(spectrum[off]) / n if np.any(off) else 0.0

    amps = extract_amplitudes(trace.samples[None], trace.rate_hz,
                              candidates)[0]
    return [PeakReading(f, float(amp) if amp > floor else 0.0)
            for f, amp in zip(candidates, amps)]
