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
from functools import lru_cache

import numpy as np

SHAPE_DC = "dc"
SHAPE_SINE = "sine"
SHAPE_SQUARE_OOK = "square_ook"

# Fundamental amplitude of a 0-to-peak 50%-duty square wave, per unit peak.
OOK_FUNDAMENTAL = 2.0 / math.pi


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


# Rows of the sine and phasor bases are cached per sampling grid and
# frequency: traces of one scenario share a few of them.
_BASIS_CACHE = 256


@lru_cache(maxsize=_BASIS_CACHE)
def _sine_row(n: int, rate_hz: float, omega: float) -> np.ndarray:
    """sin(omega t) at the n sample times t = arange(n) / rate_hz, as a
    read-only row."""
    row = np.sin(omega * (np.arange(n) / rate_hz))
    row.flags.writeable = False
    return row


@lru_cache(maxsize=_BASIS_CACHE)
def _phasor_row(m: int, rate_hz: float, freq_hz: float) -> np.ndarray:
    """exp(-2j pi freq_hz k / rate_hz) for k = 0 .. m-1, as a read-only
    row."""
    row = np.exp(-2j * math.pi * freq_hz / rate_hz * np.arange(m))
    row.flags.writeable = False
    return row


def synthesize_traces(components, peaks, rate_hz: float, duration_s: float,
                      gaussian_noise_sd: float = 0.0, seeds=None) -> np.ndarray:
    """F traces that share the frequencies and shapes of ``components``,
    as an (F, samples) array.

    Trace f gives component c the peak ``peaks[f, c]``; the components'
    own peaks are not used.  Each trace sums its components in list order
    at rate_hz over duration_s, then adds Gaussian noise from its own
    seed, ``seeds[f]``, so row f equals the trace ``synthesize_trace``
    makes from the same components, peaks and seed.  Noise without seeds
    raises ValueError.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if not 0 <= gaussian_noise_sd < math.inf:
        raise ValueError("noise sd must be nonnegative and finite")
    fmax = max((c.freq_hz for c in components), default=0.0)
    if rate_hz <= 2 * fmax:
        raise NyquistError(f"rate {rate_hz} Hz <= 2 x {fmax} Hz component")
    peaks = np.asarray(peaks, dtype=float).reshape(-1, len(components))
    if np.any(peaks < 0):
        raise ValueError("peaks must be nonnegative")
    n = int(round(rate_hz * duration_s))
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
        if seeds is None or None in seeds:
            raise ValueError("trace noise needs a seed per trace")
        noise = np.empty_like(x)
        for row, seed in zip(noise, seeds, strict=True):
            row[:] = np.random.default_rng(seed).normal(
                0.0, gaussian_noise_sd, size=n)
        x = x + noise
    return x


def synthesize_trace(components, rate_hz: float, duration_s: float,
                     gaussian_noise_sd: float = 0.0, seed=None) -> SampleTrace:
    """Sum the components at rate_hz over duration_s, plus seeded
    Gaussian noise.  Deterministic per seed; noise without a seed raises
    ValueError.  The batch of one of ``synthesize_traces``."""
    x = synthesize_traces(components, [[c.peak for c in components]],
                          rate_hz, duration_s, gaussian_noise_sd, [seed])
    return SampleTrace(rate_hz, x[0])


def _trim_window(n: int, rate_hz: float, freq_hz: float) -> int:
    """Window length in samples covering a whole number of periods."""
    periods = math.floor(n * freq_hz / rate_hz)
    if periods < 1:
        raise ValueError(
            f"trace shorter than one period of {freq_hz} Hz"
        )
    return min(int(round(periods * rate_hz / freq_hz)), n)


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
        if not 0 < freq_hz < rate_hz / 2:
            raise ValueError(f"frequency {freq_hz} Hz outside (0, rate/2)")
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


def identify_lamps(trace: SampleTrace, candidates) -> list[PeakReading]:
    """Per-candidate amplitudes, zeroing readings below the noise floor.

    The floor is 3x the median off-candidate DFT bin magnitude of the
    trace.  Candidates must be separated by more than the window's
    frequency resolution rate/N.
    """
    candidates = [float(f) for f in candidates]
    n = len(trace.samples)
    resolution = trace.rate_hz / n
    for i, f in enumerate(candidates):
        for g in candidates[i + 1:]:
            if abs(f - g) <= resolution:
                raise ResolutionError(
                    f"candidates {f} and {g} Hz closer than the "
                    f"{resolution:.3f} Hz window resolution"
                )

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
