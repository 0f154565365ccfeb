"""Scenario modeling, measurement generation with noise, batch and
trajectory evaluation, stability metrics, and deployment-cost analysis.

All randomness is drawn per point from the stream of a generator seeded
with the seed combined with the point/trial index, so identical scenario +
seed pairs always reproduce bit-identical results regardless of evaluation
order.  The sweep draws a whole noise cell's streams at once with
``streams.KeyedStreams``, whose values equal those generators' draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .geom import (
    Aabb,
    Attitude,
    Polyhedron,
    half_dodecahedron,
    receiver_rotation,
    receiver_rotations,
    segments_blocked,
)
from .signal import (
    OOK_FUNDAMENTAL,
    SHAPE_DC,
    SHAPE_SQUARE_OOK,
    WaveComponent,
    extract_amplitudes,
    synthesize_traces,
)
# Unused here; perfbench/tracer.py wraps these names in this module.
from .geom import line_of_sight, solve_frame_basis  # noqa: F401
from .signal import extract_amplitude, synthesize_trace  # noqa: F401
from . import _kernels
from .streams import KeyedStreams
from .solve import (
    LampSighting,
    Reading,
    STATUS_UNIQUE,
    SolveResult,
    STATUS_DEGENERATE,
    mflp_closed_form_batch,
    mflp_least_squares,
    select_readings,
    select_top_readings,
    solve_multi,
    to_world_position,
    trilaterate,
)

MODE_FAST = "fast"
MODE_END_TO_END = "end_to_end"

PIPELINE_MFLP = "mflp"
PIPELINE_TRILATERATION = "trilateration"
PIPELINE_MULTI = "multi"

METHOD_MFLP = "mflp"
METHOD_TRILATERATION = "trilateration"

# End-to-end measurement synthesizes and extracts at most this many traces
# per call.
TRACE_BATCH = 4096

# Trilateration geometry guards: lamps closer than this or spanning less
# triangle area give ill-conditioned or ambiguous fixes.
MIN_LAMP_SEPARATION = 1.0
MIN_TRIANGLE_AREA = 0.5


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement perturbations: multiplicative RSS factor (1 +/- eps),
    additive uniform heading error, Gaussian pitch/roll error, and trace
    noise for end-to-end mode."""

    rss_epsilon: float = 0.0
    heading_epsilon: float = 0.0
    accel_sd: float = 0.0
    trace_noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rss_epsilon <= 0.2:
            raise ValueError("rss_epsilon outside [0, 0.2]")
        if self.heading_epsilon < 0 or self.accel_sd < 0 or self.trace_noise_sd < 0:
            raise ValueError("noise magnitudes must be nonnegative")


@dataclass(frozen=True)
class ReceiverSpec:
    polyhedron: Polyhedron
    base_height: float = 0.0

    @classmethod
    def default(cls, edge_length: float = 0.05, base_height: float = 0.0):
        return cls(half_dodecahedron(edge_length), base_height)


@dataclass(frozen=True)
class Scenario:
    bounds: Aabb
    obstacles: tuple
    lamps: tuple
    receiver: ReceiverSpec
    noise: NoiseSpec = NoiseSpec()
    saturation: float = 1000.0
    ambient_dc: float = 850.0
    sample_rate_hz: float = 640.0
    window_s: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "lamps", tuple(self.lamps))
        freqs = [l.flash_hz for l in self.lamps]
        # Each flash must be sampled below Nyquist and fill at least one
        # whole period of the window's samples, or it cannot be extracted.
        samples = round(self.sample_rate_hz * self.window_s)
        for f in freqs:
            if f >= self.sample_rate_hz / 2:
                raise ValueError(
                    f"lamp flash {f} Hz at or above the Nyquist frequency "
                    f"of {self.sample_rate_hz} Hz sampling"
                )
            if samples * f / self.sample_rate_hz < 1:
                raise ValueError(
                    f"a {self.window_s} s window is shorter than one period "
                    f"of the {f} Hz lamp flash"
                )
        resolution = 1.0 / self.window_s
        for i, fi in enumerate(freqs):
            for fj in freqs[i + 1:]:
                if abs(fi - fj) <= resolution:
                    raise ValueError(
                        f"lamp frequencies {fi} and {fj} Hz not resolvable "
                        f"in a {self.window_s} s window"
                    )
        for lamp in self.lamps:
            if not self.bounds.contains(lamp.position):
                raise ValueError("lamp outside scenario bounds")


@dataclass(frozen=True)
class MeasurementSet:
    """Extracted per-(lamp, face) amplitudes with solve-frame planes.

    Amplitudes are flash-fundamental values, i.e. (2/pi) x model RSS;
    ``k_scale`` carries that factor so solvers can use k_eff = k * k_scale.
    """

    readings: tuple
    attitude: Attitude
    k_scale: float = OOK_FUNDAMENTAL
    saturated_faces: tuple = ()


@dataclass(frozen=True)
class ErrorStats:
    median: float
    mean: float
    max: float
    stdev: float
    count: int = 0
    failures: int = 0

    @classmethod
    def from_errors(cls, errors, failures: int = 0):
        errors = np.asarray(errors, dtype=float)
        if len(errors) == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0, failures)
        return cls(
            float(np.median(errors)),
            float(np.mean(errors)),
            float(np.max(errors)),
            float(np.std(errors)),
            len(errors),
            failures,
        )


@dataclass(frozen=True)
class Fix:
    time_s: float
    true_position: np.ndarray
    estimate: np.ndarray
    status: str

    @property
    def error(self) -> float:
        return float(np.linalg.norm(self.estimate - self.true_position))


@dataclass(frozen=True)
class CoverageReport:
    method: str
    fraction: float
    uncovered_cells: tuple
    lamp_count: int


def _attitude_noise(noise: NoiseSpec, rng):
    """One pose's (pitch, roll, heading) offsets drawn from its generator,
    in the order ``measure`` draws them: the heading offset, then pitch and
    roll when the accelerometer is noisy.  Nothing is drawn without
    attitude noise."""
    if noise.heading_epsilon == 0 and noise.accel_sd == 0:
        return 0.0, 0.0, 0.0
    heading = rng.uniform(-noise.heading_epsilon, noise.heading_epsilon)
    if not noise.accel_sd:
        return 0.0, 0.0, heading
    pitch = rng.normal(0, noise.accel_sd)
    return pitch, rng.normal(0, noise.accel_sd), heading


def _measured_attitudes(att: Attitude, offsets) -> np.ndarray:
    """Measured (pitch, roll, heading) rows, (N, 3), from (N, 3) offsets:
    pitch clipped to [-pi/2, pi/2], roll wrapped once toward (-pi, pi] and
    heading taken modulo 2*pi.  A row outside the ranges of ``Attitude``
    raises its ValueError."""
    meas = np.array([att.pitch, att.roll, att.heading]) + offsets
    # Column views: the assignments below update them in place.
    pitch, roll, heading = meas.T
    meas[:, 0] = np.maximum(-math.pi / 2, np.minimum(math.pi / 2, pitch))
    meas[:, 1] = np.where(roll <= -math.pi, roll + 2 * math.pi,
                          np.where(roll > math.pi, roll - 2 * math.pi, roll))
    meas[:, 2] = np.remainder(heading, 2 * math.pi)
    bad = (np.abs(roll) > math.pi) | (roll == -math.pi) | (
        heading == 2 * math.pi)
    if bad.any():
        Attitude(*meas[np.argmax(bad)].tolist())
    return meas


def _measured_attitude(att: Attitude, noise: NoiseSpec, rng) -> Attitude:
    """One pose's measured attitude drawn from rng: the batch of one of
    ``_measured_attitudes``."""
    if noise.heading_epsilon == 0 and noise.accel_sd == 0:
        return att
    offsets = np.array([_attitude_noise(noise, rng)])
    return Attitude(*_measured_attitudes(att, offsets)[0].tolist())


@dataclass(frozen=True)
class MeasurementBatch:
    """Measurements of N receiver poses as arrays over (fix, lamp, face).

    ``amps`` holds the extracted amplitudes and ``valid`` marks the
    readings a solver may use: lit, unoccluded, unsaturated and positive.
    ``planes`` are each face's sensing-plane coefficients in the lamp's
    solve frame, signed to dot positively with the lamp but not yet
    normalized (``Reading`` and the batched solvers normalize them).
    ``saturated`` flags saturated faces per fix, and ``attitudes`` holds
    the measured attitudes as (pitch, roll, heading) rows.
    """

    amps: np.ndarray       # (N, lamps, faces)
    valid: np.ndarray      # (N, lamps, faces)
    planes: np.ndarray     # (N, lamps, faces, 3)
    saturated: np.ndarray  # (N, faces)
    attitudes: np.ndarray  # (N, 3)
    k_scale: float = OOK_FUNDAMENTAL

    def measurement_set(self, n: int) -> MeasurementSet:
        """Fix n as a MeasurementSet, readings in lamp then face order."""
        readings = tuple(
            Reading(self.planes[n, li, fi], float(self.amps[n, li, fi]),
                    int(li), int(fi))
            for li, fi in zip(*np.nonzero(self.valid[n]))
        )
        saturated = tuple(int(fi) for fi in np.nonzero(self.saturated[n])[0])
        return MeasurementSet(readings,
                              Attitude(*self.attitudes[n].tolist()),
                              self.k_scale, saturated)


def measure_batch(scn: Scenario, positions, attitude: Attitude, rngs,
                  mode: str = MODE_FAST) -> MeasurementBatch:
    """Simulate N measurement epochs at once, all at one receiver attitude.

    ``positions`` is (N, 3).  ``rngs`` is either an iterable yielding one
    numpy Generator per pose or a ``KeyedStreams`` of N keys, whose stream
    n equals the draws of ``np.random.default_rng(keys[n])``.  Each pose's
    noise comes from its own generator or stream, in the order ``measure``
    draws it: attitude noise, then the fast-mode noise signs or the
    end-to-end trace seeds.  Both forms fill the same arrays, which one
    array pass then applies.  Keyed streams are drawn as arrays, all poses
    at once, except when the accelerometer is noisy
    (``scn.noise.accel_sd > 0``): numpy's normals come from a ziggurat that
    can reject and redraw, so those draws come from one Generator per key.

    Per lamp x face: line-of-sight check to the face centroid, forward
    RSS, then either the direct flash-fundamental amplitude with
    multiplicative noise (fast) or waveform synthesis plus single-bin
    extraction (end_to_end: one trace per fix and face, synthesized by
    ``synthesize_traces`` and extracted by ``extract_amplitudes`` in
    batches of up to TRACE_BATCH traces).  Saturated faces are flagged and
    excluded.  A pose outside the scenario bounds raises ValueError.
    """
    if mode not in (MODE_FAST, MODE_END_TO_END):
        raise ValueError(f"unknown measurement mode {mode!r}")
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    inside = scn.bounds.contains(positions)
    if not inside.all():
        position = positions[np.argmin(inside)]
        raise ValueError(f"receiver pose {position} outside scenario bounds")
    n_fix = len(positions)
    poly = scn.receiver.polyhedron
    shape = (n_fix, len(scn.lamps), poly.n_faces)
    rot_true = receiver_rotation(attitude)
    noise = scn.noise

    # Draw every pose's noise first, in the order measure draws it: the
    # (pitch, roll, heading) offsets, then the fast-mode noise signs or
    # the end-to-end trace seeds.
    offsets = np.zeros((n_fix, 3))
    keyed = isinstance(rngs, KeyedStreams)
    if keyed and len(rngs) != n_fix:
        raise ValueError(f"{len(rngs)} keyed streams for {n_fix} poses")
    if keyed and noise.accel_sd == 0:
        if noise.heading_epsilon != 0:
            offsets[:, 2] = rngs.uniform(-noise.heading_epsilon,
                                         noise.heading_epsilon)
        draws = (rngs.binary(shape[1:]) if mode == MODE_FAST
                 else rngs.integers63(poly.n_faces))
    else:
        rngs = iter(rngs.generators() if keyed else rngs)
        draws = np.empty(shape if mode == MODE_FAST
                         else (n_fix, poly.n_faces), dtype=np.int64)
        for n in range(n_fix):
            rng = next(rngs)
            offsets[n] = _attitude_noise(noise, rng)
            if mode == MODE_FAST:
                draws[n] = rng.integers(0, 2, size=shape[1:])
            else:
                draws[n] = [rng.integers(2**63)
                            for _ in range(poly.n_faces)]

    if noise.heading_epsilon == 0 and noise.accel_sd == 0:
        att_meas = np.full((n_fix, 3), [attitude.pitch, attitude.roll,
                                        attitude.heading], dtype=float)
        rot_meas = np.repeat(rot_true[None], n_fix, axis=0)
    else:
        att_meas = _measured_attitudes(attitude, offsets)
        rot_meas = receiver_rotations(att_meas)

    centers = positions[:, None, :] + poly.centroids @ rot_true.T
    normals_true = poly.normals @ rot_true.T
    normals_meas = np.matmul(poly.normals, rot_meas.transpose(0, 2, 1))

    # Raw model RSS per (lamp, face); zero when occluded or back-lit.
    # Faces share the receiver origin in the model (the face planes pass
    # through it); centroids are used for occlusion realism only.
    rss = np.zeros(shape)
    planes = np.empty(shape + (3,))
    for li, lamp in enumerate(scn.lamps):
        delta = lamp.position - positions
        d = np.sqrt(np.vecdot(delta, delta))
        cos_w = np.vecdot(-delta / d[:, None], lamp.central_ray)
        front = cos_w > 0
        incidence = np.matvec(normals_true, delta)
        lit = front[:, None] & (incidence > 0)
        lit[lit] = ~segments_blocked(lamp.position, centers[lit],
                                     scn.obstacles)
        f = lamp.profile.value(np.arccos(np.where(front, np.minimum(
            1.0, cos_w), 1.0)))
        rss[:, li] = np.where(
            lit, (lamp.k / d**3)[:, None] * incidence * f[:, None], 0.0)

        basis = lamp.solve_basis
        n_solve = np.matmul(normals_meas, basis)
        toward = np.matvec(basis.T, lamp.position - centers)
        n_solve[np.vecdot(n_solve, toward) < 0] *= -1.0
        planes[:, li] = n_solve

    saturated = scn.ambient_dc + rss.sum(axis=1) > scn.saturation

    if mode == MODE_FAST:
        amps = OOK_FUNDAMENTAL * rss * (
            1.0 + noise.rss_epsilon * (draws * 2 - 1))
    else:
        # One trace per (fix, face): ambient DC, then every lamp in order,
        # an unlit one at peak 0 (adding it changes no sample).
        components = [WaveComponent(0.0, scn.ambient_dc, SHAPE_DC)] + [
            WaveComponent(lamp.flash_hz, 0.0, SHAPE_SQUARE_OOK)
            for lamp in scn.lamps]
        peaks = np.empty((n_fix, poly.n_faces, len(components)))
        peaks[..., 0] = scn.ambient_dc
        peaks[..., 1:] = np.where(rss > 0, rss, 0.0).transpose(0, 2, 1)
        peaks = peaks.reshape(-1, len(components))
        seeds = draws.ravel().tolist()
        extracted = np.empty((len(peaks), len(scn.lamps)))
        # Traces are independent rows; bounded batches bound their memory.
        for lo in range(0, len(peaks), TRACE_BATCH):
            traces = synthesize_traces(
                components, peaks[lo:lo + TRACE_BATCH], scn.sample_rate_hz,
                scn.window_s, noise.trace_noise_sd,
                seeds=seeds[lo:lo + TRACE_BATCH])
            extracted[lo:lo + TRACE_BATCH] = extract_amplitudes(
                traces, scn.sample_rate_hz,
                [lamp.flash_hz for lamp in scn.lamps])
        amps = np.where(rss > 0, extracted.reshape(n_fix, poly.n_faces, -1)
                        .transpose(0, 2, 1), 0.0)

    valid = ~saturated[:, None, :] & (amps > 0) & (rss > 0)
    return MeasurementBatch(amps, valid, planes, saturated, att_meas)


def measure(scn: Scenario, position, attitude: Attitude = Attitude(0, 0, 0),
            mode: str = MODE_FAST, rng=None) -> MeasurementSet:
    """Simulate one measurement epoch at a receiver pose: the batch of one
    of ``measure_batch``."""
    if rng is None:
        rng = np.random.default_rng(scn.noise.seed)
    return measure_batch(scn, [position], attitude, [rng],
                         mode).measurement_set(0)


def sightings_from(mset: MeasurementSet):
    by_lamp = {}
    for r in mset.readings:
        by_lamp.setdefault(r.lamp_id, []).append(r)
    return [LampSighting(i, tuple(rs)) for i, rs in sorted(by_lamp.items())]


def locate(scn: Scenario, mset: MeasurementSet, pipeline: str = PIPELINE_MFLP,
           m: int = 3, z_receiver=None) -> SolveResult:
    """Run the selected position pipeline on one measurement set,
    returning a world-frame result."""
    sightings = sightings_from(mset)
    if pipeline == PIPELINE_MFLP:
        chosen = select_readings(sightings, 3)
        lamp = scn.lamps[chosen[0].lamp_id]
        res = mflp_least_squares(chosen, lamp.k * mset.k_scale, lamp.profile)
        if res.status != STATUS_UNIQUE:
            return res
        return SolveResult(to_world_position(lamp, res.point),
                           res.residual_rms, res.status, res.iterations)
    if pipeline == PIPELINE_MULTI:
        chosen = select_readings(sightings, m)
        return solve_multi(chosen, {i: scn.lamps[i] for i in
                                    {r.lamp_id for r in chosen}},
                           k_scale=mset.k_scale)
    if pipeline == PIPELINE_TRILATERATION:
        # One horizontal sensor: use the top face (index 0) per lamp.
        top = {r.lamp_id: r.s for r in mset.readings if r.face_id == 0}
        if len(top) < 3:
            return SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)
        ids = sorted(top, key=top.get, reverse=True)[:3]
        lamp0 = scn.lamps[ids[0]]
        return trilaterate(
            [scn.lamps[i].position for i in ids],
            lamp0.k * mset.k_scale, lamp0.profile,
            [top[i] for i in ids],
            z_receiver=z_receiver,
        )
    raise ValueError(f"unknown pipeline {pipeline!r}")


def locate_batch(scn: Scenario, batch: MeasurementBatch):
    """The mflp pipeline of ``locate`` over every fix of a batch.

    Per fix: reading selection by ``select_top_readings``, the closed form
    seed, the least-squares refine in the chosen lamp's solve frame, and
    the world transform; the same steps ``locate`` takes one fix at a
    time.  Returns (world positions (N, 3), unique (N,)); a fix that is not
    unique, because no lamp keeps three readings, the closed form is
    degenerate or the refine does not converge, has a NaN position.
    """
    n_fix = len(batch.amps)
    est = np.full((n_fix, 3), np.nan)
    unique = np.zeros(n_fix, dtype=bool)
    lamp_of, faces, ok = select_top_readings(batch.amps, batch.valid)
    for li, lamp in enumerate(scn.lamps):
        idx = np.nonzero(ok & (lamp_of == li))[0]
        chosen = faces[idx]
        planes = batch.planes[idx[:, None], li, chosen]
        planes = planes / np.sqrt(np.vecdot(planes, planes))[..., None]
        s = batch.amps[idx[:, None], li, chosen]
        k = lamp.k * batch.k_scale
        seed, seeded = mflp_closed_form_batch(planes, s, k, lamp.profile)
        # mflp_least_squares raises on a seed with z <= 0.
        seeded[seeded] = seed[seeded, 2] > 0
        idx, planes, s, seed = idx[seeded], planes[seeded], s[seeded], \
            seed[seeded]
        kind, coeffs = lamp.profile.kernel_coding()
        x, _, status, _ = _kernels.solve_batch(planes, s, k, kind, coeffs,
                                               seed)
        converged = status == 0
        est[idx[converged]] = to_world_position(lamp, x[converged])
        unique[idx[converged]] = True
    return est, unique


def _point_rng(seed, *indices):
    return np.random.default_rng((int(seed),) + tuple(int(i) for i in indices))


def run_static(scn: Scenario, points, pipeline: str = PIPELINE_MFLP,
               m: int = 3, mode: str = MODE_FAST, seed=None,
               attitude: Attitude = Attitude(0, 0, 0)):
    """Measure and solve at each point; returns (fixes, ErrorStats).

    Per-point failures (no coverage, degenerate, no convergence) are
    reported in the fix list and excluded from the statistics.
    """
    if seed is None:
        seed = scn.noise.seed
    fixes = []
    errors = []
    failures = 0
    for i, p in enumerate(points):
        p = np.asarray(p, dtype=float)
        rng = _point_rng(seed, i)
        try:
            mset = measure(scn, p, attitude, mode, rng)
            z = p[2] if pipeline == PIPELINE_TRILATERATION else None
            res = locate(scn, mset, pipeline, m, z_receiver=z)
        except ValueError:
            res = SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)
        fixes.append(Fix(float(i), p, res.point, res.status))
        if res.status == STATUS_UNIQUE:
            errors.append(float(np.linalg.norm(res.point - p)))
        else:
            failures += 1
    return fixes, ErrorStats.from_errors(errors, failures)


def sample_trajectory(waypoints, speed: float, interval_s: float):
    """Positions every interval_s seconds along a piecewise-linear path."""
    waypoints = [np.asarray(w, dtype=float) for w in waypoints]
    if interval_s <= 0 or speed <= 0:
        raise ValueError("speed and interval must be positive")
    if len(waypoints) == 1:
        return [(0.0, waypoints[0])]
    legs = list(zip(waypoints[:-1], waypoints[1:]))
    total = sum(np.linalg.norm(b - a) for a, b in legs)
    out = []
    t = 0.0
    while t * speed <= total + 1e-12:
        dist = t * speed
        acc = 0.0
        for li, (a, b) in enumerate(legs):
            leg = np.linalg.norm(b - a)
            if dist <= acc + leg or li == len(legs) - 1:
                frac = 0.0 if leg == 0 else min((dist - acc) / leg, 1.0)
                out.append((t, a + frac * (b - a)))
                break
            acc += leg
        t += interval_s
    return out


def run_trajectory(scn: Scenario, waypoints, speed: float, interval_s: float,
                   pipeline: str = PIPELINE_MFLP, m: int = 3,
                   mode: str = MODE_FAST, seed=None,
                   attitude: Attitude = Attitude(0, 0, 0)):
    """Static pipeline at every sampled pose of a piecewise-linear path."""
    samples = sample_trajectory(waypoints, speed, interval_s)
    if seed is None:
        seed = scn.noise.seed
    fixes = []
    for i, (t, p) in enumerate(samples):
        if not scn.bounds.contains(p):
            raise ValueError("trajectory leaves scenario bounds")
        rng = _point_rng(seed, i)
        try:
            mset = measure(scn, p, attitude, mode, rng)
            z = p[2] if pipeline == PIPELINE_TRILATERATION else None
            res = locate(scn, mset, pipeline, m, z_receiver=z)
        except ValueError:
            res = SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)
        fixes.append(Fix(t, p, res.point, res.status))
    return fixes


def oscillation_distance(points) -> float:
    """Mean distance of repeated fixes from their centroid."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least two fixes")
    centroid = pts.mean(axis=0)
    return float(np.mean(np.linalg.norm(pts - centroid, axis=1)))


def sensitivity_sweep(scn: Scenario, points, eps_grid, eps_h_grid,
                      trials: int, pipeline: str = PIPELINE_MFLP,
                      mode: str = MODE_FAST, seed=None):
    """Full factorial perturbation sweep; ``trials`` repeats per point
    and cell, all independently seeded.

    Each cell is solved as one batch: its trials x points fixes are
    measured together by ``measure_batch`` and, for the mflp pipeline,
    located together by ``locate_batch`` (other pipelines run ``locate``
    per fix).  Every fix still draws the stream of its own generator
    seeded with (seed, cell indices, trial, point): the cell's (N, 5) keys
    go to ``measure_batch`` as one ``KeyedStreams``, which draws all of
    them as arrays.  So a cell's statistics equal those of the same fixes
    run one at a time through ``measure`` and ``locate``.  A fix that
    raises there (a point outside the bounds, no lamp with three readings
    above the floor) or is not unique counts as a failure.

    Returns (rows, mean_monotone) where rows are
    (eps, eps_h, ErrorStats) and mean_monotone reports whether the mean
    error is non-decreasing in eps at every fixed eps_h.
    """
    if seed is None:
        seed = scn.noise.seed
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    inside = np.flatnonzero(scn.bounds.contains(points))
    fixes = [(t, i) for t in range(trials) for i in inside]
    truth = points[[i for _, i in fixes]].reshape(-1, 3)
    fix_keys = np.array(fixes, dtype=np.int64).reshape(-1, 2)
    rows = []
    for ci, eps_h in enumerate(eps_h_grid):
        for cj, eps in enumerate(eps_grid):
            noisy = replace(scn, noise=replace(
                scn.noise, rss_epsilon=eps, heading_epsilon=eps_h))
            cell = np.array((int(seed), ci, cj))
            keys = np.empty((len(fixes), 5), dtype=cell.dtype)
            keys[:, :3], keys[:, 3:] = cell, fix_keys
            batch = measure_batch(noisy, truth, Attitude(0, 0, 0),
                                  KeyedStreams(keys), mode)
            if pipeline == PIPELINE_MFLP:
                est, unique = locate_batch(noisy, batch)
            else:
                est = np.full(truth.shape, np.nan)
                unique = np.zeros(len(fixes), dtype=bool)
                for n in range(len(fixes)):
                    try:
                        res = locate(noisy, batch.measurement_set(n),
                                     pipeline)
                    except ValueError:
                        continue
                    if res.status == STATUS_UNIQUE:
                        est[n], unique[n] = res.point, True
            miss = est[unique] - truth[unique]
            errors = np.sqrt(np.vecdot(miss, miss))
            failures = trials * len(points) - int(unique.sum())
            rows.append((eps, eps_h, ErrorStats.from_errors(errors, failures)))
    monotone = True
    for eps_h in eps_h_grid:
        means = [st.mean for e, h, st in rows if h == eps_h]
        if any(b < a - 1e-12 for a, b in zip(means, means[1:])):
            monotone = False
    return rows, monotone


def grid_cells(bounds: Aabb, cell_size: float, height: float) -> np.ndarray:
    """Cell-center grid over the floorplan at the receiver height, as a
    (K, 3) array in x-major order."""
    if not (0 < cell_size < math.inf and math.isfinite(height)):
        raise ValueError("cell size must be positive and finite, and the "
                         "receiver height finite")
    xs = np.arange(bounds.lo[0] + cell_size / 2, bounds.hi[0], cell_size)
    ys = np.arange(bounds.lo[1] + cell_size / 2, bounds.hi[1], cell_size)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), np.full(x.size, height)])


def _visibility(bounds: Aabb, obstacles, lamps, cell_size: float,
                height: float):
    """The grid cells outside every box, (K, 3), and which lamps see them,
    (lamps, K): the cell center lies within the lamp's ``range_m`` and no
    box blocks the segment between them.  A lamp in range of a cell
    center it coincides with (``np.allclose``) raises ValueError, as
    ``line_of_sight`` does."""
    cells = grid_cells(bounds, cell_size, height)
    for box in obstacles:
        cells = cells[~box.contains(cells)]
    pos = np.array([lamp.position for lamp in lamps]).reshape(-1, 3)
    delta = pos[:, None, :] - cells
    in_range = np.sqrt(np.vecdot(delta, delta)) <= np.array(
        [lamp.range_m for lamp in lamps])[:, None]
    coincide = np.all(np.abs(delta) <= 1e-8 + 1e-5 * np.abs(cells), axis=-1)
    if np.any(in_range & coincide):
        raise ValueError("a lamp coincides with a cell center")
    return cells, in_range & ~segments_blocked(pos[:, None, :], cells,
                                               obstacles)


def _valid_triples(lamps) -> np.ndarray:
    """Index triples (i < j < k) of lamps that can anchor a trilateration
    fix, pairwise at least MIN_LAMP_SEPARATION apart and spanning at least
    MIN_TRIANGLE_AREA, as a (T, 3) array."""
    triples = np.array(list(combinations(range(len(lamps)), 3)),
                       dtype=np.intp).reshape(-1, 3)
    pos = np.array([lamp.position for lamp in lamps]).reshape(-1, 3)
    pa, pb, pc = (pos[triples[:, j]] for j in range(3))
    sides = np.stack([pb - pa, pc - pa, pc - pb])
    lengths = np.sqrt(np.vecdot(sides, sides))
    separated = np.all(lengths >= MIN_LAMP_SEPARATION, axis=0)
    normal = np.cross(pb - pa, pc - pa)
    area = 0.5 * np.sqrt(np.vecdot(normal, normal))
    return triples[separated & (area >= MIN_TRIANGLE_AREA)]


def _anchor_groups(lamps, method: str) -> np.ndarray:
    """The lamp sets that position a cell when all of them see it: each
    lamp alone for the multi-face method, each valid triple for
    trilateration; a (groups, group size) index array."""
    if method == METHOD_MFLP:
        return np.arange(len(lamps))[:, None]
    if method == METHOD_TRILATERATION:
        return _valid_triples(lamps)
    raise ValueError(f"unknown coverage method {method!r}")


def coverage_analysis(bounds: Aabb, obstacles, lamps, method: str,
                      cell_size: float = 0.3,
                      receiver_height: float = 0.0) -> CoverageReport:
    """Fraction of floor cells positionable by the given method.

    A cell counts as covered for the multi-face method when one lamp sees
    it (the half-dodecahedron receiver then guarantees three usable
    faces), and for trilateration when three sufficiently separated,
    non-collinear lamps see it.  A lamp sees a cell within its
    ``range_m`` of the cell center with a clear line of sight; the whole
    (lamps, cells) visibility matrix is built at once.
    """
    groups = _anchor_groups(lamps, method)
    cells, vis = _visibility(bounds, obstacles, lamps, cell_size,
                             receiver_height)
    covered = vis[groups].all(axis=1).any(axis=0)
    uncovered = tuple(tuple(c) for c in cells[~covered])
    fraction = 1.0 - len(uncovered) / len(cells) if len(cells) else 0.0
    return CoverageReport(method, fraction, uncovered, len(lamps))


def greedy_min_lamps(bounds: Aabb, obstacles, candidates, method: str,
                     cell_size: float = 0.3, receiver_height: float = 0.0):
    """Greedy max-coverage lamp placement until full coverage.

    Each round adds the candidate that newly covers the most cells (as
    ``coverage_analysis`` counts coverage); ties break by progress toward
    three visible lamps per uncovered cell for trilateration, then by
    candidate order.  Planning stops when no candidate makes progress.
    Returns (count, chosen indices, uncovered cell count); a nonzero
    shortfall means full coverage is unattainable with the given
    candidates.
    """
    groups = _anchor_groups(candidates, method)
    cells, vis = _visibility(bounds, obstacles, candidates, cell_size,
                             receiver_height)
    group_vis = vis[groups].all(axis=1)
    need = groups.shape[1]
    n = len(candidates)
    # with_candidate[ci, ci2]: lamp ci2 is in the plan once ci is added.
    with_candidate = np.eye(n, dtype=bool)
    chosen: list[int] = []
    covered = np.zeros(len(cells), dtype=bool)
    while not covered.all() and len(chosen) < n:
        covered_with = with_candidate[:, groups].all(axis=2) @ group_vis
        gain = (covered_with & ~covered).sum(axis=1)
        short = ~covered & (vis[chosen].sum(axis=0) < need)
        progress = (vis & short).sum(axis=1)
        best = max((int(gain[ci]), int(progress[ci]), -ci)
                   for ci in range(n) if ci not in chosen)
        if best[:2] == (0, 0):
            break  # no candidate makes progress
        ci = -best[2]
        chosen.append(ci)
        with_candidate[:, ci] = True
        covered = covered_with[ci]
    shortfall = int((~covered).sum())
    return len(chosen), chosen, shortfall
