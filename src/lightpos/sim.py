"""Scenario modeling, measurement generation with noise, batch and
trajectory evaluation, stability metrics, and deployment-cost analysis.

All randomness is drawn per point from the stream of a generator seeded
with the seed combined with the point/trial index, so identical scenario +
seed pairs always reproduce bit-identical results regardless of evaluation
order.  The sweep draws a whole noise cell's streams at once with
``streams.KeyedStreams``, whose values equal those generators' draws.

Measurements are arrays over (fix, lamp, face) (``MeasurementBatch``);
``measure`` makes a batch of one fix.  They are made in two parts.  The
pose part depends only on the true pose and attitude: line of sight,
model RSS, saturation and each face's direction toward each lamp.  The
per-fix part depends on the fix's noise draws: the measured attitude,
the sensing planes it gives, the noisy or extracted amplitudes and
which readings are valid.  The sweep computes the pose part of each
point once and the per-fix part of every fix at it.

Every pipeline runs on one array core, ``locate_batch``, which chooses
readings from the measurement arrays and gives the solvers each lamp's k
times 2/pi (amplitudes are flash fundamentals); scalar ``locate`` is its
batch of one.  The runs and the sweep measure and locate all their fixes
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

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
from .rss import LampTable
from .signal import (
    OOK_FUNDAMENTAL,
    SHAPE_DC,
    SHAPE_SQUARE_OOK,
    WaveComponent,
    extract_amplitudes,
    synthesize_traces,
)
from .streams import KeyedStreams
from .solve import (
    STATUS_UNIQUE,
    SolveResult,
    closed_form_fixes,
    degenerate_fixes,
    select_pooled_readings,
    select_top_readings,
    solve_multi,
    trilaterate_batch,
)

MODE_FAST = "fast"
MODE_END_TO_END = "end_to_end"

PIPELINE_MFLP = "mflp"
PIPELINE_TRILATERATION = "trilateration"
PIPELINE_MULTI = "multi"

# The ValueError ``locate`` raises for a fix, by ``locate_batch`` code.
LOCATE_ERRORS = ("", "no lamp has three readings above the RSS floor",
                 "k and the receiver height must be finite, k > 0",
                 "receiver must start below every lamp")

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
        if not all(0 <= v < math.inf for v in (
                self.heading_epsilon, self.accel_sd, self.trace_noise_sd)):
            raise ValueError("noise magnitudes must be nonnegative and finite")


@dataclass(frozen=True)
class ReceiverSpec:
    polyhedron: Polyhedron

    @classmethod
    def default(cls, edge_length: float = 0.05):
        return cls(half_dodecahedron(edge_length))


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

    @cached_property
    def lamp_table(self) -> LampTable:
        """The lamps as arrays, for the solvers."""
        return LampTable.of(self.lamps)


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
    normalized (``locate_batch`` normalizes the chosen ones).
    ``saturated`` flags saturated faces per fix, and ``attitudes`` holds
    the measured attitudes as (pitch, roll, heading) rows.  Amplitudes
    are flash-fundamental values, (2/pi) x model RSS; ``locate_batch``
    applies that factor to the lamps' k before it solves.
    """

    amps: np.ndarray       # (N, lamps, faces)
    valid: np.ndarray      # (N, lamps, faces)
    planes: np.ndarray     # (N, lamps, faces, 3)
    saturated: np.ndarray  # (N, faces)
    attitudes: np.ndarray  # (N, 3)


class _Poses(NamedTuple):
    """What the measurements of N poses take from the true poses alone
    (``_pose_geometry``): the same for every fix at a pose, whatever its
    noise draws."""

    attitude: Attitude     # the true receiver attitude
    rot: np.ndarray        # (3, 3) its receiver rotation
    rss: np.ndarray        # (N, lamps, faces) model RSS
    saturated: np.ndarray  # (N, faces)
    toward: np.ndarray     # (lamps, N, faces, 3) face to lamp, solve frame

    def take(self, idx) -> _Poses:
        """The poses at the indices ``idx``, in that order."""
        return self._replace(rss=self.rss[idx], saturated=self.saturated[idx],
                             toward=self.toward[:, idx])


def _pose_geometry(scn: Scenario, positions, attitude: Attitude) -> _Poses:
    """The pose part of ``measure_batch``: everything of N poses, (N, 3)
    ``positions`` at one true ``attitude``, that no noise draw changes,
    over all lamps at once.

    Per (pose, lamp, face): the model RSS, zero where the line of sight
    from the lamp to the face centroid is blocked or the face is back-lit,
    and the direction from the face centroid toward the lamp in the lamp's
    solve frame, which signs the planes.  Per (pose, face): saturation.
    Faces share the receiver origin in the model (the face planes pass
    through it); centroids are used for occlusion realism and the plane
    signs only.
    """
    poly = scn.receiver.polyhedron
    rot_true = receiver_rotation(attitude)
    centers = positions[:, None, :] + poly.centroids @ rot_true.T
    normals_true = poly.normals @ rot_true.T
    # Lamp-major arrays, (L, N, ...): each lamp's constants broadcast over
    # one long run of (pose, face) rows.
    lamps, table = scn.lamps, scn.lamp_table
    lamp_pos = table.position
    delta = lamp_pos[:, None, :] - positions                     # (L, N, 3)
    d = np.sqrt(np.vecdot(delta, delta))
    rays = np.array([lamp.central_ray for lamp in lamps]).reshape(-1, 1, 3)
    cos_w = np.vecdot(-delta / d[..., None], rays)
    front = cos_w > 0
    incidence = np.matvec(normals_true, delta)                  # (L, N, F)
    lit = front[..., None] & (incidence > 0)
    if scn.obstacles:
        # Only lit segments are tested; with no boxes none is blocked.
        li, pose, face = np.nonzero(lit)
        lit[li, pose, face] = ~segments_blocked(
            lamp_pos[li], centers[pose, face], scn.obstacles)
    omega = np.arccos(np.where(front, np.minimum(1.0, cos_w), 1.0))
    f = np.array([lamp.profile.value(w) for lamp, w in zip(lamps, omega)]
                 ).reshape(cos_w.shape)
    k = table.k[:, None]
    rss = np.where(lit, (k / d**3)[..., None] * incidence * f[..., None], 0.0)
    rss = np.ascontiguousarray(rss.transpose(1, 0, 2))
    toward = np.matvec(table.basis.transpose(0, 2, 1)[:, None, None],
                       lamp_pos[:, None, None, :] - centers)
    saturated = scn.ambient_dc + rss.sum(axis=1) > scn.saturation
    return _Poses(attitude, rot_true, rss, saturated, toward)


def _fix_planes(scn: Scenario, normals_meas, toward) -> np.ndarray:
    """The per-fix planes: each face's sensing plane in each lamp's solve
    frame, (N, lamps, faces, 3), from the world face normals of each
    fix's measured attitude, ``normals_meas`` (N, faces, 3), signed to dot
    positively with the pose's direction from the face toward the lamp,
    ``toward`` (lamps, N, faces, 3)."""
    planes = np.matmul(normals_meas, scn.lamp_table.basis[:, None])
    planes *= np.where(np.vecdot(planes, toward) < 0, -1.0, 1.0)[..., None]
    return np.ascontiguousarray(planes.transpose(1, 0, 2, 3))


def _check_mode(mode: str):
    if mode not in (MODE_FAST, MODE_END_TO_END):
        raise ValueError(f"unknown measurement mode {mode!r}")


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

    Two parts, each over all lamps in one array pass.  Per pose
    (``_pose_geometry``), from the true position and attitude alone: the
    line-of-sight check to each face centroid, the forward RSS, saturation
    and each face's direction toward the lamp.  Per fix
    (``_measure_poses``), from its noise draws: the measured attitude, the
    solve-frame planes of its faces (``_fix_planes``), signed by the
    pose's directions toward the lamps, and either the direct
    flash-fundamental amplitude with multiplicative noise (fast) or
    waveform synthesis plus single-bin extraction (end_to_end: one trace
    per fix and face, synthesized by ``synthesize_traces`` and extracted
    by ``extract_amplitudes`` in batches of up to TRACE_BATCH traces) and
    the valid readings.  Saturated faces are flagged and excluded.  A
    pose outside the scenario bounds raises ValueError.
    """
    _check_mode(mode)
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    inside = scn.bounds.contains(positions)
    if not inside.all():
        position = positions[np.argmin(inside)]
        raise ValueError(f"receiver pose {position} outside scenario bounds")
    return _measure_poses(scn, _pose_geometry(scn, positions, attitude),
                          rngs, mode)


def _measure_poses(scn: Scenario, poses: _Poses, rngs,
                   mode: str) -> MeasurementBatch:
    """The per-fix part of ``measure_batch``: one fix at each of the poses,
    each with the noise of its own generator or stream in ``rngs``."""
    n_fix, n_lamps, n_faces = shape = poses.rss.shape
    attitude = poses.attitude
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
                 else rngs.integers63(n_faces))
    else:
        rngs = iter(rngs.generators() if keyed else rngs)
        draws = np.empty(shape if mode == MODE_FAST
                         else (n_fix, n_faces), dtype=np.int64)
        for n in range(n_fix):
            rng = next(rngs)
            offsets[n] = _attitude_noise(noise, rng)
            if mode == MODE_FAST:
                draws[n] = rng.integers(0, 2, size=shape[1:])
            else:
                draws[n] = [rng.integers(2**63) for _ in range(n_faces)]

    if noise.heading_epsilon == 0 and noise.accel_sd == 0:
        att_meas = np.full((n_fix, 3), [attitude.pitch, attitude.roll,
                                        attitude.heading], dtype=float)
        rot_meas = np.repeat(poses.rot[None], n_fix, axis=0)
    else:
        att_meas = _measured_attitudes(attitude, offsets)
        rot_meas = receiver_rotations(att_meas)

    normals_meas = np.matmul(scn.receiver.polyhedron.normals,
                             rot_meas.transpose(0, 2, 1))
    planes = _fix_planes(scn, normals_meas, poses.toward)

    rss = poses.rss
    if mode == MODE_FAST:
        amps = OOK_FUNDAMENTAL * rss * (
            1.0 + noise.rss_epsilon * (draws * 2 - 1))
    else:
        # One trace per (fix, face): ambient DC, then every lamp in order,
        # an unlit one at peak 0 (adding it changes no sample).
        components = [WaveComponent(0.0, scn.ambient_dc, SHAPE_DC)] + [
            WaveComponent(lamp.flash_hz, 0.0, SHAPE_SQUARE_OOK)
            for lamp in scn.lamps]
        peaks = np.empty((n_fix, n_faces, len(components)))
        peaks[..., 0] = scn.ambient_dc
        peaks[..., 1:] = np.where(rss > 0, rss, 0.0).transpose(0, 2, 1)
        peaks = peaks.reshape(-1, len(components))
        seeds = draws.ravel().tolist()
        extracted = np.empty((len(peaks), n_lamps))
        # Traces are independent rows; bounded batches bound their memory.
        for lo in range(0, len(peaks), TRACE_BATCH):
            traces = synthesize_traces(
                components, peaks[lo:lo + TRACE_BATCH], scn.sample_rate_hz,
                scn.window_s, noise.trace_noise_sd,
                seeds=seeds[lo:lo + TRACE_BATCH])
            extracted[lo:lo + TRACE_BATCH] = extract_amplitudes(
                traces, scn.sample_rate_hz,
                [lamp.flash_hz for lamp in scn.lamps])
        amps = np.where(rss > 0, extracted.reshape(n_fix, n_faces, n_lamps)
                        .transpose(0, 2, 1), 0.0)

    saturated = poses.saturated
    valid = ~saturated[:, None, :] & (amps > 0) & (rss > 0)
    return MeasurementBatch(amps, valid, planes, saturated, att_meas)


def measure(scn: Scenario, position, attitude: Attitude = Attitude(0, 0, 0),
            mode: str = MODE_FAST, rng=None) -> MeasurementBatch:
    """Simulate one measurement epoch at a receiver pose: the one-fix
    batch of ``measure_batch``."""
    if rng is None:
        rng = np.random.default_rng(scn.noise.seed)
    return measure_batch(scn, [position], attitude, [rng], mode)


def locate(scn: Scenario, batch: MeasurementBatch,
           pipeline: str = PIPELINE_MFLP, m: int = 3,
           z_receiver=None) -> SolveResult:
    """The world-frame fix of a one-fix batch by the selected pipeline:
    ``locate_batch`` on it, raising its error.  A batch of any other
    number of fixes raises ValueError."""
    if len(batch.amps) != 1:
        raise ValueError(f"locate takes one fix, got {len(batch.amps)}")
    points, status, residual, iterations, error = locate_batch(
        scn, batch, pipeline, m, z_receiver)
    if error[0]:
        raise ValueError(LOCATE_ERRORS[error[0]])
    return SolveResult(points[0], float(residual[0]), str(status[0]),
                       int(iterations[0]))


def locate_batch(scn: Scenario, batch: MeasurementBatch,
                 pipeline: str = PIPELINE_MFLP, m: int = 3, z_receiver=None):
    """The position pipelines of ``locate`` over every fix of a batch,
    each fix's readings chosen from the measurement arrays.

    mflp, and multi with m = 3: the best lamp's three strongest readings
    (``select_top_readings``) in closed form (``closed_form_fixes``).
    multi with m > 3: the m strongest of the kept lamps' pooled readings
    (``select_pooled_readings``); a fix of one lamp's three readings is
    its closed form, the others go to ``solve_multi`` by reading count.
    trilateration: the top faces of the three lamps reading strongest
    there (``trilaterate_batch``), at the receiver heights ``z_receiver``
    (one, or one per fix) or free; fewer than three is degenerate.

    Returns (points (N, 3), status, residual, iterations, error), error
    being the code in ``LOCATE_ERRORS`` of the ValueError ``locate``
    raises for the fix, 0 for none.  Raises ValueError for an unknown
    pipeline or multi with m < 3.
    """
    _check_pipeline(pipeline, m)
    lamps = scn.lamp_table._replace(k=scn.lamp_table.k * OOK_FUNDAMENTAL)
    if pipeline == PIPELINE_TRILATERATION:
        return _trilaterate_fixes(lamps, batch, z_receiver)
    if pipeline == PIPELINE_MULTI and m > 3:
        lamp_ids, faces, count = select_pooled_readings(batch.amps,
                                                        batch.valid, m)
    else:
        lamp_ids, faces, count = select_top_readings(batch.amps, batch.valid)
    points, status, residual, iterations = degenerate_fixes(len(count))
    for n in np.unique(count[count >= 3]):
        rows = np.flatnonzero(count == n)
        idx = (rows[:, None], lamp_ids[rows, :n], faces[rows, :n])
        planes = batch.planes[idx]
        planes = planes / np.sqrt(np.vecdot(planes, planes))[..., None]
        args = planes, batch.amps[idx], idx[1], lamps
        if n == 3:  # one lamp's three readings: the closed form is the fix
            points[rows], unique, residual[rows] = closed_form_fixes(*args)
            status[rows[unique]] = STATUS_UNIQUE
        else:
            points[rows], status[rows], residual[rows], iterations[rows] = \
                solve_multi(*args)
    return points, status, residual, iterations, np.where(count < 3, 1, 0)


def _trilaterate_fixes(lamps: LampTable, batch, z_receiver):
    """The trilateration pipeline of ``locate_batch``, over its lamps."""
    s, valid = batch.amps[:, :, 0], batch.valid[:, :, 0]
    points, status, residual, iterations = degenerate_fixes(len(s))
    z = None if z_receiver is None else np.broadcast_to(
        np.asarray(z_receiver, dtype=float), len(s))
    lit = valid.sum(axis=1) >= 3
    finite = np.isfinite(0.0 if z is None else z)  # a free z is finite
    rows = np.flatnonzero(lit & finite)
    error = np.where(lit & ~finite, 2, 0)
    if rows.size:
        # The three lamps reading strongest, ties in lamp order.
        ids = np.argsort(np.where(valid[rows], -s[rows], np.inf), axis=1,
                         kind="stable")[:, :3]
        (points[rows], status[rows], residual[rows], iterations[rows],
         below) = trilaterate_batch(
            lamps.position[ids], lamps.k[ids],
            lamps.profiles.take(ids), s[rows[:, None], ids],
            None if z is None else z[rows])
        error[rows[~below]] = 3
    return points, status, residual, iterations, error


def _check_pipeline(pipeline: str, m: int):
    """Reject a pipeline ``locate`` does not know, or multi with m < 3."""
    if pipeline not in (PIPELINE_MFLP, PIPELINE_MULTI, PIPELINE_TRILATERATION):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if pipeline == PIPELINE_MULTI and m < 3:
        raise ValueError("at least three readings are required to solve")


def _fixes(scn: Scenario, times, poses, pipeline: str, m: int, mode: str,
           seed, attitude: Attitude):
    """Measure every pose, pose i with the stream keyed (seed, i), and
    locate them all (trilateration at the pose's height); a pose outside
    the bounds, or one ``locate`` raises for, is a degenerate fix.  The
    seed defaults to the scenario's.  Returns (fixes, ErrorStats of the
    unique ones, the others counted as failures)."""
    _check_pipeline(pipeline, m)
    if seed is None:
        seed = scn.noise.seed
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    inside = np.flatnonzero(scn.bounds.contains(poses))
    keys = np.empty((len(inside), 2), dtype=np.array(int(seed)).dtype)
    keys[:, 0], keys[:, 1] = int(seed), inside
    batch = measure_batch(scn, poses[inside], attitude, KeyedStreams(keys),
                          mode)
    points, status, *_ = degenerate_fixes(len(poses))
    points[inside], status[inside], *_ = locate_batch(
        scn, batch, pipeline, m, poses[inside, 2])
    fixes = [Fix(t, p, e, str(s)) for t, p, e, s in zip(times, poses, points,
                                                         status)]
    errors = [f.error for f in fixes if f.status == STATUS_UNIQUE]
    return fixes, ErrorStats.from_errors(errors, len(fixes) - len(errors))


def run_static(scn: Scenario, points, pipeline: str = PIPELINE_MFLP,
               m: int = 3, mode: str = MODE_FAST, seed=None,
               attitude: Attitude = Attitude(0, 0, 0)):
    """Measure and solve at each point; returns (fixes, ErrorStats).

    Per-point failures (no coverage, degenerate, no convergence) are
    reported in the fix list and excluded from the statistics.
    """
    return _fixes(scn, [float(i) for i in range(len(points))], points,
                  pipeline, m, mode, seed, attitude)


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
    """Static pipeline at every sampled pose of a piecewise-linear path;
    returns (fixes, ErrorStats) as ``run_static`` does."""
    times, poses = zip(*sample_trajectory(waypoints, speed, interval_s))
    if not scn.bounds.contains(np.array(poses)).all():
        raise ValueError("trajectory leaves scenario bounds")
    return _fixes(scn, times, poses, pipeline, m, mode, seed, attitude)


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

    The sweep measures each in-bounds point's true-pose geometry once per
    call (``_pose_geometry``: line of sight, model RSS, saturation and the
    directions that sign the planes); noise changes none of it.  Each
    cell then runs only the per-fix part of ``measure_batch`` on its
    trials x points fixes, gathered by point: attitude noise, the planes,
    the fast-mode noise or the end-to-end traces and the valid readings.
    One ``locate_batch`` call locates the cell (multi at m = 3,
    trilateration at a free height).  Every fix still draws the stream of
    its own generator seeded with (seed, cell indices, trial, point): the
    cell's (N, 5) keys go to the per-fix part as one ``KeyedStreams``,
    which draws all of them as arrays.  So a cell's statistics equal
    those of the same fixes run one at a time through ``measure`` and
    ``locate``.  A fix that raises there (a point outside
    the bounds, no lamp with three readings above the floor) or is not
    unique counts as a failure.

    Returns (rows, mean_monotone) where rows are
    (eps, eps_h, ErrorStats) and mean_monotone reports whether the mean
    error is non-decreasing in eps at every fixed eps_h.  Raises
    ValueError before any cell runs when ``trials`` < 1, ``mode`` or
    ``pipeline`` is unknown or a grid value is not a valid ``NoiseSpec``
    magnitude.
    """
    _check_pipeline(pipeline, 3)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # Every cell's noise is checked before the first cell runs.
    noises = [[replace(scn.noise, rss_epsilon=eps, heading_epsilon=eps_h)
               for eps in eps_grid] for eps_h in eps_h_grid]
    _check_mode(mode)
    if seed is None:
        seed = scn.noise.seed
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    inside = np.flatnonzero(scn.bounds.contains(points))
    poses = _pose_geometry(scn, points[inside], Attitude(0, 0, 0))
    # The fixes, trial-major: (trial, point) keys and each fix's index
    # into the in-bounds points.
    fix_keys = np.empty((trials * len(inside), 2), dtype=np.int64)
    fix_keys[:, 0] = np.repeat(np.arange(trials), len(inside))
    fix_keys[:, 1] = np.tile(inside, trials)
    fix_poses = poses.take(np.tile(np.arange(len(inside)), trials))
    truth = points[fix_keys[:, 1]]
    rows = []
    for ci, eps_h in enumerate(eps_h_grid):
        for cj, eps in enumerate(eps_grid):
            noisy = replace(scn, noise=noises[ci][cj])
            cell = np.array((int(seed), ci, cj))
            keys = np.empty((len(fix_keys), 5), dtype=cell.dtype)
            keys[:, :3], keys[:, 3:] = cell, fix_keys
            batch = _measure_poses(noisy, fix_poses, KeyedStreams(keys), mode)
            est, status, *_ = locate_batch(noisy, batch, pipeline)
            unique = status == STATUS_UNIQUE
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
