"""Scenario modeling, measurement generation with noise, batch and
trajectory evaluation, stability metrics, and deployment-cost analysis.

All randomness is drawn per point from the stream of a generator seeded
with the seed combined with the point/trial index, so identical scenario +
seed pairs always reproduce bit-identical results regardless of evaluation
order.  The runs and the sweep draw all their fixes' streams at once with
``streams.KeyedStreams``, whose values equal those generators' draws, and
``measure`` draws from its generator through ``streams.GeneratorStreams``
by the same code.  Gaussian attitude noise is Box-Muller on two of the
stream's uniforms (``streams.normals``), not numpy's own normals.

Measurements are arrays over (fix, lamp, face) (``MeasurementBatch``);
``measure`` makes a batch of one fix.  They are made in two parts.  The
pose part depends only on the true pose and attitude: line of sight,
model RSS and saturation.  The per-fix part depends on the fix's noise
draws: the measured attitude, the sensing planes it gives (each face's
outward normal, as a real receiver knows it, in each lamp's solve
frame), the noisy or extracted amplitudes and which readings are
valid.  The sweep computes the pose part of each point once and the
per-fix part of every fix at it, or of each point once in a noise-free
cell; every cell runs on the caller's scenario, with its own noise.
End-to-end amplitudes are what synthesizing each face's trace and
extracting each lamp's flash from it would give; they come from the
scenario's ``signal.amplitude_map``, the linear map from peaks and sensor
noise to amplitudes, so no trace is built.  The map leaves the ambient
DC out, as extraction rejects it exactly, and draws each trace's sensor
noise itself, from the trace seed the fix's stream gives; ``sim`` only
draws those seeds.  Which lamp flashes a scenario's sensor window can
tell apart is ``signal.check_flashes``'s rule, the one
``signal.identify_lamps`` applies to its candidates.

Every pipeline runs on one array core, ``locate_batch``, which chooses
readings from the measurement arrays and gives the solvers the
scenario's ``fundamental_lamps``: its lamp table with each k times 2/pi
(amplitudes are flash fundamentals), built once per scenario like the
amplitude map.  Scalar ``locate`` is its batch of one, and ``measure``
the batch of one of ``measure_batch``: neither has a scalar path, so a
one-fix call costs what the core's numpy calls cost on one-element
arrays, and the core keeps those calls few.  The runs and the sweep
measure and locate all their fixes at once.
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
    check_finite,
    half_dodecahedron,
    receiver_rotation,
    receiver_rotations,
    segments_blocked,
    slab_blocked,
)
from .rss import LampTable, rss_model
from .signal import (
    OOK_FUNDAMENTAL,
    SHAPE_SQUARE_OOK,
    AmplitudeMap,
    WaveComponent,
    amplitude_map,
    check_flashes,
)
from .streams import GeneratorStreams, KeyedStreams, check_seed, normals
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
MODES = (MODE_FAST, MODE_END_TO_END)

PIPELINE_MFLP = "mflp"
PIPELINE_TRILATERATION = "trilateration"
PIPELINE_MULTI = "multi"
PIPELINES = (PIPELINE_MFLP, PIPELINE_TRILATERATION, PIPELINE_MULTI)

# The ValueError ``locate`` raises for a fix, by ``locate_batch`` code.
LOCATE_ERRORS = ("", "no lamp has three readings above the RSS floor",
                 "k and the receiver height must be finite, k > 0",
                 "receiver must start below every lamp")

METHOD_MFLP = "mflp"
METHOD_TRILATERATION = "trilateration"
METHODS = (METHOD_MFLP, METHOD_TRILATERATION)

# Trilateration geometry guards: lamps closer than this or spanning less
# triangle area give ill-conditioned or ambiguous fixes.
MIN_LAMP_SEPARATION = 1.0
MIN_TRIANGLE_AREA = 0.5

# Coverage and planning grids hold at most this many cells.  The planner
# keeps a few (lamps, cells) arrays at once, so its memory grows with this
# cap times the candidate count.
MAX_GRID_CELLS = 100_000

# Coverage and planning take at most this many (anchor group, grid cell)
# pairs: lamps times cells for the multi-face method, valid lamp triples
# times cells for trilateration.  The planner holds ~5 bytes a pair in its
# (groups, cells) arrays, ~50 MB at the cap; four_room's 9 candidates
# make 84 valid triples, which fit any grid under MAX_GRID_CELLS.
MAX_GROUP_CELLS = 10_000_000

# A trajectory run samples at most this many epochs, so a tiny interval
# or speed is an input error instead of a run without end.
MAX_TRAJECTORY_EPOCHS = 100_000


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
        for name in ("heading_epsilon", "accel_sd", "trace_noise_sd"):
            check_finite(name, getattr(self, name), 0)
        check_seed(self.seed)


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
        for name in ("saturation", "sample_rate_hz", "window_s"):
            check_finite(name, getattr(self, name), 0, strict=True)
        check_finite("ambient_dc", self.ambient_dc, 0)
        if self.sample_rate_hz * self.window_s == math.inf:
            raise ValueError("sample_rate_hz * window_s samples overflow")
        # The flashes must be extractable from, and told apart in, the
        # window's samples, as ``signal.identify_lamps`` requires.
        check_flashes([lamp.flash_hz for lamp in self.lamps],
                      self.sample_rate_hz,
                      round(self.sample_rate_hz * self.window_s))
        for i, lamp in enumerate(self.lamps):
            if not self.bounds.contains(lamp.position):
                raise ValueError(f"lamps/{i} lies outside the scenario "
                                 "bounds")

    @cached_property
    def lamp_table(self) -> LampTable:
        """The lamps as arrays, for the solvers."""
        return LampTable.of(self.lamps)

    @cached_property
    def fundamental_lamps(self) -> LampTable:
        """The lamp table with each k times 2/pi: measured amplitudes are
        flash fundamentals, and ``locate_batch`` solves with these."""
        table = self.lamp_table
        return table._replace(k=table.k * OOK_FUNDAMENTAL)

    @cached_property
    def amplitude_map(self) -> AmplitudeMap:
        """The map from a face's trace (each lamp's flash) to amplitudes.
        The trace's ambient DC is left out, as extraction rejects it
        exactly."""
        components = [WaveComponent(lamp.flash_hz, 0.0, SHAPE_SQUARE_OOK)
                      for lamp in self.lamps]
        return amplitude_map(components, self.sample_rate_hz, self.window_s,
                             [lamp.flash_hz for lamp in self.lamps])


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


def _measured_attitudes(att: Attitude, offsets, tilted: bool = True
                        ) -> np.ndarray:
    """Measured (pitch, roll, heading) rows, (N, 3), from (N, 3) offsets:
    heading taken modulo 2*pi, a heading that rounds up to 2*pi being 0,
    and, when ``tilted``, pitch clipped to [-pi/2, pi/2] and roll wrapped
    once toward (-pi, pi].  Untilted offsets have zero pitch and roll, so
    the true pitch and roll stand.  A roll still outside (-pi, pi] raises
    the ValueError of ``Attitude``."""
    meas = np.array([att.pitch, att.roll, att.heading]) + offsets
    # Column views: the assignments below update them in place.
    pitch, roll, heading = meas.T
    np.remainder(heading, 2 * math.pi, out=heading)
    heading[heading == 2 * math.pi] = 0.0
    if tilted:
        meas[:, 0] = np.maximum(-math.pi / 2, np.minimum(math.pi / 2, pitch))
        meas[:, 1] = np.where(roll <= -math.pi, roll + 2 * math.pi,
                              np.where(roll > math.pi, roll - 2 * math.pi,
                                       roll))
        bad = (np.abs(roll) > math.pi) | (roll == -math.pi)
        if bad.any():
            Attitude(*meas[np.argmax(bad)].tolist())
    return meas


@dataclass(frozen=True)
class MeasurementBatch:
    """Measurements of N receiver poses as arrays over (fix, lamp, face).

    ``amps`` holds the extracted amplitudes and ``valid`` marks the
    readings a solver may use: lit, unoccluded, unsaturated and positive.
    ``planes`` are each face's sensing-plane coefficients in the lamp's
    solve frame: its outward normal at the measured attitude, not yet
    normalized (``locate_batch`` normalizes the chosen ones).  A lit
    face's plane dots positively with the lamp; an unlit one's need not.
    Without attitude noise every fix has the same planes, and ``planes``
    may then be a read-only broadcast view of one fix's.
    ``saturated`` flags saturated faces per fix, and ``attitudes`` holds
    the measured attitudes as (pitch, roll, heading) rows.  Amplitudes
    are flash-fundamental values, (2/pi) x model RSS; ``locate_batch``
    solves with the scenario's ``fundamental_lamps``, whose k carry that
    factor.
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
    planes: np.ndarray     # (lamps, faces, 3) its solve-frame face planes
    rss: np.ndarray        # (N, lamps, faces) model RSS
    saturated: np.ndarray  # (N, faces)

    def take(self, idx) -> _Poses:
        """The poses at the indices ``idx``, in that order."""
        return self._replace(rss=self.rss[idx], saturated=self.saturated[idx])


def _pose_geometry(scn: Scenario, positions, attitude: Attitude) -> _Poses:
    """The pose part of ``measure_batch``: everything of N poses, (N, 3)
    ``positions`` at one true ``attitude``, that no noise draw changes,
    over all lamps at once.

    Per (pose, lamp, face): the model RSS, zero where the line of sight
    from the lamp to the face centroid is blocked or the face is back-lit.
    Per (pose, face): saturation.  Per (lamp, face): the true attitude's
    face planes in the lamp's solve frame, which the model reads and every
    fix without attitude noise measures.  Faces share the receiver origin
    in the model (the face planes pass through it); centroids are used
    for occlusion realism only.
    """
    poly = scn.receiver.polyhedron
    rot_true = receiver_rotation(attitude)
    centers = positions[:, None, :] + poly.centroids @ rot_true.T
    normals_true = poly.normals @ rot_true.T
    # Lamp-major arrays, (L, N, ...): each lamp's constants broadcast over
    # one long run of (pose, face) rows.  x is each lamp relative to each
    # pose, and the planes the face normals, in the lamp's solve frame.
    table = scn.lamp_table
    lamp_pos, basis_t = table.position, table.basis.transpose(0, 2, 1)
    x = np.matvec(basis_t[:, None], lamp_pos[:, None, :] - positions)
    planes = np.matmul(normals_true, table.basis)                 # (L, F, 3)
    rss, _ = rss_model(planes[:, None], table.k[:, None],
                       table.profiles.take(np.s_[:, None]), x,
                       gradient=False)                            # (L, N, F)
    # Lit: the pose in the lamp's forward hemisphere, the face toward it.
    lit = (x[..., 2] > 0)[..., None] & (rss > 0)
    if scn.obstacles:
        # Only lit segments are tested; with no boxes none is blocked.
        li, pose, face = np.nonzero(lit)
        lit[li, pose, face] = ~segments_blocked(
            lamp_pos[li], centers[pose, face], scn.obstacles)
    rss = np.ascontiguousarray(np.where(lit, rss, 0.0).transpose(1, 0, 2))
    saturated = scn.ambient_dc + rss.sum(axis=1) > scn.saturation
    return _Poses(attitude, planes, rss, saturated)


def _fix_planes(scn: Scenario, normals) -> np.ndarray:
    """The per-fix planes: each face's outward normal in each lamp's solve
    frame, (N, lamps, faces, 3), from the world face normals of each
    fix's measured attitude, ``normals`` (N, faces, 3)."""
    planes = np.matmul(normals, scn.lamp_table.basis[:, None])
    return np.ascontiguousarray(planes.transpose(1, 0, 2, 3))


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"unknown measurement mode {mode!r}")


def measure_batch(scn: Scenario, positions, attitude: Attitude, rngs,
                  mode: str = MODE_FAST) -> MeasurementBatch:
    """Simulate N measurement epochs at once, all at one receiver attitude.

    ``positions`` is (N, 3).  ``rngs`` is either an iterable yielding one
    numpy Generator per pose, wrapped in a ``streams.GeneratorStreams``,
    or a ``KeyedStreams`` of N keys, whose stream n equals the draws of
    ``np.random.default_rng(keys[n])``; a stream count other than N
    raises ValueError.  Each pose's noise comes from its own
    generator or stream, all poses at once: with attitude noise the
    heading offset, then with a noisy accelerometer pitch and roll
    (``streams.normals``, Box-Muller on two uniforms each), then the
    fast-mode noise signs or the end-to-end trace seeds.  So both forms
    fill the same arrays, which one array pass then applies.

    Two parts, each over all lamps in one array pass.  Per pose
    (``_pose_geometry``), from the true position and attitude alone: the
    line-of-sight check to each face centroid, the forward RSS,
    saturation and the true attitude's solve-frame face planes.  Per fix
    (``_measure_poses``), from its noise draws: the measured attitude,
    the solve-frame planes of its faces (their outward normals: without
    attitude noise the pose part's, else ``_fix_planes``'s), and either
    the direct flash-fundamental amplitude with multiplicative noise (fast) or
    the single-bin amplitudes of a synthesized trace (end_to_end: one
    trace per fix and face, ambient DC plus every lamp's flash plus
    sensor noise, mapped to amplitudes by the scenario's
    ``signal.amplitude_map`` without building the trace, or its DC,
    which extraction rejects exactly; the map draws each trace's sensor
    noise from the trace seed drawn here) and the valid readings.
    Saturated faces are flagged and excluded.  A pose outside the
    scenario bounds raises ValueError.
    """
    _check_mode(mode)
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    inside = scn.bounds.contains(positions)
    if not inside.all():
        position = positions[np.argmin(inside)]
        raise ValueError(f"receiver pose {position} outside scenario bounds")
    rngs = rngs if isinstance(rngs, KeyedStreams) else GeneratorStreams(rngs)
    return _measure_poses(scn, _pose_geometry(scn, positions, attitude),
                          rngs, mode, scn.noise)


def _measure_poses(scn: Scenario, poses: _Poses, rngs, mode: str,
                   noise: NoiseSpec) -> MeasurementBatch:
    """The per-fix part of ``measure_batch``: one fix at each of the poses,
    each with the noise of its own generator or stream in ``rngs`` (None:
    noise-free, nothing drawn); without attitude noise, the true
    attitude's planes (``_Poses.planes``), shared by every fix.
    The noise magnitudes are ``noise``'s, not ``scn.noise``'s, so a sweep
    cell runs on its caller's scenario; the end-to-end amplitudes come
    from that scenario's map, which leaves the ambient DC out."""
    n_fix, n_lamps, n_faces = shape = poses.rss.shape
    attitude = poses.attitude

    # Draw every pose's noise first, all poses at once: with attitude
    # noise the heading offset, then pitch and roll when the accelerometer
    # is noisy; then the fast-mode noise signs or the end-to-end trace
    # seeds.
    offsets = np.zeros((n_fix, 3))
    if rngs is None:
        # Noise-free fixes: no draw changes a value (1 + 0 * (+-1) is 1).
        draws = np.zeros(shape if mode == MODE_FAST else (n_fix, n_faces),
                         dtype=np.int64)
    else:
        if len(rngs) != n_fix:
            raise ValueError(f"{len(rngs)} streams for {n_fix} poses")
        if noise.heading_epsilon or noise.accel_sd:
            offsets[:, 2] = rngs.uniform(-noise.heading_epsilon,
                                         noise.heading_epsilon)
        if noise.accel_sd:
            offsets[:, 0] = normals(rngs, noise.accel_sd)
            offsets[:, 1] = normals(rngs, noise.accel_sd)
        draws = (rngs.binary(shape[1:]) if mode == MODE_FAST
                 else rngs.integers63(n_faces))

    if noise.heading_epsilon == 0 and noise.accel_sd == 0:
        att_meas = np.full((n_fix, 3), [attitude.pitch, attitude.roll,
                                        attitude.heading], dtype=float)
        # Every fix measures the true attitude: its planes.
        planes = np.broadcast_to(poses.planes, (n_fix, n_lamps, n_faces, 3))
    else:
        att_meas = _measured_attitudes(attitude, offsets, noise.accel_sd > 0)
        rot_meas = receiver_rotations(att_meas)
        planes = _fix_planes(scn, np.matmul(scn.receiver.polyhedron.normals,
                                            rot_meas.transpose(0, 2, 1)))

    rss = poses.rss
    lit = rss > 0
    if mode == MODE_FAST:
        # 1 + eps * (+-1), the factor each noise sign gives.
        eps = noise.rss_epsilon
        amps = OOK_FUNDAMENTAL * rss * np.where(draws, 1.0 + eps, 1.0 - eps)
    else:
        # One trace per (fix, face): every lamp in order, an unlit one at
        # peak 0 (adding it changes no amplitude).
        extracted = scn.amplitude_map.amplitudes(
            rss.transpose(0, 2, 1).reshape(-1, n_lamps),
            draws.ravel().tolist(), noise.trace_noise_sd)
        amps = np.where(lit, extracted.reshape(n_fix, n_faces, n_lamps)
                        .transpose(0, 2, 1), 0.0)

    saturated = poses.saturated
    valid = ~saturated[:, None, :] & (amps > 0) & lit
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

    Every pipeline models the lamps of ``scn.fundamental_lamps``, the
    scenario's lamp table with each k times 2/pi, built on the first call
    and shared by every later one.

    Returns (points (N, 3), status, residual, iterations, error), error
    being the code in ``LOCATE_ERRORS`` of the ValueError ``locate``
    raises for the fix, 0 for none.  Raises ValueError for an unknown
    pipeline or multi with m < 3.
    """
    _check_pipeline(pipeline, m)
    lamps = scn.fundamental_lamps
    if pipeline == PIPELINE_TRILATERATION:
        return _trilaterate_fixes(lamps, batch, z_receiver)
    if pipeline == PIPELINE_MULTI and m > 3:
        lamp_ids, faces, count = select_pooled_readings(batch.amps,
                                                        batch.valid, m)
        sizes = [n for n in np.unique(count).tolist() if n >= 3]
    else:
        # Each fix has its best lamp's three readings, or none (count 0).
        lamp_ids, faces, count = select_top_readings(batch.amps, batch.valid)
        sizes = [3]
    points, status, residual, iterations = degenerate_fixes(len(count))
    for n in sizes:
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
    return points, status, residual, iterations, (count < 3).astype(np.int64)


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
            batch.planes[rows[:, None], ids, 0], s[rows[:, None], ids], ids,
            lamps, None if z is None else z[rows])
        error[rows[~below]] = 3
    return points, status, residual, iterations, error


def _check_pipeline(pipeline: str, m: int):
    """Reject a pipeline ``locate`` does not know, or multi with m < 3."""
    if pipeline not in PIPELINES:
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


# Huge coordinates overflow the path's length to inf, which the cap
# rejects.
@np.errstate(over="ignore")
def sample_trajectory(waypoints, speed: float, interval_s: float):
    """Positions every interval_s seconds along a piecewise-linear path.
    A path of more than MAX_TRAJECTORY_EPOCHS intervals raises ValueError
    before any is sampled."""
    waypoints = [np.asarray(w, dtype=float) for w in waypoints]
    check_finite("speed", speed, 0, strict=True)
    check_finite("interval_s", interval_s, 0, strict=True)
    if len(waypoints) == 1:
        return [(0.0, waypoints[0])]
    legs = [(a, b, np.linalg.norm(b - a))
            for a, b in zip(waypoints[:-1], waypoints[1:])]
    total = sum(leg for *_, leg in legs)
    if not total + 1e-12 <= MAX_TRAJECTORY_EPOCHS * speed * interval_s:
        raise ValueError(f"{total:g} m at {speed:g} m/s every {interval_s:g} "
                         f"s makes more than {MAX_TRAJECTORY_EPOCHS} epochs")
    # Epoch k is at k * interval_s: a running sum of intervals would
    # gather round-off and could drop the epoch at the path's end.
    out, k = [], 0
    while (t := k * interval_s) * speed <= total + 1e-12:
        dist, acc = t * speed, 0.0
        for li, (a, b, leg) in enumerate(legs):
            if dist <= acc + leg or li == len(legs) - 1:
                frac = 0.0 if leg == 0 else min((dist - acc) / leg, 1.0)
                out.append((t, a + frac * (b - a)))
                break
            acc += leg
        k += 1
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
    call (``_pose_geometry``: line of sight, model RSS and saturation);
    noise changes none of it.  Each cell then runs only the per-fix part
    of ``measure_batch`` on its trials x points fixes, gathered by point:
    attitude noise, the planes (the pose part's when the cell has no
    attitude noise), the fast-mode noise or the end-to-end traces and the
    valid readings.  One ``locate_batch`` call locates the cell (multi at
    m = 3, trilateration at a free height).  Every fix still draws the
    stream of its own generator seeded with (seed, cell indices, trial,
    point): the call seeds the (N, 5) keys of all its noisy cells once,
    as one ``KeyedStreams``, and each cell's rows of it
    (``KeyedStreams.take``) go to the per-fix part, which draws all of
    them as arrays.  A seed of any size keys them unrounded.  Every cell measures and locates on the
    caller's scenario, with the cell's ``NoiseSpec`` passed alongside, so
    the cells share one lamp table and one amplitude map (which leaves
    the ambient DC out).  A noise-free cell (no attitude noise,
    nor ``rss_epsilon`` in fast mode or ``trace_noise_sd`` end to end)
    draws nothing: it measures and locates each point once and counts the
    fix once per trial, in the same order.  So a cell's statistics equal
    those of the same fixes run one at a time through ``measure`` and
    ``locate``.  A fix that raises there (a point outside the bounds, no
    lamp with three readings above the floor) or is not unique counts as
    a failure.

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
    at = np.tile(np.arange(len(inside)), trials)
    fix_poses = poses.take(at)
    truth = points[fix_keys[:, 1]]
    # The noisy cells' fixes, keyed (seed, cell indices, trial, point) and
    # seeded as one KeyedStreams: the c-th noisy cell's n_fix fixes draw
    # its rows c * n_fix to (c + 1) * n_fix.
    noisy = [(ci, cj) for ci, eps_h in enumerate(eps_h_grid)
             for cj, eps in enumerate(eps_grid)
             if eps_h or scn.noise.accel_sd
             or (eps if mode == MODE_FAST else scn.noise.trace_noise_sd)]
    n_fix = len(fix_keys)
    keys = np.empty((len(noisy), n_fix, 5), dtype=np.array(int(seed)).dtype)
    keys[..., 0] = int(seed)
    keys[..., 1:3] = np.array(noisy, dtype=np.int64).reshape(-1, 1, 2)
    keys[..., 3:] = fix_keys
    streams = KeyedStreams(keys.reshape(-1, 5))
    del keys  # the streams hold what the cells need of them
    first_row = {cell: c * n_fix for c, cell in enumerate(noisy)}
    rows = []
    for ci, eps_h in enumerate(eps_h_grid):
        for cj, eps in enumerate(eps_grid):
            noise = noises[ci][cj]
            if (ci, cj) not in first_row:
                # Noise-free: each point's trials all give one fix.
                batch, reps = _measure_poses(scn, poses, None, mode,
                                             noise), trials
            else:
                row = first_row[ci, cj]
                batch, reps = _measure_poses(
                    scn, fix_poses, streams.take(slice(row, row + n_fix)),
                    mode, noise), 1
            est, status, *_ = locate_batch(scn, batch, pipeline)
            est, status = np.tile(est, (reps, 1)), np.tile(status, reps)
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


def _grid(bounds: Aabb, cell_size: float, height: float):
    """The cell-center grid over the floorplan at the receiver height: its
    column x and row y coordinates, (nx,) and (ny,), and its (nx * ny, 3)
    cells in x-major order, cell i * ny + j at (x_i, y_j, height).  A grid
    of more than MAX_GRID_CELLS cells raises ValueError before anything
    is allocated, and so do a non-finite height and a cell size that is
    not finite and positive."""
    check_finite("cell size", cell_size, 0, strict=True)
    check_finite("receiver height", height)
    starts = bounds.lo[:2] + cell_size / 2
    # np.arange's own lengths, ceil((stop - start) / step), in Python
    # floats: a span over a tiny cell counts inf.  Each axis is capped
    # too, as its arange is allocated even when the other is empty.
    counts = [max(float(stop - start) / cell_size, 0.0)
              for start, stop in zip(starts, bounds.hi[:2])]
    if max(counts) > MAX_GRID_CELLS or \
            math.ceil(counts[0]) * math.ceil(counts[1]) > MAX_GRID_CELLS:
        raise ValueError(
            f"cell size {cell_size} m gives a {counts[0]:.0f} x "
            f"{counts[1]:.0f} cell grid, over the cap of {MAX_GRID_CELLS} "
            "cells")
    xs = np.arange(starts[0], bounds.hi[0], cell_size)
    ys = np.arange(starts[1], bounds.hi[1], cell_size)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    cells = np.column_stack([x.ravel(), y.ravel(), np.full(x.size, height)])
    return xs, ys, cells


def grid_cells(bounds: Aabb, cell_size: float, height: float) -> np.ndarray:
    """Cell-center grid over the floorplan at the receiver height, as a
    (K, 3) array in x-major order: the cells of ``_grid``, which rejects
    a grid over MAX_GRID_CELLS before allocating it."""
    return _grid(bounds, cell_size, height)[2]


def _in_range(pos, lamps, cells) -> np.ndarray:
    """(lamps, K): whether each cell center lies within each lamp's
    ``range_m`` of its position, a row of ``pos``.  A lamp in range of a
    cell center it coincides with (``np.allclose``) raises ValueError, as
    ``line_of_sight`` does.

    The distances are ``np.vecdot`` over each lamp's (3, K) differences in
    turn: the bits of the (lamps, K, 3) form, without holding it."""
    dist = np.empty((len(pos), len(cells)))
    for row, p in zip(dist, pos):
        delta = p[:, None] - cells.T
        np.sqrt(np.vecdot(delta, delta, axis=0), out=row)
    in_range = dist <= np.array([lamp.range_m for lamp in lamps])[:, None]
    # allclose bounds each |delta_i| by 1e-8 + 1e-5 |cell_i|, so a
    # coinciding pair lies within sqrt(3) 1e-8 + 1e-5 |cell| (under twice
    # 1e-8 + 1e-5 |cell| after round-off); only those take the exact test.
    near = in_range & (dist <= 2 * (
        1e-8 + 1e-5 * np.sqrt(np.vecdot(cells, cells))))
    if near.any():
        li, ki = np.nonzero(near)
        if np.all(np.abs(pos[li] - cells[ki])
                  <= 1e-8 + 1e-5 * np.abs(cells[ki]), axis=-1).any():
            raise ValueError("a lamp coincides with a cell center")
    return in_range


def _visibility(bounds: Aabb, obstacles, lamps, groups, cell_size: float,
                height: float):
    """The grid cells outside every box, (K, 3), which lamps see them,
    (lamps, K), and which anchor groups (``_anchor_groups``) see them,
    (groups, K): a lamp sees a cell center within its ``range_m`` when no
    box blocks the segment between them, and a group when all its lamps
    do.

    A cell's x is its grid column's, its y its row's and its z the
    receiver height.  So a box drops the cells of its columns and rows at
    that height, and ``slab_blocked`` takes the lamp-to-cell segments
    axis by axis as (lamps, nx, 1) x, (lamps, 1, 1) z and (lamps, 1, ny)
    y steps: per box only the last max, min, subtract and compare run
    over all (lamps, nx * ny) segments, the masked cells' included.
    ValueError is raised before the lamps are looked at for a grid over
    MAX_GRID_CELLS, for more than MAX_GROUP_CELLS (group, grid cell)
    pairs and for a grid with no cell outside the boxes, and then for a
    lamp on a cell center (``_in_range``).
    """
    xs, ys, cells = _grid(bounds, cell_size, height)
    if len(groups) * len(cells) > MAX_GROUP_CELLS:
        raise ValueError(
            f"{len(groups)} lamp groups over {len(cells)} grid cells exceed "
            f"the cap of {MAX_GROUP_CELLS} (group, cell) pairs")
    free = np.ones((xs.size, ys.size), dtype=bool)
    for box in obstacles:
        if box.lo[2] <= height <= box.hi[2]:
            free &= ~(((xs >= box.lo[0]) & (xs <= box.hi[0]))[:, None]
                      & (ys >= box.lo[1]) & (ys <= box.hi[1]))
    keep = free.ravel()
    cells = cells[keep]
    if not len(cells):
        raise ValueError(
            f"no free grid cell: the {xs.size} x {ys.size} grid of "
            f"{cell_size} m cells has none outside the boxes")
    pos = np.array([lamp.position for lamp in lamps]).reshape(-1, 3)
    in_range = _in_range(pos, lamps, cells)
    px, py, pz = pos.T[:, :, None, None]
    blocked = slab_blocked([(0, px, xs[:, None] - px), (2, pz, height - pz),
                            (1, py, ys - py)], obstacles)
    vis = in_range & ~blocked.reshape(len(pos), -1)[:, keep]
    return cells, vis, vis[groups].all(axis=1)


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
    if method not in METHODS:
        raise ValueError(f"unknown coverage method {method!r}")
    if method == METHOD_MFLP:
        return np.arange(len(lamps))[:, None]
    return _valid_triples(lamps)


def coverage_analysis(bounds: Aabb, obstacles, lamps, method: str,
                      cell_size: float = 0.3,
                      receiver_height: float = 0.0) -> CoverageReport:
    """Fraction of floor cells positionable by the given method.

    A cell counts as covered for the multi-face method when one lamp sees
    it (the half-dodecahedron receiver then guarantees three usable
    faces), and for trilateration when three sufficiently separated,
    non-collinear lamps see it.  A lamp sees a cell within its
    ``range_m`` of the cell center with a clear line of sight; the whole
    (lamps, cells) visibility matrix is built at once.  A grid with no
    cell outside the boxes raises ValueError, as do the other inputs
    ``_visibility`` rejects.
    """
    groups = _anchor_groups(lamps, method)
    cells, _, group_vis = _visibility(bounds, obstacles, lamps, groups,
                                      cell_size, receiver_height)
    covered = group_vis.any(axis=0)
    uncovered = tuple(tuple(c) for c in cells[~covered])
    fraction = 1.0 - len(uncovered) / len(cells)
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
    candidates.  A grid with no cell outside the boxes raises ValueError,
    as do the other inputs ``_visibility`` rejects.
    """
    groups = _anchor_groups(candidates, method)
    cells, vis, group_vis = _visibility(bounds, obstacles, candidates, groups,
                                        cell_size, receiver_height)
    # Counted by a float32 (BLAS) matmul, far faster than a boolean one:
    # at any precision a sum of 0/1 terms is > 0 exactly when one term is.
    group_vis = group_vis.astype(np.float32)
    need = groups.shape[1]
    n = len(candidates)
    # with_candidate[ci, ci2]: lamp ci2 is in the plan once ci is added.
    with_candidate = np.eye(n, dtype=bool)
    chosen: list[int] = []
    covered = np.zeros(len(cells), dtype=bool)
    while not covered.all() and len(chosen) < n:
        covered_with = with_candidate[:, groups].all(axis=2) @ group_vis > 0
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
