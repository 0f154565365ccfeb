"""Scenario simulation: measurement generation, pipelines, coverage."""

import math
from dataclasses import dataclass, replace
from importlib import resources
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightpos.geom import (
    Aabb,
    Attitude,
    line_of_sight,
    receiver_rotation,
    segments_blocked,
    solve_frame_basis,
    unit,
)
from lightpos.rss import LampModel, eval_rss, make_profile
from lightpos.scenario import load_scenario
from lightpos.streams import KeyedStreams
from lightpos.signal import (
    OOK_FUNDAMENTAL,
    WaveComponent,
    extract_amplitude,
    synthesize_trace,
)
from lightpos import sim, solve
from lightpos.solve import (
    SolveResult,
    _invert_distances,
    levenberg_marquardt,
    mflp_least_squares,
    rss_model,
    to_world_position,
)
from lightpos.sim import (
    MODE_END_TO_END,
    NoiseSpec,
    ReceiverSpec,
    Scenario,
    _measured_attitude,
    coverage_analysis,
    greedy_min_lamps,
    grid_cells,
    locate,
    measure,
    measure_batch,
    oscillation_distance,
    run_static,
    run_trajectory,
    sample_trajectory,
    sensitivity_sweep,
)

COS = make_profile("cosine_power", [1.0])


def _point_rng(seed, *indices):
    """The generator of one fix, as KeyedStreams keys it."""
    return np.random.default_rng((int(seed),) + tuple(int(i) for i in indices))


class _Reading(NamedTuple):
    """One valid reading of a fix, its plane as measured (not yet
    normalized)."""

    plane: np.ndarray
    s: float
    lamp_id: int
    face_id: int


def _readings(b):
    """The valid readings of a one-fix batch, in lamp then face order: the
    measurement as the reading pipelines saw it."""
    return tuple(_Reading(b.planes[0, li, fi], float(b.amps[0, li, fi]),
                          int(li), int(fi))
                 for li, fi in zip(*np.nonzero(b.valid[0])))


def _one_fix(batch, n):
    """Fix n of a batch as the one-fix batch ``measure`` would make."""
    return replace(batch, amps=batch.amps[n:n + 1],
                   valid=batch.valid[n:n + 1], planes=batch.planes[n:n + 1],
                   saturated=batch.saturated[n:n + 1],
                   attitudes=batch.attitudes[n:n + 1])


def simple_scenario(**kw):
    defaults = dict(
        bounds=Aabb([0, 0, 0], [10, 10, 3]),
        obstacles=(),
        lamps=(LampModel([5.0, 5.0, 3.0], [0, 0, -1], 40.0, COS, 65.0),),
        receiver=ReceiverSpec.default(0.05),
        noise=NoiseSpec(),
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(rss_epsilon=0.3)
    with pytest.raises(ValueError):
        NoiseSpec(heading_epsilon=-0.1)
    for field in ("rss_epsilon", "heading_epsilon", "accel_sd",
                  "trace_noise_sd"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                NoiseSpec(**{field: bad})


def test_scenario_rejects_unresolvable_frequencies():
    lamps = (
        LampModel([3, 5, 3], [0, 0, -1], 40.0, COS, 65.0),
        LampModel([7, 5, 3], [0, 0, -1], 40.0, COS, 66.0),
    )
    with pytest.raises(ValueError):
        simple_scenario(lamps=lamps)  # 1 Hz apart in a 0.3 s window


def test_scenario_rejects_lamp_outside_bounds():
    with pytest.raises(ValueError):
        simple_scenario(
            lamps=(LampModel([20, 5, 3], [0, 0, -1], 40.0, COS, 65.0),))


def test_fast_measurement_matches_forward_model():
    scn = simple_scenario()
    pos = np.array([5.0, 5.0, 0.0])
    mset = measure(scn, pos, rng=np.random.default_rng(0))
    lamp = scn.lamps[0]
    by_face = {r.face_id: r for r in _readings(mset)}
    # Directly under the lamp every face is lit.
    assert set(by_face) == {0, 1, 2, 3, 4, 5}
    poly = scn.receiver.polyhedron
    for fid, r in by_face.items():
        expected = OOK_FUNDAMENTAL * eval_rss(lamp, pos, poly.normals[fid])
        assert r.s == pytest.approx(expected, rel=1e-12)


def test_fast_noise_is_fixed_magnitude_random_sign():
    scn = simple_scenario(noise=NoiseSpec(rss_epsilon=0.1))
    pos = np.array([5.0, 5.0, 0.0])
    mset = measure(scn, pos, rng=np.random.default_rng(1))
    lamp = scn.lamps[0]
    poly = scn.receiver.polyhedron
    ratios = set()
    for r in _readings(mset):
        clean = OOK_FUNDAMENTAL * eval_rss(lamp, pos, poly.normals[r.face_id])
        ratios.add(round(r.s / clean, 9))
    assert ratios <= {0.9, 1.1}
    assert len(ratios) == 2  # both signs occur across six faces


def test_measurement_deterministic_per_rng_seed():
    scn = simple_scenario(noise=NoiseSpec(rss_epsilon=0.2))
    pos = [4.0, 6.0, 0.0]
    a = measure(scn, pos, rng=np.random.default_rng(42))
    b = measure(scn, pos, rng=np.random.default_rng(42))
    assert all(x.s == y.s for x, y in zip(_readings(a), _readings(b)))


def test_occlusion_removes_readings():
    wall = Aabb([4.0, 0.0, 0.0], [4.2, 10.0, 3.0])
    scn = simple_scenario(obstacles=(wall,))
    blocked = measure(scn, [1.0, 5.0, 0.0], rng=np.random.default_rng(0))
    assert not _readings(blocked)
    clear = measure(scn, [6.0, 5.0, 0.0], rng=np.random.default_rng(0))
    assert _readings(clear)


def test_back_face_and_forward_hemisphere_cuts():
    # Sideways-pointing lamp: positions behind it read nothing.
    lamp = LampModel([5.0, 5.0, 1.0], [1, 0, 0], 40.0, COS, 65.0)
    scn = simple_scenario(lamps=(lamp,))
    behind = measure(scn, [3.0, 5.0, 1.0], rng=np.random.default_rng(0))
    assert not _readings(behind)


def test_saturated_face_excluded():
    # Receiver almost touching the lamp drives the ambient + signal sum
    # past full scale on the top face.
    scn = simple_scenario(saturation=900.0)
    mset = measure(scn, [5.0, 5.0, 2.5], rng=np.random.default_rng(0))
    assert mset.saturated[0, 0]
    assert all(r.face_id != 0 for r in _readings(mset))


def test_end_to_end_close_to_fast(caplog):
    scn = simple_scenario(window_s=0.4)
    pos = np.array([4.0, 4.0, 0.0])
    fast = measure(scn, pos, rng=np.random.default_rng(0))
    e2e = measure(scn, pos, mode=MODE_END_TO_END,
                  rng=np.random.default_rng(0))
    fast_by = {(r.lamp_id, r.face_id): r.s for r in _readings(fast)}
    for r in _readings(e2e):
        assert r.s == pytest.approx(fast_by[(r.lamp_id, r.face_id)], rel=1e-6)


def _ref_pose_geometry(scn, positions, attitude):
    # The per-lamp loop that the one (pose, lamp, face) pass of
    # sim._pose_geometry replaced, kept as its oracle, with each lamp's
    # solve-frame basis built per call.
    poly = scn.receiver.polyhedron
    rot_true = receiver_rotation(attitude)
    centers = positions[:, None, :] + poly.centroids @ rot_true.T
    normals_true = poly.normals @ rot_true.T
    shape = (len(positions), len(scn.lamps), len(normals_true))
    rss = np.zeros(shape)
    toward = np.empty((len(scn.lamps), len(positions), len(normals_true), 3))
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
        basis = solve_frame_basis(lamp.central_ray)
        toward[li] = np.matvec(basis.T, lamp.position - centers)
    saturated = scn.ambient_dc + rss.sum(axis=1) > scn.saturation
    return sim._Poses(attitude, rot_true, rss, saturated, toward)


def _ref_fix_planes(scn, normals_meas, toward):
    # The per-lamp loop that sim._fix_planes replaced, kept as its oracle.
    planes = np.empty((len(normals_meas), len(scn.lamps))
                      + normals_meas.shape[1:])
    for li, lamp in enumerate(scn.lamps):
        basis = solve_frame_basis(lamp.central_ray)
        n_solve = np.matmul(normals_meas, basis)
        n_solve[np.vecdot(n_solve, toward[li]) < 0] *= -1.0
        planes[:, li] = n_solve
    return planes


# Reference end-to-end measurement: one trace per (fix, face) holding
# only that face's lit lamps, synthesized and extracted one call at a
# time over the per-lamp geometry; the loop the batched signal layer
# replaced, kept here as its oracle.

def _ref_measure_end_to_end(scn, positions, attitude, rngs):
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    poly = scn.receiver.polyhedron
    shape = (len(positions), len(scn.lamps), poly.n_faces)
    rot_meas, trace_seeds = [], []
    for rng in rngs:
        rot_meas.append(receiver_rotation(
            _measured_attitude(attitude, scn.noise, rng)))
        trace_seeds.append([rng.integers(2**63)
                            for _ in range(poly.n_faces)])
    normals_meas = np.matmul(poly.normals,
                             np.array(rot_meas).transpose(0, 2, 1))
    poses = _ref_pose_geometry(scn, positions, attitude)
    rss, saturated = poses.rss, poses.saturated
    planes = _ref_fix_planes(scn, normals_meas, poses.toward)
    amps = np.zeros(shape)
    for n, seeds in enumerate(trace_seeds):
        for fi in range(poly.n_faces):
            components = [WaveComponent(0.0, scn.ambient_dc, "dc")]
            for li, lamp in enumerate(scn.lamps):
                if rss[n, li, fi] > 0:
                    components.append(WaveComponent(
                        lamp.flash_hz, rss[n, li, fi], "square_ook"))
            trace = synthesize_trace(
                components, scn.sample_rate_hz, scn.window_s,
                scn.noise.trace_noise_sd, seed=seeds[fi])
            for li, lamp in enumerate(scn.lamps):
                if rss[n, li, fi] > 0:
                    amps[n, li, fi] = extract_amplitude(trace, lamp.flash_hz)
    valid = ~saturated[:, None, :] & (amps > 0) & (rss > 0)
    return amps, valid, planes


@pytest.mark.parametrize("trace_noise_sd, trace_batch",
                         [(0.0, 4096), (0.5, 4096), (3.0, 4096), (0.5, 7)])
def test_end_to_end_batch_matches_per_face_reference(
        monkeypatch, trace_noise_sd, trace_batch):
    # A trace batch of 7 splits the 36 traces of a call unevenly.
    monkeypatch.setattr(sim, "TRACE_BATCH", trace_batch)
    three = load_scenario(resources.files("lightpos") / "fixtures"
                          / "three_lamps.json")
    # A wall, a tilted lamp and a low saturation level leave faces
    # occluded, unlit and saturated.
    wall = Aabb([7.0, 0.0, 0.0], [7.2, 12.0, 2.0])
    tilted = LampModel([8.0, 9.0, 3.0], [0.3, 0.0, -1.0], 40.0,
                       make_profile("polynomial", [1.0, -0.4]), 75.0)
    scenes = [three.scenario,
              replace(three.scenario, obstacles=(wall,), saturation=880.0,
                      lamps=three.scenario.lamps[:2] + (tilted,))]
    poses = np.array([[6.0, 5.0, 0.0], [5.0, 4.0, 2.0], [11.5, 3.0, 0.5],
                      [8.0, 9.0, 2.9], [1.0, 11.0, 0.0], [14.0, 6.0, 1.0]])
    for scn in scenes:
        scn = replace(scn, noise=replace(
            scn.noise, trace_noise_sd=trace_noise_sd, heading_epsilon=0.1,
            accel_sd=0.05))
        for ai, att in enumerate((Attitude(0, 0, 0), Attitude(0.3, -0.2, 1.0),
                                  Attitude(-0.6, 0.4, 4.0))):
            def rngs():
                return (_point_rng(7, ai, i) for i in range(len(poses)))
            batch = measure_batch(scn, poses, att, rngs(), MODE_END_TO_END)
            amps, valid, planes = _ref_measure_end_to_end(scn, poses, att,
                                                          rngs())
            assert valid.any() and not valid.all()
            assert np.array_equal(batch.amps, amps)
            assert np.array_equal(batch.valid, valid)
            assert np.array_equal(batch.planes, planes)


@pytest.mark.parametrize("mode", [sim.MODE_FAST, MODE_END_TO_END])
def test_measure_batch_keyed_streams_equal_generators(monkeypatch, mode):
    # Both forms of rngs fill the same arrays: keyed streams drawn as
    # arrays, or with accelerometer noise one Generator per key.
    three = load_scenario(resources.files("lightpos") / "fixtures"
                          / "three_lamps.json").scenario
    poses = np.array([[6.0, 5.0, 0.0], [5.0, 4.0, 2.0], [11.5, 3.0, 0.5],
                      [8.0, 9.0, 2.9]])
    keys = np.array([[7, 2**32 + i, 0, i] for i in range(len(poses))])
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: built.append(a) or default_rng(*a))
    for noise in ({}, {"heading_epsilon": 0.3, "rss_epsilon": 0.2,
                       "trace_noise_sd": 0.5},
                  {"heading_epsilon": 0.3, "accel_sd": 0.05}):
        scn = replace(three, noise=replace(three.noise, **noise))
        for att in (Attitude(0, 0, 0), Attitude(0.3, -0.2, 6.0)):
            built.clear()
            got = measure_batch(scn, poses, att, KeyedStreams(keys), mode)
            # Keys arrive as lists, trace-noise seeds as ints.
            per_fix = sum(isinstance(a[0], list) for a in built)
            want = measure_batch(scn, poses, att,
                                 [default_rng(k) for k in keys.tolist()],
                                 mode)
            for name in ("amps", "valid", "planes", "saturated",
                         "attitudes"):
                assert getattr(got, name).tobytes() == \
                    getattr(want, name).tobytes(), name
            # Generators per key only for normal (accelerometer) draws.
            assert per_fix == (len(poses) if scn.noise.accel_sd else 0)


_SCENE_BOUNDS = Aabb([0.0, 0.0, 0.0], [12.0, 12.0, 3.0])
_tilt = st.floats(-1.5, 1.5)
_lamp_profile = st.one_of(
    st.floats(0.5, 3.0).map(lambda g: make_profile("cosine_power", [g])),
    st.floats(-0.6, -0.1).map(lambda a: make_profile("polynomial", [1.0, a])))
_box = st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                 st.floats(0.0, 1.5), st.floats(0.2, 3.0),
                 st.floats(0.2, 3.0), st.floats(0.5, 2.0)).map(
    lambda b: Aabb(b[:3], [b[0] + b[3], b[1] + b[4], b[2] + b[5]]))


@st.composite
def _multi_lamp_scenes(draw):
    """A scene of 1-4 lamps with tilted central rays and either profile
    kind, 0-2 boxes and noisy attitude and amplitudes, with 1-6 poses
    below every lamp (lamps hang at 2.6-3 m, poses stand at most 2.5 m
    high) and one measured attitude."""
    lamps = tuple(
        LampModel([draw(st.floats(1.0, 11.0)), draw(st.floats(1.0, 11.0)),
                   draw(st.floats(2.6, 3.0))],
                  [draw(_tilt), draw(_tilt), -1.0],
                  draw(st.floats(10.0, 80.0)), draw(_lamp_profile),
                  45.0 + 10.0 * i)
        for i in range(draw(st.integers(1, 4))))
    scn = Scenario(
        _SCENE_BOUNDS, tuple(draw(st.lists(_box, max_size=2))), lamps,
        ReceiverSpec.default(0.05),
        NoiseSpec(rss_epsilon=draw(st.sampled_from([0.0, 0.1])),
                  heading_epsilon=draw(st.sampled_from([0.0, 0.2])),
                  accel_sd=draw(st.sampled_from([0.0, 0.05])),
                  trace_noise_sd=draw(st.sampled_from([0.0, 0.5]))),
        saturation=draw(st.sampled_from([855.0, 1000.0])))
    poses = draw(st.lists(st.tuples(st.floats(0.0, 12.0),
                                    st.floats(0.0, 12.0),
                                    st.floats(0.0, 2.5)),
                          min_size=1, max_size=6))
    att = Attitude(draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6)),
                   draw(st.floats(0.0, 6.28)))
    return scn, np.array(poses), att, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(_multi_lamp_scenes())
def test_lamp_geometry_one_pass_equals_per_lamp_loop(case):
    # measure_batch with its pose geometry and its planes each in one pass
    # over all lamps, against the same call with the per-lamp loops:
    # byte-equal in both modes.
    scn, poses, att, seed = case
    for mode in (sim.MODE_FAST, MODE_END_TO_END):
        def rngs():
            return (_point_rng(seed, i) for i in range(len(poses)))
        got = measure_batch(scn, poses, att, rngs(), mode)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_pose_geometry", _ref_pose_geometry)
            mp.setattr(sim, "_fix_planes", _ref_fix_planes)
            want = measure_batch(scn, poses, att, rngs(), mode)
        for name in ("amps", "valid", "planes", "saturated"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), (mode, name)


# Reference pipelines: locate over reading tuples, one fix at a time:
# readings grouped per lamp and ranked by select_readings, multi-lamp
# least squares seeded lamp by lamp, and scalar trilateration, as they ran
# before locate_batch became the one locate core; kept here as the oracle
# of sim.locate.  Trilateration here carries the core's two mends (each
# lamp's own k and profile, degeneracy judged in plan view over all lamps)
# and its pseudo-inverse lateration seed.

@dataclass(frozen=True)
class _LampSighting:
    """All readings of one lamp, strongest first."""

    lamp_id: int
    readings: tuple

    def __post_init__(self):
        readings = tuple(
            sorted(self.readings, key=lambda r: r.s, reverse=True))
        if any(r.lamp_id != self.lamp_id for r in readings):
            raise ValueError("sighting mixes readings from several lamps")
        object.__setattr__(self, "readings", readings)


def _ref_select_readings(sightings, m=3):
    """Per lamp, readings below 1% of its strongest are dropped and a lamp
    keeping three is kept.  With m = 3 the kept lamp with the greatest
    top-three mean wins (the first on ties); with m > 3 the kept lamps'
    top three are pooled and the m strongest returned."""
    if m < 3:
        raise ValueError("at least three readings are required to solve")
    top = {}
    for sg in sightings:
        floor = solve.RSS_FLOOR_FRACTION * sg.readings[0].s if sg.readings \
            else 0.0
        above = [r for r in sg.readings if r.s >= floor]
        if len(above) >= 3:
            top[sg.lamp_id] = above[:3]
    if not top:
        raise ValueError("no lamp has three readings above the RSS floor")
    if m == 3:
        best = None
        for li, rs in top.items():
            mean = np.mean([r.s for r in rs])
            if best is None or mean > best[0]:
                best = (mean, li)
        return top[best[1]]
    pool = [r for rs in top.values() for r in rs]
    pool.sort(key=lambda r: r.s, reverse=True)
    return pool[:m]


def _ref_lm_result(point, cost, status, iterations, n):
    if status == solve.STATUS_INFEASIBLE:
        return SolveResult(np.full(3, np.nan), math.inf, "no_converge")
    return SolveResult(point, float(np.sqrt(cost / n)),
                       "unique" if status == solve.STATUS_CONVERGED
                       else "no_converge", int(iterations))


def _ref_multi_residuals(readings, lamp_table, k_scale):
    by_model = {}
    for j, r in enumerate(readings):
        lamp = lamp_table[r.lamp_id]
        by_model.setdefault((lamp.k * k_scale, lamp.profile), []).append(j)
    groups = [
        (np.array(idx), k, profile,
         np.array([[unit(readings[j].plane)] for j in idx]),
         np.array([readings[j].s for j in idx]),
         np.array([lamp_table[readings[j].lamp_id].position for j in idx]),
         np.array([lamp_table[readings[j].lamp_id].solve_basis
                   for j in idx]))
        for (k, profile), idx in by_model.items()]

    def residuals(p, rows):
        r = np.empty((len(p), len(readings)))
        jac = np.empty((len(p), len(readings), 3))
        feasible = np.ones(len(p), dtype=bool)
        for idx, k, profile, planes, s, position, basis in groups:
            x = np.matvec(basis.transpose(0, 2, 1), position - p[:, None, :])
            feasible &= np.all(x[:, :, 2] > 0, axis=1)
            m, grad = rss_model(planes, k, profile, x)
            r[:, idx] = (m[:, :, 0] - s) / s
            jac[:, idx] = -np.matvec(basis, grad[:, :, 0]) / s[:, None]
        return r, jac, feasible

    return residuals


def _ref_solve_multi(readings, lamp_table, k_scale):
    lamp_ids = sorted({r.lamp_id for r in readings})
    if len(lamp_ids) == 1:
        lamp = lamp_table[lamp_ids[0]]
        res = mflp_least_squares([r.plane for r in readings],
                                 [r.s for r in readings], lamp.k * k_scale,
                                 lamp.profile)
        if res.status != "unique":
            return res
        return SolveResult(to_world_position(lamp, res.point),
                           res.residual_rms, res.status, res.iterations)
    by_lamp = {i: [r for r in readings if r.lamp_id == i] for i in lamp_ids}
    seed = None
    for i in sorted(lamp_ids,
                    key=lambda j: -np.mean([r.s for r in by_lamp[j][:3]])):
        triple = by_lamp[i]
        if len(triple) < 3:
            continue
        lamp = lamp_table[i]
        # Three readings: the closed form is the fix.
        res = mflp_least_squares([r.plane for r in triple],
                                 [r.s for r in triple], lamp.k * k_scale,
                                 lamp.profile)
        if res.status == "unique":
            seed = to_world_position(lamp, res.point)
            break
    if seed is None:
        return SolveResult(np.full(3, np.nan), math.inf, "degenerate")
    p, cost, status, iters = levenberg_marquardt(
        _ref_multi_residuals(readings, lamp_table, k_scale), seed[None],
        max_iter=400)
    return _ref_lm_result(p[0], cost[0], status[0], iters[0], len(readings))


def _ref_trilaterate(lamps, k_scale, s, z_receiver=None):
    pos = np.array([lamp.position for lamp in lamps])
    s = np.asarray(s, dtype=float)
    z_fixed = z_receiver is not None
    z0 = float(z_receiver) if z_fixed else 0.0
    if not math.isfinite(z0):
        raise ValueError("k and the receiver height must be finite, k > 0")
    xy = pos[:, :2]
    spread = max(np.sqrt(np.vecdot(xy - xy.mean(axis=0),
                                   xy - xy.mean(axis=0))))
    area = max(0.5 * abs((xy[j, 0] - xy[i, 0]) * (xy[m, 1] - xy[i, 1])
                         - (xy[j, 1] - xy[i, 1]) * (xy[m, 0] - xy[i, 0]))
               for i, j, m in combinations(range(len(pos)), 3))
    if area < 1e-9 * max(spread, 1.0) ** 2:
        return SolveResult(np.full(3, np.nan), math.inf, "degenerate")
    dz0 = pos[:, 2] - z0
    if np.any(dz0 <= 0):
        raise ValueError("receiver must start below every lamp")
    d_est = np.array([_invert_distances(lamp.k * k_scale, lamp.profile,
                                        dz0[i:i + 1], s[i:i + 1])[0]
                      for i, lamp in enumerate(lamps)])
    rows = 2 * (pos[1:, :2] - pos[0, :2])
    rhs = (d_est[0] ** 2 - d_est[1:] ** 2
           + np.sum(pos[1:, :2] ** 2, axis=1)
           - np.sum(pos[0, :2] ** 2)
           + dz0[1:] ** 2 - dz0[0] ** 2)
    xy0 = np.matvec(np.linalg.pinv(rows), rhs)
    up = np.array([[[0.0, 0.0, 1.0]]])

    def residuals(theta, rows):
        q = theta if not z_fixed else np.column_stack(
            [theta, np.full(len(theta), z0)])
        x = pos - q[:, None, :]
        r = np.empty(x.shape[:2])
        jac = np.empty(x.shape[:2] + (theta.shape[1],))
        for j, lamp in enumerate(lamps):
            m, grad = rss_model(up, lamp.k * k_scale, lamp.profile,
                                x[:, j:j + 1])
            r[:, j] = (m[:, 0, 0] - s[j]) / s[j]
            jac[:, j] = -grad[:, 0, 0, :theta.shape[1]] / s[j]
        return r, jac, np.all(x[:, :, 2] > 0, axis=1)

    theta, cost, status, iters = levenberg_marquardt(
        residuals, [xy0 if z_fixed else [*xy0, z0]], max_iter=100)
    point = np.array([*theta[0], z0]) if z_fixed else theta[0]
    return _ref_lm_result(point, cost[0], status[0], iters[0], len(s))


def _ref_locate(scn, mset, pipeline, m=3, z_receiver=None):
    readings = _readings(mset)
    if pipeline == sim.PIPELINE_TRILATERATION:
        top = {r.lamp_id: r.s for r in readings if r.face_id == 0}
        if len(top) < 3:
            return SolveResult(np.full(3, np.nan), math.inf, "degenerate")
        ids = sorted(top, key=top.get, reverse=True)[:3]
        return _ref_trilaterate([scn.lamps[i] for i in ids], OOK_FUNDAMENTAL,
                                [top[i] for i in ids], z_receiver)
    by_lamp = {}
    for r in readings:
        by_lamp.setdefault(r.lamp_id, []).append(r)
    sightings = [_LampSighting(i, tuple(rs))
                 for i, rs in sorted(by_lamp.items())]
    chosen = _ref_select_readings(
        sightings, 3 if pipeline == sim.PIPELINE_MFLP else m)
    return _ref_solve_multi(chosen, {i: scn.lamps[i] for i in
                                     {r.lamp_id for r in chosen}},
                            OOK_FUNDAMENTAL)


def _outcome(fn, *args, **kwargs):
    """A solve's result, or the ValueError it raised, as comparable
    values: point bytes, status, iterations and residual."""
    try:
        res = fn(*args, **kwargs)
    except ValueError as exc:
        return ("raised", str(exc)), None
    return (res.point.tobytes(), res.status, res.iterations), \
        res.residual_rms


_PIPELINES = [(sim.PIPELINE_MFLP, 3), (sim.PIPELINE_MULTI, 3),
              (sim.PIPELINE_MULTI, 4), (sim.PIPELINE_MULTI, 9),
              (sim.PIPELINE_TRILATERATION, 3)]


@settings(max_examples=40, deadline=None)
@given(_multi_lamp_scenes())
def test_locate_equals_reading_pipelines(case):
    # locate chooses readings from the arrays; the reading pipelines
    # must give the same points, byte for byte, statuses, iterations and
    # raised errors, and residuals equal up to round-off.  The batch's row n
    # is locate on fix n, residual included; it reports an error where mflp
    # locate raises.
    scn, poses, att, seed = case
    for mode in (sim.MODE_FAST, MODE_END_TO_END):
        batch = measure_batch(scn, poses, att,
                              (_point_rng(seed, i) for i in range(len(poses))),
                              mode)
        points, status, residual, _, error = sim.locate_batch(scn, batch)
        for n, pose in enumerate(poses):
            mset = _one_fix(batch, n)
            for pipeline, m in _PIPELINES:
                z = pose[2] if pipeline == sim.PIPELINE_TRILATERATION else None
                got, got_rms = _outcome(locate, scn, mset, pipeline, m, z)
                want, want_rms = _outcome(_ref_locate, scn, mset, pipeline, m,
                                          z)
                assert got == want, (pipeline, m)
                if got_rms is not None:
                    # Each side takes its residual from its own closed
                    # form or least-squares cost: equal up to round-off,
                    # which is the whole residual of a noise-free fix.
                    assert got_rms == pytest.approx(want_rms, rel=1e-9,
                                                    abs=1e-13)
            mflp, _ = _outcome(locate, scn, mset)
            assert (mflp[0] != "raised") == (error[n] == 0)
            res = locate(scn, mset) if status[n] == "unique" else None
            if res is not None:
                assert res.point.tobytes() == points[n].tobytes()
                assert res.residual_rms == residual[n]
            else:
                assert np.isnan(points[n]).all() and residual[n] == math.inf


@settings(max_examples=30, deadline=None)
@given(_multi_lamp_scenes())
def test_locate_batch_equals_locate_per_fix(case):
    # Every pipeline locates a batch's fixes together, grouped by their
    # reading counts; fix n of the batch must be locate on fix n alone:
    # point bytes, status, iterations, residual, and the ValueError locate
    # raises.  Trilateration both at a free height and at each pose's own.
    scn, poses, att, seed = case
    runs = [(p, m, None) for p, m in _PIPELINES] + [
        (sim.PIPELINE_TRILATERATION, 3, poses[:, 2])]
    for mode in (sim.MODE_FAST, MODE_END_TO_END):
        batch = measure_batch(scn, poses, att,
                              (_point_rng(seed, i) for i in range(len(poses))),
                              mode)
        for pipeline, m, z in runs:
            points, status, residual, iters, error = sim.locate_batch(
                scn, batch, pipeline, m, z)
            for n in range(len(poses)):
                got = _outcome(locate, scn, _one_fix(batch, n),
                               pipeline, m, None if z is None else z[n])
                want = ((("raised", sim.LOCATE_ERRORS[error[n]]), None)
                        if error[n] else
                        ((points[n].tobytes(), status[n], iters[n]),
                         residual[n]))
                assert got == want, (pipeline, m, z is None, n)


def test_locate_rejects_few_readings_like_reading_pipelines():
    # No lamp keeps three readings: mflp and multi raise; trilateration
    # needs three lamps' top faces and reports degenerate.
    scn = simple_scenario()
    wall = Aabb([4.0, 0.0, 0.0], [4.2, 10.0, 3.0])
    mset = measure(replace(scn, obstacles=(wall,)), [1.0, 5.0, 0.0],
                   rng=np.random.default_rng(0))
    assert not _readings(mset)
    for pipeline, m in _PIPELINES + [(sim.PIPELINE_MULTI, 2)]:
        got = _outcome(locate, scn, mset, pipeline, m)
        assert got == _outcome(_ref_locate, scn, mset, pipeline, m)
        assert (got[0][0] == "raised") == (pipeline != "trilateration")


def test_locate_calls_no_scalar_solver(monkeypatch):
    # Every pipeline solves from the measurement arrays on the batched
    # core alone, never through the scalar solvers.
    three = load_scenario(resources.files("lightpos") / "fixtures"
                          / "three_lamps.json").scenario
    scn = replace(three, noise=NoiseSpec(rss_epsilon=0.1))
    mset = measure(scn, [7.0, 5.0, 0.0], rng=np.random.default_rng(2))

    def scalar(*args, **kwargs):
        raise AssertionError("a scalar solver was called")

    for name in ("mflp_least_squares", "trilaterate", "to_world_position"):
        monkeypatch.setattr(solve, name, scalar)
    for pipeline, m in _PIPELINES:
        assert locate(scn, mset, pipeline, m, z_receiver=0.0).ok


def test_locate_breaks_ties_like_reading_pipelines():
    # Amplitudes drawn from a few values tie often, within a lamp and
    # across lamps: the array selection must order them as the reading
    # pipelines do (lamp, then face order among equal amplitudes).
    three = load_scenario(resources.files("lightpos") / "fixtures"
                          / "three_lamps.json").scenario
    poses = np.array([[7.0, 5.0, 0.0], [8.0, 6.0, 0.5], [9.0, 4.5, 0.0]])
    base = measure_batch(three, poses, Attitude(0.1, -0.1, 1.0),
                         (_point_rng(3, i) for i in range(len(poses))))
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(40):
        amps = rng.choice([2.0, 3.0, 5.0], size=base.amps.shape)
        valid = rng.random(base.amps.shape) < 0.8
        batch = replace(base, amps=amps, valid=valid)
        for n, pose in enumerate(poses):
            mset = _one_fix(batch, n)
            for pipeline, m in _PIPELINES:
                got = _outcome(locate, three, mset, pipeline, m, pose[2])
                assert got[0] == _outcome(_ref_locate, three, mset, pipeline,
                                          m, pose[2])[0], (pipeline, m)
                outcomes.add((pipeline, m, got[0][-2]))
    assert {(p, m, "unique") for p, m in _PIPELINES} <= outcomes


def _ref_measured_attitude(att, d_pitch, d_roll, d_heading):
    # The scalar attitude-noise arithmetic on Python floats: the oracle for
    # the batched rows.
    heading = (att.heading + d_heading) % (2 * math.pi)
    pitch = max(-math.pi / 2, min(math.pi / 2, att.pitch + d_pitch))
    roll = att.roll + d_roll
    if roll <= -math.pi:
        roll += 2 * math.pi
    elif roll > math.pi:
        roll -= 2 * math.pi
    return Attitude(pitch, roll, heading)


def test_measured_attitudes_match_scalar_reference():
    # Offsets push pitch past its clip, roll across +-pi and heading across
    # 0 and 2*pi; every row must equal the scalar arithmetic bit for bit.
    rng = np.random.default_rng(8)
    for att in (Attitude(0, 0, 0), Attitude(1.5, math.pi, 6.2),
                Attitude(-1.5, -3.1, 0.05)):
        offsets = np.column_stack([rng.normal(0, 0.3, 300),
                                   rng.normal(0, 0.3, 300),
                                   rng.uniform(-0.5, 0.5, 300)])
        rows = sim._measured_attitudes(att, offsets)
        want = [_ref_measured_attitude(att, *off) for off in offsets]
        assert rows.tobytes() == np.array(
            [[a.pitch, a.roll, a.heading] for a in want]).tobytes()
    # A roll still outside (-pi, pi] after one wrap is no Attitude.
    with pytest.raises(ValueError, match="roll"):
        sim._measured_attitudes(Attitude(0, 3.0, 0), np.array([[0, 7.0, 0]]))


def test_measured_attitude_perturbed_within_bounds():
    eps_h = math.radians(10)
    scn = simple_scenario(noise=NoiseSpec(heading_epsilon=eps_h,
                                          accel_sd=0.01))
    seen = []
    for t in range(50):
        mset = measure(scn, [5, 5, 0], Attitude(0, 0, 0),
                       rng=np.random.default_rng(t))
        h = mset.attitudes[0, 2]
        h = h - 2 * math.pi if h > math.pi else h
        assert abs(h) <= eps_h
        seen.append(h)
    assert np.std(seen) > 0


def test_run_static_noise_free_exact():
    scn = simple_scenario()
    points = [[4, 4, 0], [5, 6, 0], [6.5, 5, 0]]
    fixes, stats = run_static(scn, points, seed=3)
    assert stats.failures == 0
    assert stats.max < 1e-9
    assert stats.count == 3


def test_run_static_out_of_coverage_counts_failure():
    scn = simple_scenario(
        lamps=(LampModel([5, 5, 3], [0, 0, -1], 40.0, COS, 65.0,
                         range_m=2.0),))
    wall = Aabb([2.0, 0.0, 0.0], [2.2, 10.0, 3.0])
    scn = replace(scn, obstacles=(wall,))
    fixes, stats = run_static(scn, [[1.0, 5.0, 0.0]], seed=0)
    assert stats.failures == 1
    assert fixes[0].status != "unique"


def test_sample_trajectory_spacing():
    samples = sample_trajectory([[0, 0, 0], [4, 0, 0], [4, 3, 0]],
                                speed=1.0, interval_s=0.5)
    times = [t for t, _ in samples]
    assert times == pytest.approx(np.arange(0, 7.01, 0.5).tolist())
    assert np.allclose(samples[0][1], [0, 0, 0])
    assert np.allclose(samples[-1][1], [4, 3, 0])
    # Midpoint of the first leg.
    assert np.allclose(samples[4][1], [2, 0, 0])


def test_run_trajectory_noise_free():
    scn = simple_scenario()
    fixes, stats = run_trajectory(scn, [[4, 4, 0], [6, 6, 0]], speed=1.0,
                                  interval_s=0.3, seed=0)
    assert all(f.status == "unique" for f in fixes)
    assert max(f.error for f in fixes) < 1e-9
    assert (stats.count, stats.failures) == (len(fixes), 0)
    assert stats.max == max(f.error for f in fixes)


def test_runs_equal_fixes_measured_one_at_a_time():
    # run_static and run_trajectory measure every pose in one batch, pose i
    # with the stream keyed (seed, i), and locate them together: each fix
    # must be measure + locate on its own with that stream's generator,
    # byte for byte; a raised fix or a point outside the bounds is
    # degenerate.
    three = load_scenario(resources.files("lightpos") / "fixtures"
                          / "three_lamps.json").scenario
    scn = replace(three, noise=replace(three.noise, rss_epsilon=0.1,
                                       heading_epsilon=0.1))
    points = [[6.0, 5.0, 0.0], [8.0, 6.0, 0.5], [20.0, 5.0, 0.0],
              [11.0, 4.0, 2.9], [1.0, 11.0, 0.0]]
    att = Attitude(0.1, 0.0, 1.0)
    for pipeline, m in _PIPELINES:
        for mode in (sim.MODE_FAST, MODE_END_TO_END):
            fixes, stats = run_static(scn, points, pipeline, m, mode, seed=5,
                                      attitude=att)
            traj, _ = run_trajectory(scn, points[:2], 1.0, 0.5, pipeline,
                                     m, mode, seed=5, attitude=att)
            poses = [(fix.time_s, fix.true_position) for fix in traj]
            for i, fix in enumerate(fixes + traj):
                t, p = (float(i), points[i]) if i < len(fixes) else \
                    poses[i - len(fixes)]
                i = i if i < len(fixes) else i - len(fixes)
                try:
                    mset = measure(scn, p, att, mode, _point_rng(5, i))
                    res = locate(scn, mset, pipeline, m, z_receiver=p[2])
                    want = (res.point.tobytes(), res.status)
                except ValueError:
                    want = (np.full(3, np.nan).tobytes(), "degenerate")
                assert fix.time_s == t
                assert (fix.estimate.tobytes(), fix.status) == want, (
                    pipeline, m, mode, i)
            assert stats.failures >= 1
            assert stats.count == sum(f.status == "unique" for f in fixes)
            # No pose inside the bounds: nothing to measure or locate.
            fixes, stats = run_static(scn, points[2:3], pipeline, m, mode)
            assert fixes[0].status == "degenerate" and stats.failures == 1


def test_trilateration_uses_each_lamps_own_k_and_profile():
    # Noise-free top-face readings of lamps with unequal k, and one with
    # its own profile, give the exact receiver position.
    three = load_scenario(resources.files("lightpos") / "fixtures"
                          / "three_lamps.json").scenario
    points = [[6.0, 5.0, 0.0], [8.0, 6.0, 0.0], [10.0, 7.0, 0.0]]
    for ks, profiles in (((40.0, 80.0, 40.0), (COS,) * 3),
                         ((40.0, 80.0, 25.0),
                          (COS, make_profile("cosine_power", [2.0]), COS))):
        lamps = tuple(LampModel(l.position, l.central_ray, k, profile,
                                l.flash_hz)
                      for l, k, profile in zip(three.lamps, ks, profiles))
        scn = replace(three, lamps=lamps, noise=NoiseSpec())
        fixes, stats = run_static(scn, points, sim.PIPELINE_TRILATERATION)
        assert stats.failures == 0
        assert stats.max < 1e-6


@pytest.mark.parametrize("pipeline, m", [("bogus", 3),
                                         (sim.PIPELINE_MULTI, 2)])
def test_runs_reject_bad_pipeline_before_any_fix(pipeline, m):
    # Not a run of degenerate fixes: locate's ValueError would be caught
    # per fix.
    scn = simple_scenario()
    with pytest.raises(ValueError):
        run_static(scn, [[4, 4, 0]], pipeline=pipeline, m=m)
    with pytest.raises(ValueError):
        run_trajectory(scn, [[4, 4, 0], [6, 6, 0]], speed=1.0,
                       interval_s=0.3, pipeline=pipeline, m=m)


def test_oscillation_distance():
    pts = [[0, 0, 0], [2, 0, 0]]
    assert oscillation_distance(pts) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        oscillation_distance([[1, 1, 1]])


def test_sensitivity_sweep_monotone_and_seeded():
    scn = simple_scenario()
    points = [[4.5, 4.5, 0], [5.5, 5.5, 0]]
    rows, mono = sensitivity_sweep(scn, points, [0.0, 0.1, 0.2],
                                   [0.0], trials=20, seed=9)
    assert mono
    assert rows[0][2].mean < 1e-9
    rows2, _ = sensitivity_sweep(scn, points, [0.0, 0.1, 0.2],
                                 [0.0], trials=20, seed=9)
    assert [r[2] for r in rows] == [r[2] for r in rows2]


def test_sensitivity_sweep_equals_scalar_fixes():
    # The sweep solves each cell as one batch; its statistics must be those
    # of the same fixes run one at a time, seeded per (cell, trial, point).
    # Besides the fast sweep: a seed that takes two entropy words, an
    # end-to-end cell with trace noise, and accelerometer noise, which the
    # sweep draws from one Generator per fix.
    sf = load_scenario(str(resources.files("lightpos") / "fixtures"
                           / "office_single_lamp.json"))
    scn = sf.scenario
    assert len(scn.obstacles) == 2
    points = [np.asarray(p) for p in sf.points[::10]] + [
        np.array([0.3, 5.0, 1.0]),    # inside a wall: no lamp in sight
        np.array([13.0, 5.0, 0.0]),   # outside the bounds
    ]
    trials = 3
    eps_h10 = math.radians(10.0)
    cases = [
        (11, [0.0, 0.2], [0.0, eps_h10], sim.MODE_FAST, {}),
        (5_000_000_000, [0.0, 0.2], [0.0, eps_h10], sim.MODE_FAST, {}),
        (11, [0.2], [eps_h10], MODE_END_TO_END, {"trace_noise_sd": 0.5}),
        (11, [0.2], [0.0, eps_h10], sim.MODE_FAST, {"accel_sd": 0.02}),
    ]
    for seed, eps_grid, eps_h_grid, mode, extra_noise in cases:
        base = replace(scn, noise=replace(scn.noise, **extra_noise))
        rows, _ = sensitivity_sweep(base, points, eps_grid, eps_h_grid,
                                    trials, mode=mode, seed=seed)
        cells = [(ci, cj) for ci in range(len(eps_h_grid))
                 for cj in range(len(eps_grid))]
        assert len(rows) == len(cells)
        for (ci, cj), (eps, eps_h, st) in zip(cells, rows):
            assert (eps, eps_h) == (eps_grid[cj], eps_h_grid[ci])
            noisy = replace(base, noise=replace(
                base.noise, rss_epsilon=eps, heading_epsilon=eps_h))
            errors, failures = [], 0
            for t in range(trials):
                for i, p in enumerate(points):
                    try:
                        mset = measure(noisy, p, Attitude(0, 0, 0), mode,
                                       rng=_point_rng(seed, ci, cj, t, i))
                        res = locate(noisy, mset)
                    except ValueError:
                        failures += 1
                        continue
                    if res.status == "unique":
                        errors.append(float(np.linalg.norm(res.point - p)))
                    else:
                        failures += 1
            assert failures >= 2 * trials
            assert (st.count, st.failures) == (len(errors), failures)
            assert [st.mean, st.median, st.max] == pytest.approx(
                [np.mean(errors), np.median(errors), np.max(errors)],
                rel=1e-9)


def _office_sweep_points():
    """office_single_lamp, with two walls, and a few of its points plus
    one inside a wall, one outside the bounds and one near the lamp."""
    sf = load_scenario(str(resources.files("lightpos") / "fixtures"
                           / "office_single_lamp.json"))
    points = np.array(list(sf.points[::10]) + [
        [0.3, 5.0, 1.0],    # inside a wall: no lamp in sight
        [13.0, 5.0, 0.0],   # outside the bounds
        [6.2, 4.8, 0.5],
    ])
    return sf.scenario, points


@pytest.mark.parametrize("mode", [sim.MODE_FAST, MODE_END_TO_END])
@pytest.mark.parametrize("extra_noise", [{}, {"accel_sd": 0.02}])
def test_sweep_cell_arrays_equal_measure_batch(monkeypatch, mode,
                                               extra_noise):
    # The sweep gathers each fix's pose geometry from one pass over the
    # points; every cell's arrays must equal measure_batch on the same
    # fixes, (trial, point) in trial-major order over the in-bounds
    # points, each with its own generator, byte for byte.
    scn, points = _office_sweep_points()
    # A full scale just above the ambient level saturates the most lit
    # faces.
    scn = replace(scn, saturation=852.5, noise=replace(
        scn.noise, trace_noise_sd=0.5, **extra_noise))
    eps_grid, eps_h_grid, trials, seed = [0.0, 0.2], [0.0, 0.3], 2, 17
    cells = []
    measure_poses = sim._measure_poses
    monkeypatch.setattr(sim, "_measure_poses",
                        lambda *a: cells.append(measure_poses(*a))
                        or cells[-1])
    sensitivity_sweep(scn, points, eps_grid, eps_h_grid, trials,
                      mode=mode, seed=seed)
    inside = [i for i, p in enumerate(points) if scn.bounds.contains(p)]
    assert len(inside) == len(points) - 1
    assert len(cells) == len(eps_grid) * len(eps_h_grid)
    for (ci, eps_h), (cj, eps) in [(h, e) for h in enumerate(eps_h_grid)
                                   for e in enumerate(eps_grid)]:
        got = cells[ci * len(eps_grid) + cj]
        noisy = replace(scn, noise=replace(scn.noise, rss_epsilon=eps,
                                           heading_epsilon=eps_h))
        fixes = [(t, i) for t in range(trials) for i in inside]
        want = measure_batch(
            noisy, points[[i for _, i in fixes]], Attitude(0, 0, 0),
            [np.random.default_rng((seed, ci, cj, t, i)) for t, i in fixes],
            mode)
        assert want.valid.any() and not want.valid.all()
        assert want.saturated.any() and not want.saturated.all()
        for name in ("amps", "valid", "planes", "saturated", "attitudes"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), (ci, cj, name)


def test_sweep_measures_pose_geometry_once_per_call(monkeypatch):
    # The pose part, line of sight included, runs once per sweep over the
    # in-bounds points, not once per cell; the point outside the bounds
    # never reaches it.
    scn, points = _office_sweep_points()
    seen, blocked_calls = [], []
    pose_geometry, blocked = sim._pose_geometry, sim.segments_blocked
    monkeypatch.setattr(sim, "_pose_geometry",
                        lambda s, pos, att: seen.append(pos.copy())
                        or pose_geometry(s, pos, att))
    monkeypatch.setattr(sim, "segments_blocked",
                        lambda *a: blocked_calls.append(1) or blocked(*a))
    for mode in (sim.MODE_FAST, MODE_END_TO_END):
        seen.clear()
        blocked_calls.clear()
        rows, _ = sensitivity_sweep(scn, points, [0.0, 0.1, 0.2],
                                    [0.0, 0.2], 2, mode=mode, seed=3)
        assert len(rows) == 6
        assert len(seen) == 1 and len(blocked_calls) == 1
        assert np.array_equal(seen[0], np.delete(points, -2, axis=0))
        assert all(st.failures >= 2 * 2 for _, _, st in rows)


def test_sweep_with_no_point_in_bounds_fails_every_fix():
    # No pose reaches either part; both modes count every fix as failed.
    scn = simple_scenario()
    for mode in (sim.MODE_FAST, MODE_END_TO_END):
        rows, _ = sensitivity_sweep(scn, [[20.0, 5.0, 0.0]], [0.0, 0.1],
                                    [0.0], 2, mode=mode, seed=1)
        assert [(st.count, st.failures) for _, _, st in rows] == [(0, 2)] * 2
        empty = measure_batch(scn, np.empty((0, 3)), Attitude(0, 0, 0), [],
                              mode)
        assert empty.amps.shape == (0, 1, 6)


def test_sweep_rejects_unknown_pipeline_before_any_cell(monkeypatch):
    # Not a sweep of failed fixes: locate's error would count per fix.
    scn = simple_scenario()

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sim, "_measure_poses", no_cell)
    with pytest.raises(ValueError, match="unknown pipeline 'trilat'"):
        sensitivity_sweep(scn, [[4.0, 4.0, 0.0]], [0.0], [0.0], 1,
                          pipeline="trilat")


def test_coverage_analysis_full_and_blocked():
    scn = simple_scenario(
        lamps=(LampModel([5, 5, 3], [0, 0, -1], 40.0, COS, 65.0,
                         range_m=20.0),))
    rep = coverage_analysis(scn.bounds, (), scn.lamps, "mflp",
                            cell_size=1.0, receiver_height=1.0)
    assert rep.fraction == pytest.approx(1.0)
    wall = Aabb([7.0, 0.0, 0.0], [7.2, 10.0, 3.0])
    rep2 = coverage_analysis(scn.bounds, (wall,), scn.lamps, "mflp",
                             cell_size=1.0, receiver_height=1.0)
    assert rep2.fraction < 1.0
    assert all(c[0] > 7.0 for c in rep2.uncovered_cells)


def test_coverage_trilateration_needs_spread_triple():
    close = tuple(
        LampModel([5 + 0.1 * i, 5, 3], [0, 0, -1], 40.0, COS,
                  55.0 + 10 * i, range_m=20.0)
        for i in range(3)
    )
    rep = coverage_analysis(Aabb([0, 0, 0], [10, 10, 3]), (), close,
                            "trilateration", cell_size=2.0,
                            receiver_height=1.0)
    assert rep.fraction == 0.0  # pairwise separation below 1 m


def test_greedy_min_lamps_single_room():
    cands = tuple(
        LampModel([x, y, 3], [0, 0, -1], 40.0, COS, 55.0, range_m=20.0)
        for x in (2.5, 7.5) for y in (2.5, 7.5)
    )
    n, chosen, short = greedy_min_lamps(Aabb([0, 0, 0], [10, 10, 3]), (),
                                        cands, "mflp", cell_size=1.0,
                                        receiver_height=1.0)
    assert n == 1 and short == 0


def test_grid_cells_rejects_non_finite_inputs():
    bounds = Aabb([0, 0, 0], [10, 10, 3])
    assert grid_cells(bounds, 2.0, 1.0).shape == (25, 3)
    for size, height in ((math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                         (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ValueError):
            grid_cells(bounds, size, height)


# Reference planner: the per-cell loops the array planner replaced, kept
# here as the oracle for coverage_analysis and greedy_min_lamps.

def _ref_visibility(bounds, obstacles, lamps, cell_size, height):
    xs = np.arange(bounds.lo[0] + cell_size / 2, bounds.hi[0], cell_size)
    ys = np.arange(bounds.lo[1] + cell_size / 2, bounds.hi[1], cell_size)
    cells = [np.array([x, y, height]) for x in xs for y in ys]
    cells = [c for c in cells
             if not any(box.contains(c) for box in obstacles)]
    vis = np.zeros((len(lamps), len(cells)), dtype=bool)
    for ci, lamp in enumerate(lamps):
        for ki, cell in enumerate(cells):
            d = np.linalg.norm(lamp.position - cell)
            vis[ci, ki] = d <= lamp.range_m and line_of_sight(
                lamp.position, cell, obstacles)
    return cells, vis


def _ref_has_valid_triple(visible_ids, lamps):
    if len(visible_ids) < 3:
        return False
    pos = [lamps[i].position for i in visible_ids]
    for a, b, c in combinations(range(len(pos)), 3):
        pa, pb, pc = pos[a], pos[b], pos[c]
        if (np.linalg.norm(pb - pa) < 1.0 or np.linalg.norm(pc - pa) < 1.0
                or np.linalg.norm(pc - pb) < 1.0):
            continue
        if 0.5 * np.linalg.norm(np.cross(pb - pa, pc - pa)) >= 0.5:
            return True
    return False


def _ref_cell_covered(vis, ki, lamp_ids, lamps, method):
    visible = [i for i in lamp_ids if vis[i, ki]]
    if method == "mflp":
        return len(visible) >= 1
    return _ref_has_valid_triple(visible, lamps)


def _ref_coverage(cells, vis, lamps, method):
    uncovered = tuple(
        tuple(cell) for ki, cell in enumerate(cells)
        if not _ref_cell_covered(vis, ki, range(len(lamps)), lamps, method))
    fraction = 1.0 - len(uncovered) / len(cells) if cells else 0.0
    return fraction, uncovered


def _ref_greedy(cells, vis, candidates, method):
    need = 1 if method == "mflp" else 3
    chosen = []
    covered = np.zeros(len(cells), dtype=bool)
    while not covered.all() and len(chosen) < len(candidates):
        best = None
        for ci in range(len(candidates)):
            if ci in chosen:
                continue
            trial = chosen + [ci]
            gain = progress = 0
            for ki in np.nonzero(~covered)[0]:
                if not vis[ci, ki]:
                    continue
                n_before = sum(1 for i in chosen if vis[i, ki])
                progress += max(0, min(need, n_before + 1)
                                - min(need, n_before))
                if (not _ref_cell_covered(vis, ki, chosen, candidates, method)
                        and _ref_cell_covered(vis, ki, trial, candidates,
                                              method)):
                    gain += 1
            score = (gain, progress, -ci)
            if best is None or score > best[0]:
                best = (score, ci)
        if best is None or best[0][:2] == (0, 0):
            break
        chosen.append(best[1])
        for ki in np.nonzero(~covered)[0]:
            if _ref_cell_covered(vis, ki, chosen, candidates, method):
                covered[ki] = True
    return len(chosen), chosen, int((~covered).sum())


def test_planner_matches_per_cell_reference():
    fixtures = {name: load_scenario(resources.files("lightpos") / "fixtures"
                                    / f"{name}.json")
                for name in ("two_room", "four_room")}
    rng = np.random.default_rng(9)
    shortfalls = partial = 0
    for case in range(16):
        name = ("two_room", "four_room")[case % 2]
        sf = fixtures[name]
        cands = list(sf.candidates)
        order = rng.permutation(len(cands))[:rng.integers(1, len(cands) + 1)]
        # Shrunken ranges make range_m, not only walls, cut visibility.
        cands = [replace(cands[i], range_m=float(rng.uniform(3.0, 12.0)))
                 if rng.random() < 0.5 else cands[i] for i in order]
        method = ("mflp", "trilateration")[case // 2 % 2]
        size = (0.3, 0.5, 0.7)[case % 3] if name == "two_room" else \
            (0.5, 0.7)[case // 4 % 2]
        height = (0.0, 0.8, 1.2)[case % 3]
        args = (sf.scenario.bounds, sf.scenario.obstacles, cands, method)
        cells, vis = _ref_visibility(*args[:3], size, height)
        got = greedy_min_lamps(*args, cell_size=size, receiver_height=height)
        assert got == _ref_greedy(cells, vis, cands, method)
        rep = coverage_analysis(*args, cell_size=size, receiver_height=height)
        fraction, uncovered = _ref_coverage(cells, vis, cands, method)
        assert (rep.fraction, rep.uncovered_cells) == (fraction, uncovered)
        assert (rep.method, rep.lamp_count) == (method, len(cands))
        shortfalls += got[2] > 0
        partial += 0 < fraction < 1
    assert shortfalls >= 3 and partial >= 3


def test_planner_boundary_cases_match_reference():
    # Exact binary coordinates put one cell at exactly range_m from a lamp
    # and a triple exactly at the separation and area limits; a pillar
    # holds 4 of the 64 cells.
    bounds = Aabb([0, 0, 0], [4, 4, 3])
    pillar = (Aabb([1.5, 1.5, 0], [2.5, 2.5, 3]),)
    below = LampModel([0.25, 0.25, 3.0], [0, 0, -1], 40.0, COS, 55.0,
                      range_m=2.0)
    triple = tuple(LampModel([x, y, 2.8], [0, 0, -1], 40.0, COS, 65.0)
                   for x, y in ((0.5, 3.0), (1.5, 3.0), (0.5, 4.0)))
    grid = dict(cell_size=0.5, receiver_height=1.0)
    for lamps in ((below,), triple, (below,) + triple):
        cells, vis = _ref_visibility(bounds, pillar, lamps, 0.5, 1.0)
        for method in ("mflp", "trilateration"):
            args = (bounds, pillar, lamps, method)
            assert greedy_min_lamps(*args, **grid) == _ref_greedy(
                cells, vis, lamps, method)
            rep = coverage_analysis(*args, **grid)
            assert (rep.fraction, rep.uncovered_cells) == _ref_coverage(
                cells, vis, lamps, method)
    assert len(cells) == 60 and vis[0].sum() == 1
    assert coverage_analysis(bounds, pillar, triple, "trilateration",
                             **grid).fraction > 0


def test_planner_rejects_lamp_on_cell_center():
    bounds = Aabb([0, 0, 0], [4, 4, 3])
    # On the cell center (1.25, 1.75, 1.0), and within np.allclose of it.
    for x in (1.25, 1.25 + 1e-6):
        cands = (LampModel([1.0, 3.0, 2.8], [0, 0, -1], 40.0, COS, 55.0),
                 LampModel([x, 1.75, 1.0], [0, 0, -1], 40.0, COS, 65.0))
        for method in ("mflp", "trilateration"):
            with pytest.raises(ValueError):
                _ref_visibility(bounds, (), cands, 0.5, 1.0)
            with pytest.raises(ValueError):
                greedy_min_lamps(bounds, (), cands, method, cell_size=0.5,
                                 receiver_height=1.0)
            with pytest.raises(ValueError):
                coverage_analysis(bounds, (), cands, method, cell_size=0.5,
                                  receiver_height=1.0)


def test_locate_rejects_unknown_pipeline():
    scn = simple_scenario()
    mset = measure(scn, [5, 5, 0], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        locate(scn, mset, "nonsense")
    # locate takes a batch of one fix.
    two = measure_batch(scn, [[5, 5, 0], [4, 4, 0]], Attitude(0, 0, 0),
                        [np.random.default_rng(i) for i in range(2)])
    for batch in (two, replace(two, amps=two.amps[:0])):
        with pytest.raises(ValueError, match="one fix"):
            locate(scn, batch)
    # Readings come in lamp then face order: the first is lamp 0's.
    assert _readings(mset)[0].lamp_id == 0
