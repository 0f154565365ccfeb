"""Scenario simulation: measurement generation, pipelines, coverage."""

import math
from dataclasses import replace
from importlib import resources
from itertools import combinations

import numpy as np
import pytest

from lightpos.geom import (
    Aabb,
    Attitude,
    line_of_sight,
    receiver_rotation,
    segments_blocked,
    solve_frame_basis,
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
from lightpos import sim
from lightpos.sim import (
    MODE_END_TO_END,
    NoiseSpec,
    ReceiverSpec,
    Scenario,
    _measured_attitude,
    _point_rng,
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
    sightings_from,
)

COS = make_profile("cosine_power", [1.0])


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
    by_face = {r.face_id: r for r in mset.readings}
    # Directly under the lamp every face is lit.
    assert set(by_face) == {0, 1, 2, 3, 4, 5}
    poly = scn.receiver.polyhedron
    for fid, r in by_face.items():
        expected = OOK_FUNDAMENTAL * eval_rss(lamp, pos, poly.normals[fid])
        assert r.s == pytest.approx(expected, rel=1e-12)
    assert mset.k_scale == OOK_FUNDAMENTAL


def test_fast_noise_is_fixed_magnitude_random_sign():
    scn = simple_scenario(noise=NoiseSpec(rss_epsilon=0.1))
    pos = np.array([5.0, 5.0, 0.0])
    mset = measure(scn, pos, rng=np.random.default_rng(1))
    lamp = scn.lamps[0]
    poly = scn.receiver.polyhedron
    ratios = set()
    for r in mset.readings:
        clean = OOK_FUNDAMENTAL * eval_rss(lamp, pos, poly.normals[r.face_id])
        ratios.add(round(r.s / clean, 9))
    assert ratios <= {0.9, 1.1}
    assert len(ratios) == 2  # both signs occur across six faces


def test_measurement_deterministic_per_rng_seed():
    scn = simple_scenario(noise=NoiseSpec(rss_epsilon=0.2))
    pos = [4.0, 6.0, 0.0]
    a = measure(scn, pos, rng=np.random.default_rng(42))
    b = measure(scn, pos, rng=np.random.default_rng(42))
    assert all(x.s == y.s for x, y in zip(a.readings, b.readings))


def test_occlusion_removes_readings():
    wall = Aabb([4.0, 0.0, 0.0], [4.2, 10.0, 3.0])
    scn = simple_scenario(obstacles=(wall,))
    blocked = measure(scn, [1.0, 5.0, 0.0], rng=np.random.default_rng(0))
    assert not blocked.readings
    clear = measure(scn, [6.0, 5.0, 0.0], rng=np.random.default_rng(0))
    assert clear.readings


def test_back_face_and_forward_hemisphere_cuts():
    # Sideways-pointing lamp: positions behind it read nothing.
    lamp = LampModel([5.0, 5.0, 1.0], [1, 0, 0], 40.0, COS, 65.0)
    scn = simple_scenario(lamps=(lamp,))
    behind = measure(scn, [3.0, 5.0, 1.0], rng=np.random.default_rng(0))
    assert not behind.readings


def test_saturated_face_excluded():
    # Receiver almost touching the lamp drives the ambient + signal sum
    # past full scale on the top face.
    scn = simple_scenario(saturation=900.0)
    mset = measure(scn, [5.0, 5.0, 2.5], rng=np.random.default_rng(0))
    assert 0 in mset.saturated_faces
    assert all(r.face_id != 0 for r in mset.readings)


def test_end_to_end_close_to_fast(caplog):
    scn = simple_scenario(window_s=0.4)
    pos = np.array([4.0, 4.0, 0.0])
    fast = measure(scn, pos, rng=np.random.default_rng(0))
    e2e = measure(scn, pos, mode=MODE_END_TO_END,
                  rng=np.random.default_rng(0))
    fast_by = {(r.lamp_id, r.face_id): r.s for r in fast.readings}
    for r in e2e.readings:
        assert r.s == pytest.approx(fast_by[(r.lamp_id, r.face_id)], rel=1e-6)


# Reference end-to-end measurement: one trace per (fix, face) holding
# only that face's lit lamps, synthesized and extracted one call at a
# time, with each lamp's solve-frame basis built per call; the loop the
# batched signal layer replaced, kept here as its oracle.

def _ref_measure_end_to_end(scn, positions, attitude, rngs):
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    poly = scn.receiver.polyhedron
    shape = (len(positions), len(scn.lamps), poly.n_faces)
    rot_true = receiver_rotation(attitude)
    rot_meas, trace_seeds = [], []
    for rng in rngs:
        rot_meas.append(receiver_rotation(
            _measured_attitude(attitude, scn.noise, rng)))
        trace_seeds.append([rng.integers(2**63)
                            for _ in range(poly.n_faces)])
    centers = positions[:, None, :] + poly.centroids @ rot_true.T
    normals_true = poly.normals @ rot_true.T
    normals_meas = np.matmul(poly.normals,
                             np.array(rot_meas).transpose(0, 2, 1))
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
        basis = solve_frame_basis(lamp.central_ray)
        n_solve = np.matmul(normals_meas, basis)
        toward = np.matvec(basis.T, lamp.position - centers)
        n_solve[np.vecdot(n_solve, toward) < 0] *= -1.0
        planes[:, li] = n_solve
    saturated = scn.ambient_dc + rss.sum(axis=1) > scn.saturation
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
        h = mset.attitude.heading
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
    fixes = run_trajectory(scn, [[4, 4, 0], [6, 6, 0]], speed=1.0,
                           interval_s=0.3, seed=0)
    assert all(f.status == "unique" for f in fixes)
    assert max(f.error for f in fixes) < 1e-9


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
    assert sightings_from(mset)[0].lamp_id == 0
