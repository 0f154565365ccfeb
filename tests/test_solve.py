"""Position solvers: closed form, least squares, multi-lamp, trilateration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lightpos.rss import LampModel, LampTable, ProfileTable, make_profile
from lightpos.geom import (
    Attitude,
    half_dodecahedron,
    receiver_rotation,
    solve_frame_basis,
    unit,
)
from lightpos import solve
from lightpos.solve import (
    STATUS_DEGENERATE,
    STATUS_UNIQUE,
    mflp_closed_form_batch,
    mflp_least_squares,
    rss_model,
    select_pooled_readings,
    select_top_readings,
    solve_multi,
    to_world_position,
    trilaterate,
)
from lightpos.solve import (
    _invert_distances,
    _multi_residuals,
    _trilateration_residuals,
)

COS = make_profile("cosine_power", [1.0])


def readings_for(point, planes, k=1.0, profile=COS):
    """Unit planes signed to dot positively with a lamp at ``point``, and
    their model amplitudes: (planes (n, 3), s (n,))."""
    planes = np.asarray(planes, dtype=float)
    planes = planes / np.linalg.norm(planes, axis=1)[:, None]
    point = np.asarray(point, dtype=float)
    planes = np.where((planes @ point)[:, None] > 0, planes, -planes)
    return planes, rss_model(planes, k, profile, point)[0]


def closed_form(readings, k, profile):
    """mflp_closed_form_batch on one problem of three readings: its
    (point, unique, residual)."""
    planes, s = readings
    point, unique, residual = mflp_closed_form_batch(
        planes[None], s[None], k, profile)
    return point[0], unique[0], residual[0]


def test_least_squares_input_validation():
    # The readings' boundary: amplitudes in (0, inf), and planes of three
    # coefficients, neither zero nor non-finite, rejected without a
    # warning.
    planes = np.eye(3)
    for s in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude"):
            mflp_least_squares(planes, [1.0, s, 1.0], 1.0, COS)
    for plane in ([math.nan, 0, 1], [math.inf, 0, 1], [0, 0, 0],
                  [1e300, 1e300, 0]):  # its length overflows
        with pytest.raises(ValueError):
            mflp_least_squares([planes[0], plane, planes[2]], np.ones(3),
                               1.0, COS)
    for plane in ([1, 0], [1, 0, 0, 0], [[1, 0, 0]], 1.0):
        with pytest.raises(ValueError, match="three coefficients"):
            mflp_least_squares([planes[0], np.array(plane, dtype=float),
                                planes[2]], np.ones(3), 1.0, COS)
    with pytest.raises(ValueError, match="one amplitude per plane"):
        mflp_least_squares(planes, np.ones(4), 1.0, COS)
    with pytest.raises(ValueError, match="three readings"):
        mflp_least_squares(planes[:2], np.ones(2), 1.0, COS)
    for k in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="intensity"):
            mflp_least_squares(planes, np.ones(3), k, COS)


def test_least_squares_normalizes_each_plane_like_unit():
    # (3, 0, 4) is normalized to (0.6, 0, 0.8) as geom.unit normalizes
    # it: the three-reading fix of scaled planes is the closed form of
    # their unit rows, strongest reading first, byte for byte.
    point = np.array([1.0, -0.5, 2.0])
    scaled = np.array([[3.0, 0.0, 4.0], [0.0, 2.0, 2.0], [0.0, 0.0, 5.0]])
    rows = np.array([unit(p) for p in scaled])
    assert np.allclose(rows[0], [0.6, 0.0, 0.8])
    s = rss_model(rows, 2.0, COS, point)[0]
    got = mflp_least_squares(scaled, s, 2.0, COS)
    order = np.argsort(-s, kind="stable")
    want, unique, residual = mflp_closed_form_batch(
        rows[order][None], s[order][None], 2.0, COS)
    assert got.status == STATUS_UNIQUE and unique[0]
    assert got.point.tobytes() == want[0].tobytes()
    assert got.residual_rms == residual[0] and got.iterations == 0


def test_least_squares_seeds_from_strongest_independent_triple(monkeypatch):
    # Readings ranked by s descending, ties in reading order; the first
    # triple in combinations order whose planes are independent seeds the
    # fix.
    planes = np.array([[1.0, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1],
                       [0, 1, 1]])
    s = np.array([0.8, 0.9, 0.9, 0.2, 0.7])
    seen = []
    closed = solve.mflp_closed_form_batch

    def spy(p, s3, k, profile):
        seen.append((p[0].tolist(), s3[0].tolist()))
        return closed(p, s3, k, profile)

    monkeypatch.setattr(solve, "mflp_closed_form_batch", spy)
    mflp_least_squares(planes, s, 1.0, COS)
    # Ranked 1, 2, 0, 4, 3: the horizontal planes 1, 2, 0 are dependent.
    want = [unit(planes[i]).tolist() for i in (1, 2, 4)]
    assert seen == [(want, [0.9, 0.9, 0.7])]


def test_worked_example_forward_values():
    # Lamp at (10,10,10), k = 1, cosine profile: the coordinate planes
    # each read 1/900 and the plane x + 2y = 0 reads 1/(300*sqrt(5)).
    point = np.array([10.0, 10.0, 10.0])
    planes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    s = rss_model(planes, 1.0, COS, point)[0]
    assert np.allclose(s, 1 / 900, rtol=1e-12)
    tilted = np.array([[1.0, 2.0, 0.0]]) / math.sqrt(5)
    s4 = rss_model(tilted, 1.0, COS, point)[0]
    assert s4[0] == pytest.approx(1 / (300 * math.sqrt(5)), rel=1e-12)


def test_worked_example_closed_form():
    r = readings_for([10, 10, 10], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    point, unique, residual = closed_form(r, 1.0, COS)
    assert unique
    assert np.allclose(point, [10, 10, 10], atol=1e-9)
    assert residual < 1e-12


def test_worked_example_dependent_planes_degenerate():
    r = readings_for([10, 10, 10],
                     [[1, 0, 0], [0, 1, 0], [1, 2, 0]])
    point, unique, residual = closed_form(r, 1.0, COS)
    assert not unique and np.isnan(point).all() and residual == math.inf
    assert mflp_least_squares(*r, 1.0, COS).status == STATUS_DEGENERATE


def test_closed_form_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        profile = make_profile("cosine_power", [rng.uniform(0.5, 3.0)])
        point = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(0.5, 5.0)])
        while True:
            planes = rng.normal(size=(3, 3))
            planes /= np.linalg.norm(planes, axis=1)[:, None]
            if (abs(np.linalg.det(planes)) > 0.05
                    and np.min(np.abs(planes @ point))
                    > 1e-3 * np.linalg.norm(point)):
                break
        k = rng.uniform(1, 100)
        r = readings_for(point, planes, k, profile)
        got, unique, _ = closed_form(r, k, profile)
        assert unique
        assert np.linalg.norm(got - point) < 1e-9 * np.linalg.norm(point)


def test_least_squares_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        point = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(1, 4)])
        planes = rng.normal(size=(3, 3))
        planes /= np.linalg.norm(planes, axis=1)[:, None]
        if abs(np.linalg.det(planes)) < 0.1:
            continue
        if np.min(np.abs(planes @ point)) < 0.05:
            continue
        r = readings_for(point, planes, 7.0)
        cf, _, _ = closed_form(r, 7.0, COS)
        ls = mflp_least_squares(*r, 7.0, COS)
        assert ls.status == STATUS_UNIQUE
        assert np.linalg.norm(ls.point - cf) < 1e-6


_tilt = st.floats(-0.6, 0.6)
_profiles = st.one_of(
    st.floats(0.5, 3.0).map(lambda g: make_profile("cosine_power", [g])),
    st.just(make_profile("polynomial", [1.0, -0.4])))


@settings(max_examples=200, deadline=None)
@given(offset=st.tuples(st.floats(-3, 3), st.floats(-3, 3),
                        st.floats(0.5, 4.0)),
       tilt=st.tuples(_tilt, _tilt),
       attitude=st.builds(Attitude, st.floats(-0.5, 0.5),
                          st.floats(-0.5, 0.5), st.floats(0.0, 6.28)),
       profile=_profiles, k=st.floats(1.0, 100.0))
def test_three_reading_closed_form_is_the_least_squares_fix(
        offset, tilt, attitude, profile, k):
    # A lamp at ``offset`` from the receiver, its central ray tilted from
    # straight down, read by the three most lit faces of a tilted and
    # turned receiver.  The closed form is the three-reading fix, and an LM
    # polish started there stays put.
    offset = np.array(offset)
    basis = solve_frame_basis(unit([tilt[0], tilt[1], -1.0]))
    x = basis.T @ offset  # the lamp in the solve frame
    assume(x[2] > 0.2 * np.linalg.norm(x))
    normals = half_dodecahedron(0.05).normals @ receiver_rotation(attitude).T
    incidence = normals @ offset
    lit = np.argsort(-incidence)[:3]
    assume(incidence[lit[2]] > 0.05 * np.linalg.norm(offset))
    planes = normals[lit] @ basis
    assume(abs(np.linalg.det(planes)) > 0.05)
    r = readings_for(x, planes, k, profile)

    closed = mflp_least_squares(*r, k, profile)
    polished = mflp_least_squares(*r, k, profile, init=closed.point)
    assert closed.status == polished.status == STATUS_UNIQUE
    assert closed.iterations == 0 and polished.iterations >= 1
    # A polynomial profile is a function of omega = arccos(cos omega),
    # which near the central ray carries rounding up to sqrt(2 eps) rad,
    # once in the readings and once in the closed form: their f values
    # then differ by up to ~1e-8 relative, the positions by about half.
    tol = 1e-9 if profile.kind == "cosine_power" else 1e-8
    scale = np.linalg.norm(closed.point)
    assert np.linalg.norm(polished.point - closed.point) <= tol * scale
    assert np.linalg.norm(closed.point - x) <= tol * np.linalg.norm(x)


def test_least_squares_uses_extra_readings():
    rng = np.random.default_rng(2)
    point = np.array([1.0, -2.0, 3.0])
    planes = np.array([
        [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [-1, 0.5, 1],
    ], dtype=float)
    planes, s = readings_for(point, planes, 5.0)
    # Perturb one reading; the five-reading fit averages the error down.
    s[0] *= 1.02
    res = mflp_least_squares(planes, s, 5.0, COS)
    assert res.status == STATUS_UNIQUE
    assert np.linalg.norm(res.point - point) < 0.1


def test_least_squares_polynomial_profile():
    profile = make_profile("polynomial", [1.0, -0.4])
    point = np.array([0.5, 1.0, 2.5])
    planes = [[0, 0, 1], [1, 0, 1], [0, 1, 1]]
    r = readings_for(point, planes, 3.0, profile)
    res = mflp_least_squares(*r, 3.0, profile)
    assert res.status == STATUS_UNIQUE
    assert np.linalg.norm(res.point - point) < 1e-8


def test_least_squares_rejects_bad_init():
    r = readings_for([1, 1, 2], [[0, 0, 1], [1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        mflp_least_squares(*r, 1.0, COS, init=[0.0, 0.0, -1.0])


def _amplitudes(*lamps):
    """(1, lamps, faces) amplitude and validity arrays of each lamp's
    readings, in face order; missing faces are invalid."""
    faces = max(len(s) for _, s in lamps)
    amps = np.zeros((1, len(lamps), faces))
    for li, (_, s) in enumerate(lamps):
        amps[0, li, :len(s)] = s
    return amps, amps > 0


def test_select_readings_floor_and_lamp_choice():
    # The three- and m-reading rules, select_top_readings and
    # select_pooled_readings, on one fix.
    strong = readings_for([0.5, 0.5, 2], [[0, 0, 1], [1, 0, 1], [0, 1, 1]],
                          k=50.0)
    weak = readings_for([3, 3, 2], [[0, 0, 1], [1, 0, 1], [0, 1, 1]],
                        k=50.0)
    s, valid = _amplitudes(strong, weak)
    lamps, faces, count = select_top_readings(s, valid)
    assert count[0] == 3 and list(lamps[0]) == [0, 0, 0]
    assert sorted(faces[0]) == [0, 1, 2]
    assert list(s[0, 0, faces[0]]) == sorted(s[0, 0], reverse=True)

    lamps, faces, count = select_pooled_readings(s, valid, 6)
    assert count[0] == 6
    assert set(lamps[0]) == {0, 1}
    pooled = s[0, lamps[0], faces[0]]
    assert list(pooled) == sorted(pooled, reverse=True)


def test_select_readings_insufficient():
    r = readings_for([1, 1, 2], [[0, 0, 1], [1, 0, 1]])
    s, valid = _amplitudes(r)
    assert select_top_readings(s, valid)[2][0] == 0
    assert select_pooled_readings(s, valid, 4)[2][0] < 3
    with pytest.raises(ValueError):
        select_pooled_readings(s, valid, 2)
    none = np.zeros((1, 1, 6))
    assert select_top_readings(none, none > 0)[2][0] == 0


def test_to_world_position_vertical_lamp():
    lamp = LampModel([5.0, 5.0, 3.0], [0, 0, -1], 1.0, COS, 65.0)
    world = to_world_position(lamp, [1.0, 2.0, 3.0])
    assert np.allclose(world, [4.0, 3.0, 0.0])


def _multi_problem(planes, s, lamp_ids):
    """One solve_multi problem of n readings: (1, n, ...) arrays."""
    return (np.array(planes, dtype=float)[None], np.array(s)[None],
            np.array(lamp_ids)[None])


def test_solve_multi_single_lamp_matches_single_pipeline():
    lamp = LampModel([5.0, 5.0, 3.0], [0, 0, -1], 8.0, COS, 65.0)
    x_solve = np.array([1.0, 2.0, 3.0])
    r = readings_for(x_solve, [[0, 0, 1], [1, 0, 1], [0, 1, 1]], 8.0)
    points, status, _, _ = solve_multi(*_multi_problem(*r, [0, 0, 0]),
                                       LampTable.of([lamp]))
    assert status[0] == STATUS_UNIQUE
    assert np.allclose(points[0], [4.0, 3.0, 0.0], atol=1e-8)
    single = mflp_least_squares(*r, 8.0, COS)
    assert np.allclose(points[0], to_world_position(lamp, single.point),
                       atol=1e-8)


def test_solve_multi_two_lamps_noise_free():
    lamps = [
        LampModel([2.0, 2.0, 3.0], [0, 0, -1], 8.0, COS, 55.0),
        LampModel([6.0, 2.0, 3.0], [0, 0, -1], 8.0, COS, 65.0),
    ]
    receiver = np.array([4.0, 2.0, 0.0])
    planes, s = [], []
    for lamp in lamps:
        x_solve = lamp.position - receiver  # vertical ray: basis = identity
        p, v = readings_for(x_solve, [[0, 0, 1], [1, 0, 1], [0, 1, 1]], 8.0)
        planes.extend(p)
        s.extend(v)
    # All six readings, strongest first.
    order = np.argsort(-np.array(s), kind="stable")
    points, status, _, _ = solve_multi(
        *_multi_problem(np.array(planes)[order], np.array(s)[order],
                        order // 3), LampTable.of(lamps))
    assert status[0] == STATUS_UNIQUE
    assert np.allclose(points[0], receiver, atol=1e-7)


def test_trilateration_noise_free_roundtrip():
    lamps = np.array([[0.0, 0.0, 3.0], [4.0, 0.0, 3.0], [2.0, 3.0, 3.0]])
    truth = np.array([1.5, 1.0, 0.0])
    k = 40.0

    def forward(lamp):
        dz = lamp[2] - truth[2]
        d = np.linalg.norm(lamp - truth)
        return k * dz * float(COS.value(math.acos(dz / d))) / d**3

    s = [forward(l) for l in lamps]
    res = trilaterate(lamps, k, COS, s, z_receiver=0.0)
    assert res.status == STATUS_UNIQUE
    assert np.linalg.norm(res.point - truth) < 1e-6


def test_trilateration_free_height():
    lamps = np.array([[0.0, 0.0, 3.0], [4.0, 0.0, 3.0], [2.0, 3.0, 3.0],
                      [0.0, 3.0, 2.5]])
    truth = np.array([1.5, 1.0, 0.4])
    k = 40.0

    def forward(lamp):
        dz = lamp[2] - truth[2]
        d = np.linalg.norm(lamp - truth)
        return k * dz * float(COS.value(math.acos(dz / d))) / d**3

    s = [forward(l) for l in lamps]
    res = trilaterate(lamps, k, COS, s)
    assert res.status == STATUS_UNIQUE
    assert np.linalg.norm(res.point - truth) < 1e-5


def test_trilateration_collinear_is_degenerate():
    lamps = np.array([[0.0, 0.0, 3.0], [2.0, 0.0, 3.0], [4.0, 0.0, 3.0]])
    res = trilaterate(lamps, 40.0, COS, [1.0, 1.0, 1.0], z_receiver=0.0)
    assert res.status == STATUS_DEGENERATE


def test_trilateration_degeneracy_is_plan_view_and_order_free():
    truth = np.array([1.5, 1.0, 0.0])

    def forward(lamp):
        dz = lamp[2] - truth[2]
        d = np.linalg.norm(lamp - truth)
        return 40.0 * dz * float(COS.value(math.acos(dz / d))) / d**3

    # Lamps 0-2 are collinear; the fourth spans the plane, in any order.
    lamps = np.array([[0.0, 0.0, 3.0], [2.0, 0.0, 3.0], [4.0, 0.0, 3.0],
                      [2.0, 3.0, 3.0]])
    s = np.array([forward(l) for l in lamps])
    for order in ([0, 1, 2, 3], [0, 3, 1, 2], [3, 2, 1, 0]):
        res = trilaterate(lamps[order], 40.0, COS, s[order], z_receiver=0.0)
        assert res.status == STATUS_UNIQUE
        assert np.linalg.norm(res.point - truth) < 1e-6
    # Collinear in plan view, though not in 3-D: (1.5, 1, 0) and
    # (1.5, -1, 0) read the same.
    lamps = np.array([[0.0, 0.0, 3.0], [2.0, 0.0, 4.0], [4.0, 0.0, 3.0]])
    res = trilaterate(lamps, 40.0, COS, [forward(l) for l in lamps],
                      z_receiver=0.0)
    assert res.status == STATUS_DEGENERATE


def test_trilateration_input_validation():
    with pytest.raises(ValueError):
        trilaterate(np.zeros((2, 3)), 1.0, COS, [1.0, 1.0])
    lamps = np.array([[0, 0, 3], [1, 0, 3], [0, 1, 3]], dtype=float)
    with pytest.raises(ValueError):
        trilaterate(lamps, 1.0, COS, [1.0, -1.0, 1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            trilaterate(lamps, 1.0, COS, [1.0, bad, 1.0])
        with pytest.raises(ValueError):
            trilaterate(np.where(lamps == 1, bad, lamps), 1.0, COS,
                        [1.0, 1.0, 1.0])


POLY = make_profile("polynomial", [1.0, -0.3, -0.05])


def central_difference_jacobian(residuals, theta, h=1e-6):
    rows = np.arange(len(theta))
    cols = []
    for j in range(theta.shape[1]):
        dq = np.zeros_like(theta)
        dq[:, j] = h
        cols.append((residuals(theta + dq, rows)[0]
                     - residuals(theta - dq, rows)[0]) / (2 * h))
    return np.stack(cols, axis=-1)


def test_multi_callback_residuals_and_jacobian():
    # Lamps 0 and 1 share k and profile, lamp 2 has its own; each
    # reading's residual must match the scalar model in its own lamp's
    # frame, and the Jacobian central differences.
    rng = np.random.default_rng(30)
    receivers = rng.uniform([1, 1, 0], [7, 7, 1], size=(5, 3))
    for trial in range(4):
        cos = make_profile("cosine_power", [rng.uniform(0.5, 2.5)])
        shared, other = (cos, POLY) if trial % 2 else (POLY, cos)
        lamps = []
        readings = []
        for i, (k, profile) in enumerate(((20.0, shared), (20.0, shared),
                                          (rng.uniform(5, 50), other))):
            position = rng.uniform([0, 0, 3], [8, 8, 4])
            ray = unit(receivers.mean(axis=0) - position
                       + rng.normal(scale=0.5, size=3))
            lamps.append(LampModel(position, ray, k, profile, 50.0 + 10 * i))
            for j in range(3):
                readings.append((unit(rng.normal(size=3)),
                                 rng.uniform(0.1, 2.0), i))
        rng.shuffle(readings)
        # The same readings for every receiver.
        planes, s, lamp_ids = (np.repeat(a, len(receivers), axis=0)
                               for a in _multi_problem(*zip(*readings)))
        table = LampTable.of(lamps)
        residuals = _multi_residuals(planes, s, lamp_ids,
                                     table._replace(k=table.k * 0.8))
        r, jac, feasible = residuals(receivers, np.arange(len(receivers)))
        assert feasible.all()
        for n, p in enumerate(receivers):
            for i, (plane, si, lamp_id) in enumerate(readings):
                lamp = lamps[lamp_id]
                x = solve_frame_basis(lamp.central_ray).T @ (lamp.position - p)
                m = rss_model(plane[None], 0.8 * lamp.k, lamp.profile, x)[0]
                assert r[n, i] == pytest.approx((m[0] - si) / si,
                                                rel=1e-12, abs=1e-12)
        assert np.allclose(jac, central_difference_jacobian(
            residuals, receivers), rtol=1e-6, atol=1e-7)


def test_trilateration_callback_residuals_and_jacobian():
    rng = np.random.default_rng(31)
    lamps = rng.uniform([0, 0, 2.5], [6, 6, 3.5], size=(4, 3))
    receivers = rng.uniform([1, 1, 0], [5, 5, 1], size=(5, 3))
    s = rng.uniform(0.5, 3.0, size=4)
    # The same lamps and readings for every receiver.
    rows = np.zeros(len(receivers), dtype=np.intp)
    for profile in (make_profile("cosine_power", [1.6]), POLY):
        profiles = ProfileTable((profile,), np.zeros((len(rows), 4),
                                                     dtype=np.intp))
        for z_receiver in (0.7, None):
            theta = receivers if z_receiver is None else receivers[:, :2]
            residuals = _trilateration_residuals(
                lamps[None][rows], np.full((len(rows), 4), 20.0), profiles,
                s[None][rows],
                None if z_receiver is None else np.full(len(rows),
                                                        z_receiver))
            r, jac, feasible = residuals(theta, np.arange(len(theta)))
            assert feasible.all()
            q = receivers if z_receiver is None else np.column_stack(
                [theta, np.full(len(theta), z_receiver)])
            dz = lamps[:, 2] - q[:, None, 2]
            d = np.linalg.norm(lamps - q[:, None, :], axis=2)
            m = 20.0 * dz * profile.value(np.arccos(dz / d)) / d**3
            assert np.allclose(r, (m - s) / s, rtol=1e-12, atol=1e-12)
            assert np.allclose(jac, central_difference_jacobian(
                residuals, theta), rtol=1e-6, atol=1e-7)


def test_invert_distances_matches_scalar_bisection():
    rng = np.random.default_rng(32)
    for profile in (make_profile("cosine_power", [1.3]), POLY):
        dz = rng.uniform(0.5, 4.0, size=6)
        s = rng.uniform(0.01, 5.0, size=6)
        d = _invert_distances(30.0, profile, dz, s)
        for i in range(6):
            def val(x):
                return 30.0 * dz[i] * float(
                    profile.value(math.acos(dz[i] / x))) / x**3
            lo, hi = dz[i] * (1 + 1e-9), dz[i] + 1.0
            while val(hi) > s[i] and hi < dz[i] + 1e6:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if val(mid) > s[i] else (lo, mid)
            assert d[i] == pytest.approx(0.5 * (lo + hi), rel=1e-12)
