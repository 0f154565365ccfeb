"""Position solvers: closed form, least squares, multi-lamp, trilateration."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lightpos.rss import (
    LampModel,
    LampTable,
    ProfileTable,
    make_profile,
    rss_model,
)
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
    select_pooled_readings,
    select_top_readings,
    solve_multi,
    to_world_position,
    trilaterate,
)
from lightpos.solve import _at_heights, _invert_distances, _multi_residuals
from rss_oracle import profile_at

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


def _listed_seed_triple(planes, s):
    """The seed triple of unit ``planes`` as mflp_least_squares once chose
    it, from an array of every triple: the first, in combinations order
    over the readings sorted stably by s descending, whose |triple
    product| exceeds INDEPENDENCE_TOL, else the first."""
    triples = np.array(list(combinations(np.argsort(-s, kind="stable"), 3)))
    det = solve._triple_products(planes[triples])
    return triples[np.argmax(np.abs(det) > solve.INDEPENDENCE_TOL)]


@st.composite
def _reading_sets(draw):
    # 3-8 planes facing up; some copied from another, some within 1e-9 to
    # 1e-4 of the span of two others, and amplitudes that often tie.
    n = draw(st.integers(3, 8))
    coord = st.floats(-1.0, 1.0)
    planes = np.array([[draw(coord), draw(coord), draw(st.floats(0.1, 1.0))]
                       for _ in range(n)])
    for j in range(2, n):
        kind = draw(st.sampled_from(["free", "copy", "near"]))
        i0, i1 = draw(st.permutations(range(j)))[:2]
        if kind == "copy":
            planes[j] = planes[i0]
        elif kind == "near":
            tilt = 10 ** draw(st.floats(-9.0, -4.0))
            planes[j] = (draw(st.floats(0.2, 1.0)) * planes[i0]
                         + draw(st.floats(0.2, 1.0)) * planes[i1]
                         + tilt * np.array([draw(coord) for _ in range(3)]))
    s = np.array([draw(st.sampled_from([0.5, 0.9, 1.3]) | st.floats(0.1, 2.0))
                  for _ in range(n)])
    return planes, s


@settings(max_examples=400, deadline=None)
@given(_reading_sets())
def test_least_squares_seed_triple_is_the_listed_first_independent_one(case):
    # The lazy search over triples picks the triple that listing every
    # triple picked, duplicate and near-dependent planes included.
    planes, s = case
    seen = []
    closed = solve.mflp_closed_form_batch

    def spy(p, s3, k, profile):
        seen.append((p[0].tobytes(), s3[0].tobytes()))
        return closed(p, s3, k, profile)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "mflp_closed_form_batch", spy)
        mflp_least_squares(planes, s, 1.0, COS)
    normed = np.array([unit(p) for p in planes])
    want = _listed_seed_triple(normed, s)
    assert seen == [(normed[want].tobytes(), s[want].tobytes())]


# The triple product stays within this of LAPACK's determinant on unit
# planes (the largest difference seen below is ~6e-16), so the two agree
# on the INDEPENDENCE_TOL test for every triple whose |det| lies outside
# the band INDEPENDENCE_TOL +- _DET_TOL.
_DET_TOL = 4e-15


def _unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_triple_product_is_the_determinant_of_unit_planes():
    # Random unit triples, and near-degenerate ones: p2 in the plane of p0
    # and p1 up to a tilt of 1e-8 to 1e-4, so |det| spans the test's
    # threshold.  Outside the band the outcomes agree, and none of these
    # triples flips it at all.
    rng = np.random.default_rng(17)
    n = 100_000
    random = _unit_rows(rng.normal(size=(n, 3, 3)))
    near = random.copy()
    a, b = rng.normal(size=(2, n, 1))
    tilt = 10 ** rng.uniform(-8, -4, size=(n, 1))
    near[:, 2] = _unit_rows(a * near[:, 0] + b * near[:, 1]
                            + tilt * _unit_rows(rng.normal(size=(n, 3))))
    for planes in (random, near):
        want = np.linalg.det(planes)
        got = solve._triple_products(planes)
        assert np.max(np.abs(got - want)) <= _DET_TOL
        outside = np.abs(np.abs(want) - solve.INDEPENDENCE_TOL) > _DET_TOL
        independent = np.abs(got) > solve.INDEPENDENCE_TOL
        assert np.array_equal(independent[outside],
                              (np.abs(want) > solve.INDEPENDENCE_TOL)[outside])
        assert np.array_equal(independent,
                              np.abs(want) > solve.INDEPENDENCE_TOL)
    # The near triples straddle the threshold.
    assert 0.1 < np.mean(np.abs(want) > solve.INDEPENDENCE_TOL) < 0.9


def test_tiny_amplitudes_keep_a_unique_fix():
    # A lamp of k = 1e-150 reads ~1e-153: its rows planes / s reach ~1e153,
    # whose determinant would overflow, so independence is tested on the
    # unit planes themselves, and the fix stays unique and exact.
    r = readings_for([10, 10, 10], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1e-150)
    assert np.all(r[1] < 1e-152)
    point, unique, residual = closed_form(r, 1e-150, COS)
    assert unique
    assert np.allclose(point, [10, 10, 10], atol=1e-9)
    assert residual < 1e-12


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
    tol = 1e-9
    scale = np.linalg.norm(closed.point)
    assert np.linalg.norm(polished.point - closed.point) <= tol * scale
    assert np.linalg.norm(closed.point - x) <= tol * np.linalg.norm(x)


@settings(max_examples=300, deadline=None)
@given(height=st.floats(1.5, 4.0), log_off=st.floats(-9.0, -2.0),
       azimuth=st.floats(0.0, 2 * math.pi), k=st.floats(1.0, 100.0),
       c=st.tuples(st.floats(-0.45, -0.05), st.floats(-0.08, 0.0)))
def test_polynomial_closed_form_is_exact_near_the_central_ray(
        height, log_off, azimuth, k, c):
    # Faces tilted 0.6 rad at azimuths 0, 120 and 240 degrees read a lamp
    # 1e-9 to 1e-2 m off the central ray.  The profile is evaluated at
    # omega = arctan2(rho, z) in the readings and in the closed form
    # alike, so the fix recovers the lamp to rounding; evaluated at
    # arccos(z / |x|) it lay up to ~4e-9 relative off.
    profile = make_profile("polynomial", [1.0, *c])
    planes = np.array([[math.sin(0.6) * math.cos(a),
                        math.sin(0.6) * math.sin(a), math.cos(0.6)]
                       for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)])
    off = 10.0**log_off
    x = np.array([off * math.cos(azimuth), off * math.sin(azimuth), height])
    point, unique, _ = closed_form(readings_for(x, planes, k, profile), k,
                                   profile)
    assert unique
    assert np.linalg.norm(point - x) <= 1e-12 * np.linalg.norm(x)


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
        return k * dz * float(profile_at(COS, math.acos(dz / d))) / d**3

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
        return k * dz * float(profile_at(COS, math.acos(dz / d))) / d**3

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
        return 40.0 * dz * float(profile_at(COS, math.acos(dz / d))) / d**3

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


@pytest.mark.parametrize("ratio, status", [(1e-10, STATUS_DEGENERATE),
                                           (1e-8, STATUS_UNIQUE)])
def test_trilateration_three_lamp_degeneracy_threshold(ratio, status):
    # Lamps (0, 0), (10, 0) and (5, 5 ratio) in plan view: a triangle of
    # area ratio times the squared spread (~25), a tenth of the 1e-9
    # threshold or ten times it.  The solved one is exact.
    truth = np.array([3.0, 4.0, 0.0])
    lamps = np.array([[0.0, 0.0, 3.0], [10.0, 0.0, 3.0],
                      [5.0, 5 * ratio, 3.0]])
    s = rss_model(np.array([[0.0, 0.0, 1.0]]), 40.0, COS, lamps - truth)[0]
    for z in (0.0, None):
        res = trilaterate(lamps, 40.0, COS, s[:, 0], z_receiver=z)
        assert res.status == status
        if status == STATUS_UNIQUE:
            assert np.abs(res.point - truth).max() < 1e-12


def _peak_traced(f, *args, **kwargs):
    """f's result and the peak of the memory traced while it ran, bytes."""
    tracemalloc.start()
    try:
        return f(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trilateration_of_many_lamps_is_exact_in_little_memory():
    # 120 lamps, noise-free: an exact fix, at a fixed and at a free
    # height, in under 2 MB (~0.08 MB measured).  Judging degeneracy from
    # every one of the C(120, 3) = 280,840 plan-view triangles peaked at
    # 36 MB on the first call and 27 MB on the next, and took 0.14-0.19 s
    # cold (tracemalloc and perf_counter, 2-core x86-64).
    rng = np.random.default_rng(30)
    lamps = rng.uniform([0.0, 0.0, 2.5], [20.0, 20.0, 3.5], size=(120, 3))
    truth = np.array([8.0, 11.0, 0.0])
    s = rss_model(np.array([[0.0, 0.0, 1.0]]), 40.0, COS, lamps - truth)[0]
    for z in (0.0, None):
        res, peak = _peak_traced(trilaterate, lamps, 40.0, COS, s[:, 0],
                                 z_receiver=z)
        assert res.status == STATUS_UNIQUE
        assert np.abs(res.point - truth).max() < 1e-9
        assert peak < 2e6


def test_least_squares_of_many_readings_is_exact_in_little_memory():
    # 120 noise-free readings of one lamp: an exact fix in under 2 MB
    # (~0.06 MB measured).  Listing all C(120, 3) = 280,840 seed triples
    # first peaked at 68 MB and took 0.17-0.28 s (tracemalloc and
    # perf_counter, 2-core x86-64).
    rng = np.random.default_rng(31)
    point = np.array([0.7, -0.4, 2.5])
    planes, s = readings_for(point, rng.normal(size=(120, 3)))
    res, peak = _peak_traced(mflp_least_squares, planes, s, 1.0, COS)
    assert res.status == STATUS_UNIQUE
    assert np.abs(res.point - point).max() < 1e-9
    assert peak < 2e6


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
        # At fixed heights, over plan-view positions: the same residuals,
        # and the Jacobian's first two columns.
        at_heights = _at_heights(residuals, receivers[:, 2])
        r_xy, jac_xy, feasible = at_heights(receivers[:, :2],
                                            np.arange(len(receivers)))
        assert feasible.all()
        assert r_xy.tobytes() == r.tobytes()
        assert np.array_equal(jac_xy, jac[..., :2])
        assert np.allclose(jac_xy, central_difference_jacobian(
            at_heights, receivers[:, :2]), rtol=1e-6, atol=1e-7)


def test_invert_distances_matches_scalar_bisection():
    rng = np.random.default_rng(32)
    for profile in (make_profile("cosine_power", [1.3]), POLY):
        dz = rng.uniform(0.5, 4.0, size=6)
        s = rng.uniform(0.01, 5.0, size=6)
        d = _invert_distances(30.0, profile, dz, s)
        for i in range(6):
            def val(x):
                return 30.0 * dz[i] * float(
                    profile_at(profile, math.acos(dz[i] / x))) / x**3
            lo, hi = dz[i] * (1 + 1e-9), dz[i] + 1.0
            while val(hi) > s[i] and hi < dz[i] + 1e6:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if val(mid) > s[i] else (lo, mid)
            assert d[i] == pytest.approx(0.5 * (lo + hi), rel=1e-12)


def test_invert_distances_closed_form_across_extremes():
    # Cosine-power ranges come in closed form, evaluated in logs: a
    # scalar bisection of the same bracket agrees on random lamps, at the
    # floor (s > k / dz^2) and at the cap (subnormal s, huge k), and no
    # input overflows.
    rng = np.random.default_rng(33)
    n = 400
    gamma = np.append(rng.uniform(0.2, 8.0, n), [1.0, 0.2, 8.0, 1.0])
    dz = np.append(10 ** rng.uniform(-3, 3, n), [0.5, 1e3, 1e-3, 2.0])
    k = np.append(10 ** rng.uniform(-2, 3, n), [1.0, 1e300, 1e-2, 30.0])
    s = np.append(10 ** rng.uniform(-12, 4, n), [5e-324, 1e-300, 1e-12,
                                                  1e300])
    table = ProfileTable(tuple(make_profile("cosine_power", [g])
                               for g in gamma), np.arange(len(gamma)))
    with np.errstate(all="raise"):
        d = _invert_distances(k, table, dz, s)
    assert np.sum(s > k / dz**2) > 50
    assert np.sum(d == dz * (1 + 1e-9)) > 50
    assert np.sum(d > dz + 1e6) == 2
    for i in range(len(d)):
        def val(x):
            return k[i] * dz[i] * (dz[i] / x) ** gamma[i] / x**3
        lo, hi = dz[i] * (1 + 1e-9), dz[i] + 1.0
        while val(hi) > s[i] and hi < dz[i] + 1e6:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if val(mid) > s[i] else (lo, mid)
        assert d[i] == pytest.approx(0.5 * (lo + hi), rel=1e-12)


def test_invert_distances_mixed_profile_table(monkeypatch):
    # One polynomial and two cosine-power lamps in one table: each
    # element is the inversion of its own profile alone, so the
    # polynomial one still bisects, in _invert_distances and as the range
    # seed of trilaterate_batch.
    rng = np.random.default_rng(34)
    profiles = (POLY, make_profile("cosine_power", [1.0]),
                make_profile("cosine_power", [2.5]))
    table = ProfileTable(profiles, np.array([rng.permutation(3)
                                             for _ in range(8)]))
    lamps = rng.uniform([0, 0, 2.5], [6, 6, 3.5], size=(8, 3, 3))
    k = rng.uniform(20.0, 50.0, size=(8, 3))
    s = rng.uniform(0.05, 1.5, size=(8, 3))  # below k / dz^2: no floor
    z = rng.uniform(0.0, 1.0, size=8)
    dz = lamps[..., 2] - z[:, None]
    alone = np.array([[_invert_distances(
        k[i, j], profiles[table.index[i, j]], dz[i, j:j + 1],
        s[i, j:j + 1])[0] for j in range(3)] for i in range(8)])
    d = _invert_distances(k, table, dz, s)
    assert np.array_equal(d, alone)
    f = np.vectorize(lambda i, w: profile_at(profiles[i], w))(
        table.index, np.arccos(dz / d))
    assert np.allclose(k * dz * f / d**3, s, rtol=1e-9, atol=0)

    seeds = []

    def recording(*args):
        seeds.append(_invert_distances(*args))
        return seeds[-1]

    monkeypatch.setattr(solve, "_invert_distances", recording)
    # Problem i reads lamps 3i .. 3i + 2, hung vertically over upward faces.
    lamp_table = LampTable(lamps.reshape(-1, 3),
                           np.broadcast_to(np.eye(3), (24, 3, 3)), k.ravel(),
                           ProfileTable(profiles, table.index.ravel()))
    solve.trilaterate_batch(np.broadcast_to([0.0, 0.0, 1.0], (8, 3, 3)), s,
                            np.arange(24).reshape(8, 3), lamp_table, z)
    assert len(seeds) == 1 and np.array_equal(seeds[0], alone)
