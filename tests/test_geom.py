"""Geometry: attitude conversions, receiver faces, visibility, LOS."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightpos.geom import (
    Aabb,
    Attitude,
    LOCAL_TO_BODY,
    NED_TO_WORLD,
    DegenerateGeometryError,
    attitude_to_rotation,
    half_dodecahedron,
    line_of_sight,
    segments_blocked,
    receiver_rotation,
    receiver_rotations,
    rotation_to_attitude,
    solve_frame_basis,
    tri_face_min_distance,
    unit,
    visible_faces,
)
from lightpos import sim
from lightpos.rss import LampModel, make_profile


def test_unit_rejects_zero_vector():
    with pytest.raises(DegenerateGeometryError):
        unit([0.0, 0.0, 0.0])


def test_attitude_validation():
    with pytest.raises(ValueError):
        Attitude(2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Attitude(0.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        Attitude(0.0, 0.0, -0.1)


def test_attitude_rotation_is_orthonormal_and_invertible():
    rng = np.random.default_rng(1)
    for _ in range(200):
        att = Attitude(
            rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0),
            rng.uniform(0.0, 2 * math.pi - 1e-6),
        )
        rot = attitude_to_rotation(att)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)
        back = rotation_to_attitude(rot)
        assert back.pitch == pytest.approx(att.pitch, abs=1e-12)
        assert back.roll == pytest.approx(att.roll, abs=1e-12)
        assert back.heading == pytest.approx(att.heading, abs=1e-12)


def test_heading_rotation_oracle():
    # Facing east (heading 90 deg): the body forward axis points east.
    rot = attitude_to_rotation(Attitude(0.0, 0.0, math.pi / 2))
    forward_ned = rot @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(forward_ned, [0.0, 1.0, 0.0], atol=1e-12)


def test_receiver_rotation_identity_at_zero_attitude():
    assert np.allclose(receiver_rotation(Attitude(0, 0, 0)), np.eye(3))


def test_receiver_rotation_heading_only_spins_about_vertical():
    rot = receiver_rotation(Attitude(0.0, 0.0, math.pi / 2))
    assert np.allclose(rot @ [0, 0, 1], [0, 0, 1], atol=1e-12)
    # A quarter turn of heading moves the local +x axis.
    moved = rot @ np.array([1.0, 0.0, 0.0])
    assert abs(moved @ np.array([1.0, 0.0, 0.0])) < 1e-12


def _reference_rotation(pitch, roll, heading):
    # The scalar body-to-NED formula on math.cos/math.sin, in the
    # expression order the batched core keeps.
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    ch, sh = math.cos(heading), math.sin(heading)
    return np.array([
        [ch * cp, ch * sp * sr - sh * cr, ch * sp * cr + sh * sr],
        [sh * cp, sh * sp * sr + ch * cr, sh * sp * cr - ch * sr],
        [-sp, cp * sr, cp * cr],
    ])


def test_receiver_rotations_equal_scalar_formula_bitwise():
    # Measured attitudes are rotated as one batch; each matrix must equal
    # the scalar formula's bit for bit, signed zeros included (heading-only
    # rows hold exact zeros).
    rng = np.random.default_rng(5)
    att = np.column_stack([rng.uniform(-math.pi / 2, math.pi / 2, 400),
                           rng.uniform(-math.pi, math.pi, 400),
                           rng.uniform(0.0, 2 * math.pi, 400)])
    att[:100, :2] = 0.0
    ref = np.array([NED_TO_WORLD @ _reference_rotation(*row) @ LOCAL_TO_BODY
                    for row in att])
    assert receiver_rotations(att).tobytes() == ref.tobytes()
    for row, want in zip(att[::20], ref[::20]):
        assert receiver_rotation(Attitude(*row)).tobytes() == want.tobytes()
        assert attitude_to_rotation(Attitude(*row)).tobytes() == \
            _reference_rotation(*row).tobytes()


def test_half_dodecahedron_shape():
    poly = half_dodecahedron(1.0)
    assert poly.n_faces == 6
    assert np.allclose(poly.normals[0], [0, 0, 1])
    assert np.allclose(np.linalg.norm(poly.normals, axis=1), 1.0)
    # Side faces tilt arctan(2) from vertical, 72 degrees apart.
    for i in range(1, 6):
        assert poly.normals[i][2] == pytest.approx(math.cos(math.atan(2.0)))
    # [DERIVED] dodecahedron inradius for a = 1.
    inradius = 0.5 * math.sqrt((25 + 11 * math.sqrt(5)) / 10)
    assert np.allclose(np.linalg.norm(poly.centroids, axis=1), inradius)


def test_half_dodecahedron_scales_linearly():
    small, big = half_dodecahedron(0.05), half_dodecahedron(0.10)
    assert np.allclose(2 * small.centroids, big.centroids)
    assert np.allclose(small.normals, big.normals)


def test_tri_face_min_distance_value():
    # [DERIVED] (sqrt(1 + 0.4*sqrt(5)) + 0.5*sqrt(2.5 + 1.1*sqrt(5))) * a
    assert tri_face_min_distance(1.0) == pytest.approx(2.4899, abs=5e-4)
    assert tri_face_min_distance(2.0) == pytest.approx(
        2 * tri_face_min_distance(1.0))


def test_visible_faces_straight_up_sees_top_and_all_sides():
    poly = half_dodecahedron(1.0)
    assert visible_faces(poly, [0, 0, 1]) == [0, 1, 2, 3, 4, 5]


def test_visible_faces_any_upward_direction_sees_three():
    poly = half_dodecahedron(1.0)
    rng = np.random.default_rng(7)
    for _ in range(2000):
        d = rng.normal(size=3)
        d[2] = abs(d[2]) + 1e-9
        assert len(visible_faces(poly, d)) >= 3


def test_aabb_contains_and_validation():
    box = Aabb([0, 0, 0], [1, 2, 3])
    assert box.contains([0.5, 1.0, 3.0])
    assert not box.contains([1.5, 1.0, 1.0])
    assert box.contains([[0.5, 1.0, 3.0], [1.5, 1.0, 1.0],
                         [0.0, 0.0, 0.0]]).tolist() == [True, False, True]
    assert not box.contains([math.nan, 1.0, 1.0])
    with pytest.raises(ValueError):
        Aabb([1, 0, 0], [0, 1, 1])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Aabb([0, bad, 0], [1, 1, 1])
        with pytest.raises(ValueError):
            Aabb([0, 0, 0], [1, 1, bad])


def test_line_of_sight_blocked_and_clear():
    wall = Aabb([2, -1, 0], [2.2, 1, 3])
    assert not line_of_sight([0, 0, 1], [4, 0, 1], [wall])
    assert line_of_sight([0, 0, 1], [1, 0, 1], [wall])
    # Passing above the wall is clear.
    assert line_of_sight([0, 0, 4], [4, 0, 4], [wall])


def test_line_of_sight_endpoint_touch_is_not_occlusion():
    box = Aabb([1, 0, 0], [2, 1, 1])
    # Segment ends exactly on a box face.
    assert line_of_sight([0, 0.5, 0.5], [1, 0.5, 0.5], [box])


def _reference_hits_box(p, q, box):
    # Scalar slab method on the open segment, one box at a time: the
    # independent oracle for segments_blocked and line_of_sight.
    d = q - p
    tmin, tmax = 0.0, 1.0
    for i in range(3):
        if abs(d[i]) < 1e-15:
            if p[i] < box.lo[i] or p[i] > box.hi[i]:
                return False
            continue
        t1 = (box.lo[i] - p[i]) / d[i]
        t2 = (box.hi[i] - p[i]) / d[i]
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
        if tmin > tmax:
            return False
    return tmax - tmin > 1e-12


def test_segments_blocked_matches_line_of_sight():
    boxes = [Aabb([1, 1, 0], [2, 3, 2]), Aabb([0, 0, 0], [4, 0.2, 3])]
    rng = np.random.default_rng(4)
    # Endpoints on a coarse grid land on box faces and give axis-parallel
    # segments; uniform ones give the general case.
    grid = np.array([0.0, 0.2, 1.0, 2.0, 3.0, 4.0])
    p = np.concatenate([rng.choice(grid, (300, 3)),
                        rng.uniform(-1, 5, (300, 3))])
    q = np.concatenate([rng.choice(grid, (300, 3)),
                        rng.uniform(-1, 5, (300, 3))])
    keep = ~np.all(np.isclose(p, q), axis=1)
    p, q = p[keep], q[keep]
    expected = [any(_reference_hits_box(a, b, box) for box in boxes)
                for a, b in zip(p, q)]
    assert segments_blocked(p, q, boxes).tolist() == expected
    assert [not line_of_sight(a, b, boxes) for a, b in zip(p, q)] == expected
    assert 0 < sum(expected) < len(expected)
    assert not segments_blocked(p, q, ()).any()


# Coordinates on a 1/4 grid put endpoints on box faces and make segments
# axis-parallel; the finer floats give the general case.
_coord = st.one_of(st.integers(-4, 20).map(lambda i: i / 4),
                   st.floats(-1.0, 5.0, allow_nan=False))
_point = st.tuples(_coord, _coord, _coord)


@st.composite
def _boxes(draw):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(_point), draw(_point)
        out.append(Aabb(np.minimum(a, b), np.maximum(a, b)))
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_point, _point), min_size=1, max_size=8), _boxes(),
       st.permutations(range(3)))
def test_segments_blocked_batch_equals_single_and_axis_order(segs, boxes,
                                                             perm):
    p = np.array([a for a, _ in segs], dtype=float)
    q = np.array([b for _, b in segs], dtype=float)
    blocked = segments_blocked(p, q, boxes)
    assert blocked.tolist() == [bool(segments_blocked(a, b, boxes))
                                for a, b in zip(p, q)]
    assert blocked.tolist() == [
        any(_reference_hits_box(a, b, box) for box in boxes)
        for a, b in zip(p, q)]
    # Relabelling the axes of the whole scene permutes the slab loop only.
    swapped = [Aabb(box.lo[perm], box.hi[perm]) for box in boxes]
    assert segments_blocked(p[:, perm], q[:, perm], swapped).tolist() == \
        blocked.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(_point, min_size=1, max_size=4),
       st.lists(_point, min_size=1, max_size=6), _boxes())
def test_segments_blocked_lamp_rows_against_cells(lamps, cells, boxes):
    # The planner's call shape: lamp rows (L, 1, 3) against cells (K, 3),
    # and one (3,) point against all cells.
    p = np.array(lamps, dtype=float)
    q = np.array(cells, dtype=float)
    expected = [[any(_reference_hits_box(a, b, box) for box in boxes)
                 for b in q] for a in p]
    assert segments_blocked(p[:, None, :], q, boxes).tolist() == expected
    assert segments_blocked(p[0], q, boxes).tolist() == expected[0]


@pytest.mark.parametrize("toward", [None, math.inf, -math.inf],
                         ids=["zero-step", "tiny-up", "tiny-down"])
def test_segments_blocked_parallel_axis_inside_and_outside_slab(toward):
    # Segments cross the box along x; along y they step by zero or by one
    # ulp (below 1e-15), parallel to the y slab, with p inside it, on its
    # faces or outside it.
    box = Aabb([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    ys = np.array([0.5, 0.0, 1.0, -0.5, 1.5, 2.0])
    p = np.column_stack([np.full(6, -1.0), ys, np.full(6, 0.5)])
    q = p + [3.0, 0.0, 0.0]
    if toward is not None:
        q[:, 1] = np.nextafter(ys, toward)
    step = np.abs(q[:, 1] - p[:, 1])
    assert np.all(step < 1e-15) and (toward is None) == np.all(step == 0)
    expected = [True, True, True, False, False, False]
    assert [_reference_hits_box(a, b, box) for a, b in zip(p, q)] == \
        expected
    assert segments_blocked(p, q, [box]).tolist() == expected
    # The same pairs, and every cross pair, in the planner's shape.
    assert segments_blocked(p[:, None, :], q, [box]).tolist() == [
        [_reference_hits_box(a, b, box) for b in q] for a in p]


def test_segments_blocked_overflow_reaches_no_caller():
    # A tiny step along an axis (parallel to its slab) or a slab 1e294 away
    # overflows the slab division to +-inf, which gives the right answer;
    # the overflow must not warn.
    boxes = [Aabb([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
             Aabb([0.0, 0.0, 1e294], [1.0, 1.0, 2e294])]
    p = np.array([[0.5, 0.0, 2.0], [2.0, 0.5, 0.0]])
    q = np.array([[0.5, 1e-310, -1.0], [2.0, 0.5, 2e-15]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert segments_blocked(p, q, boxes).tolist() == [True, False]


def test_line_of_sight_rejects_coincident_endpoints():
    with pytest.raises(ValueError):
        line_of_sight([1, 1, 1], [1, 1, 1], [])


def test_solve_frame_basis_vertical_lamp_is_identity():
    assert np.allclose(solve_frame_basis([0, 0, -1]), np.eye(3))


def test_solve_frame_basis_orthonormal_for_any_ray():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ray = rng.normal(size=3)
        basis = solve_frame_basis(ray)
        assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
        assert np.allclose(basis[:, 2], -ray / np.linalg.norm(ray))
        assert np.linalg.det(basis) == pytest.approx(1.0)


def _fix_plane(face_normal, att):
    """One face's sensing plane, as ``sim._fix_planes`` makes it, under a
    single vertical lamp, whose solve frame is the world frame: the plane
    rule's one owner, fed the world normal of a receiver-local (z up)
    face, rotated as ``sim`` rotates the receiver's faces."""
    scn = sim.Scenario(
        bounds=Aabb([0, 0, 0], [10, 10, 3]), obstacles=(),
        lamps=(LampModel([5.0, 5.0, 3.0], [0, 0, -1], 40.0,
                         make_profile("cosine_power", [1.0]), 65.0),),
        receiver=sim.ReceiverSpec.default(0.05), noise=sim.NoiseSpec())
    n_world = receiver_rotation(att) @ unit(face_normal)
    return sim._fix_planes(scn, n_world[None, None])[0, 0, 0]


def test_solve_frame_plane_top_face_level_receiver():
    plane = _fix_plane([0, 0, 1], Attitude(0, 0, 0))
    assert np.allclose(plane, [0, 0, 1], atol=1e-12)
    assert np.array_equal(plane, [0.0, 0.0, 1.0])


def test_solve_frame_plane_is_the_outward_normal():
    # A face turned away from the lamp keeps its outward normal: a lamp
    # toward (-2, 0, 5) lies behind the +x face, whose plane still reads
    # +x (the closed form calls a triple holding it degenerate).
    plane = _fix_plane([1, 0, 0], Attitude(0, 0, 0))
    assert plane @ np.array([-2.0, 0.0, 5.0]) < 0
    assert np.array_equal(plane, [1.0, 0.0, 0.0])
