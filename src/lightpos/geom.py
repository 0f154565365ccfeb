"""Coordinate frames, attitude conversion, receiver face geometry and
line-of-sight tests.

Frame conventions used throughout the package:

* world frame: x north, y west, z up (right-handed).  Lamps hang at
  positive height, receivers sit below them.
* attitude/body frame: aircraft forward/right/down, with the reference
  (NED) frame x north, y east, z down.  ``attitude_to_rotation`` works in
  this convention; ``NED_TO_WORLD`` is the single fixed flip between the
  two frames.
* receiver-local frame: z up, used for the face normals of the receiver
  polyhedron.  ``receiver_rotation`` maps receiver-local to world and is
  the identity at zero attitude.
* solve frame: receiver-centered, +z anti-parallel to a lamp's central
  ray, so a vertically hung lamp sits straight "up" in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Fixed flip between NED (x north, y east, z down) and the world frame
# (x north, y west, z up).  The same flip maps receiver-local (z up) to
# the forward/right/down body frame.
NED_TO_WORLD = np.diag([1.0, -1.0, -1.0])
LOCAL_TO_BODY = np.diag([1.0, -1.0, -1.0])
# The signs NED_TO_WORLD @ R @ LOCAL_TO_BODY gives each entry of R.
_SIGNS = np.outer([1.0, -1.0, -1.0], [1.0, -1.0, -1.0])


class DegenerateGeometryError(ValueError):
    """Raised when an input configuration has no usable geometry."""


def check_finite(name: str, value, low: float = -math.inf,
                 strict: bool = False):
    """``value`` if it is finite and at least ``low``, or above it when
    ``strict``; else a ValueError naming ``name``.  The models and the
    functions that share their rules check their numbers with it."""
    if not (-math.inf < value < math.inf
            and (value > low if strict else value >= low)):
        rule = "finite"
        if low > -math.inf:
            rule += f" and {'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def unit(v) -> np.ndarray:
    """Return v normalized to unit length; reject near-zero and
    non-finite vectors, and those whose length overflows."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not 1e-12 <= n < math.inf:
        raise DegenerateGeometryError(
            "zero-length or non-finite direction vector")
    return v / n


@dataclass(frozen=True)
class Attitude:
    """Receiver orientation as pitch/roll/heading in radians.

    pitch in [-pi/2, pi/2], roll in (-pi, pi], heading in [0, 2*pi).
    """

    pitch: float
    roll: float
    heading: float

    def __post_init__(self):
        if not -math.pi / 2 <= self.pitch <= math.pi / 2:
            raise ValueError(f"pitch {self.pitch} outside [-pi/2, pi/2]")
        if not -math.pi < self.roll <= math.pi:
            raise ValueError(f"roll {self.roll} outside (-pi, pi]")
        if not 0 <= self.heading < TWO_PI:
            raise ValueError(f"heading {self.heading} outside [0, 2*pi)")


def attitude_rotations(att) -> np.ndarray:
    """Body-to-NED rotation matrices, (..., 3, 3), for (..., 3) attitudes
    given as (pitch, roll, heading) rows.

    Composition is intrinsic Z-Y-X: heading about the down axis, then
    pitch about the intermediate right axis, then roll about the forward
    axis (the aerospace standard).
    """
    att = np.asarray(att, dtype=float)
    (cp, cr, ch), (sp, sr, sh) = np.cos(att.T), np.sin(att.T)
    rot = np.array([
        ch * cp, ch * sp * sr - sh * cr, ch * sp * cr + sh * sr,
        sh * cp, sh * sp * sr + ch * cr, sh * sp * cr - ch * sr,
        -sp, cp * sr, cp * cr,
    ])
    return rot.T.reshape(att.shape[:-1] + (3, 3))


def attitude_to_rotation(att: Attitude) -> np.ndarray:
    """Body-to-NED rotation matrix for one attitude: the batch of one of
    ``attitude_rotations``."""
    return attitude_rotations([att.pitch, att.roll, att.heading])


def rotation_to_attitude(rot: np.ndarray) -> Attitude:
    """Recover pitch/roll/heading from a body-to-NED rotation matrix.

    Valid away from gimbal lock (|pitch| < pi/2).
    """
    pitch = -math.asin(max(-1.0, min(1.0, rot[2, 0])))
    roll = math.atan2(rot[2, 1], rot[2, 2])
    heading = math.atan2(rot[1, 0], rot[0, 0]) % TWO_PI
    return Attitude(pitch, roll, heading)


def receiver_rotations(att) -> np.ndarray:
    """Receiver-local (z up) to world (z up) rotations, (..., 3, 3), for
    (..., 3) (pitch, roll, heading) rows; identity at zero attitude.

    ``NED_TO_WORLD @ R @ LOCAL_TO_BODY`` with diagonal flips is R with
    sign-flipped entries, so the entries are multiplied by their signs;
    adding 0.0 turns a -0.0 into the 0.0 the matrix products' sums give."""
    return attitude_rotations(att) * _SIGNS + 0.0


def receiver_rotation(att: Attitude) -> np.ndarray:
    """Receiver-local to world rotation for one attitude: the batch of one
    of ``receiver_rotations``."""
    return receiver_rotations([att.pitch, att.roll, att.heading])


@dataclass(frozen=True)
class Polyhedron:
    """Receiver face geometry: unit outward normals and face centroid
    offsets from the receiver origin, in the receiver-local z-up frame."""

    edge_length: float
    normals: np.ndarray = field(repr=False)   # (n, 3)
    centroids: np.ndarray = field(repr=False)  # (n, 3)

    @property
    def n_faces(self) -> int:
        return len(self.normals)


def half_dodecahedron(edge_length: float) -> Polyhedron:
    """Upper half of a regular dodecahedron: a top face with vertical
    normal plus five faces tilted arctan(2) from vertical, azimuths 72
    degrees apart.  Face centroids sit at the dodecahedron inradius."""
    check_finite("edge length", edge_length, 0, strict=True)
    theta = math.atan(2.0)  # supplement of the 116.565-degree dihedral
    inradius = 0.5 * edge_length * math.sqrt((25 + 11 * math.sqrt(5)) / 10)
    normals = [np.array([0.0, 0.0, 1.0])]
    for i in range(5):
        phi = TWO_PI * i / 5
        normals.append(
            np.array(
                [
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                ]
            )
        )
    normals = np.array(normals)
    return Polyhedron(edge_length, normals, inradius * normals)


def tri_face_min_distance(edge_length: float) -> float:
    """Distance beyond which any point sees at least three faces of a
    regular dodecahedron of the given edge length (about 2.49x the edge)."""
    check_finite("edge length", edge_length, 0, strict=True)
    s5 = math.sqrt(5.0)
    return (
        math.sqrt(1 + 0.4 * s5) + 0.5 * math.sqrt(2.5 + 1.1 * s5)
    ) * edge_length


def visible_faces(poly: Polyhedron, direction) -> list[int]:
    """Indices of faces whose outward normal points strictly toward the
    given unit direction.

    For a convex polyhedron viewed from beyond ``tri_face_min_distance``
    this half-space test equals geometric line-of-sight visibility.
    """
    d = unit(direction)
    dots = poly.normals @ d
    return [i for i in range(poly.n_faces) if dots[i] > 0.0]


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box obstacle, min/max corners in meters."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("box corners must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("box min corner exceeds max corner")

    def contains(self, p):
        """Whether the point p, or each point of a (..., 3) array, lies in
        the closed box."""
        p = np.asarray(p, dtype=float)
        return ((p >= self.lo) & (p <= self.hi)).all(axis=-1)


def slab_blocked(axes, obstacles) -> np.ndarray:
    """Which of the open segments p + t (q - p), 0 < t < 1, some box
    blocks: the slab method of Kay & Kajiya (SIGGRAPH 1986), as a bool
    array of the segments' broadcast shape.

    ``axes`` gives the segments one coordinate axis at a time, as
    (i, p_i, d_i): the axis index, the starts and the steps d_i = q_i - p_i
    along it, arrays that broadcast against each other.  Each axis's
    entry and exit parameters are computed on its own arrays' shapes, so a
    coordinate shared by many segments (a lamp's, or a grid column's) is
    divided once; each box's running max and min of them grow to the
    broadcast shape only as the axes come in, so listing the axes of the
    smaller shapes first keeps more of the work small.  Endpoints touching a
    box face do not count as occlusion, and a hit needs an overlap longer
    than 1e-12 of the segment.  A tiny step overflows a slab bound to
    +-inf, the right bound.  Where an axis step is below 1e-15 (parallel
    to the slab), found once for all boxes, the axis takes the bounds
    (-inf, +inf) where p lies in the slab and the empty (+inf, -inf) where
    it does not, set by index at those segments only: the other axes then
    decide as if the axis were skipped or the box missed.
    """
    parallel = []
    for _, pi, di in axes:
        par = np.nonzero(np.abs(di) < 1e-15)
        parallel.append((par, np.broadcast_to(pi, di.shape)[par]
                         if par[0].size else None))
    blocked = np.zeros(np.broadcast_shapes(*(np.shape(d) for *_, d in axes)),
                       dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for box in obstacles:
            tmin, tmax = 0.0, 1.0
            for (i, pi, di), (par, pin) in zip(axes, parallel):
                t1, t2 = (box.lo[i] - pi) / di, (box.hi[i] - pi) / di
                near, far = np.minimum(t1, t2), np.maximum(t1, t2, out=t1)
                if pin is not None:
                    out = np.where((pin < box.lo[i]) | (pin > box.hi[i]),
                                   np.inf, -np.inf)
                    near[par], far[par] = out, -out
                tmin, tmax = np.maximum(tmin, near), np.minimum(tmax, far)
            blocked |= np.subtract(tmax, tmin, out=tmax) > 1e-12
    return blocked


def segments_blocked(p, q, obstacles) -> np.ndarray:
    """Which of the open segments p[i]-q[i] some box blocks, as a bool
    array; p and q are (..., 3) and broadcast against each other.

    The call of ``slab_blocked`` on the segments' three axes.  p stays
    unbroadcast, so (L, 1, 3) lamp rows against (K, 3) centroids offset
    each box corner by L values, not L*K.
    """
    shape = np.broadcast_shapes(np.shape(p), np.shape(q))[:-1]
    p, q = np.atleast_2d(np.asarray(p, float)), np.asarray(q, float)
    axes = [(i, p[..., i], q[..., i] - p[..., i]) for i in range(3)]
    return slab_blocked(axes, obstacles).reshape(shape)


def line_of_sight(p, q, obstacles) -> bool:
    """True when the open segment p-q is not blocked by any box: the
    one-segment call of ``segments_blocked``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.allclose(p, q):
        raise ValueError("line_of_sight endpoints coincide")
    return not segments_blocked(p, q, obstacles)


def solve_frame_basis(central_ray) -> np.ndarray:
    """Orthonormal basis of the lamp-aligned solve frame, as columns in
    world coordinates.  +z opposes the lamp's central ray; +x is the
    world x axis projected into the frame's horizontal plane (world y as
    fallback when the ray is along x)."""
    e3 = -unit(central_ray)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(e3 @ ref) > 1.0 - 1e-9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = unit(ref - (ref @ e3) * e3)
    e2 = np.cross(e3, e1)
    return np.column_stack([e1, e2, e3])
