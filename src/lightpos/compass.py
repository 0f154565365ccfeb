"""Attitude sensing: pitch/roll from gravity and heading from a
six-sensor circular magnetometer array with ellipse-fit auto-calibration.

Magnetic interference turns the reference circle of horizontal field
readings into a tilted ellipse (constant offset from hard iron, linear
distortion from soft iron).  Six sensors at 60-degree offsets sample the
ellipse at once; a conic least-squares fit recovers the distortion,
which is then inverted before averaging the headings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Attitude, attitude_to_rotation

N_SENSORS = 6
SENSOR_STEP = 2.0 * math.pi / N_SENSORS


class AccelValidityError(ValueError):
    """Raised when an accelerometer sample fails the static-gravity gate."""


class EllipseFitError(ValueError):
    """Raised when the sampled points do not determine an ellipse."""


@dataclass(frozen=True)
class AccelSample:
    """Body-frame specific force in g units (forward/right/down axes)."""

    ax: float
    ay: float
    az: float


@dataclass(frozen=True)
class MagSample:
    """Horizontal-plane field components from one of the six sensors."""

    mx: float
    my: float
    sensor: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.mx) and math.isfinite(self.my)):
            raise ValueError("field components must be finite")
        if type(self.sensor) is not int or not 0 <= self.sensor < N_SENSORS:
            raise ValueError(f"sensor {self.sensor!r} is not an int in 0..5")


@dataclass(frozen=True)
class EllipseParams:
    """Center, semi-axes (major p >= minor q) and major-axis tilt."""

    cx: float
    cy: float
    p: float
    q: float
    phi: float

    def __post_init__(self):
        if not self.p >= self.q > 0:
            raise ValueError("semi-axes must satisfy p >= q > 0")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Forward distortion: map reference-circle points onto the
        ellipse.

        The linear part is the symmetric matrix R(phi) diag(p, q)
        R(phi)^T, the standard soft-iron form, so ``correct`` is its
        exact inverse."""
        rot = _rot2(self.phi)
        return (points @ rot @ np.diag([self.p, self.q]) @ rot.T
                + np.array([self.cx, self.cy]))

    def correct(self, points: np.ndarray) -> np.ndarray:
        """Inverse distortion: center, de-rotate, normalize the axes and
        re-rotate, mapping the ellipse back onto the reference circle."""
        rot = _rot2(self.phi)
        centered = points - np.array([self.cx, self.cy])
        return centered @ rot @ np.diag([1.0 / self.p, 1.0 / self.q]) @ rot.T


def _rot2(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def pitch_roll_from_accel(a: AccelSample) -> tuple[float, float]:
    """Pitch and roll from a static gravity measurement.

    Inverse of the gravity image of ``attitude_to_rotation``:
    pitch = asin(-ax / |a|), roll = atan2(ay, az).
    """
    v = np.array([a.ax, a.ay, a.az])
    norm = np.linalg.norm(v)
    if not 0.8 <= norm <= 1.2:
        raise AccelValidityError(
            f"|a| = {norm:.3f} g outside the static gate [0.8, 1.2]"
        )
    pitch = math.asin(max(-1.0, min(1.0, -v[0] / norm)))
    roll = math.atan2(v[1], v[2])
    return pitch, roll


def gravity_image(att: Attitude) -> AccelSample:
    """Body-frame gravity for a given attitude (test oracle for
    ``pitch_roll_from_accel``)."""
    g_body = attitude_to_rotation(att).T @ np.array([0.0, 0.0, 1.0])
    return AccelSample(*g_body)


def fit_ellipse(points) -> EllipseParams:
    """Direct algebraic least-squares ellipse fit (constraint
    4AC - B^2 = 1), non-iterative and guaranteed ellipse-specific."""
    pts = np.asarray(points, dtype=float)
    if not (pts.ndim == 2 and pts.shape[1] == 2 and len(pts) >= 6
            and np.all(np.isfinite(pts))):
        raise EllipseFitError("need six or more finite points (n, 2), got "
                              f"shape {pts.shape}")
    x, y = pts[:, 0], pts[:, 1]
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise EllipseFitError("degenerate point configuration") from None
    m = s1 + s2 @ t
    c_inv = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
    vals, vecs = np.linalg.eig(c_inv @ m)
    best = None
    for i in range(3):
        v = np.real(vecs[:, i])
        disc = 4 * v[0] * v[2] - v[1] ** 2
        if disc > 0:
            best = v / math.sqrt(disc)
            break
    if best is None:
        raise EllipseFitError("points do not determine an ellipse")
    a, b, c = best
    d, e, f = t @ best
    return _conic_to_params(a, b, c, d, e, f)


def _conic_to_params(a, b, c, d, e, f) -> EllipseParams:
    m2 = np.array([[a, b / 2], [b / 2, c]])
    try:
        center = np.linalg.solve(2 * m2, [-d, -e])
    except np.linalg.LinAlgError:
        raise EllipseFitError("conic has no finite center") from None
    f_c = (a * center[0] ** 2 + b * center[0] * center[1]
           + c * center[1] ** 2 + d * center[0] + e * center[1] + f)
    vals, vecs = np.linalg.eigh(m2)
    axes_sq = -f_c / vals
    if np.any(axes_sq <= 0):
        raise EllipseFitError("fit is not an ellipse")
    axes = np.sqrt(axes_sq)
    order = np.argsort(-axes)
    p, q = axes[order]
    major = vecs[:, order[0]]
    phi = math.atan2(major[1], major[0])
    if phi <= -math.pi / 2:
        phi += math.pi
    elif phi > math.pi / 2:
        phi -= math.pi
    return EllipseParams(center[0], center[1], float(p), float(q), phi)


def synth_distorted_samples(true_heading: float, distortion: EllipseParams,
                            noise_sd: float = 0.0, seed=None,
                            gains=None) -> list[MagSample]:
    """Six magnetometer readings at 60-degree offsets through an affine
    distortion; test fixture generator, deterministic per seed."""
    angles = np.arange(N_SENSORS) * SENSOR_STEP - true_heading
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    pts = distortion.apply(circle)
    if gains is not None:
        pts = pts * np.asarray(gains, dtype=float)[:, None]
    if noise_sd > 0:
        rng = np.random.default_rng(seed)
        pts = pts + rng.normal(0.0, noise_sd, size=pts.shape)
    return [MagSample(pts[i, 0], pts[i, 1], i) for i in range(N_SENSORS)]


def calibrate_heading(raw, fit: EllipseParams, pitch: float = 0.0,
                      roll: float = 0.0, gains=None) -> float:
    """Heading in [0, 2*pi) from raw magnetometer samples and a fitted
    distortion.

    Each sample is mapped back to the reference circle, the per-sensor
    mounting offset removed, and the unit vectors averaged; heading is
    the negated angle of the mean (compass positive clockwise from
    north).  Tilt is compensated by rescaling the board-plane components
    by the pitch/roll projection.
    """
    if not (math.isfinite(pitch) and math.isfinite(roll)):
        raise ValueError("pitch and roll must be finite")
    pts = np.array([[s.mx, s.my] for s in raw])
    if gains is not None:
        pts = pts / np.asarray(gains, dtype=float)[:, None]
    corrected = fit.correct(pts)
    corrected[:, 0] /= max(math.cos(pitch), 1e-9)
    corrected[:, 1] /= max(math.cos(roll), 1e-9)
    mean = np.zeros(2)
    for sample, v in zip(raw, corrected):
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise ValueError("corrected field magnitude is near zero")
        mean += _rot2(-sample.sensor * SENSOR_STEP) @ (v / norm)
    if np.linalg.norm(mean) < 1e-9:
        raise ValueError("corrected samples cancel; field nulled")
    return (-math.atan2(mean[1], mean[0])) % (2.0 * math.pi)
