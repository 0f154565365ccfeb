"""Parametric forward model of received signal strength and calibration
of its free parameters from labeled samples.

The model multiplies three factors: inverse-square distance decay k/d^2,
incidence factor sin(mu) = d'/d (d' the lamp's distance to the sensing
plane), and an emission profile f(omega) that decays with the angle
omega off the lamp's central ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares

from .geom import solve_frame_basis, unit

_GRID = np.linspace(0.0, math.pi / 2, 1024)

KIND_COSINE_POWER = "cosine_power"
KIND_POLYNOMIAL = "polynomial"


class ProfileError(ValueError):
    """Raised for emission profiles violating monotonicity/positivity."""


@dataclass(frozen=True)
class EmissionProfile:
    """Angular emission attenuation f(omega) on [0, pi/2].

    ``cosine_power`` uses cos(omega)**gamma with params = (gamma,);
    ``polynomial`` evaluates sum(params[j] * omega**j).  Profiles must be
    positive at 0, nonnegative, and strictly decreasing on [0, pi/2];
    this is checked on a 1024-point grid at construction.
    """

    kind: str
    params: tuple = field(default=(1.0,))

    def __post_init__(self):
        if self.kind not in (KIND_COSINE_POWER, KIND_POLYNOMIAL):
            raise ProfileError(f"unknown profile kind {self.kind!r}")
        params = tuple(float(p) for p in np.atleast_1d(self.params))
        if not all(math.isfinite(p) for p in params):
            raise ProfileError("profile parameters must be finite")
        if self.kind == KIND_COSINE_POWER:
            if len(params) != 1 or params[0] <= 0:
                raise ProfileError("cosine_power takes a single gamma > 0")
        elif not params:
            raise ProfileError("polynomial takes at least one coefficient")
        object.__setattr__(self, "params", params)
        vals = self.value(_GRID)
        if vals[0] <= 0:
            raise ProfileError("profile must be positive at omega = 0")
        if np.any(vals < 0):
            i = int(np.argmax(vals < 0))
            raise ProfileError(
                f"profile negative at omega = {_GRID[i]:.6f}"
            )
        diffs = np.diff(vals)
        if np.any(diffs >= 0):
            i = int(np.argmax(diffs >= 0))
            raise ProfileError(
                f"profile not strictly decreasing at omega = {_GRID[i + 1]:.6f}"
            )

    def value(self, omega):
        """f(omega), vectorized over omega in [0, pi/2]."""
        omega = np.asarray(omega, dtype=float)
        if self.kind == KIND_COSINE_POWER:
            return np.cos(omega) ** self.params[0]
        return np.polynomial.polynomial.polyval(omega, self.params)

    def value_and_slope(self, cos_w):
        """f and df/d(cos omega) as functions of cos omega, vectorized;
        cos omega is clamped to [1e-12, 1] first."""
        c = np.minimum(np.maximum(cos_w, 1e-12), 1.0)
        if self.kind == KIND_COSINE_POWER:
            gamma = self.params[0]
            return c ** gamma, gamma * c ** (gamma - 1.0)
        w = np.arccos(c)
        g = np.zeros_like(c)
        dgdw = np.zeros_like(c)
        for j in range(len(self.params) - 1, 0, -1):
            g = g * w + self.params[j]
            dgdw = dgdw * w + j * self.params[j]
        g = g * w + self.params[0]
        return g, -dgdw / np.sqrt(np.maximum(1.0 - c * c, 1e-18))


def make_profile(kind: str, params) -> EmissionProfile:
    """Construct an emission profile, rejecting non-monotone shapes."""
    return EmissionProfile(kind, tuple(np.atleast_1d(params)))


@dataclass(frozen=True)
class LampModel:
    """A point light source.

    position in world meters, central_ray a unit world direction,
    intensity constant k > 0, emission profile, and a flash frequency in
    Hz that identifies the lamp in the frequency domain.  ``range_m``
    bounds the usable sensing range for coverage analysis.
    ``solve_basis`` is the lamp's solve-frame basis
    (``geom.solve_frame_basis`` of the central ray), built once here.
    """

    position: np.ndarray
    central_ray: np.ndarray
    k: float
    profile: EmissionProfile
    flash_hz: float
    range_m: float = math.inf
    solve_basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "central_ray", unit(self.central_ray))
        if not np.all(np.isfinite(self.position)):
            raise ValueError("lamp position must be finite")
        if not 0 < self.k < math.inf:
            raise ValueError("lamp intensity constant must be positive and finite")
        if not 0 < self.flash_hz < math.inf:
            raise ValueError("lamp flash frequency must be positive and finite")
        if not self.range_m > 0:
            raise ValueError("lamp range must be positive (inf for unbounded)")
        object.__setattr__(self, "solve_basis",
                           solve_frame_basis(self.central_ray))


class ProfileTable(NamedTuple):
    """Emission profiles element by element, the distinct ``profiles``
    and each element's ``index`` into them: it evaluates like one profile
    over arrays shaped like ``index``."""

    profiles: tuple
    index: np.ndarray

    def take(self, idx) -> ProfileTable:
        return ProfileTable(self.profiles, self.index[idx])

    def value(self, omega):
        if len(self.profiles) == 1:
            return self.profiles[0].value(omega)
        return self._each("value", omega)

    def value_and_slope(self, cos_w):
        if len(self.profiles) == 1:
            return self.profiles[0].value_and_slope(cos_w)
        return self._each("value_and_slope", cos_w)

    def _each(self, method, x):
        out = np.empty((2,) + np.shape(x))
        for i, profile in enumerate(self.profiles):
            own = self.index == i
            out[:, own] = getattr(profile, method)(x[own])
        return out[0] if method == "value" else tuple(out)


class LampTable(NamedTuple):
    """Lamps as arrays: positions (L, 3), solve-frame bases (L, 3, 3),
    intensity constants (L,) and emission profiles."""

    position: np.ndarray
    basis: np.ndarray
    k: np.ndarray
    profiles: ProfileTable

    @classmethod
    def of(cls, lamps) -> LampTable:
        profiles = tuple(dict.fromkeys(lamp.profile for lamp in lamps))
        index = [profiles.index(lamp.profile) for lamp in lamps]
        return cls(
            np.array([lamp.position for lamp in lamps]).reshape(-1, 3),
            np.array([lamp.solve_basis for lamp in lamps]).reshape(-1, 3, 3),
            np.array([lamp.k for lamp in lamps], dtype=float),
            ProfileTable(profiles, np.array(index, dtype=np.intp)))


def eval_rss(lamp: LampModel, face_center, face_normal) -> float:
    """Model RSS on a face: k/d^3 * |n . (lamp - face)| * f(omega).

    Zero when the face is outside the lamp's forward hemisphere
    (omega >= pi/2).  The absolute value makes the result independent of
    the normal's sign; occlusion and back-face lighting are handled by
    the simulator, not here.
    """
    face_center = np.asarray(face_center, dtype=float)
    delta = lamp.position - face_center
    d = np.linalg.norm(delta)
    if d < 1e-12:
        raise ValueError("face coincides with the lamp position")
    cos_omega = (-delta / d) @ lamp.central_ray
    if cos_omega <= 0.0:
        return 0.0
    omega = math.acos(min(1.0, cos_omega))
    n = unit(face_normal)
    return lamp.k / d**3 * abs(n @ delta) * float(lamp.profile.value(omega))


class InsufficientSamplesError(ValueError):
    """Raised when a fit is requested with too few or degenerate samples."""


def fit_lamp_model(samples, profile_kind: str, degree: int,
                   lamp_position, central_ray):
    """Fit the intensity constant and emission profile from labeled
    samples.

    ``samples`` is a sequence of (face_center, face_normal, s) with the
    lamp at a known pose.  The fit minimizes the squared log-residuals
    sum((log s_meas - log s_model)^2), matching the multiplicative error
    structure of the sensor.  Polynomial profiles are normalized to
    f(0) = 1, the overall scale living in k.

    Returns (k, EmissionProfile, rms log-residual).
    """
    lamp_position = np.asarray(lamp_position, dtype=float)
    ray = unit(central_ray)
    n_params = 1 if profile_kind == KIND_COSINE_POWER else degree
    if len(samples) < n_params + 2:
        raise InsufficientSamplesError(
            f"need at least {n_params + 2} samples, got {len(samples)}"
        )

    omegas, geoms, logs = [], [], []
    for center, normal, s in samples:
        center = np.asarray(center, dtype=float)
        delta = lamp_position - center
        d = np.linalg.norm(delta)
        cos_omega = (-delta / d) @ ray
        if cos_omega <= 0 or s <= 0:
            raise ValueError("samples must lie in the lamp's forward hemisphere with s > 0")
        omegas.append(math.acos(min(1.0, cos_omega)))
        geoms.append(abs(unit(normal) @ delta) / d**3)
        logs.append(math.log(s))
    omegas = np.array(omegas)
    if np.ptp(omegas) < 1e-9:
        raise InsufficientSamplesError("samples must span at least two distinct omega values")
    y = np.array(logs) - np.log(geoms)  # log(k * f(omega))

    if profile_kind == KIND_COSINE_POWER:
        # log y = log k + gamma * log cos(omega): plain linear regression.
        a = np.column_stack([np.ones_like(omegas), np.log(np.cos(omegas))])
        coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < 2:
            raise InsufficientSamplesError("rank-deficient sample geometry")
        k = math.exp(coef[0])
        profile = make_profile(KIND_COSINE_POWER, [coef[1]])
    else:
        if degree < 1:
            raise ValueError("polynomial degree must be at least 1")

        def resid(theta):
            logk, tail = theta[0], theta[1:]
            f = np.polynomial.polynomial.polyval(omegas, np.concatenate([[1.0], tail]))
            return np.where(f > 0, logk + np.log(np.maximum(f, 1e-12)), 1e6) - y

        theta0 = np.concatenate([[np.mean(y)], np.full(degree, -0.1)])
        sol = least_squares(resid, theta0, method="lm")
        k = math.exp(sol.x[0])
        profile = make_profile(
            KIND_POLYNOMIAL, np.concatenate([[1.0], sol.x[1:]])
        )

    pred = np.log(k) + np.log(profile.value(omegas))
    rms = float(np.sqrt(np.mean((pred - y) ** 2)))
    return k, profile, rms
