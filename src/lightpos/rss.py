"""The forward model of received signal strength, the only module that
evaluates it or an emission profile.

A face of unit normal n reads a lamp at lamp-relative vector x (the lamp
in its solve frame: +z against the central ray, the face at the origin)
as s = k (n . x) f / |x|^3: inverse-square decay k/|x|^2, incidence
n . x / |x| and the emission profile f of the angle omega off the
central ray.  ``rss_model`` evaluates it, and its gradient.  Profiles
are evaluated on x's off-axis distance rho and on-axis component z, a
polynomial one at omega = arctan2(rho, z): near the central ray that
keeps full relative precision, where arccos(z / |x|) loses up to 2e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geom import solve_frame_basis, unit

# The validation grid of omega on [0, pi/2], and as unit vectors.
_GRID = np.linspace(0.0, math.pi / 2, 1024)
_GRID_X = np.column_stack([np.sin(_GRID), np.zeros_like(_GRID), np.cos(_GRID)])

_EZ = np.array([0.0, 0.0, 1.0])

KIND_COSINE_POWER = "cosine_power"
KIND_POLYNOMIAL = "polynomial"


class ProfileError(ValueError):
    """Raised for emission profiles violating monotonicity/positivity."""


def off_axis_angle(rho, z):
    """omega = arctan2(rho, z), the angle off the central ray."""
    return np.arctan2(rho, z)


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
        vals, _ = self.evaluate(_GRID_X)
        if vals[0] <= 0:
            raise ProfileError("profile must be positive at omega = 0")
        if np.any(vals < 0):
            i = int(np.argmax(vals < 0))
            raise ProfileError(f"profile negative at omega = {_GRID[i]:.6f}")
        diffs = np.diff(vals)
        if np.any(diffs >= 0):
            i = int(np.argmax(diffs >= 0))
            raise ProfileError(
                f"profile not strictly decreasing at omega = {_GRID[i + 1]:.6f}"
            )

    @property
    def gamma(self) -> float:
        """cos^gamma's exponent; NaN for a polynomial profile."""
        return self.params[0] if self.kind == KIND_COSINE_POWER else math.nan

    def evaluate(self, x):
        """f at lamp-relative vectors x (..., 3) in the lamp's solve frame,
        from their on-axis component z and off-axis distance rho, and
        df/d(cos omega), the slope ``rss_model``'s gradient takes.

        Cosine-power: (z/|x|)**gamma, z/|x| clamped to [1e-12, 1].
        Polynomial: f at omega = ``off_axis_angle(rho, z)``; its slope
        -f'(omega)/sin(omega) floors sin(omega) at 1e-9, finite on the
        central ray, where f with params[1] != 0 has a cone and no
        gradient.  Values are computed as arrays of at least one element,
        as numpy's scalar ``**`` may differ from its array loop.
        """
        x = np.asarray(x, dtype=float)
        return self._evaluate(x, np.sqrt(np.vecdot(x, x)))

    def _evaluate(self, x, d, slope: bool = True):
        """``evaluate`` at float vectors x whose norms |x| are d; the slope
        is None when ``slope`` is False."""
        shape = x.shape[:-1]
        if not shape:
            x, d = x[None], np.reshape(d, 1)
        z = x[..., 2]
        df = None
        if self.kind == KIND_COSINE_POWER:
            gamma = self.params[0]
            c = np.minimum(np.maximum(z / d, 1e-12), 1.0)
            f = c ** gamma
            if slope:
                df = (gamma * c ** (gamma - 1.0)).reshape(shape)
        else:
            rho = np.hypot(x[..., 0], x[..., 1])
            w = off_axis_angle(rho, z)
            f = np.zeros_like(w)
            dfdw = np.zeros_like(w)
            for j in range(len(self.params) - 1, 0, -1):
                f = f * w + self.params[j]
                if slope:
                    dfdw = dfdw * w + j * self.params[j]
            f = f * w + self.params[0]
            if slope:
                df = (-dfdw / np.maximum(rho / d, 1e-9)).reshape(shape)
        return f.reshape(shape), df


def make_profile(kind: str, params) -> EmissionProfile:
    """Construct an emission profile, rejecting non-monotone shapes."""
    return EmissionProfile(kind, tuple(np.atleast_1d(params)))


def rss_model(planes, k, profile, x, gradient: bool = True):
    """Model values k (plane . x) f / |x|^3 of a lamp at lamp-relative
    solve-frame vectors x, f its profile's ``evaluate`` at x, and their
    gradient wrt x, or None for it when ``gradient`` is False.

    ``x`` is (..., 3), ``planes`` (..., n, 3) and ``k`` and ``profile``
    one or a ``ProfileTable`` over (...); returns values (..., n) and
    gradient (..., n, 3).
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k)[..., None]
    d = np.sqrt(np.vecdot(x, x))
    p = np.matvec(planes, x)
    f, df = profile._evaluate(x, d, gradient)
    d3 = d ** 3
    m = k / d3[..., None] * p * f[..., None]
    if not gradient:
        return m, None
    dc_dx = _EZ / d[..., None] - x[..., 2:] * x / d3[..., None]
    return m, k[..., None] * (
        planes * (f / d3)[..., None, None]
        + p[..., None] * dc_dx[..., None, :] * (df / d3)[..., None, None]
        - (p * f[..., None] * 3.0 / d3[..., None] / d[..., None] ** 2)
        [..., None] * x[..., None, :]
    )


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
    over arrays that ``index`` broadcasts to."""

    profiles: tuple
    index: np.ndarray

    def take(self, idx) -> ProfileTable:
        return ProfileTable(self.profiles, self.index[idx])

    @property
    def gamma(self):
        return np.array([p.gamma for p in self.profiles])[self.index]

    def _evaluate(self, x, d, slope: bool = True):
        """Each element's ``EmissionProfile.evaluate``, |x| being d; the
        slope is None when ``slope`` is False."""
        if len(self.profiles) == 1:
            return self.profiles[0]._evaluate(x, d, slope)
        index = np.broadcast_to(self.index, np.shape(x)[:-1])
        out = np.empty((1 + slope,) + index.shape)
        for i, profile in enumerate(self.profiles):
            own = index == i
            out[:, own] = profile._evaluate(x[own], d[own], slope)[:1 + slope]
        return out[0], out[1] if slope else None


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
