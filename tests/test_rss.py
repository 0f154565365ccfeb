"""Forward RSS model and lamp parameter fitting."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lightpos
from lightpos.geom import solve_frame_basis
from lightpos.rss import (
    EmissionProfile,
    LampModel,
    ProfileError,
    make_profile,
    rss_model,
)
from lightpos.solve import InsufficientSamplesError, fit_lamp_model
from rss_oracle import eval_rss

COS = make_profile("cosine_power", [1.0])


def vertical_lamp(position, k=1.0, profile=COS, flash_hz=65.0):
    return LampModel(np.asarray(position, float), [0, 0, -1], k, profile,
                     flash_hz)


def test_profile_validation():
    with pytest.raises(ProfileError):
        make_profile("cosine_power", [-1.0])
    with pytest.raises(ProfileError):
        make_profile("nonsense", [1.0])
    with pytest.raises(ProfileError):
        # Increasing polynomial.
        make_profile("polynomial", [1.0, 0.5])
    with pytest.raises(ProfileError):
        # Goes negative before pi/2.
        make_profile("polynomial", [1.0, -2.0])
    for kind in ("polynomial", "cosine_power"):
        with pytest.raises(ProfileError):
            make_profile(kind, [])


def test_profile_values():
    # f at lamp-relative vectors omega = 0, pi/3 and 0.5 off the axis.
    assert COS.evaluate([0.0, 0.0, 2.0])[0] == pytest.approx(1.0)
    assert COS.evaluate([0.0, math.sqrt(3), 1.0])[0] == pytest.approx(0.5)
    poly = make_profile("polynomial", [1.0, -0.5])
    x = [math.sin(0.5), 0.0, math.cos(0.5)]
    assert poly.evaluate(x)[0] == pytest.approx(0.75)


# Cosine-power profiles, and polynomials 1 + c1 omega + c2 omega^2 that
# stay positive and decreasing on [0, pi/2].
_profiles = st.one_of(
    st.floats(0.3, 4.0).map(lambda g: make_profile("cosine_power", [g])),
    st.tuples(st.floats(-0.45, -0.05), st.floats(-0.08, 0.0)).map(
        lambda c: make_profile("polynomial", [1.0, *c])))
_unit = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v) / np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(profile=_profiles, k=st.floats(1.0, 50.0), z=st.floats(0.5, 4.0),
       log_tan=st.floats(-4.0, 0.5), azimuth=st.floats(0.0, 2 * math.pi),
       planes=st.lists(_unit, min_size=1, max_size=3))
def test_rss_model_gradient_matches_central_differences(
        profile, k, z, log_tan, azimuth, planes):
    # The lamp off axis by rho = z tan(omega), from 1e-4 z out to omega
    # ~ 72 degrees.  rho = 0 is excluded: a polynomial f with c1 != 0
    # has a cone on the central ray, so no gradient there, and central
    # differences are only meaningful on steps well inside rho.
    rho = z * 10.0**log_tan
    x = np.array([rho * math.cos(azimuth), rho * math.sin(azimuth), z])
    planes = np.array(planes)
    m, grad = rss_model(planes, k, profile, x)
    h = 1e-4 * rho
    fd = np.stack([(rss_model(planes, k, profile, x + dx)[0]
                    - rss_model(planes, k, profile, x - dx)[0]) / (2 * h)
                   for dx in np.eye(3) * h], axis=-1)
    # The scale of a reading's gradient: k f / |x|^3 times a unit plane.
    scale = k * profile.evaluate(x)[0] / np.linalg.norm(x) ** 3
    assert np.all(np.abs(grad - fd) <= 1e-6 * max(scale, np.abs(grad).max()))
    values, none = rss_model(planes, k, profile, x, gradient=False)
    assert none is None and np.array_equal(values, m)


@settings(max_examples=300, deadline=None)
@given(profile=_profiles, k=st.floats(1.0, 50.0),
       lamp=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(1, 4)),
       ray=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       center=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-1, 0.5)),
       normal=_unit)
def test_rss_model_agrees_with_scalar_oracle(profile, k, lamp, ray, center,
                                             normal):
    # rss_model in the lamp's solve frame against eval_rss on the same
    # face in the world frame, for faces in the lamp's forward hemisphere
    # up to omega = 1.3 rad: within 1e-12 relative to the reading of a
    # face turned to the lamp, since n . x cancels on a face near edge-on.
    lamp = LampModel(lamp, [*ray, -1.0], k, profile, 65.0)
    x = lamp.solve_basis.T @ (lamp.position - np.array(center))
    assume(math.atan2(math.hypot(x[0], x[1]), x[2]) <= 1.3)
    plane = lamp.solve_basis.T @ normal
    plane = plane if plane @ x >= 0 else -plane
    got = rss_model(plane[None], k, profile, x)[0][0]
    want = eval_rss(lamp, center, normal)
    facing = eval_rss(lamp, center, lamp.position - np.array(center))
    assert abs(got - want) <= 1e-12 * facing


# The functions that take an angle off a lamp's central ray, and the
# methods that evaluate an emission profile, the old ones included.
_ANGLES = {"arccos", "acos", "arctan2"}
_PROFILE_METHODS = {"evaluate", "_evaluate", "value", "value_and_slope"}


def test_only_rss_evaluates_the_model():
    # The forward model and its profiles have one owner, lightpos.rss: no
    # other module takes an arc cosine or arc tangent, or calls a
    # profile's evaluation entry.
    package = Path(lightpos.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "rss.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            attr = getattr(node, "attr", None)
            name = getattr(node, "id", attr)
            if name in _ANGLES or attr in _PROFILE_METHODS:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _model_gradient_calls(node, scope=()):
    """(enclosing function names, line) of each call of ``rss_model``
    under ``node`` that does not pass ``gradient=False``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "rss_model" and not any(
                    kw.arg == "gradient" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in child.keywords):
                yield scope, child.lineno
        yield from _model_gradient_calls(child, inner)


def test_only_multi_residuals_takes_the_model_gradient():
    # Every least-squares position refine runs on one residual model:
    # outside solve._multi_residuals, the package calls rss_model only
    # with gradient=False.
    package = Path(lightpos.__file__).resolve().parent
    owner, found = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, line in _model_gradient_calls(tree):
            mine = (path.name, *scope[:1]) == ("solve.py", "_multi_residuals")
            (owner if mine else found).append(
                f"{path.name}:{line} {'.'.join(scope)}")
    assert found == []
    assert len(owner) == 1


def test_lamp_model_validation():
    with pytest.raises(ValueError):
        vertical_lamp([0, 0, 3], k=-1.0)
    with pytest.raises(ValueError):
        LampModel(np.zeros(3), [0, 0, -1], 1.0, COS, flash_hz=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            vertical_lamp([0, 0, 3], k=bad)
        with pytest.raises(ValueError):
            vertical_lamp([0, 0, 3], flash_hz=bad)
        with pytest.raises(ValueError):
            vertical_lamp([0, bad, 3])
    for bad in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            LampModel(np.zeros(3), [0, 0, -1], 1.0, COS, 65.0, range_m=bad)
    assert vertical_lamp([0, 0, 3]).range_m == math.inf


def test_lamp_model_builds_its_solve_frame_basis_once():
    lamp = LampModel([1.0, 2.0, 3.0], [0.2, -0.1, -1.0], 1.0, COS, 65.0)
    assert np.array_equal(lamp.solve_basis,
                          solve_frame_basis(lamp.central_ray))
    tilted = replace(lamp, central_ray=[1.0, 0.0, -1.0])
    assert np.array_equal(tilted.solve_basis,
                          solve_frame_basis(tilted.central_ray))
    assert not np.array_equal(tilted.solve_basis, lamp.solve_basis)
    with pytest.raises(TypeError):
        LampModel([0, 0, 3], [0, 0, -1], 1.0, COS, 65.0,
                  solve_basis=np.eye(3))


def test_eval_rss_worked_values():
    # Lamp straight above a horizontal face at distance 3:
    # s = k / 27 * 3 * f(0) = k / 9.
    lamp = vertical_lamp([0, 0, 3], k=2.0)
    assert eval_rss(lamp, [0, 0, 0], [0, 0, 1]) == pytest.approx(2.0 / 9)
    # Edge-on face reads zero.
    assert eval_rss(lamp, [0, 0, 0], [1, 0, 0]) == pytest.approx(0.0)


def test_eval_rss_outside_forward_hemisphere_is_zero():
    lamp = vertical_lamp([0, 0, 3])
    # Face above the lamp: emitting angle > 90 degrees.
    assert eval_rss(lamp, [0, 0, 5], [0, 0, 1]) == 0.0


def test_eval_rss_sign_of_normal_is_irrelevant():
    lamp = vertical_lamp([1, 2, 3], k=5.0)
    a = eval_rss(lamp, [0, 0, 0], [0.2, 0.3, 0.9])
    b = eval_rss(lamp, [0, 0, 0], [-0.2, -0.3, -0.9])
    assert a == pytest.approx(b)


def test_eval_rss_inverse_square_decay():
    # Doubling the distance along the central ray quarters the signal:
    # 1/d^3 decay times the incidence factor growing linearly with d.
    lamp = vertical_lamp([0, 0, 2], k=1.0)
    near = eval_rss(lamp, [0, 0, 0], [0, 0, 1])
    lamp_far = vertical_lamp([0, 0, 4], k=1.0)
    far = eval_rss(lamp_far, [0, 0, 0], [0, 0, 1])
    assert near == pytest.approx(4 * far)


def _synth_samples(lamp, rng, n=24, span=3.0):
    samples = []
    while len(samples) < n:
        center = np.array([rng.uniform(-span, span), rng.uniform(-span, span),
                           0.0])
        normal = rng.normal(size=3)
        normal[2] = abs(normal[2]) + 0.5
        s = eval_rss(lamp, center, normal)
        if s > 1e-9:
            samples.append((center, normal, s))
    return samples


def test_fit_lamp_model_cosine_power_roundtrip():
    rng = np.random.default_rng(11)
    truth = make_profile("cosine_power", [1.7])
    lamp = LampModel([0.5, -0.5, 3.0], [0, 0, -1], 42.0, truth, 65.0)
    samples = _synth_samples(lamp, rng)
    k, profile, rms = fit_lamp_model(samples, "cosine_power", 0,
                                     lamp.position, lamp.central_ray)
    assert k == pytest.approx(42.0, rel=1e-9)
    assert profile.params[0] == pytest.approx(1.7, abs=1e-9)
    assert rms < 1e-10


def test_fit_lamp_model_polynomial_roundtrip():
    rng = np.random.default_rng(13)
    truth = make_profile("polynomial", [1.0, -0.4])
    lamp = LampModel([0.0, 0.0, 3.0], [0, 0, -1], 10.0, truth, 65.0)
    samples = _synth_samples(lamp, rng)
    k, profile, rms = fit_lamp_model(samples, "polynomial", 1,
                                     lamp.position, lamp.central_ray)
    assert k == pytest.approx(10.0, rel=1e-6)
    assert profile.params[1] == pytest.approx(-0.4, abs=1e-6)
    assert rms < 1e-8


def test_fit_lamp_model_needs_enough_samples():
    lamp = vertical_lamp([0, 0, 3])
    samples = [([0, 0, 0], [0, 0, 1], 1.0)]
    with pytest.raises(InsufficientSamplesError):
        fit_lamp_model(samples, "cosine_power", 0, lamp.position,
                       lamp.central_ray)


def test_fit_lamp_model_rejects_single_angle():
    lamp = vertical_lamp([0, 0, 3])
    s = eval_rss(lamp, [0, 0, 0], [0, 0, 1])
    samples = [([0, 0, 0], [0, 0, 1], s)] * 5
    with pytest.raises(InsufficientSamplesError):
        fit_lamp_model(samples, "cosine_power", 0, lamp.position,
                       lamp.central_ray)


def test_fit_lamp_model_polynomial_starts_feasible():
    # Samples out to omega ~ 1.3: a start with negative tail coefficients
    # would make f <= 0 there for degree 5; f = 1 is feasible everywhere.
    rng = np.random.default_rng(18)
    truth = make_profile("polynomial", [1.0, -0.4])
    lamp = LampModel([0.0, 0.0, 3.0], [0, 0, -1], 10.0, truth, 65.0)
    samples = _synth_samples(lamp, rng, span=8.0)
    k, profile, rms = fit_lamp_model(samples, "polynomial", 5,
                                     lamp.position, lamp.central_ray)
    assert k == pytest.approx(10.0, rel=1e-6)
    assert profile.params == pytest.approx([1.0, -0.4, 0, 0, 0, 0],
                                           abs=1e-6)
    assert rms < 1e-8


def test_fit_lamp_model_raises_when_not_converged():
    # One reading 1e-200 of the model wants f ~ 0 at the widest sample:
    # the fit stalls against f > 0 instead of returning its last step.
    lamp = vertical_lamp([0, 0, 3], k=10.0,
                         profile=make_profile("polynomial", [1.0, -0.4]))
    samples = [([x, 0, 0], [0, 0, 1], eval_rss(lamp, [x, 0, 0], [0, 0, 1]))
               for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
    samples[-1] = (*samples[-1][:2], samples[-1][2] * 1e-200)
    with pytest.raises(ValueError, match="converge"):
        fit_lamp_model(samples, "polynomial", 1, lamp.position,
                       lamp.central_ray)


def test_fit_lamp_model_rejects_bad_input():
    lamp = vertical_lamp([0, 0, 3])
    good = _synth_samples(lamp, np.random.default_rng(19), n=6)

    def fit(samples=good, kind="polynomial", degree=1):
        return fit_lamp_model(samples, kind, degree, lamp.position,
                              lamp.central_ray)

    for kind in ("bogus", "cosine"):
        with pytest.raises(ProfileError, match="kind"):
            fit(kind=kind)
    for degree in (1.5, 0, -1, "2", None):
        with pytest.raises(ValueError, match="degree"):
            fit(degree=degree)
    for kind in ("polynomial", "cosine_power"):
        for s in (math.nan, math.inf, 0.0, -1.0):
            bad = [*good[:-1], (*good[-1][:2], s)]
            with pytest.raises(ValueError, match="finite and > 0"):
                fit(bad, kind)
        # A face at the lamp, or at a non-finite point.
        for center in (lamp.position, [math.nan, 0.0, 0.0]):
            bad = [*good[:-1], (center, [0, 0, 1], 1.0)]
            with pytest.raises(ValueError, match="away from the lamp"):
                fit(bad, kind)
        with pytest.raises(ValueError, match="edge-on"):
            fit([*good[:-1], ([0.0, 0.0, 0.0], [1, 0, 0], 1.0)], kind)
