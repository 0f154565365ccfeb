"""Forward RSS model and lamp parameter fitting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lightpos.geom import solve_frame_basis
from lightpos.rss import (
    EmissionProfile,
    InsufficientSamplesError,
    LampModel,
    ProfileError,
    eval_rss,
    fit_lamp_model,
    make_profile,
)

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
    assert COS.value(0.0) == pytest.approx(1.0)
    assert COS.value(math.pi / 3) == pytest.approx(0.5)
    poly = make_profile("polynomial", [1.0, -0.5])
    assert poly.value(0.5) == pytest.approx(0.75)


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


def _synth_samples(lamp, rng, n=24):
    samples = []
    while len(samples) < n:
        center = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
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
