"""Tilt sensing and magnetometer ellipse auto-calibration."""

import math

import numpy as np
import pytest

from lightpos.compass import (
    AccelSample,
    AccelValidityError,
    EllipseFitError,
    EllipseParams,
    MagSample,
    calibrate_heading,
    fit_ellipse,
    gravity_image,
    pitch_roll_from_accel,
    synth_distorted_samples,
)
from lightpos.geom import Attitude


def wrap_err(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def test_pitch_roll_gravity_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(200):
        att = Attitude(rng.uniform(-1.2, 1.2), rng.uniform(-2.5, 2.5),
                       rng.uniform(0, 2 * math.pi - 1e-6))
        pitch, roll = pitch_roll_from_accel(gravity_image(att))
        assert pitch == pytest.approx(att.pitch, abs=1e-12)
        assert roll == pytest.approx(att.roll, abs=1e-12)


def test_accel_gate():
    with pytest.raises(AccelValidityError):
        pitch_roll_from_accel(AccelSample(0.0, 0.0, 0.5))
    with pytest.raises(AccelValidityError):
        pitch_roll_from_accel(AccelSample(0.0, 0.0, 1.5))


def test_mag_sample_sensor_range():
    for sensor in (6, -1, 1.5, True):
        with pytest.raises(ValueError):
            MagSample(1.0, 0.0, sensor)
    for mx, my in ((math.nan, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            MagSample(mx, my, 0)


def test_ellipse_params_validation_and_inverse():
    with pytest.raises(ValueError):
        EllipseParams(0, 0, 0.5, 1.0, 0.0)  # p < q
    dist = EllipseParams(0.3, -0.2, 1.4, 0.8, 0.7)
    ang = np.linspace(0, 2 * math.pi, 50, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    roundtrip = dist.correct(dist.apply(circle))
    assert np.allclose(roundtrip, circle, atol=1e-12)


def test_fit_ellipse_exact_recovery():
    rng = np.random.default_rng(9)
    for _ in range(50):
        truth = EllipseParams(rng.uniform(-1, 1), rng.uniform(-1, 1),
                              1.0, 1.0 / rng.uniform(1.0, 1.5),
                              rng.uniform(-1.4, 1.4))
        ang = rng.uniform(0, 2 * math.pi, size=40)
        pts = truth.apply(np.column_stack([np.cos(ang), np.sin(ang)]))
        fit = fit_ellipse(pts)
        assert fit.cx == pytest.approx(truth.cx, abs=1e-8)
        assert fit.cy == pytest.approx(truth.cy, abs=1e-8)
        assert fit.p == pytest.approx(truth.p, abs=1e-8)
        assert fit.q == pytest.approx(truth.q, abs=1e-8)
        if truth.p - truth.q > 1e-3:  # phi undefined for circles
            assert min(wrap_err(fit.phi, truth.phi),
                       wrap_err(fit.phi, truth.phi + math.pi)) < 1e-6


def test_fit_ellipse_rejects_degenerate_inputs():
    with pytest.raises(EllipseFitError):
        fit_ellipse(np.zeros((4, 2)))  # too few points
    circle = [[math.cos(a), math.sin(a)] for a in range(8)]
    for bad in ([1, 2, 3, 4, 5, 6], np.ones((8, 3)),
                circle[:7] + [[1.0, math.inf]]):
        with pytest.raises(EllipseFitError, match=r"\(n, 2\)"):
            fit_ellipse(bad)
    line = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 2, 10)])
    with pytest.raises(EllipseFitError):
        fit_ellipse(line)


def test_heading_noise_free_exact():
    rng = np.random.default_rng(5)
    for _ in range(100):
        dist = EllipseParams(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             1.0, 1.0 / rng.uniform(1.0, 1.5),
                             rng.uniform(-1.5, 1.5))
        heading = rng.uniform(0, 2 * math.pi)
        ang = rng.uniform(0, 2 * math.pi, size=60)
        fit = fit_ellipse(
            dist.apply(np.column_stack([np.cos(ang), np.sin(ang)])))
        got = calibrate_heading(synth_distorted_samples(heading, dist), fit)
        assert wrap_err(got, heading) < 1e-9


def test_heading_with_tilt_compensation():
    dist = EllipseParams(0.1, 0.05, 1.2, 0.9, 0.3)
    heading = 1.0
    ang = np.linspace(0, 2 * math.pi, 60, endpoint=False)
    fit = fit_ellipse(dist.apply(np.column_stack([np.cos(ang), np.sin(ang)])))
    # Board-plane components shrink by the tilt cosines before reaching
    # the sensors; the calibration rescales them back.
    pitch, roll = 0.2, -0.15
    raw = synth_distorted_samples(heading, dist)
    # Apply the tilt to the undistorted field, then re-distort.
    undist = dist.correct(np.array([[s.mx, s.my] for s in raw]))
    undist[:, 0] *= math.cos(pitch)
    undist[:, 1] *= math.cos(roll)
    redist = dist.apply(undist)
    tilted = [MagSample(redist[i, 0], redist[i, 1], i) for i in range(6)]
    got = calibrate_heading(tilted, fit, pitch=pitch, roll=roll)
    assert wrap_err(got, heading) < 1e-9
    for bad in ({"pitch": math.nan}, {"roll": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            calibrate_heading(tilted, fit, **bad)


def test_heading_noisy_median_below_two_degrees():
    errs = []
    for t in range(200):
        rng = np.random.default_rng((77, t))
        dist = EllipseParams(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             1.0, 1.0 / rng.uniform(1.0, 1.5),
                             rng.uniform(-1.5, 1.5))
        heading = rng.uniform(0, 2 * math.pi)
        ang = rng.uniform(0, 2 * math.pi, size=200)
        pts = dist.apply(np.column_stack([np.cos(ang), np.sin(ang)]))
        fit = fit_ellipse(pts + rng.normal(0, 0.01, size=pts.shape))
        samples = synth_distorted_samples(heading, dist, noise_sd=0.01,
                                          seed=int(rng.integers(2**32)))
        errs.append(wrap_err(calibrate_heading(samples, fit), heading))
    assert math.degrees(float(np.median(errs))) < 2.0


def test_per_sensor_gain_correction():
    dist = EllipseParams(0.0, 0.0, 1.1, 0.9, 0.2)
    heading = 2.0
    gains = np.array([1.0, 1.1, 0.9, 1.05, 0.95, 1.2])
    ang = np.linspace(0, 2 * math.pi, 60, endpoint=False)
    fit = fit_ellipse(dist.apply(np.column_stack([np.cos(ang), np.sin(ang)])))
    samples = synth_distorted_samples(heading, dist, gains=gains)
    got = calibrate_heading(samples, fit, gains=gains)
    assert wrap_err(got, heading) < 1e-9


def test_synth_samples_deterministic():
    dist = EllipseParams(0.1, 0.1, 1.2, 0.8, 0.5)
    a = synth_distorted_samples(1.0, dist, noise_sd=0.01, seed=3)
    b = synth_distorted_samples(1.0, dist, noise_sd=0.01, seed=3)
    assert all(x == y for x, y in zip(a, b))
