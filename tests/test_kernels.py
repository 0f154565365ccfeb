"""The Levenberg-Marquardt driver and the single-lamp least squares that
runs it."""

import numpy as np

from lightpos import solve
from lightpos.rss import make_profile
from lightpos.solve import Reading, mflp_closed_form_batch, mflp_least_squares


def kind_profile(kind, coeffs):
    return make_profile(("cosine_power", "polynomial")[kind], coeffs)


def random_problem(rng):
    point = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(0.5, 4.0)])
    while True:
        planes = rng.normal(size=(3, 3))
        planes /= np.linalg.norm(planes, axis=1)[:, None]
        dots = planes @ point
        if abs(np.linalg.det(planes)) > 0.05 and np.min(np.abs(dots)) > 0.05:
            break
    planes = np.where(dots[:, None] > 0, planes, -planes)
    k = rng.uniform(1, 50)
    if rng.uniform() < 0.5:
        kind, coeffs = 0, np.array([rng.uniform(0.5, 2.5)])
    else:
        kind, coeffs = 1, np.array([1.0, -0.4])
    d = np.linalg.norm(point)
    c = point[2] / d
    if kind == 0:
        g = c ** coeffs[0]
    else:
        g = coeffs[0] + coeffs[1] * np.arccos(c)
    s = k * (planes @ point) * g / d**3
    return planes, s, k, kind, coeffs, point


def test_reference_solver_recovers_position():
    rng = np.random.default_rng(21)
    for _ in range(100):
        planes, s, k, kind, coeffs, point = random_problem(rng)
        res = mflp_least_squares(
            [Reading(p, v) for p, v in zip(planes, s)], k,
            kind_profile(kind, coeffs), init=[0.0, 0.0, 1.0], max_iter=400)
        assert res.status == solve.STATUS_UNIQUE
        assert np.allclose(res.point, point, atol=1e-7)
        assert res.residual_rms < 1e-8


def test_closed_form_seed_ends_after_one_iteration():
    # Three readings make a square system that the closed form already
    # solves; the refine stops on its first step, taken or rejected.
    rng = np.random.default_rng(25)
    for kind, coeffs in ((0, np.array([1.3])), (1, np.array([1.0, -0.4]))):
        profile = kind_profile(kind, coeffs)
        planes = []
        s = []
        while len(planes) < 100:
            p, *_, point = random_problem(rng)
            d = np.linalg.norm(point)
            g = profile.value_and_slope(point[2] / d)[0]
            planes.append(p)
            s.append(7.0 * (p @ point) * g / d**3 * rng.uniform(0.9, 1.1, 3))
        seeds, unique, _ = mflp_closed_form_batch(planes, s, 7.0, profile)
        keep = unique & (seeds[:, 2] > 0)
        assert keep.sum() > 50
        x0 = seeds[keep]
        theta, _, status, iters = solve.levenberg_marquardt(
            solve._log_z_residuals(np.array(planes)[keep],
                                   np.array(s)[keep], 7.0, profile),
            np.column_stack([x0[:, 0], x0[:, 1], np.log(x0[:, 2])]))
        x = solve._position(theta)
        assert np.all(status == solve.STATUS_CONVERGED)
        assert np.all(iters == 1)
        assert np.allclose(x, seeds[keep], rtol=0, atol=1e-12)
        for i in np.nonzero(keep)[0][:10]:
            single = mflp_least_squares(
                [Reading(p, v) for p, v in zip(planes[i], s[i])], 7.0,
                profile, init=seeds[i])
            assert (single.status, single.iterations) == (
                solve.STATUS_UNIQUE, 1)


def test_singular_damped_system_raises_damping():
    # J^T J is 1e20 * ones: singular in floating point until the damping
    # outgrows its rounding, after which the solve proceeds and converges.
    def residuals(theta, rows):
        r = 1e10 * (theta[:, :1] + theta[:, 1:] - 1.0)
        jac = np.full((len(theta), 1, 2), 1e10)
        return r, jac, np.ones(len(theta), dtype=bool)

    theta, cost, status, iters = solve.levenberg_marquardt(
        residuals, [[3.0, 2.0]], max_iter=100)
    assert status[0] == solve.STATUS_CONVERGED
    assert iters[0] > 1
    assert abs(theta[0].sum() - 1.0) < 1e-9
