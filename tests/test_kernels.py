"""The numpy solver kernel and its Levenberg-Marquardt driver."""

import numpy as np

from lightpos._kernels import _ref
from lightpos.rss import EmissionProfile
from lightpos.solve import mflp_closed_form_batch


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
        x, y, z, rms, status, _ = _ref.solve_single(
            planes, s, k, kind, coeffs, 0.0, 0.0, 1.0, max_iter=400)
        assert status == 0
        assert np.allclose([x, y, z], point, atol=1e-7)
        assert rms < 1e-8


def test_closed_form_seed_ends_after_one_iteration():
    # Three readings make a square system that the closed form already
    # solves; the refine stops on its first step, taken or rejected.
    rng = np.random.default_rng(25)
    for kind, coeffs in ((0, np.array([1.3])), (1, np.array([1.0, -0.4]))):
        profile = EmissionProfile.from_kernel_coding(kind, coeffs)
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
        x, _, status, iters = _ref.solve_batch(
            np.array(planes)[keep], np.array(s)[keep], 7.0, kind, coeffs,
            seeds[keep])
        assert np.all(status == 0)
        assert np.all(iters == 1)
        assert np.allclose(x, seeds[keep], rtol=0, atol=1e-12)
        for i in np.nonzero(keep)[0][:10]:
            single = _ref.solve_single(planes[i], s[i], 7.0, kind, coeffs,
                                       *seeds[i])
            assert single[4:] == (0, 1)


def test_singular_damped_system_raises_damping():
    # J^T J is 1e20 * ones: singular in floating point until the damping
    # outgrows its rounding, after which the solve proceeds and converges.
    def residuals(theta, rows):
        r = 1e10 * (theta[:, :1] + theta[:, 1:] - 1.0)
        jac = np.full((len(theta), 1, 2), 1e10)
        return r, jac, np.ones(len(theta), dtype=bool)

    theta, cost, status, iters = _ref.levenberg_marquardt(
        residuals, [[3.0, 2.0]], max_iter=100)
    assert status[0] == _ref.STATUS_CONVERGED
    assert iters[0] > 1
    assert abs(theta[0].sum() - 1.0) < 1e-9
