"""The Levenberg-Marquardt driver and the single-lamp least squares that
runs it."""

import numpy as np

from lightpos import solve
from lightpos.rss import LampTable, ProfileTable, make_profile
from lightpos.solve import mflp_closed_form_batch, mflp_least_squares


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
            planes, s, k, kind_profile(kind, coeffs), init=[0.0, 0.0, 1.0])
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
            g = profile.evaluate(point)[0]
            planes.append(p)
            s.append(7.0 * (p @ point) * g / d**3 * rng.uniform(0.9, 1.1, 3))
        seeds, unique, _ = mflp_closed_form_batch(planes, s, 7.0, profile)
        keep = unique & (seeds[:, 2] > 0)
        assert keep.sum() > 50
        # mflp_least_squares' refine: one lamp at the solve-frame origin
        # with an identity basis, the receiver at -x.
        lamp = LampTable(np.zeros((1, 3)), np.eye(3)[None], np.array([7.0]),
                         ProfileTable((profile,), np.zeros(1, dtype=np.intp)))
        p, _, status, iters = solve.levenberg_marquardt(
            solve._multi_residuals(
                np.array(planes)[keep], np.array(s)[keep],
                np.zeros((keep.sum(), 3), dtype=np.intp), lamp),
            -seeds[keep])
        x = -p
        assert np.all(status == solve.STATUS_CONVERGED)
        assert np.all(iters == 1)
        assert np.allclose(x, seeds[keep], rtol=0, atol=1e-12)
        for i in np.nonzero(keep)[0][:10]:
            single = mflp_least_squares(planes[i], s[i], 7.0, profile,
                                        init=seeds[i])
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


def test_refine_does_not_stop_at_a_far_flat_start():
    # Five noisy readings whose strongest independent triple seeds the
    # refine at a poor point.  Far up the z axis every model value is ~0
    # and each residual -1, so a refine that steps out there stops on a
    # small relative gain, unique with an RMS residual of 1.0; the fix
    # must instead explain the readings.
    planes = [[0.300609, 0.729101, 0.614854],
              [-0.232787, -0.536107, 0.811418],
              [-0.773973, 0.478816, 0.414367],
              [-0.897205, 0.110298, 0.427619],
              [-0.233211, 0.452107, 0.860936]]
    s = [2.206646, 1.158414, 1.499704, 1.618892, 1.981836]
    res = mflp_least_squares(planes, s, 46.1992,
                             make_profile("polynomial", [1.0, -0.4]))
    assert res.status == solve.STATUS_UNIQUE
    assert np.allclose(res.point, [-0.769, 1.819, 3.498], atol=1e-3)
    assert abs(res.residual_rms - 0.132) < 1e-3
