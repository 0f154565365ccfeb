"""The Levenberg-Marquardt driver, the single-lamp least squares that
runs it, and the driver against a reference copy of its masked-update
loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lightpos import solve
from lightpos.geom import solve_frame_basis
from lightpos.rss import LampTable, ProfileTable, make_profile, rss_model
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


def _ref_steps(a, b):
    """The driver's damped solves, as ``_ref_levenberg_marquardt`` takes
    them: steps, and which problems had a singular matrix."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], \
            np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros(b.shape)
        singular = np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


def _ref_levenberg_marquardt(residuals, theta0, max_iter=100, kinds=None):
    """``solve.levenberg_marquardt`` as one masked update: every
    iteration takes or rejects each problem's trial through np.where,
    whatever the batch's outcomes.  ``kinds``, a set, collects the
    iterations' outcomes: "all" accepted, "none" or "mixed"."""
    theta = np.array(theta0, dtype=float)
    n_problems, n_params = theta.shape
    status = np.full(n_problems, solve.STATUS_MAX_ITER)
    iters = np.full(n_problems, max_iter)
    cost = np.full(n_problems, np.inf)
    eye = np.eye(n_params)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        act = np.arange(n_problems)
        r, jac, feasible = residuals(theta, slice(None))
        if not feasible.all():
            status[~feasible], iters[~feasible] = solve.STATUS_INFEASIBLE, 0
            act, r, jac = act[feasible], r[feasible], jac[feasible]
        th, f = theta[act], np.vecdot(r, r)
        lam = np.full(act.size, solve.LM_LAMBDA0)
        for it in range(1, max_iter + 1):
            if not act.size:
                break
            jac_t = jac.transpose(0, 2, 1)
            step, singular = _ref_steps(
                np.matmul(jac_t, jac) + lam[:, None, None] * eye,
                -np.matvec(jac_t, r))
            trial = th + step
            r_t, jac_trial, feasible = residuals(
                trial, act if act.size < n_problems else slice(None))
            f_t = np.vecdot(r_t, r_t)
            better = feasible & (f_t < f)
            if kinds is not None:
                kinds.add("all" if better.all() else
                          "mixed" if better.any() else "none")
            improved = f - f_t
            step_small = np.sqrt(np.vecdot(step, step)) < solve.LM_STEP_TOL
            th = np.where(better[:, None], trial, th)
            r = np.where(better[:, None], r_t, r)
            jac = np.where(better[:, None, None], jac_trial, jac)
            f = np.where(better, f_t, f)
            lam = np.where(better, np.maximum(lam * 0.1, 1e-15), lam * 10.0)
            small_gain = improved <= solve.LM_FTOL * np.maximum(f, 1e-300)
            converged = np.where(better, step_small | small_gain,
                                 step_small & ~singular)
            done = converged | (~better & ~singular & (lam > 1e14))
            if done.any():
                rows = act[done]
                theta[rows], cost[rows], iters[rows] = th[done], f[done], it
                status[rows[converged[done]]] = solve.STATUS_CONVERGED
                keep = ~done
                act, th, r, jac, f, lam = (act[keep], th[keep], r[keep],
                                           jac[keep], f[keep], lam[keep])
        theta[act], cost[act] = th, f
    return theta, cost, status, iters


def _lm_problems(seed, n_problems, n_lamps, n_readings, fixed_height,
                 spread, infeasible):
    """A batch of ``_multi_residuals`` problems and their starts: lamps
    with tilted rays and both profile kinds over a 6 x 6 m plan, each
    problem n readings of random faces at a random receiver, read with
    up to 20% error, and a start ``spread`` metres off the receiver
    (plan-view only at a fixed height).  With ``infeasible``, the first
    problem starts above the lamps.  Returns (callback, starts)."""
    rng = np.random.default_rng(seed)
    position = np.column_stack([rng.uniform(0, 6, n_lamps),
                                rng.uniform(0, 6, n_lamps),
                                rng.uniform(2.5, 3.5, n_lamps)])
    basis = np.array([solve_frame_basis(
        [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), -1.0])
        for _ in range(n_lamps)])
    profiles = (make_profile("cosine_power", [1.7]),
                make_profile("polynomial", [1.0, -0.4]))
    lamps = LampTable(position, basis, rng.uniform(5, 50, n_lamps),
                      ProfileTable(profiles, rng.integers(0, 2, n_lamps)))
    receiver = np.column_stack([rng.uniform(1, 5, n_problems),
                                rng.uniform(1, 5, n_problems),
                                rng.uniform(0, 1.5, n_problems)])
    lamp_ids = rng.integers(0, n_lamps, (n_problems, n_readings))
    x = np.matvec(basis[lamp_ids].transpose(0, 1, 3, 2),
                  position[lamp_ids] - receiver[:, None])
    planes = x / np.linalg.norm(x, axis=-1)[..., None] + rng.normal(
        scale=0.4, size=x.shape)
    planes /= np.linalg.norm(planes, axis=-1)[..., None]
    planes *= np.sign(np.vecdot(planes, x))[..., None]
    s = rss_model(planes[:, :, None], lamps.k[lamp_ids],
                  lamps.profiles.take(lamp_ids), x, gradient=False)[0][..., 0]
    s *= rng.uniform(0.8, 1.2, s.shape)
    start = receiver + rng.normal(scale=spread, size=receiver.shape)
    if infeasible:
        start[0, 2] = 10.0
    residuals = solve._multi_residuals(planes, s, lamp_ids, lamps)
    if fixed_height:
        return solve._at_heights(residuals, start[:, 2]), start[:, :2]
    return residuals, start


def _assert_driver_matches_reference(residuals, start, max_iter=100):
    """The driver and the reference loop give the same bits; returns the
    reference's iteration outcomes."""
    kinds = set()
    want = _ref_levenberg_marquardt(residuals, start, max_iter, kinds)
    got = solve.levenberg_marquardt(residuals, start, max_iter)
    for name, a, b in zip(("theta", "cost", "status", "iterations"),
                          got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    return kinds


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_problems=st.integers(1, 6),
       n_lamps=st.integers(1, 4), n_readings=st.integers(3, 9),
       fixed_height=st.booleans(),
       spread=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
       infeasible=st.booleans(), max_iter=st.sampled_from([1, 3, 100]))
def test_driver_matches_masked_update_reference(
        seed, n_problems, n_lamps, n_readings, fixed_height, spread,
        infeasible, max_iter):
    # Batches in which trials are taken and rejected together or apart,
    # starts that are infeasible, unconverged ends at the cap: the
    # driver's uniform-outcome branches and its masked update must give
    # the reference's every bit.
    residuals, start = _lm_problems(seed, n_problems, n_lamps, n_readings,
                                    fixed_height, spread, infeasible)
    _assert_driver_matches_reference(residuals, start, max_iter)


def test_driver_reference_cases_take_every_path():
    # Fixed batches that reach each kind of iteration: a mixed batch (some
    # trials taken, others rejected), single problems (all or none), an
    # infeasible start, and the singular damped system of
    # test_singular_damped_system_raises_damping.
    kinds = set()
    for seed in range(12):
        for fixed_height in (False, True):
            kinds |= _assert_driver_matches_reference(*_lm_problems(
                seed, 5, 3, 6, fixed_height, 0.5, False))
    assert "mixed" in kinds
    # Many single problems: a strided Jacobian kept past a rejected first
    # step changes the bits of only a few percent of the fixed-height ones.
    single = set()
    for seed in range(150):
        single |= _assert_driver_matches_reference(*_lm_problems(
            seed, 1, 2, 4 + seed % 3, seed % 4 != 0, 2.0, False))
    assert single == {"all", "none"}

    # A callback's strided residuals are taken as np.where's contiguous
    # copies of them are.
    def strided(residuals):
        def wrapped(theta, rows):
            r, jac, feasible = residuals(theta, rows)
            return np.repeat(r[..., None], 2, axis=-1)[..., 0], jac, feasible
        return wrapped

    for seed in range(40):
        residuals, start = _lm_problems(seed, 1 + seed % 2, 2, 4 + seed % 3,
                                        seed % 4 == 0, 2.0, False)
        _assert_driver_matches_reference(strided(residuals), start)
    residuals, start = _lm_problems(3, 3, 2, 4, False, 0.1, True)
    _assert_driver_matches_reference(residuals, start)
    assert solve.levenberg_marquardt(residuals, start)[2][0] == \
        solve.STATUS_INFEASIBLE
    residuals, start = _lm_problems(4, 1, 2, 4, True, 0.1, True)
    _assert_driver_matches_reference(residuals, start)

    def singular(theta, rows):
        r = 1e10 * (theta[:, :1] + theta[:, 1:] - 1.0)
        jac = np.full((len(theta), 1, 2), 1e10)
        return r, jac, np.ones(len(theta), dtype=bool)

    assert "none" in _assert_driver_matches_reference(singular, [[3.0, 2.0]])
    # The singular problem beside a regular one: the batch solve fails and
    # falls back to one solve per problem.
    def pair(theta, rows):
        r, jac, feasible = singular(theta, rows)
        scale = np.where(np.arange(2)[rows] == 0, 1.0, 1e-10)
        jac = jac * scale[:, None, None]
        jac[:, 0, 1] *= np.where(np.arange(2)[rows] == 0, 1.0, 0.5)
        return r * scale[:, None], jac, feasible

    _assert_driver_matches_reference(pair, [[3.0, 2.0], [3.0, 2.0]])
