"""The numpy position solver: the Levenberg-Marquardt driver every solver
runs, the RSS model with its gradient, and the single-lamp kernel.

``levenberg_marquardt`` iterates many problems at once over a
residual-and-Jacobian callback; the single-lamp kernel (``solve_batch``,
and ``solve_single``, its batch of one), ``solve.solve_multi`` and
``solve.trilaterate`` are its callers.  The single-lamp kernel runs only
for ``solve.mflp_least_squares`` given more than three readings or a
starting point: a three-reading mflp fix is ``sim.locate_batch``'s closed
form and runs no LM, and ``sim.locate`` on mflp, or multi with m = 3, is
its batch of one.  This is the package's only solver implementation; there
is no compiled counterpart.
"""

import numpy as np

from ..rss import EmissionProfile

STATUS_CONVERGED = 0
STATUS_MAX_ITER = 1
STATUS_INFEASIBLE = 2

_EZ = np.array([0.0, 0.0, 1.0])


def rss_model(planes, k, profile, x):
    """Model values k (plane . x) f(cos omega) / |x|^3 of a lamp at x,
    cos omega = x_z / |x|, and their gradient wrt x.

    ``x`` is (..., 3) and ``planes`` (..., n, 3); returns values (..., n)
    and gradient (..., n, 3).
    """
    d = np.sqrt(np.vecdot(x, x))
    c = x[..., 2] / d
    p = np.matvec(planes, x)
    g, dg = profile.value_and_slope(c)
    d3 = d ** 3
    m = k * p * g[..., None] / d3[..., None]
    dc_dx = _EZ / d[..., None] - x[..., 2:] * x / d3[..., None]
    gradient = k * (
        planes * (g / d3)[..., None, None]
        + p[..., None] * dc_dx[..., None, :] * (dg / d3)[..., None, None]
        - (p * g[..., None] * 3.0 / d3[..., None] / d[..., None] ** 2)
        [..., None] * x[..., None, :]
    )
    return m, gradient


def _steps(a, b):
    """Solutions of a @ x = b per problem, and which problems had a
    singular matrix (their steps are zero)."""
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


def levenberg_marquardt(residuals, theta0, max_iter=100, lam0=1e-3,
                        step_tol=1e-10, ftol=1e-8):
    """Damped Gauss-Newton solves of N least-squares problems at once.

    ``residuals(theta, rows)`` evaluates the problems ``rows`` (M,) at
    parameters ``theta`` (M, p) and returns their residuals (M, n),
    Jacobians (M, n, p) and a feasibility mask (M,).  Each problem
    minimizes the sum of its squared residuals and keeps its own damping
    lambda: a feasible trial step that lowers the cost is taken and
    divides lambda by ten; any other step is rejected and multiplies it by
    ten.  A singular damped system is a rejected zero step.

    A problem stops as converged on an accepted step shorter than
    ``step_tol`` or with a relative cost reduction at most ``ftol``, and
    on a rejected step shorter than ``step_tol`` that was not singular:
    while the point stays put the damped step only shrinks as lambda
    grows, so more rejections could only end at this point too.  It
    stops unconverged when a rejected, non-singular step takes lambda
    above 1e14, or after ``max_iter`` iterations.  A problem infeasible
    at its start is not iterated.

    Returns (theta (N, p), cost (N,), status (N,), iterations (N,)), with
    status STATUS_CONVERGED, STATUS_MAX_ITER or STATUS_INFEASIBLE (cost
    inf, 0 iterations).
    """
    theta = np.array(theta0, dtype=float)
    n_problems, n_params = theta.shape
    status = np.full(n_problems, STATUS_MAX_ITER)
    iters = np.full(n_problems, max_iter)
    cost = np.full(n_problems, np.inf)
    eye = np.eye(n_params)
    # Infeasible trials may divide by zero; their values are discarded.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        act = np.arange(n_problems)
        r, jac, feasible = residuals(theta, act)
        if not feasible.all():
            status[~feasible], iters[~feasible] = STATUS_INFEASIBLE, 0
            act, r, jac = act[feasible], r[feasible], jac[feasible]
        # Working arrays of the problems still iterating; ``act`` maps
        # them back to their rows in the outputs.
        th, f = theta[act], np.vecdot(r, r)
        lam = np.full(act.size, float(lam0))
        for it in range(1, max_iter + 1):
            if not act.size:
                break
            jac_t = jac.transpose(0, 2, 1)
            step, singular = _steps(
                np.matmul(jac_t, jac) + lam[:, None, None] * eye,
                -np.matvec(jac_t, r))
            trial = th + step
            r_t, jac_trial, feasible = residuals(trial, act)
            f_t = np.vecdot(r_t, r_t)
            better = feasible & (f_t < f)
            improved = f - f_t
            step_small = np.sqrt(np.vecdot(step, step)) < step_tol
            th = np.where(better[:, None], trial, th)
            r = np.where(better[:, None], r_t, r)
            jac = np.where(better[:, None, None], jac_trial, jac)
            f = np.where(better, f_t, f)
            lam = np.where(better, np.maximum(lam * 0.1, 1e-15), lam * 10.0)
            small_gain = improved <= ftol * np.maximum(f, 1e-300)
            converged = np.where(better, step_small | small_gain,
                                 step_small & ~singular)
            done = converged | (~better & ~singular & (lam > 1e14))
            if done.any():
                rows = act[done]
                theta[rows], cost[rows], iters[rows] = th[done], f[done], it
                status[rows[converged[done]]] = STATUS_CONVERGED
                keep = ~done
                act, th, r, jac, f, lam = (act[keep], th[keep], r[keep],
                                           jac[keep], f[keep], lam[keep])
        theta[act], cost[act] = th, f
    return theta, cost, status, iters


def _position(theta):
    """Solve-frame positions from (x, y, log z) rows."""
    x = theta.copy()
    x[:, 2] = np.exp(theta[:, 2])
    return x


def _log_z_residuals(planes, s, k, profile):
    """``levenberg_marquardt`` callback of ``solve_batch`` over
    (x, y, log z) rows: relative residuals of problem ``rows`` against
    its readings, every position feasible."""
    def residuals(theta, rows):
        pl, sa = planes[rows], s[rows]
        x = _position(theta)
        m, grad = rss_model(pl, k, profile, x)
        jac = grad / sa[:, :, None]
        jac[:, :, 2] *= x[:, 2:]  # d/d(log z)
        return (m - sa) / sa, jac, np.ones(len(rows), dtype=bool)

    return residuals


def solve_batch(planes, s, k, kind, coeffs, x0, max_iter=100, lam0=1e-3,
                step_tol=1e-10, ftol=1e-8):
    """Levenberg-Marquardt solves of N single-lamp position problems.

    ``planes`` is (N, n, 3), ``s`` (N, n) and ``x0`` (N, 3); all problems
    share k and the emission profile (``EmissionProfile.kernel_coding``).
    Each minimizes sum(((m_i(X) - s_i) / s_i)^2) over X in the solve
    frame, with z > 0 enforced by iterating over log z, under the damping
    and stop rules of ``levenberg_marquardt``.  Returns (X (N, 3),
    residual_rms (N,), status (N,), iterations (N,)).
    """
    planes = np.asarray(planes, dtype=float)
    s = np.asarray(s, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    profile = EmissionProfile.from_kernel_coding(kind, coeffs)
    theta, cost, status, iters = levenberg_marquardt(
        _log_z_residuals(planes, s, k, profile),
        np.column_stack([x0[:, 0], x0[:, 1], np.log(x0[:, 2])]),
        max_iter=max_iter, lam0=lam0, step_tol=step_tol, ftol=ftol)
    return _position(theta), np.sqrt(cost / s.shape[1]), status, iters


def solve_single(planes, s, k, kind, coeffs, x0, y0, z0,
                 max_iter=100, lam0=1e-3, step_tol=1e-10, ftol=1e-8):
    """Levenberg-Marquardt solve of one single-lamp position problem: the
    batch of one of ``solve_batch``.  Returns
    (x, y, z, residual_rms, status, iterations).
    """
    x, rms, status, iters = solve_batch(
        np.asarray(planes, dtype=float)[None],
        np.asarray(s, dtype=float)[None], k, kind, coeffs,
        [[x0, y0, z0]], max_iter=max_iter, lam0=lam0, step_tol=step_tol,
        ftol=ftol)
    return (x[0, 0], x[0, 1], x[0, 2], float(rms[0]), int(status[0]),
            int(iters[0]))
