"""Position solvers: single-lamp multi-face closed form and least
squares, the m-reading multi-lamp generalization, and trilateration.

``levenberg_marquardt`` is the one least-squares driver: it iterates many
problems at once over a residual-and-Jacobian callback, and
``mflp_least_squares``, ``solve_multi`` and ``trilaterate_batch`` each
build their callback over ``rss_model`` and run it once.  Its damping
start and convergence tolerances are module constants; only the iteration
cap differs between callers: 400 for ``solve_multi``, 100 otherwise.
There is no compiled counterpart.

All single-lamp solving happens in the lamp-aligned solve frame (+z
anti-parallel to the central ray, receiver at the origin); the lamp
position in that frame is the unknown.  Three readings make a square
system, so a three-reading single-lamp fix is the closed form itself.
More readings, or a caller-supplied starting point, are refined by the
multi-lamp world model (``_multi_residuals``) on one lamp, at the
solve-frame origin with an identity basis, capped at 100 iterations.
Residuals are relative, (model - measured) / measured, matching the
sensor's multiplicative error structure; ``sim.locate_batch`` passes k
times 2/pi, the flash fundamental.  Face planes are oriented so their
coefficients dot positively with the lamp position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geom import unit
from .rss import EmissionProfile, LampModel, LampTable, ProfileTable

STATUS_UNIQUE = "unique"
STATUS_DEGENERATE = "degenerate"
STATUS_NO_CONVERGE = "no_converge"

# Readings below this fraction of a lamp's strongest reading are dropped:
# a nearly edge-on face contributes more error than constraint.
RSS_FLOOR_FRACTION = 0.01

INDEPENDENCE_TOL = 1e-6

# ``levenberg_marquardt``'s per-problem outcomes.
STATUS_CONVERGED = 0
STATUS_MAX_ITER = 1
STATUS_INFEASIBLE = 2

# ``levenberg_marquardt``'s starting damping, and its convergence tests: a
# step shorter than LM_STEP_TOL, or a relative cost reduction of at most
# LM_FTOL.
LM_LAMBDA0 = 1e-3
LM_STEP_TOL = 1e-10
LM_FTOL = 1e-8

_EZ = np.array([0.0, 0.0, 1.0])


def rss_model(planes, k, profile, x):
    """Model values k (plane . x) f(cos omega) / |x|^3 of a lamp at x,
    cos omega = x_z / |x|, and their gradient wrt x.

    ``x`` is (..., 3), ``planes`` (..., n, 3) and ``k`` and ``profile``
    one or a ``ProfileTable`` over (...); returns values (..., n) and
    gradient (..., n, 3).
    """
    k = np.asarray(k)[..., None]
    d = np.sqrt(np.vecdot(x, x))
    c = x[..., 2] / d
    p = np.matvec(planes, x)
    g, dg = profile.value_and_slope(c)
    d3 = d ** 3
    m = k * p * g[..., None] / d3[..., None]
    dc_dx = _EZ / d[..., None] - x[..., 2:] * x / d3[..., None]
    gradient = k[..., None] * (
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


def levenberg_marquardt(residuals, theta0, max_iter: int = 100):
    """Damped Gauss-Newton solves of N least-squares problems at once.

    ``residuals(theta, rows)`` evaluates the problems ``rows`` at
    parameters ``theta`` (M, p) and returns their residuals (M, n),
    Jacobians (M, n, p) and a feasibility mask (M,); ``rows`` is an index
    array (M,), or a whole slice while every problem is iterating.  Each
    problem minimizes the sum of its squared residuals and keeps its own
    damping lambda, LM_LAMBDA0 at the start: a feasible trial step that
    lowers the cost is taken and divides lambda by ten; any other step is
    rejected and multiplies it by ten.  A singular damped system is a
    rejected zero step.

    A problem stops as converged on an accepted step shorter than
    LM_STEP_TOL or with a relative cost reduction at most LM_FTOL, and
    on a rejected step shorter than LM_STEP_TOL that was not singular:
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
        r, jac, feasible = residuals(theta, slice(None))
        if not feasible.all():
            status[~feasible], iters[~feasible] = STATUS_INFEASIBLE, 0
            act, r, jac = act[feasible], r[feasible], jac[feasible]
        # Working arrays of the problems still iterating; ``act`` maps
        # them back to their rows in the outputs.
        th, f = theta[act], np.vecdot(r, r)
        lam = np.full(act.size, LM_LAMBDA0)
        for it in range(1, max_iter + 1):
            if not act.size:
                break
            jac_t = jac.transpose(0, 2, 1)
            step, singular = _steps(
                np.matmul(jac_t, jac) + lam[:, None, None] * eye,
                -np.matvec(jac_t, r))
            trial = th + step
            r_t, jac_trial, feasible = residuals(
                trial, act if act.size < n_problems else slice(None))
            f_t = np.vecdot(r_t, r_t)
            better = feasible & (f_t < f)
            improved = f - f_t
            step_small = np.sqrt(np.vecdot(step, step)) < LM_STEP_TOL
            th = np.where(better[:, None], trial, th)
            r = np.where(better[:, None], r_t, r)
            jac = np.where(better[:, None, None], jac_trial, jac)
            f = np.where(better, f_t, f)
            lam = np.where(better, np.maximum(lam * 0.1, 1e-15), lam * 10.0)
            small_gain = improved <= LM_FTOL * np.maximum(f, 1e-300)
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


def _lm_fixes(n_fix, rows, points, cost, status, iterations, n):
    """``SolveResult`` fields of N fixes as arrays: ``rows`` are
    ``levenberg_marquardt``'s problems of n residuals at ``points`` (NaN
    for an infeasible start), the others degenerate."""
    out = degenerate_fixes(n_fix)
    out[0][rows] = np.where((status == STATUS_INFEASIBLE)[:, None], np.nan,
                            points)
    out[1][rows] = np.where(status == STATUS_CONVERGED, STATUS_UNIQUE,
                            STATUS_NO_CONVERGE)
    out[2][rows], out[3][rows] = np.sqrt(cost / n), iterations
    return out


def degenerate_fixes(n_fix: int):
    """(points, status, residual, iterations) of N degenerate fixes."""
    return (np.full((n_fix, 3), np.nan),
            np.full(n_fix, STATUS_DEGENERATE,
                    dtype=f"<U{len(STATUS_NO_CONVERGE)}"),
            np.full(n_fix, math.inf), np.zeros(n_fix, dtype=np.int64))


@dataclass(frozen=True)
class SolveResult:
    point: np.ndarray
    residual_rms: float
    status: str
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_UNIQUE


def mflp_closed_form_batch(planes, s, k, profile):
    """Exact single-lamp solves of N problems of three readings each.

    ``planes`` is (N, 3, 3), unit sensing planes, and ``s`` (N, 3); ``k``
    and ``profile`` are one or per problem (N,).  Dividing pairs of model
    equations cancels the distance and emission factors, leaving two
    homogeneous linear equations; the lamp direction is their null space,
    and the remaining scale follows from the equations using z > 0.
    Returns (points (N, 3), unique (N,), residual (N,)), the residual
    being the relative RMS residual of the readings at the point; a
    problem is degenerate, with a NaN point and an infinite residual, when
    its planes are not linearly independent, its null space is not a
    direction with z != 0, or the data is inconsistent with a lamp in the
    solver's domain.
    """
    planes = np.asarray(planes, dtype=float)
    s = np.asarray(s, dtype=float)
    # A subnormal amplitude overflows its row to inf, and a subnormal
    # plane coefficient can overflow the determinant; the NaN or inf that
    # gives fails the checks below, so the problem is degenerate.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        unique = np.abs(np.linalg.det(planes)) > INDEPENDENCE_TOL
        rows = planes / s[:, :, None]
        # The cross product a x b written out: the arithmetic of np.cross
        # in its order, without its overhead on (N, 3) rows.
        a0, a1, a2 = (rows[:, 0] - rows[:, 1]).T
        b0, b1, b2 = (rows[:, 0] - rows[:, 2]).T
        direction = np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                                     a0 * b1 - a1 * b0])
        unique &= ((np.sqrt(np.vecdot(direction, direction)) >= 1e-12)
                   & (np.abs(direction[:, 2]) >= 1e-12))
        direction = np.where(direction[:, 2:] < 0, -direction, direction)
        c1 = direction[:, 0] / direction[:, 2]
        c2 = direction[:, 1] / direction[:, 2]
        norm2 = 1.0 + c1 * c1 + c2 * c2
        cos_w = 1.0 / np.sqrt(norm2)
        f = profile.value(np.arccos(np.where(unique, cos_w, 1.0)))
        dots = np.matvec(planes, np.column_stack([c1, c2, np.ones_like(c1)]))
        # Sign assumptions violated: the data is inconsistent with a lamp
        # in the solver's domain.
        unique &= np.all(dots > 0, axis=1) & (f > 0)
        z_sq = np.asarray(k)[..., None] * dots * f[:, None] / (
            s * (norm2 ** 1.5)[:, None])
        # Means over the three readings written out: np.mean's sum in its
        # order, without a reduction loop per row.
        mean_z_sq = (z_sq[:, 0] + z_sq[:, 1] + z_sq[:, 2]) / 3
        z = np.sqrt(mean_z_sq)
        # Each reading's model value at the point over its amplitude is
        # its z_sq over z**2.
        r0, r1, r2 = (z_sq / mean_z_sq[:, None] - 1.0).T
        residual = np.sqrt((r0 * r0 + r1 * r1 + r2 * r2) / 3)
    points = np.column_stack([c1 * z, c2 * z, z])
    points[~unique] = np.nan
    residual[~unique] = np.inf
    return points, unique, residual


def mflp_least_squares(planes, s, k: float, profile: EmissionProfile,
                       init=None) -> SolveResult:
    """Single-lamp solve over n >= 3 readings of one lamp: sensing planes
    (n, 3) in its solve frame, each normalized here as ``geom.unit`` does,
    and amplitudes ``s`` (n,), each positive and finite.

    Without an initial point, the closed form on the strongest independent
    plane triple is the start: the first triple, in ``combinations``
    order over the readings sorted stably by s descending, whose |det|
    exceeds INDEPENDENCE_TOL.  With exactly three readings that triple is
    the whole square system, so ``mflp_closed_form_batch``'s point and
    residual are the fix (0 iterations).  More readings, or a supplied
    ``init``, are refined by ``levenberg_marquardt`` from there, over
    ``_multi_residuals`` of one lamp at the solve-frame origin with an
    identity basis: the receiver is at -x there, so the start is -init
    and the fix the negated solution.
    """
    shapes = [np.shape(p) for p in planes if np.shape(p) != (3,)]
    if shapes:
        raise ValueError("a reading's plane needs three coefficients, "
                         f"got shape {shapes[0]}")
    planes = np.array([unit(p) for p in planes]).reshape(-1, 3)
    s = np.asarray(s, dtype=float)
    if s.shape != planes.shape[:1]:
        raise ValueError(f"need one amplitude per plane, got {s.shape} "
                         f"for {len(planes)} planes")
    if not np.all((0 < s) & (s < math.inf)):
        raise ValueError("reading amplitude must be positive and finite")
    if len(s) < 3:
        raise ValueError("least squares needs at least three readings")
    if not 0 < k < math.inf:
        raise ValueError("lamp intensity constant must be positive and finite")

    closed_form = init is None
    if closed_form:
        triples = np.array(list(combinations(
            np.argsort(-s, kind="stable"), 3)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = np.linalg.det(planes[triples])
        # With no independent triple, the first one is degenerate.
        triple = triples[np.argmax(np.abs(det) > INDEPENDENCE_TOL)]
        seeds, unique, residual = mflp_closed_form_batch(
            planes[triple][None], s[triple][None], k, profile)
        if not unique[0]:
            return SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)
        init = seeds[0]
    init = np.asarray(init, dtype=float)
    if init[2] <= 0:
        raise ValueError("initial point must have z > 0 in the solve frame")
    if closed_form and len(s) == 3:
        return SolveResult(init, float(residual[0]), STATUS_UNIQUE)

    lamp = LampTable(np.zeros((1, 3)), np.eye(3)[None], np.array([float(k)]),
                     ProfileTable((profile,), np.zeros(1, dtype=np.intp)))
    p, cost, status, iters = levenberg_marquardt(
        _multi_residuals(planes[None], s[None],
                         np.zeros((1, len(s)), dtype=np.intp), lamp),
        -init[None])
    points, status, residual, iters = _lm_fixes(1, [0], -p, cost, status,
                                                iters, len(s))
    return SolveResult(points[0], float(residual[0]), status[0],
                       int(iters[0]))


def _rank_readings(s, valid):
    """Reading selection over arrays (N, lamps, faces) of amplitudes.

    Per fix and lamp, valid readings are ordered by s descending, ties in
    face order, and the lamp is kept when three of them reach 1% of its
    strongest.  The best lamp is the kept one with the greatest top-three
    mean, the first lamp on ties.  Returns (order (N, lamps, faces), the
    amplitudes in that order (0 where invalid), kept (N, lamps),
    best (N,)); ``best`` is meaningless for a fix that keeps no lamp.
    """
    # Fewer than one lamp or three faces: pad with invalid readings, which
    # keep no lamp.
    pad = [(0, 0)] * (s.ndim - 2) + [(0, max(0, 1 - s.shape[-2])),
                                     (0, max(0, 3 - s.shape[-1]))]
    if pad[-2][1] or pad[-1][1]:
        s, valid = np.pad(s, pad), np.pad(valid, pad)
    order = np.argsort(np.where(valid, -s, np.inf), axis=-1, kind="stable")
    s_sorted = np.take_along_axis(np.where(valid, s, 0.0), order, axis=-1)
    # The valid readings, and of them those above the floor, are prefixes
    # of the sorted ones.
    floor = RSS_FLOOR_FRACTION * s_sorted[..., 0]
    kept = (valid.sum(axis=-1) >= 3) & (s_sorted[..., 2] >= floor)
    # np.mean's sum, in its order.
    mean3 = (s_sorted[..., 0] + s_sorted[..., 1] + s_sorted[..., 2]) / 3
    return order, s_sorted, kept, np.argmax(np.where(kept, mean3, -np.inf),
                                            axis=-1)


def select_top_readings(s, valid):
    """The three-reading selection of N fixes (``_rank_readings``), from
    (N, lamps, faces) amplitudes and validity, as ``select_pooled_readings``
    returns it: the best lamp's three strongest readings, strongest first,
    and a count of 3, or 0 (the row meaningless) where no lamp keeps three
    readings.
    """
    order, _, kept, best = _rank_readings(np.asarray(s, dtype=float),
                                          np.asarray(valid, dtype=bool))
    return (np.repeat(best[:, None], 3, axis=1),
            order[np.arange(len(best)), best, :3], 3 * kept.any(axis=-1))


def select_pooled_readings(s, valid, m: int):
    """The m-reading selection of N fixes, from (N, lamps, faces)
    amplitudes and validity: each kept lamp's three strongest readings
    (``_rank_readings``), pooled in lamp order and sorted stably by s
    descending; the first m are chosen.  Returns their (lamps (N, w),
    faces (N, w)) and count (N,), min(m, 3 x kept lamps); entries past a
    fix's count are meaningless.  Raises ValueError when m < 3.
    """
    if m < 3:
        raise ValueError("at least three readings are required to solve")
    order, s_sorted, kept, _ = _rank_readings(
        np.asarray(s, dtype=float), np.asarray(valid, dtype=bool))
    pooled = (len(kept), 3 * kept.shape[1])
    lamp_ids = np.repeat(np.arange(kept.shape[1]), 3)
    pool = np.where(np.repeat(kept, 3, axis=1),
                    -s_sorted[..., :3].reshape(pooled), np.inf)
    pick = np.argsort(pool, axis=1, kind="stable")[:, :m]
    faces = np.take_along_axis(order[..., :3].reshape(pooled), pick, 1)
    return lamp_ids[pick], faces, np.minimum(m, 3 * kept.sum(axis=1))


def to_world_position(lamp: LampModel, x_solve) -> np.ndarray:
    """Receiver world position from the lamp's solve-frame solution; x_solve
    may be one point (3,) or several (N, 3)."""
    return lamp.position - np.matvec(lamp.solve_basis,
                                     np.asarray(x_solve, dtype=float))


def closed_form_fixes(planes, s, lamp_ids, lamps: LampTable):
    """World fixes of N problems in closed form, each three readings of
    one lamp, ``lamp_ids[:, 0]``: ``mflp_closed_form_batch`` with each
    lamp's k and profile.  A fix must also put the lamp above the
    receiver (solve-frame z > 0).  Returns (points (N, 3), unique (N,),
    residual (N,)); a fix that is not unique has a NaN point and an
    infinite residual."""
    lamp_of = lamp_ids[:, 0]
    x, unique, rms = mflp_closed_form_batch(
        planes, s, lamps.k[lamp_of], lamps.profiles.take(lamp_of))
    unique &= x[:, 2] > 0
    # to_world_position, each fix with its own lamp.
    world = lamps.position[lamp_of] - np.matvec(lamps.basis[lamp_of], x)
    return (np.where(unique[:, None], world, np.nan), unique,
            np.where(unique, rms, np.inf))


def _multi_residuals(planes, s, lamp_ids, lamps):
    """``levenberg_marquardt`` callback of ``solve_multi`` and
    ``mflp_least_squares`` over world positions (M, 3): each reading's
    relative residual in its own lamp's solve frame, feasible when every
    lamp is above (solve-frame z > 0)."""
    position, basis = lamps.position[lamp_ids], lamps.basis[lamp_ids]
    k = lamps.k[lamp_ids]
    planes = planes[:, :, None, :]

    def residuals(p, rows):
        b, sa, li = basis[rows], s[rows], lamp_ids[rows]
        # Per reading, the lamp's solve-frame position x = B^T (L - p).
        x = np.matvec(b.transpose(0, 1, 3, 2), position[rows] - p[:, None])
        m, grad = rss_model(planes[rows], k[rows], lamps.profiles.take(li), x)
        return ((m[..., 0] - sa) / sa,
                -np.matvec(b, grad[..., 0, :]) / sa[..., None],
                np.all(x[..., 2] > 0, axis=1))

    return residuals


def solve_multi(planes, s, lamp_ids, lamps: LampTable):
    """Joint least squares over the world positions of N receivers.

    ``planes`` (N, n, 3) are unit sensing planes in the solve frames of
    the readings' lamps ``lamp_ids`` (N, n), at most three per lamp, and
    ``s`` (N, n) their amplitudes, modeled with the k of ``lamps``.  The
    seed is the unique closed form (``closed_form_fixes``) of the lamp with
    three readings of the greatest mean amplitude, the first on ties; a
    problem with none is degenerate.  The refine is capped at 400
    iterations.  Returns (points (N, 3), status, residual, iterations),
    the fields of a ``SolveResult`` per problem.
    """
    # Each problem's readings grouped by lamp, in their order: a lamp's
    # three readings are the runs of three equal lamp indices.
    order = np.argsort(lamp_ids, axis=1, kind="stable")
    grouped = np.take_along_axis(lamp_ids, order, axis=1)
    if (grouped[:, 3:] == grouped[:, :-3]).any():
        raise ValueError("a problem takes at most three readings of a lamp")
    fix, first = np.nonzero(grouped[:, 2:] == grouped[:, :-2])
    chosen = (fix[:, None], order[fix[:, None], first[:, None] + np.arange(3)])
    seeds, unique, _ = closed_form_fixes(
        planes[chosen], s[chosen], grouped[fix, first, None], lamps)
    s3 = s[chosen]
    # np.mean's sum, in reading order.
    mean = np.where(unique, (s3[:, 0] + s3[:, 1] + s3[:, 2]) / 3, -np.inf)
    # Per problem, its lamps by mean descending, stably in lamp order.
    by_mean = np.lexsort((-mean, fix))
    best = by_mean[np.unique(fix[by_mean], return_index=True)[1]]
    best = best[mean[best] > -np.inf]

    seeded = fix[best]
    p, cost, status, iters = levenberg_marquardt(
        _multi_residuals(planes[seeded], s[seeded], lamp_ids[seeded], lamps),
        seeds[best], max_iter=400)
    return _lm_fixes(len(s), seeded, p, cost, status, iters, s.shape[1])


def _invert_distances(k, profile, dz, s):
    """Per lamp, the distance d >= dz at which an upward face reads s:
    s(d) = k dz f(dz / d) / d^3 decreases in d.  Bisects all lamps at
    once until no interval shrinks any more."""
    kdz = k * dz

    def val(d):
        return kdz * profile.value_and_slope(dz / d)[0] / d**3

    lo, hi = dz * (1 + 1e-9), dz + 1.0
    grow = (val(hi) > s) & (hi < dz + 1e6)
    while grow.any():
        hi = np.where(grow, hi * 2.0, hi)
        grow = (val(hi) > s) & (hi < dz + 1e6)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = val(mid) > s
        if not np.where(above, mid != lo, mid != hi).any():
            break
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _trilateration_residuals(lamps, k, profiles, s, z_receiver=None):
    """``levenberg_marquardt`` callback of ``trilaterate_batch`` over
    positions (M, 3), or (M, 2) at heights ``z_receiver``: each reading an
    upward face's model of its lamp, feasible below every lamp."""
    def residuals(theta, rows):
        q = theta if z_receiver is None else np.column_stack(
            [theta, z_receiver[rows]])
        x = lamps[rows] - q[:, None, :]
        sa = s[rows]
        m, grad = rss_model(_EZ[None, None], k[rows], profiles.take(rows), x)
        jac = -grad[:, :, 0, :theta.shape[1]] / sa[..., None]
        return (m[:, :, 0] - sa) / sa, jac, np.all(x[:, :, 2] > 0, axis=1)

    return residuals


# Huge finite inputs may overflow the geometry and the range seed; such
# problems end degenerate or unconverged, without warnings.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def trilaterate_batch(lamps, k, profiles: ProfileTable, s, z_receiver=None):
    """Horizontal-face receiver positions of N problems, each from n >= 3
    vertically hung lamps: the classic three-sphere geometry.

    ``lamps`` (N, n, 3) are the lamp positions, ``k`` (N, n) and
    ``profiles`` their intensity constants and emission profiles, ``s``
    (N, n) the upward face's readings, and ``z_receiver`` (N,) the
    receivers' heights, or None for free ones starting at 0.  Lamps
    collinear in plan view (no plan-view triangle of them spans 1e-9 of
    their squared plan-view spread, at least 1) are degenerate.  Ranges
    inverted at the starting height seed a linear lateration, refined by
    least squares.  Returns the fields of a ``SolveResult`` per problem,
    (points (N, 3), status, residual, iterations), and below (N,), False
    where a problem that is not degenerate does not start below every
    lamp; it too has a NaN point.
    """
    n_fix, n = s.shape
    z_fixed = z_receiver is not None
    z0 = np.asarray(z_receiver, dtype=float) if z_fixed else np.zeros(n_fix)
    xy = lamps[..., :2]
    centered = xy - xy.mean(axis=1)[:, None]
    spread = np.sqrt(np.vecdot(centered, centered)).max(axis=1)
    a, b, c = (xy[:, i] for i in np.array(list(combinations(range(n), 3))).T)
    u, v = b - a, c - a
    area = 0.5 * np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
                        ).max(axis=1)
    spanned = ~(area < 1e-9 * np.maximum(spread, 1.0) ** 2)
    dz0 = lamps[..., 2] - z0[:, None]
    below = ~spanned | np.all(dz0 > 0, axis=1)
    rows = np.flatnonzero(spanned & below)

    # Linear lateration seed from inverted ranges at the initial height.
    lamps, s, k, dz0 = lamps[rows], s[rows], k[rows], dz0[rows]
    profiles = profiles.take(rows)
    d_est = _invert_distances(k, profiles, dz0, s)
    lhs = 2 * (lamps[:, 1:, :2] - lamps[:, :1, :2])
    rhs = (d_est[:, :1] ** 2 - d_est[:, 1:] ** 2
           + np.sum(lamps[:, 1:, :2] ** 2, axis=2)
           - np.sum(lamps[:, :1, :2] ** 2, axis=2)
           + dz0[:, 1:] ** 2 - dz0[:, :1] ** 2)
    xy = np.matvec(np.linalg.pinv(lhs), rhs)

    z0 = z0[rows]
    theta, cost, status, iters = levenberg_marquardt(
        _trilateration_residuals(lamps, k, profiles, s,
                                 z0 if z_fixed else None),
        xy if z_fixed else np.column_stack([xy, z0]))
    points = np.column_stack([theta, z0]) if z_fixed else theta
    return (*_lm_fixes(n_fix, rows, points, cost, status, iters, n), below)


def trilaterate(lamp_positions, k: float, profile: EmissionProfile,
                s, z_receiver=None) -> SolveResult:
    """Solve a horizontal-face receiver position from three or more
    vertically hung lamps sharing one intensity model: the batch of one
    of ``trilaterate_batch`` on checked inputs.  A start not below every
    lamp raises ValueError."""
    lamps = np.asarray(lamp_positions, dtype=float)
    s = np.asarray(s, dtype=float)
    if lamps.ndim != 2 or lamps.shape[1] != 3 or s.shape != lamps.shape[:1]:
        raise ValueError(f"need lamp positions (n, 3) and readings (n,), got "
                         f"{lamps.shape} and {s.shape}")
    if len(lamps) < 3 or not np.all(s > 0):
        raise ValueError("need at least three lamps with positive readings")
    if not (np.all(np.isfinite(lamps)) and np.all(np.isfinite(s))):
        raise ValueError("lamp positions and readings must be finite")
    z = None if z_receiver is None else np.array([float(z_receiver)])
    if not ((z is None or math.isfinite(z[0])) and 0 < k < math.inf):
        raise ValueError("k and the receiver height must be finite, k > 0")
    n = len(lamps)
    point, status, residual, iters, below = trilaterate_batch(
        lamps[None], np.full((1, n), k),
        ProfileTable((profile,), np.zeros((1, n), dtype=np.intp)), s[None],
        z)
    if not below[0]:
        raise ValueError("receiver must start below every lamp")
    return SolveResult(point[0], float(residual[0]), status[0],
                       int(iters[0]))
