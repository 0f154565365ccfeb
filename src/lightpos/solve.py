"""Position solvers: single-lamp multi-face closed form and least
squares, the m-reading multi-lamp generalization, and trilateration.

Every solver reads the forward model through ``rss.rss_model``, the one
module that evaluates it: the closed form at the lamp direction it
solves for, the range inversion behind trilateration's seed, the
least-squares callback with its gradient and the lamp fit at its
samples.

``levenberg_marquardt`` is the one least-squares driver: it iterates many
problems at once over a residual-and-Jacobian callback.  All three
position solvers, ``mflp_least_squares``, ``solve_multi`` and
``trilaterate_batch``, refine on one callback, ``_multi_residuals``, the
only caller of ``rss_model``'s gradient; ``fit_lamp_model`` runs
``levenberg_marquardt`` on one problem to fit a polynomial emission
profile from labeled samples.  Its damping start and convergence
tolerances are module constants; only the iteration cap differs between
callers: 400 for ``solve_multi`` and ``fit_lamp_model``, 100 otherwise.
There is no compiled counterpart.

All single-lamp solving happens in the lamp-aligned solve frame (+z
anti-parallel to the central ray, receiver at the origin); the lamp
position in that frame is the unknown.  Three readings make a square
system, so a three-reading single-lamp fix is the closed form itself.
More readings, or a caller-supplied starting point, are refined by the
multi-lamp world model (``_multi_residuals``) on one lamp, at the
solve-frame origin with an identity basis, capped at 100 iterations.
Residuals are relative, (model - measured) / measured, matching the
sensor's multiplicative error structure; ``sim.locate_batch`` passes
the scenario's ``fundamental_lamps``, k times 2/pi, the flash
fundamental.  Face planes are the faces' outward normals, so a lit
face's plane dots positively with the lamp position; the closed form
finds the lamp in front of all three faces, and readings that would put
it behind one make the triple degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geom import solve_frame_basis, unit
from .rss import (
    KIND_COSINE_POWER,
    KIND_POLYNOMIAL,
    EmissionProfile,
    LampModel,
    LampTable,
    ProfileError,
    ProfileTable,
    make_profile,
    off_axis_angle,
    rss_model,
)

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

# The fix status of each ``levenberg_marquardt`` outcome, indexed by its
# code: STATUS_CONVERGED (0), STATUS_MAX_ITER (1), STATUS_INFEASIBLE (2).
_FIX_STATUS = np.array([STATUS_UNIQUE, STATUS_NO_CONVERGE, STATUS_NO_CONVERGE])

_EZ = np.array([0.0, 0.0, 1.0])

# Each of two vectors' components in the order (1, 2, 0, 2, 0, 1): the
# first half times the other's second half, less the second half times
# the other's first half, is their cross product.
_CROSS_ORDER = np.array([1, 2, 0, 2, 0, 1])


def _cross_of_differences(rows):
    """(r0 - r1) x (r0 - r2) of (N, 3, 3) row triples: the arithmetic of
    np.cross in its order, without its overhead on (N, 3) rows.  ``ab``
    holds a = r0 - r1 and b = r0 - r2 each as (v1, v2, v0, v2, v0, v1), so
    the component products pair up."""
    ab = (rows[:, :1] - rows[:, 1:])[..., _CROSS_ORDER]
    return ab[:, 0, :3] * ab[:, 1, 3:] - ab[:, 0, 3:] * ab[:, 1, :3]


def _triple_products(planes):
    """The determinants of (N, 3, 3) plane triples p0, p1, p2, as
    p0 . ((p0 - p1) x (p0 - p2)), which equals p0 . (p1 x p2): no LAPACK
    call, and no division, so unit planes cannot overflow it.  For unit
    planes it lies within ~1e-15 of LAPACK's LU determinant."""
    return np.vecdot(planes[:, 0], _cross_of_differences(planes))


def _steps(a, b):
    """Solutions of a @ x = b per problem, and which problems had a
    regular matrix: True for all of them, or a mask (a singular one's step
    is zero)."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], True
    except np.linalg.LinAlgError:
        out = np.zeros(b.shape)
        regular = np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                regular[i] = False
        return out, regular


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

    An iteration moves the state of its problems (point, residuals,
    Jacobian, cost and lambda) by one np.where update on which trials were
    taken.  When all of them were taken, or none (a batch of one always
    is one or the other), it takes that update restricted to the
    all-accepted or all-rejected batch: the same values and stop tests,
    without the masks.

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
            step, regular = _steps(
                np.matmul(jac_t, jac) + lam[:, None, None] * eye,
                -np.matvec(jac_t, r))
            trial = th + step
            r_t, jac_trial, feasible = residuals(
                trial, act if act.size < n_problems else slice(None))
            f_t = np.vecdot(r_t, r_t)
            better = feasible & (f_t < f)
            step_small = np.sqrt(np.vecdot(step, step)) < LM_STEP_TOL
            accepted = np.count_nonzero(better)
            # The np.where update below copies r and jac C-contiguous, and
            # matvec rounds a strided operand (an ``_at_heights`` Jacobian)
            # differently, so the uniform branches keep them contiguous too.
            if accepted == act.size:
                improved, th, f = f - f_t, trial, f_t
                r = np.ascontiguousarray(r_t)
                jac = np.ascontiguousarray(jac_trial)
                lam = np.maximum(lam * 0.1, 1e-15)
                converged = done = step_small | (
                    improved <= LM_FTOL * np.maximum(f, 1e-300))
            elif not accepted:
                r, jac = np.ascontiguousarray(r), np.ascontiguousarray(jac)
                lam = lam * 10.0
                converged = step_small & regular
                done = converged | (regular & (lam > 1e14))
            else:
                improved = f - f_t
                th = np.where(better[:, None], trial, th)
                r = np.where(better[:, None], r_t, r)
                jac = np.where(better[:, None, None], jac_trial, jac)
                f = np.where(better, f_t, f)
                lam = np.where(better, np.maximum(lam * 0.1, 1e-15),
                               lam * 10.0)
                small_gain = improved <= LM_FTOL * np.maximum(f, 1e-300)
                converged = np.where(better, step_small | small_gain,
                                     step_small & regular)
                done = converged | (~better & regular & (lam > 1e14))
            n_done = np.count_nonzero(done)
            if n_done == act.size:  # every problem stops: no compaction
                theta[act], cost[act], iters[act] = th, f, it
                status[act[converged]] = STATUS_CONVERGED
                return theta, cost, status, iters
            if n_done:
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
    out[1][rows] = _FIX_STATUS[status]
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
    The planes are independent when their determinant, computed as the
    triple product p0 . ((p0 - p1) x (p0 - p2)) of the unit planes with
    the direction's cross-product arithmetic (no LAPACK call), exceeds
    INDEPENDENCE_TOL in magnitude.
    Returns (points (N, 3), unique (N,), residual (N,)), the residual
    being the relative RMS residual of the readings at the point; a
    problem is degenerate, with a NaN point and an infinite residual, when
    its planes are not linearly independent, its null space is not a
    direction with z != 0, or the data is inconsistent with a lamp in the
    solver's domain.
    """
    planes = np.asarray(planes, dtype=float)
    s = np.asarray(s, dtype=float)
    # A subnormal amplitude overflows its row to inf; the NaN or inf that
    # gives fails the checks below, so the problem is degenerate.  The
    # planes' independence is tested on the planes themselves, not on the
    # rows, which that overflow would spoil.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        unique = np.abs(_triple_products(planes)) > INDEPENDENCE_TOL
        rows = planes / s[:, :, None]
        # The direction is normal to rows 0 - 1 and rows 0 - 2.
        direction = _cross_of_differences(rows)
        unique &= ((np.sqrt(np.vecdot(direction, direction)) >= 1e-12)
                   & (np.abs(direction[:, 2]) >= 1e-12))
        # The lamp direction scaled to z = 1, u = (c1, c2, 1): the lamp at
        # z u reads z^-2 times the model at u, so z^2 = model(u) / s.
        u = direction / direction[:, 2:]
        model, _ = rss_model(planes, k, profile, u, gradient=False)
        # Sign assumptions violated (a plane facing away, or f = 0): the
        # data is inconsistent with a lamp in the solver's domain.
        unique &= (model > 0).all(axis=1)
        z_sq = model / s
        # Means over the three readings written out: np.mean's sum in its
        # order, without a reduction loop per row.
        mean_z_sq = (z_sq[:, 0] + z_sq[:, 1] + z_sq[:, 2]) / 3
        z = np.sqrt(mean_z_sq)
        # Each reading's model value at the point over its amplitude is
        # its z_sq over z**2; r holds the squares of those residuals.
        r = z_sq / mean_z_sq[:, None] - 1.0
        r *= r
        residual = np.sqrt((r[:, 0] + r[:, 1] + r[:, 2]) / 3)
    points = u * z[:, None]
    failed = ~unique
    points[failed] = np.nan
    residual[failed] = np.inf
    return points, unique, residual


def mflp_least_squares(planes, s, k: float, profile: EmissionProfile,
                       init=None) -> SolveResult:
    """Single-lamp solve over n >= 3 readings of one lamp: sensing planes
    (n, 3) in its solve frame, each normalized here as ``geom.unit`` does,
    and amplitudes ``s`` (n,), each positive and finite.

    Without an initial point, the closed form on the strongest independent
    plane triple is the start: the first triple, in ``combinations``
    order over the readings sorted stably by s descending, whose |det|
    (the closed form's triple product) exceeds INDEPENDENCE_TOL, or the
    first triple when none does.  The search is lazy, one triple per
    triple-product call, and usually ends at the first triple; when every
    triple is dependent it visits all C(n, 3), in constant memory.  With
    exactly three readings that triple is the whole square system, so
    ``mflp_closed_form_batch``'s point and residual are the fix (0
    iterations).  More readings, or a supplied ``init``, are refined by
    ``levenberg_marquardt`` from there, over ``_multi_residuals`` of one
    lamp at the solve-frame origin with an identity basis: the receiver
    is at -x there, so the start is -init and the fix the negated
    solution.
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
        order = np.argsort(-s, kind="stable")
        independent = (
            t for t in map(list, combinations(order, 3))
            if abs(_triple_products(planes[t][None])[0]) > INDEPENDENCE_TOL)
        # With no independent triple, the first one is degenerate.
        triple = next(independent, order[:3])
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
    if s.shape[-2] < 1 or s.shape[-1] < 3:
        pad = [(0, 0)] * (s.ndim - 2) + [(0, max(0, 1 - s.shape[-2])),
                                         (0, max(0, 3 - s.shape[-1]))]
        s, valid = np.pad(s, pad), np.pad(valid, pad)
    order = np.argsort(np.where(valid, -s, np.inf), axis=-1, kind="stable")
    # Each row of readings gathered in its order, by flat row index.
    rows = order.reshape(-1, order.shape[-1])
    s_sorted = np.where(valid, s, 0.0).reshape(rows.shape)[
        np.arange(len(rows))[:, None], rows].reshape(order.shape)
    # The valid readings, and of them those above the floor, are prefixes
    # of the sorted ones.
    floor = RSS_FLOOR_FRACTION * s_sorted[..., 0]
    kept = (valid.sum(axis=-1) >= 3) & (s_sorted[..., 2] >= floor)
    # np.mean's sum, in its order.
    mean3 = (s_sorted[..., 0] + s_sorted[..., 1] + s_sorted[..., 2]) / 3
    return order, s_sorted, kept, np.where(kept, mean3, -np.inf).argmax(
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
    return (best[:, None].repeat(3, axis=1),
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
    faces = order[..., :3].reshape(pooled)[np.arange(len(pick))[:, None], pick]
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
    # to_world_position, each fix with its own lamp.  The closed form's
    # failed fixes have a NaN x already; those failing z > 0 do not.
    world = lamps.position[lamp_of] - np.matvec(lamps.basis[lamp_of], x)
    failed = ~unique
    world[failed], rms[failed] = np.nan, np.inf
    return world, unique, rms


def _multi_residuals(planes, s, lamp_ids, lamps):
    """``levenberg_marquardt`` callback of ``mflp_least_squares``,
    ``solve_multi`` and ``trilaterate_batch`` over world positions
    (M, 3): each reading's relative residual in its own lamp's solve
    frame, feasible when every lamp is above (solve-frame z > 0)."""
    position, basis = lamps.position[lamp_ids], lamps.basis[lamp_ids]
    k, profiles = lamps.k[lamp_ids], lamps.profiles.take(lamp_ids)
    planes = planes[:, :, None, :]

    def problems(rows):
        b, sa = basis[rows], s[rows]
        return (b, b.transpose(0, 1, 3, 2), position[rows], planes[rows],
                k[rows], profiles.take(rows), sa, sa[..., None])

    # Every problem's arrays, for the whole slice the driver passes while
    # all of them iterate.
    whole = problems(slice(None))

    def residuals(p, rows):
        b, b_t, q, pl, kr, prof, sa, sa_col = (
            whole if isinstance(rows, slice) else problems(rows))
        # Per reading, the lamp's solve-frame position x = B^T (L - p).
        x = np.matvec(b_t, q - p[:, None])
        m, grad = rss_model(pl, kr, prof, x)
        return ((m[..., 0] - sa) / sa, -np.matvec(b, grad[..., 0, :]) / sa_col,
                (x[..., 2] > 0).all(axis=1))

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
    grouped = np.sort(lamp_ids, axis=1)
    if (grouped[:, 3:] == grouped[:, :-3]).any():
        raise ValueError("a problem takes at most three readings of a lamp")
    fix, first = np.nonzero(grouped[:, 2:] == grouped[:, :-2])
    fix_col = fix[:, None]
    chosen = (fix_col, order[fix_col, first[:, None] + np.arange(3)])
    s3 = s[chosen]
    seeds, unique, _ = closed_form_fixes(
        planes[chosen], s3, grouped[fix, first, None], lamps)
    # np.mean's sum, in reading order.
    mean = np.where(unique, (s3[:, 0] + s3[:, 1] + s3[:, 2]) / 3, -np.inf)
    # Per problem, its lamps by mean descending, stably in lamp order; the
    # first of each problem is its seed when that closed form is unique.
    by_mean = np.lexsort((-mean, fix))
    ranked = fix[by_mean]
    leads = np.ones(len(ranked), dtype=bool)
    leads[1:] = ranked[1:] != ranked[:-1]
    best = by_mean[leads & (mean[by_mean] > -np.inf)]

    seeded = fix[best]
    p, cost, status, iters = levenberg_marquardt(
        _multi_residuals(planes[seeded], s[seeded], lamp_ids[seeded], lamps),
        seeds[best], max_iter=400)
    return _lm_fixes(len(s), seeded, p, cost, status, iters, s.shape[1])


def _invert_distances(k, profile, dz, s):
    """Per lamp, the distance d >= dz at which an upward face reads s: its
    model reading (``rss_model``) of a lamp at distance d and height dz,
    k dz f / d^3, decreases in d.  d is clamped to
    [dz (1 + 1e-9), dz + 1 doubled until >= dz + 1e6].  Cosine-power lamps
    invert in closed form, d^(3 + gamma) = k dz^(1 + gamma) / s, in logs;
    polynomial lamps bisect together until no interval shrinks any more."""
    gamma, top, lo, dz1 = profile.gamma, dz + 1e6, dz * (1 + 1e-9), dz + 1.0
    cap = np.ldexp(dz1, np.frexp(top / dz1)[1])
    half = cap / 2
    cap = np.where(half >= top, half, cap)
    d = np.clip(np.exp(((1 + gamma) * np.log(dz) + np.log(k) - np.log(s))
                       / (3 + gamma)), lo, cap)
    if not (bisect := np.isnan(gamma)).any():
        return d

    def val(d):
        # The lamp at distance d and height dz: off axis by
        # sqrt(d^2 - dz^2), formed without cancellation near the axis.
        rho = np.sqrt((d - dz) * (d + dz))
        x = np.stack(np.broadcast_arrays(rho, 0.0, dz), axis=-1)
        return rss_model(_EZ[None], k, profile, x, gradient=False)[0][..., 0]

    # Closed-form lamps hold a bracket of width 0 at d.
    lo, hi = np.where(bisect, lo, d), np.where(bisect, dz1, d)
    while (grow := bisect & (val(hi) > s) & (hi < top)).any():
        hi = np.where(grow, hi * 2.0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = val(mid) > s
        if not np.where(above, mid != lo, mid != hi).any():
            break
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _at_heights(residuals, z):
    """A callback over positions (M, 3), such as ``_multi_residuals``, as
    one over plan-view positions (M, 2) at the problems' heights ``z``
    (N,): each z appended, the Jacobian's z column dropped."""
    z = z[:, None]

    def at_heights(xy, rows):
        r, jac, feasible = residuals(np.concatenate((xy, z[rows]), axis=1),
                                     rows)
        return r, jac[..., :2], feasible

    return at_heights


# Huge finite inputs may overflow the geometry and the range seed; such
# problems end degenerate or unconverged, without warnings.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def trilaterate_batch(planes, s, lamp_ids, lamps: LampTable,
                      z_receiver=None):
    """Receiver positions of N problems, each from one reading of each of
    n >= 3 lamps: the classic three-sphere geometry.

    ``planes`` (N, n, 3) are unit sensing planes in the solve frames of
    the readings' lamps ``lamp_ids`` (N, n), and ``s`` (N, n) their
    amplitudes, modeled with the k and profiles of ``lamps``;
    ``z_receiver`` (N,) holds the receivers' heights, or is None for free
    ones starting at 0.  Ranges inverted at the starting height (in
    closed form for cosine-power lamps, by bisection for polynomial ones)
    seed a linear lateration, the plan-view rows 2 (p_i - p_0) of the
    lamps i > 0; only this seed takes the lamps as hung vertically over
    upward faces.  One SVD of those rows forms the seed, as
    np.linalg.pinv's pseudo-inverse, and judges degeneracy: lamps are
    collinear in plan view when the product of the two singular values is
    below 8e-9 of their squared plan-view spread (at least 1).  For three
    lamps that product is |det|, 8 times their triangle's area, so the
    rule is that the triangle spans less than 1e-9 of the squared spread;
    for more, by Cauchy-Binet, it is 8 times the root of the sum of
    squared areas of the triangles through lamp 0.  ``solve_multi``'s
    least squares (``_multi_residuals``) refines the seed, over plan-view
    positions at a fixed height, capped at 100 iterations.  Returns the
    fields of a ``SolveResult`` per problem, (points (N, 3), status,
    residual, iterations), and below (N,), False where a problem that is
    not degenerate does not start below every lamp; it too has a NaN
    point.  A start that has a lamp at solve-frame z <= 0 is infeasible:
    its fix is NaN and no_converge.
    """
    n_fix, n = s.shape
    z_fixed = z_receiver is not None
    z0 = np.asarray(z_receiver, dtype=float) if z_fixed else np.zeros(n_fix)
    position = lamps.position[lamp_ids]
    xy = position[..., :2]
    # np.mean: the sum, then one division.
    centered = xy - (xy.sum(axis=1) / n)[:, None]
    spread = np.sqrt(np.vecdot(centered, centered)).max(axis=1)
    # The plan-view lateration matrix of every problem and its SVD, which
    # both judges degeneracy and forms the seed.
    u, sigma, vt = np.linalg.svd(2 * (xy[:, 1:] - xy[:, :1]),
                                 full_matrices=False)
    spanned = ~(sigma.prod(axis=1) < 8e-9 * np.maximum(spread, 1.0) ** 2)
    dz0 = position[..., 2] - z0[:, None]
    below = ~spanned | (dz0 > 0).all(axis=1)
    rows = np.flatnonzero(spanned & below)

    # Linear lateration seed from inverted ranges at the initial height.
    position, s, ids, dz0 = position[rows], s[rows], lamp_ids[rows], dz0[rows]
    d_est = _invert_distances(lamps.k[ids], lamps.profiles.take(ids), dz0, s)
    d_sq, dz_sq = d_est ** 2, dz0 ** 2
    xy_sq = (position[..., :2] ** 2).sum(axis=2)
    rhs = (d_sq[:, :1] - d_sq[:, 1:] + xy_sq[:, 1:] - xy_sq[:, :1]
           + dz_sq[:, 1:] - dz_sq[:, :1])
    # The pseudo-inverse from the SVD in np.linalg.pinv's arithmetic:
    # singular values at most 1e-15 of the largest count as zero.
    u, sigma, vt = u[rows], sigma[rows], vt[rows]
    inv = np.divide(1, sigma, out=np.zeros_like(sigma),
                    where=sigma > 1e-15 * sigma.max(axis=1, keepdims=True))
    xy = np.matvec(np.matmul(vt.swapaxes(1, 2),
                             inv[..., None] * u.swapaxes(1, 2)), rhs)

    z0 = z0[rows]
    residuals = _multi_residuals(planes[rows], s, ids, lamps)
    theta, cost, status, iters = levenberg_marquardt(
        _at_heights(residuals, z0) if z_fixed else residuals,
        xy if z_fixed else np.column_stack([xy, z0]))
    points = np.column_stack([theta, z0]) if z_fixed else theta
    return (*_lm_fixes(n_fix, rows, points, cost, status, iters, n), below)


def trilaterate(lamp_positions, k: float, profile: EmissionProfile,
                s, z_receiver=None) -> SolveResult:
    """Solve a horizontal-face receiver position from three or more lamps
    sharing one intensity model: the batch of one of
    ``trilaterate_batch`` on checked inputs.  The lamps are given by
    position alone, so they hang vertically (identity solve-frame bases)
    and the face reads along +z.  A start not below every lamp raises
    ValueError."""
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
    profiles = ProfileTable((profile,), np.zeros(n, dtype=np.intp))
    table = LampTable(lamps, np.broadcast_to(np.eye(3), (n, 3, 3)),
                      np.full(n, k), profiles)
    point, status, residual, iters, below = trilaterate_batch(
        np.broadcast_to(_EZ, (1, n, 3)), s[None], np.arange(n)[None], table,
        z)
    if not below[0]:
        raise ValueError("receiver must start below every lamp")
    return SolveResult(point[0], float(residual[0]), status[0],
                       int(iters[0]))


class InsufficientSamplesError(ValueError):
    """Raised when a fit is requested with too few or degenerate samples."""


def fit_lamp_model(samples, profile_kind: str, degree: int,
                   lamp_position, central_ray):
    """Fit the intensity constant and emission profile from labeled
    samples.

    ``samples`` is a sequence of (face_center, face_normal, s) with the
    lamp at a known pose; every s must be finite and > 0, and every face
    in the lamp's forward hemisphere, away from the lamp and not edge-on
    to it.  The fit minimizes the squared log-residuals
    sum((log s_meas - log s_model)^2), matching the multiplicative error
    structure of the sensor.  A cosine-power profile is a linear
    regression.  A polynomial profile of integer ``degree`` >= 1 is
    normalized to f(0) = 1, the overall scale living in k, and fitted by
    ``levenberg_marquardt`` from f = 1, keeping f > 0 at every sample; a
    fit that does not converge raises ValueError.  An unknown
    ``profile_kind`` raises ProfileError.

    Returns (k, EmissionProfile, rms log-residual).
    """
    if profile_kind not in (KIND_COSINE_POWER, KIND_POLYNOMIAL):
        raise ProfileError(f"unknown profile kind {profile_kind!r}")
    if profile_kind == KIND_POLYNOMIAL and not (
            isinstance(degree, (int, np.integer)) and degree >= 1):
        raise ValueError(
            f"polynomial degree must be an integer >= 1, got {degree!r}")
    lamp_position = np.asarray(lamp_position, dtype=float)
    basis = solve_frame_basis(central_ray)
    n_params = 1 if profile_kind == KIND_COSINE_POWER else degree
    if len(samples) < n_params + 2:
        raise InsufficientSamplesError(
            f"need at least {n_params + 2} samples, got {len(samples)}"
        )

    centers, normals, s = zip(*samples, strict=True)
    s = np.array(s, dtype=float)
    bad = s[~((0 < s) & (s < math.inf))]
    if bad.size:
        raise ValueError(
            f"sample readings must be finite and > 0, got {float(bad[0])!r}")
    # Each sample's lamp-relative vector and face normal in the lamp's
    # solve frame, the normal then signed toward the lamp.
    x = np.matvec(basis.T, lamp_position - np.array(centers, dtype=float))
    d = np.sqrt(np.vecdot(x, x))
    if not np.all(d >= 1e-12):
        raise ValueError("sample face centres must be finite and away "
                         "from the lamp position")
    if not np.all(x[:, 2] > 0):
        raise ValueError("samples must lie in the lamp's forward hemisphere")
    planes = np.array([unit(n) for n in normals]) @ basis
    incidence = np.vecdot(planes, x)
    geom = np.abs(incidence) / d**3
    if not np.all(geom > 0):
        raise ValueError("sample faces must not be edge-on to the lamp")
    planes *= np.sign(incidence)[:, None]
    omegas = off_axis_angle(np.hypot(x[:, 0], x[:, 1]), x[:, 2])
    if np.ptp(omegas) < 1e-9:
        raise InsufficientSamplesError("samples must span at least two distinct omega values")
    y = np.log(s) - np.log(geom)  # log(k * f(omega))

    if profile_kind == KIND_COSINE_POWER:
        # log y = log k + gamma * log cos(omega): plain linear regression.
        a = np.column_stack([np.ones_like(omegas), np.log(x[:, 2] / d)])
        coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < 2:
            raise InsufficientSamplesError("rank-deficient sample geometry")
        k = math.exp(coef[0])
        profile = make_profile(KIND_COSINE_POWER, [coef[1]])
    else:
        # Unknowns (log k, c_1 .. c_degree) of f = 1 + sum c_j omega^j.
        powers = omegas[:, None] ** np.arange(1, degree + 1)

        def residuals(theta, rows):
            f = 1.0 + theta[:, 1:] @ powers.T
            jac = np.concatenate(
                [np.ones(f.shape + (1,)), powers / f[..., None]], axis=-1)
            return theta[:, :1] + np.log(f) - y, jac, np.all(f > 0, axis=1)

        theta0 = np.concatenate([[np.mean(y)], np.zeros(degree)])
        theta, _, status, _ = levenberg_marquardt(residuals, theta0[None],
                                                  max_iter=400)
        if status[0] != STATUS_CONVERGED:
            raise ValueError("polynomial profile fit did not converge")
        k = math.exp(theta[0, 0])
        profile = make_profile(KIND_POLYNOMIAL,
                               np.concatenate([[1.0], theta[0, 1:]]))

    model, _ = rss_model(planes[:, None], k, profile, x, gradient=False)
    rms = float(np.sqrt(np.mean((np.log(model[:, 0]) - np.log(s)) ** 2)))
    return k, profile, rms
