"""Position solvers: single-lamp multi-face closed form and least
squares, the m-reading multi-lamp generalization, and trilateration.

``levenberg_marquardt`` is the one least-squares driver: it iterates many
problems at once over a residual-and-Jacobian callback, and
``mflp_least_squares``, ``solve_multi`` and ``trilaterate`` each build
their callback over ``rss_model`` and run it once.  There is no compiled
counterpart.

All single-lamp solving happens in the lamp-aligned solve frame (+z
anti-parallel to the central ray, receiver at the origin); the lamp
position in that frame is the unknown.  Three readings make a square
system, so a three-reading single-lamp fix is the closed form itself;
least squares refines only fixes of more readings, or a caller-supplied
starting point.  Residuals are relative, (model - measured) / measured,
matching the sensor's multiplicative error structure.  Face planes are
oriented so their coefficients dot positively with the lamp position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geom import normalize_plane
# Unused here; perfbench/tracer.py wraps this name in this module.
from .geom import solve_frame_basis  # noqa: F401
from .rss import EmissionProfile, LampModel

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
    """``levenberg_marquardt`` callback of ``mflp_least_squares`` over
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


def _lm_result(point, cost, status, iterations, n) -> SolveResult:
    """The ``SolveResult`` of one ``levenberg_marquardt`` row, with
    ``point`` its position in the solver's frame and ``n`` its number of
    residuals."""
    if status == STATUS_INFEASIBLE:
        return SolveResult(np.full(3, np.nan), math.inf, STATUS_NO_CONVERGE)
    return SolveResult(
        point, float(np.sqrt(cost / n)),
        STATUS_UNIQUE if status == STATUS_CONVERGED
        else STATUS_NO_CONVERGE, int(iterations))


@dataclass(frozen=True)
class Reading:
    """One extracted RSS amplitude with its sensing plane in the solve
    frame of the lamp that produced it."""

    plane: np.ndarray
    s: float
    lamp_id: int = 0
    face_id: int = 0

    def __post_init__(self):
        if np.shape(self.plane) != (3,):
            raise ValueError("a reading's plane needs three coefficients, "
                             f"got shape {np.shape(self.plane)}")
        object.__setattr__(self, "plane", normalize_plane(self.plane))
        if not 0 < self.s < math.inf:
            raise ValueError("reading amplitude must be positive and finite")


@dataclass(frozen=True)
class SolveResult:
    point: np.ndarray
    residual_rms: float
    status: str
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_UNIQUE


@dataclass(frozen=True)
class LampSighting:
    """All readings of one lamp, strongest first."""

    lamp_id: int
    readings: tuple

    def __post_init__(self):
        readings = tuple(
            sorted(self.readings, key=lambda r: r.s, reverse=True)
        )
        if any(r.lamp_id != self.lamp_id for r in readings):
            raise ValueError("sighting mixes readings from several lamps")
        object.__setattr__(self, "readings", readings)


def model_rss(planes: np.ndarray, k: float, profile: EmissionProfile,
              point: np.ndarray) -> np.ndarray:
    """Forward model values for a lamp at ``point`` in the solve frame."""
    d = np.linalg.norm(point)
    cos_w = point[2] / d
    f = float(profile.value(math.acos(max(-1.0, min(1.0, cos_w)))))
    return k * (planes @ point) * f / d**3


def _relative_rms(planes, s, k, profile, point) -> float:
    r = (model_rss(planes, k, profile, point) - s) / s
    return float(np.sqrt(np.mean(r * r)))


def mflp_closed_form_batch(planes, s, k: float, profile: EmissionProfile):
    """Exact single-lamp solves of N problems of three readings each.

    ``planes`` is (N, 3, 3), unit sensing planes, and ``s`` (N, 3).
    Dividing pairs of model equations cancels the distance and emission
    factors, leaving two homogeneous linear equations; the lamp direction
    is their null space, and the remaining scale follows from the
    equations using z > 0.  Returns (points (N, 3), unique (N,),
    residual (N,)), the residual being the relative RMS residual of the
    readings at the point; a problem is degenerate, with a NaN point and
    an infinite residual, when its planes are not linearly independent,
    its null space is not a direction with z != 0, or the data is
    inconsistent with a lamp in the solver's domain.
    """
    planes = np.asarray(planes, dtype=float)
    s = np.asarray(s, dtype=float)
    unique = np.abs(np.linalg.det(planes)) > INDEPENDENCE_TOL
    rows = planes / s[:, :, None]
    # The cross product a x b written out: the arithmetic of np.cross in
    # its order, without its overhead on (N, 3) rows.
    a0, a1, a2 = (rows[:, 0] - rows[:, 1]).T
    b0, b1, b2 = (rows[:, 0] - rows[:, 2]).T
    direction = np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                                 a0 * b1 - a1 * b0])
    unique &= ((np.sqrt(np.vecdot(direction, direction)) >= 1e-12)
               & (np.abs(direction[:, 2]) >= 1e-12))
    direction = np.where(direction[:, 2:] < 0, -direction, direction)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = direction[:, 0] / direction[:, 2]
        c2 = direction[:, 1] / direction[:, 2]
        norm2 = 1.0 + c1 * c1 + c2 * c2
        cos_w = 1.0 / np.sqrt(norm2)
        f = profile.value(np.arccos(np.where(unique, cos_w, 1.0)))
        dots = np.matvec(planes, np.column_stack([c1, c2, np.ones_like(c1)]))
        # Sign assumptions violated: the data is inconsistent with a lamp
        # in the solver's domain.
        unique &= np.all(dots > 0, axis=1) & (f > 0)
        z_sq = k * dots * f[:, None] / (s * (norm2 ** 1.5)[:, None])
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


def mflp_closed_form(r1: Reading, r2: Reading, r3: Reading,
                     k: float, profile: EmissionProfile) -> SolveResult:
    """Exact single-lamp solve from three readings on linearly
    independent planes: the batch of one of ``mflp_closed_form_batch``.
    """
    readings = (r1, r2, r3)
    planes = np.array([r.plane for r in readings])
    s = np.array([r.s for r in readings])
    points, unique, _ = mflp_closed_form_batch(planes[None], s[None], k,
                                               profile)
    if not unique[0]:
        return SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)
    point = points[0]
    return SolveResult(point, _relative_rms(planes, s, k, profile, point),
                       STATUS_UNIQUE)


def _strongest_independent_triple(readings):
    ordered = sorted(readings, key=lambda r: r.s, reverse=True)
    for triple in combinations(ordered, 3):
        planes = np.array([r.plane for r in triple])
        if abs(np.linalg.det(planes)) > INDEPENDENCE_TOL:
            return triple
    return None


def mflp_least_squares(readings, k: float, profile: EmissionProfile,
                       init=None, max_iter: int = 100,
                       step_tol: float = 1e-10) -> SolveResult:
    """Single-lamp solve over all readings of one lamp.

    Without an initial point, the closed form on the strongest independent
    plane triple is the start; with exactly three readings that triple is
    the whole square system, so the closed form is returned as the fix
    (0 iterations).  More readings, or a supplied ``init``, are refined by
    damped Gauss-Newton least squares from there.
    """
    readings = list(readings)
    if len(readings) < 3:
        raise ValueError("least squares needs at least three readings")
    if not 0 < k < math.inf:
        raise ValueError("lamp intensity constant must be positive and finite")
    planes = np.array([r.plane for r in readings])
    s = np.array([r.s for r in readings])

    closed_form = init is None
    if closed_form:
        triple = _strongest_independent_triple(readings)
        if triple is None:
            return SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)
        seeds, unique, _ = mflp_closed_form_batch(
            [[r.plane for r in triple]], [[r.s for r in triple]], k, profile)
        if not unique[0]:
            return SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)
        init = seeds[0]
    init = np.asarray(init, dtype=float)
    if init[2] <= 0:
        raise ValueError("initial point must have z > 0 in the solve frame")
    if closed_form and len(readings) == 3:
        return SolveResult(init, _relative_rms(planes, s, k, profile, init),
                           STATUS_UNIQUE)

    x0 = init[None]
    theta, cost, status, iters = levenberg_marquardt(
        _log_z_residuals(planes[None], s[None], k, profile),
        np.column_stack([x0[:, 0], x0[:, 1], np.log(x0[:, 2])]),
        max_iter=max_iter, step_tol=step_tol)
    return _lm_result(_position(theta)[0], cost[0], status[0], iters[0],
                      len(s))


def _rank_readings(s, valid):
    """Reading selection over arrays (N, lamps, faces) of amplitudes.

    Per fix and lamp, valid readings are ordered by s descending, ties in
    face order, and the lamp is kept when three of them reach 1% of its
    strongest.  The best lamp is the kept one with the greatest top-three
    mean, the first lamp on ties.  Returns (order (N, lamps, faces),
    kept (N, lamps), best (N,)); ``best`` is meaningless for a fix that
    keeps no lamp.
    """
    # Fewer than one lamp or three faces: pad with invalid readings, which
    # keep no lamp.
    pad = [(0, 0)] * (s.ndim - 2) + [(0, max(0, 1 - s.shape[-2])),
                                     (0, max(0, 3 - s.shape[-1]))]
    if pad[-2][1] or pad[-1][1]:
        s, valid = np.pad(s, pad), np.pad(valid, pad)
    order = np.argsort(np.where(valid, -s, np.inf), axis=-1, kind="stable")
    s_sorted = np.take_along_axis(np.where(valid, s, 0.0), order, axis=-1)
    valid_sorted = np.take_along_axis(valid, order, axis=-1)
    # The readings above the floor are a prefix of the sorted ones.
    floor = RSS_FLOOR_FRACTION * s_sorted[..., :1]
    kept = (valid_sorted & (s_sorted >= floor))[..., 2]
    mean3 = np.where(kept, np.mean(s_sorted[..., :3], axis=-1), -np.inf)
    return order, kept, np.argmax(mean3, axis=-1)


def select_readings(sightings, m: int = 3):
    """Pick the readings to solve with.

    Per lamp, readings below 1% of that lamp's strongest reading are
    dropped and at most the three strongest are kept.  With m = 3 the
    lamp with the greatest top-three mean wins; with m > 3 the m highest
    surviving readings overall are returned.
    """
    if m < 3:
        raise ValueError("at least three readings are required to solve")
    sightings = [sg for sg in sightings if sg.readings]
    s = np.zeros((1, len(sightings),
                  max((len(sg.readings) for sg in sightings), default=0)))
    for li, sg in enumerate(sightings):
        s[0, li, :len(sg.readings)] = [r.s for r in sg.readings]
    order, kept, best = _rank_readings(s, s > 0)
    if not kept.any():
        raise ValueError("no lamp has three readings above the RSS floor")
    top = {li: [sightings[li].readings[j] for j in order[0, li, :3]]
           for li in np.nonzero(kept[0])[0]}
    if m == 3:
        return top[best[0]]
    pool = [r for rs in top.values() for r in rs]
    pool.sort(key=lambda r: r.s, reverse=True)
    return pool[:m]


def select_top_readings(s, valid):
    """The m = 3 rule of ``select_readings`` over N fixes at once.

    ``s`` and ``valid`` are (N, lamps, faces).  Returns (lamp (N,),
    faces (N, 3), ok (N,)): the chosen lamp and its three readings'
    faces, strongest first; ok is False where no lamp keeps three
    readings, and those rows are meaningless.
    """
    order, kept, best = _rank_readings(np.asarray(s, dtype=float),
                                       np.asarray(valid, dtype=bool))
    faces = order[np.arange(len(best)), best, :3]
    return best, faces, kept.any(axis=-1)


def select_pooled_readings(s, valid, m: int):
    """The m > 3 rule of ``select_readings`` over one fix's (lamps, faces)
    arrays of amplitudes and validity.

    Each kept lamp's three strongest readings are pooled in lamp order and
    sorted stably by s descending; the first m are chosen.  Returns their
    (lamp indices, face indices), strongest first.  Raises ValueError when
    m < 3 or no lamp keeps three readings.
    """
    if m < 3:
        raise ValueError("at least three readings are required to solve")
    s = np.asarray(s, dtype=float)
    order, kept, _ = _rank_readings(s[None],
                                    np.asarray(valid, dtype=bool)[None])
    lamps = np.flatnonzero(kept[0])
    if not len(lamps):
        raise ValueError("no lamp has three readings above the RSS floor")
    lamp_ids = np.repeat(lamps, 3)
    faces = order[0, lamps, :3].ravel()
    pick = np.argsort(-s[lamp_ids, faces], kind="stable")[:m]
    return lamp_ids[pick], faces[pick]


def to_world_position(lamp: LampModel, x_solve) -> np.ndarray:
    """Receiver world position from the lamp's solve-frame solution; x_solve
    may be one point (3,) or several (N, 3)."""
    return lamp.position - np.matvec(lamp.solve_basis,
                                     np.asarray(x_solve, dtype=float))


def _multi_residuals(readings, lamp_table, k_scale):
    """``levenberg_marquardt`` callback of ``solve_multi`` over world
    positions (M, 3): each reading's relative residual is taken in its
    own lamp's solve frame, where a position is feasible when the lamp is
    above every face (solve-frame z > 0).  Readings of lamps that share
    an intensity constant and emission profile are evaluated as one
    array."""
    by_model = {}
    for j, r in enumerate(readings):
        lamp = lamp_table[r.lamp_id]
        by_model.setdefault((lamp.k * k_scale, lamp.profile), []).append(j)
    groups = [
        (np.array(idx), k, profile,
         np.array([[readings[j].plane] for j in idx]),
         np.array([readings[j].s for j in idx]),
         np.array([lamp_table[readings[j].lamp_id].position for j in idx]),
         np.array([lamp_table[readings[j].lamp_id].solve_basis
                   for j in idx]))
        for (k, profile), idx in by_model.items()]

    def residuals(p, rows):
        r = np.empty((len(p), len(readings)))
        jac = np.empty((len(p), len(readings), 3))
        feasible = np.ones(len(p), dtype=bool)
        for idx, k, profile, planes, s, position, basis in groups:
            # Per reading, the lamp's solve-frame position x = B^T (L - p).
            x = np.matvec(basis.transpose(0, 2, 1), position - p[:, None, :])
            feasible &= np.all(x[:, :, 2] > 0, axis=1)
            m, grad = rss_model(planes, k, profile, x)
            r[:, idx] = (m[:, :, 0] - s) / s
            jac[:, idx] = -np.matvec(basis, grad[:, :, 0]) / s[:, None]
        return r, jac, feasible

    return residuals


def solve_multi(readings, lamp_table, k_scale: float = 1.0,
                max_iter: int = 400, step_tol: float = 1e-10,
                ftol: float = 1e-8) -> SolveResult:
    """Joint least squares over the receiver's world position from
    readings of one or more lamps.

    Each reading's residual is computed through its own lamp's solve
    frame.  With a single lamp this delegates to the single-lamp
    pipeline, so the reduction is exact.
    """
    readings = list(readings)
    lamp_ids = sorted({r.lamp_id for r in readings})
    if len(lamp_ids) == 1:
        lamp = lamp_table[lamp_ids[0]]
        res = mflp_least_squares(readings, lamp.k * k_scale, lamp.profile,
                                 max_iter=max_iter, step_tol=step_tol)
        if res.status != STATUS_UNIQUE:
            return res
        return SolveResult(to_world_position(lamp, res.point),
                           res.residual_rms, res.status, res.iterations)

    by_lamp = {i: [r for r in readings if r.lamp_id == i] for i in lamp_ids}

    # Seed from the lamp with the strongest independent triple.
    seed = None
    for i in sorted(lamp_ids,
                    key=lambda j: -np.mean([r.s for r in by_lamp[j][:3]])):
        triple = _strongest_independent_triple(by_lamp[i])
        if triple is None:
            continue
        lamp = lamp_table[i]
        res = mflp_closed_form(*triple, lamp.k * k_scale, lamp.profile)
        if res.status == STATUS_UNIQUE:
            seed = to_world_position(lamp, res.point)
            break
    if seed is None:
        return SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)

    p, cost, status, iters = levenberg_marquardt(
        _multi_residuals(readings, lamp_table, k_scale), seed[None],
        max_iter=max_iter, step_tol=step_tol, ftol=ftol)
    return _lm_result(p[0], cost[0], status[0], iters[0], len(readings))


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


def _trilateration_residuals(lamps, k, profile, s, z_receiver=None):
    """``levenberg_marquardt`` callback of ``trilaterate`` over receiver
    positions (M, 3), or (M, 2) with the height fixed at ``z_receiver``:
    each lamp's reading is the model of an upward face, feasible when the
    receiver is below every lamp."""
    up = np.broadcast_to([0.0, 0.0, 1.0], (len(lamps), 1, 3))

    def residuals(theta, rows):
        q = theta if z_receiver is None else np.column_stack(
            [theta, np.full(len(theta), z_receiver)])
        x = lamps - q[:, None, :]
        m, grad = rss_model(up, k, profile, x)
        jac = -grad[:, :, 0, :theta.shape[1]] / s[:, None]
        return (m[:, :, 0] - s) / s, jac, np.all(x[:, :, 2] > 0, axis=1)

    return residuals


def trilaterate(lamp_positions, k: float, profile: EmissionProfile,
                s, z_receiver=None, max_iter: int = 100,
                step_tol: float = 1e-10, ftol: float = 1e-8) -> SolveResult:
    """Solve a horizontal-face receiver position from three or more
    vertically hung lamps sharing one intensity model.

    With the sensing face horizontal the per-lamp model depends only on
    the height gap and distance, giving the classic three-sphere
    geometry; collinear lamps are rejected as degenerate.
    """
    lamps = np.asarray(lamp_positions, dtype=float)
    s = np.asarray(s, dtype=float)
    if lamps.ndim != 2 or lamps.shape[1] != 3 or s.shape != lamps.shape[:1]:
        raise ValueError(f"need lamp positions (n, 3) and readings (n,), got "
                         f"{lamps.shape} and {s.shape}")
    if len(lamps) < 3 or not np.all(s > 0):
        raise ValueError("need at least three lamps with positive readings")
    if not (np.all(np.isfinite(lamps)) and np.all(np.isfinite(s))):
        raise ValueError("lamp positions and readings must be finite")
    z_fixed = z_receiver is not None
    z0 = float(z_receiver) if z_fixed else 0.0
    if not (math.isfinite(z0) and 0 < k < math.inf):
        raise ValueError("k and the receiver height must be finite, k > 0")
    spread = np.linalg.norm(lamps - lamps.mean(axis=0), axis=1).max()
    area = 0.5 * np.linalg.norm(
        np.cross(lamps[1] - lamps[0], lamps[2] - lamps[0]))
    if area < 1e-9 * max(spread, 1.0) ** 2:
        return SolveResult(np.full(3, np.nan), math.inf, STATUS_DEGENERATE)

    # Linear lateration seed from inverted ranges at the initial height.
    dz0 = lamps[:, 2] - z0
    if np.any(dz0 <= 0):
        raise ValueError("receiver must start below every lamp")
    d_est = _invert_distances(k, profile, dz0, s)
    rows = 2 * (lamps[1:, :2] - lamps[0, :2])
    rhs = (d_est[0] ** 2 - d_est[1:] ** 2
           + np.sum(lamps[1:, :2] ** 2, axis=1)
           - np.sum(lamps[0, :2] ** 2)
           + dz0[1:] ** 2 - dz0[0] ** 2)
    xy, *_ = np.linalg.lstsq(rows, rhs, rcond=None)

    theta, cost, status, iters = levenberg_marquardt(
        _trilateration_residuals(lamps, k, profile, s,
                                 z0 if z_fixed else None),
        [xy if z_fixed else [*xy, z0]],
        max_iter=max_iter, step_tol=step_tol, ftol=ftol)
    point = np.array([*theta[0], z0]) if z_fixed else theta[0]
    return _lm_result(point, cost[0], status[0], iters[0], len(s))
