"""The benchmark's four workloads.

A workload makes its inputs from a seed in ``setup`` (scenario loading,
input generation, warm-up) and then runs *rounds*: fixed units of work
through lightpos's public entry points, the functions the CLI calls.  Round
``r`` always runs the same inputs, so a round run twice must give the same
outputs.  ``distinct_rounds`` rounds make one cycle; the runner repeats
cycles for as long as it measures.

Every call goes through the module attribute (``sim.measure``, never a
name bound at import), so the tracer's wrappers see it.
"""

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lightpos import scenario, sim
from lightpos.geom import Attitude

FIXTURES = Path(sim.__file__).resolve().parent / "fixtures"

# Value kinds of a reference summary; the gate compares each kind with its
# own tolerance (see ``compare_reference`` in run.py).
FLOAT, COUNT, ITERS = "float", "count", "iters"


@dataclass
class RoundResult:
    ops: int            # fixes or plans attempted
    failed: int         # gave no answer: raised, no world-frame position,
                        # or a plan with shortfall
    nonunique: int      # status not unique, raised, or a plan with shortfall
    fingerprint: bytes  # every output, for exact comparison
    detail: object      # outputs the analysis reads
    latencies: tuple = ()  # per-op wall seconds, where ops are timed alone


@dataclass
class Analysis:
    errors: list        # position errors of unique fixes, metres
    problems: list      # failed invariants, as messages


def _round_seeds(seed, n):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _fixes_fingerprint(estimates, ok, iters):
    return (np.asarray(estimates, dtype=float).tobytes()
            + np.asarray(ok, dtype=bool).tobytes()
            + np.asarray(iters, dtype=np.int64).tobytes())


def _error_summary(prefix, errors, failures, iters):
    errors = np.asarray(errors, dtype=float)
    out = {
        f"{prefix}err_p50_m": (FLOAT, float(np.quantile(errors, 0.5))),
        f"{prefix}err_p99_m": (FLOAT, float(np.quantile(errors, 0.99))),
        f"{prefix}err_mean_m": (FLOAT, float(errors.mean())),
        f"{prefix}failures": (COUNT, int(failures)),
    }
    if len(iters):
        out[f"{prefix}iters_p50"] = (ITERS, float(np.quantile(iters, 0.5)))
        out[f"{prefix}iters_max"] = (ITERS, float(np.max(iters)))
    return out


class Sweep:
    """Criterion-05 cells on office_single_lamp, fast mode, mflp pipeline.

    A round is one ``sensitivity_sweep`` call of TRIALS trials: 1000 fixes
    per cell, 6000 per call.  Criterion 05 makes one call of 500 trials,
    25000 fixes per cell.  TRIALS is smaller so that a call takes about ten
    seconds; fixed costs per call and per cell then weigh 25 times more
    than in criterion 05, not 500 times as with one trial.
    """

    name = "sweep"
    op = "fixes"
    distinct_rounds = 1
    reference_rounds = 1
    TRIALS = 20
    EPS = (0.0, 0.1, 0.2)
    EPS_H = (0.0, math.radians(10.0))

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        sf = scenario.load_scenario(FIXTURES / "office_single_lamp.json")
        self.scn, self.points = sf.scenario, sf.points
        self.seeds = _round_seeds(self.seed, self.distinct_rounds)
        sim.sensitivity_sweep(self.scn, self.points[:2], [0.1], [0.0], 1,
                              seed=0)

    def _sweep(self, r, trials):
        rows, _ = sim.sensitivity_sweep(self.scn, self.points, self.EPS,
                                        self.EPS_H, trials,
                                        seed=self.seeds[r])
        return rows

    def run_round(self, r):
        rows = self._sweep(r, self.TRIALS)
        table = np.array([(e, h, st.mean, st.median, st.max, st.stdev,
                           st.count, st.failures) for e, h, st in rows])
        # sensitivity_sweep counts a fix as failed when it raised or its
        # status is not unique; mflp then returns no world-frame position.
        failed = int(table[:, 7].sum())
        return RoundResult(len(rows) * self.TRIALS * len(self.points),
                           failed, failed, table.tobytes(), rows)

    def _replica(self, r):
        """Per-fix errors of trial 0 of round r through scalar measure +
        locate, seeded as sensitivity_sweep documents (seed, cell indices,
        trial, point)."""
        cells = {}
        for ci, eps_h in enumerate(self.EPS_H):
            for cj, eps in enumerate(self.EPS):
                noisy = replace(self.scn, noise=replace(
                    self.scn.noise, rss_epsilon=eps, heading_epsilon=eps_h))
                errors, failures = [], 0
                for i, p in enumerate(self.points):
                    rng = np.random.default_rng((self.seeds[r], ci, cj, 0, i))
                    try:
                        mset = sim.measure(noisy, p, Attitude(0, 0, 0),
                                           sim.MODE_FAST, rng)
                        res = sim.locate(noisy, mset, sim.PIPELINE_MFLP)
                    except ValueError:
                        failures += 1
                        continue
                    if res.status == "unique":
                        errors.append(float(np.linalg.norm(res.point - p)))
                    else:
                        failures += 1
                cells[(eps, eps_h)] = (errors, failures)
        return cells

    def analyse(self, details):
        """Invariants on each round, and a one-trial sweep of each round's
        seed (the round's trial 0) against the same fixes run one by one."""
        problems, errors = [], []
        for r, rows in sorted(details.items()):
            cells = self._replica(r)
            for eps, eps_h, st in self._sweep(r, 1):
                errs, failures = cells[(eps, eps_h)]
                errors += errs
                if failures != st.failures or len(errs) != st.count or (
                        errs and not np.allclose(
                            [np.mean(errs), np.median(errs), np.max(errs)],
                            [st.mean, st.median, st.max],
                            rtol=1e-6, atol=1e-9)):
                    problems.append(
                        f"round {r} cell ({eps}, {eps_h:.4f}): one-trial "
                        "sweep differs from scalar measure + locate")
            stats = {(eps, eps_h): st for eps, eps_h, st in rows}
            if stats[(0.0, 0.0)].mean >= 1e-6:
                problems.append(f"round {r}: noise-free mean error "
                                f"{stats[(0.0, 0.0)].mean:.3g} m >= 1e-6 m")
            for eps_h in self.EPS_H:
                means = [stats[(e, eps_h)].mean for e in self.EPS]
                if any(b < a for a, b in zip(means, means[1:])):
                    problems.append(
                        f"round {r}: mean error not monotone in eps at eps_h "
                        f"{math.degrees(eps_h):g} deg: {means}")
        return Analysis(errors, problems)

    def summary(self, details):
        out = {}
        for r, rows in sorted(details.items()):
            for eps, eps_h, st in rows:
                key = f"r{r}.eps{eps:g}.eps_h{math.degrees(eps_h):g}."
                out[key + "mean_m"] = (FLOAT, st.mean)
                out[key + "median_m"] = (FLOAT, st.median)
                out[key + "max_m"] = (FLOAT, st.max)
                out[key + "failures"] = (COUNT, st.failures)
        return out


class Fusion:
    """Criterion-06 scene: each seeded measurement solved three ways."""

    name = "fusion"
    op = "fixes"
    distinct_rounds = 64
    reference_rounds = 4
    SOLVERS = (
        ("multi3", dict(pipeline=sim.PIPELINE_MULTI, m=3)),
        ("multi9", dict(pipeline=sim.PIPELINE_MULTI, m=9)),
        ("trilateration", dict(pipeline=sim.PIPELINE_TRILATERATION)),
    )

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        sf = scenario.load_scenario(FIXTURES / "three_lamps.json")
        self.scn = replace(sf.scenario,
                           noise=replace(sf.scenario.noise, rss_epsilon=0.1))
        self.points = sf.points
        self.seeds = _round_seeds(self.seed, self.distinct_rounds)
        mset = sim.measure(self.scn, self.points[0],
                           rng=np.random.default_rng(0))
        for _, kw in self.SOLVERS:
            sim.locate(self.scn, mset, z_receiver=self.points[0][2], **kw)

    def run_round(self, r):
        n = len(self.points) * len(self.SOLVERS)
        est = np.full((n, 3), np.nan)
        ok = np.zeros(n, dtype=bool)
        iters = np.zeros(n, dtype=np.int64)
        for i, p in enumerate(self.points):
            rng = np.random.default_rng((self.seeds[r], i))
            try:
                mset = sim.measure(self.scn, p, rng=rng)
            except ValueError:
                continue
            for j, (_, kw) in enumerate(self.SOLVERS):
                k = i * len(self.SOLVERS) + j
                try:
                    res = sim.locate(self.scn, mset, z_receiver=p[2], **kw)
                except ValueError:
                    continue
                est[k], ok[k], iters[k] = res.point, res.status == "unique", \
                    res.iterations
        # solve_multi and trilaterate return their last iterate, a world
        # position, when LM stops before converging: the status says so, the
        # fix still answers.  No finite point means it raised or gave none.
        answered = np.all(np.isfinite(est), axis=1)
        detail = (est, ok, iters)
        return RoundResult(n, int((~answered).sum()), int((~ok).sum()),
                           _fixes_fingerprint(est, ok, iters), detail)

    def _by_solver(self, details):
        """{solver: (errors, failures, iterations)} pooled over rounds."""
        truth = np.repeat(np.asarray(self.points), len(self.SOLVERS), axis=0)
        out = {name: ([], 0, []) for name, _ in self.SOLVERS}
        for est, ok, iters in details.values():
            err = np.linalg.norm(est - truth, axis=1)
            for j, (name, _) in enumerate(self.SOLVERS):
                sel = slice(j, None, len(self.SOLVERS))
                errs, fails, its = out[name]
                out[name] = (errs + list(err[sel][ok[sel]]),
                             fails + int((~ok[sel]).sum()),
                             its + list(iters[sel][ok[sel]]))
        return out

    def analyse(self, details):
        by = self._by_solver(details)
        errors = [e for errs, _, _ in by.values() for e in errs]
        problems = []
        mean3, mean9 = np.mean(by["multi3"][0]), np.mean(by["multi9"][0])
        if not mean9 < mean3:
            problems.append(f"mean error at m=9 ({mean9:.4g} m) is not "
                            f"below m=3 ({mean3:.4g} m)")
        return Analysis(errors, problems)

    def summary(self, details):
        out = {}
        for name, (errs, fails, its) in self._by_solver(details).items():
            out.update(_error_summary(f"{name}.", errs, fails, its))
        return out


class Track:
    """Closed-loop online tracking: one caller, one end-to-end fix per epoch,
    the next epoch starting when the fix returns."""

    name = "track"
    op = "fixes"
    distinct_rounds = 4
    reference_rounds = 1
    EPOCHS = 240            # epochs per trajectory (one round)
    SPEED_MPS = 1.2
    INTERVAL_S = 0.05
    # Waypoints stay over the lamps' footprint in three_lamps.json, where
    # every epoch sees one lamp on three faces.
    REGION = ((4.0, 12.0), (3.0, 10.0))
    TRACE_NOISE_SD = 0.5
    HEADING_EPS_DEG = 5.0

    def __init__(self, seed):
        self.seed = seed

    def _trajectory(self, rng):
        (x0, x1), (y0, y1) = self.REGION
        waypoints = []
        samples = []
        while len(samples) < self.EPOCHS:
            waypoints.append(np.array([rng.uniform(x0, x1),
                                       rng.uniform(y0, y1), 0.0]))
            samples = sim.sample_trajectory(waypoints, self.SPEED_MPS,
                                            self.INTERVAL_S)
        return np.array([p for _, p in samples[:self.EPOCHS]])

    # Times one epoch; the runner sets it to its clock, which leaves out
    # the time the host-speed sampler takes.
    clock = time.perf_counter

    def setup(self):
        sf = scenario.load_scenario(FIXTURES / "three_lamps.json")
        self.scn = replace(sf.scenario, noise=replace(
            sf.scenario.noise, trace_noise_sd=self.TRACE_NOISE_SD,
            heading_epsilon=math.radians(self.HEADING_EPS_DEG)))
        self.seeds = _round_seeds(self.seed, self.distinct_rounds)
        self.paths = [self._trajectory(np.random.default_rng(s))
                      for s in self.seeds]
        self._epoch(self.paths[0][0], np.random.default_rng(0))

    def _epoch(self, p, rng):
        mset = sim.measure(self.scn, p, mode=sim.MODE_END_TO_END, rng=rng)
        return sim.locate(self.scn, mset)

    def run_round(self, r):
        path = self.paths[r]
        est = np.full((len(path), 3), np.nan)
        ok = np.zeros(len(path), dtype=bool)
        iters = np.zeros(len(path), dtype=np.int64)
        latencies = []
        clock = self.clock
        for k, p in enumerate(path):
            start = clock()
            try:
                res = self._epoch(p, np.random.default_rng((self.seeds[r], k)))
            except ValueError:
                res = None
            latencies.append(clock() - start)
            if res is not None:
                est[k], ok[k], iters[k] = res.point, res.status == "unique", \
                    res.iterations
        # mflp returns a world-frame position only when the fix is unique.
        failed = int((~ok).sum())
        return RoundResult(len(path), failed, failed,
                           _fixes_fingerprint(est, ok, iters),
                           (path, est, ok, iters), tuple(latencies))

    def _pooled(self, details):
        errs, fails, its = [], 0, []
        for path, est, ok, iters in details.values():
            errs += list(np.linalg.norm(est - path, axis=1)[ok])
            fails += int((~ok).sum())
            its += list(iters[ok])
        return errs, fails, its

    def analyse(self, details):
        errs, _, _ = self._pooled(details)
        return Analysis(errs, [])

    def summary(self, details):
        return _error_summary("", *self._pooled(details))


class Plan:
    """Greedy minimum-lamp planning and coverage on the two floor plans.

    The inputs are the fixtures alone: the work and the outputs are the
    same for every seed.
    """

    name = "plan"
    op = "plans"
    distinct_rounds = 1
    reference_rounds = 1
    PLANS = (("two_room", "mflp"), ("two_room", "trilateration"),
             ("four_room", "mflp"), ("four_room", "trilateration"))
    EXPECTED = {"two_room": (1, 5), "four_room": (1, 9)}

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.files = {name: scenario.load_scenario(FIXTURES / f"{name}.json")
                      for name in self.EXPECTED}
        self._plan("two_room", "mflp")

    def _plan(self, name, method):
        sf = self.files[name]
        scn = sf.scenario
        n, chosen, shortfall = sim.greedy_min_lamps(
            scn.bounds, scn.obstacles, sf.candidates, method,
            cell_size=sf.cell_size_m, receiver_height=sf.receiver_height_m)
        cov = sim.coverage_analysis(
            scn.bounds, scn.obstacles, [sf.candidates[i] for i in chosen],
            method, cell_size=sf.cell_size_m,
            receiver_height=sf.receiver_height_m)
        return n, tuple(chosen), shortfall, cov.fraction

    def run_round(self, r):
        detail = {key: self._plan(*key) for key in self.PLANS}
        failed = sum(1 for v in detail.values() if v[2] > 0)
        return RoundResult(len(self.PLANS), failed, failed,
                           repr(sorted(detail.items())).encode(), detail)

    def analyse(self, details):
        problems = []
        for r, detail in sorted(details.items()):
            for name, (mflp, tri) in self.EXPECTED.items():
                got = (detail[(name, "mflp")][0],
                       detail[(name, "trilateration")][0])
                if got != (mflp, tri):
                    problems.append(f"round {r} {name}: lamp counts {got}, "
                                    f"expected {(mflp, tri)}")
            for key, (_, _, shortfall, fraction) in detail.items():
                if shortfall != 0 or fraction != 1.0:
                    problems.append(f"round {r} {key}: shortfall {shortfall},"
                                    f" coverage {fraction}")
        return Analysis([], problems)

    def summary(self, details):
        out = {}
        for (name, method), (n, _, shortfall, fraction) in \
                details[0].items():
            out[f"{name}.{method}.lamps"] = (COUNT, n)
            out[f"{name}.{method}.shortfall"] = (COUNT, shortfall)
            out[f"{name}.{method}.coverage"] = (FLOAT, fraction)
        return out


WORKLOADS = {w.name: w for w in (Sweep, Fusion, Track, Plan)}
