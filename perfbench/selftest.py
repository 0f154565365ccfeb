"""Smoke test of the benchmark itself, at the smallest size.

    python3 perfbench/selftest.py

Runs every workload once untraced (a single round) and once traced (a
single cycle) and checks that

1. every metric named in BENCHMARK.json appears with its unit, and the
   report prints each workload's named end-to-end metrics;
2. a deliberately wrong reference value makes a run fail;
3. tracing leaves outputs unchanged, the layer shares plus
   ``untraced.share`` sum to 1, the tracer finds every site it wraps,
   layers predicted busy on a workload see calls and layers predicted idle
   see none.

Prints each failed check and exits 1 if there is one, else exits 0.
"""

import copy
import json
import sys

import run

SEED = run.DEFAULT_SEED
SMOKE_SECONDS = 1e-3  # below one round: the run does the minimum

_FIX_METRICS = ("fixes_per_s", "err_p50_m", "err_p99_m", "fail_frac",
                "setup_s", "peak_rss_mb")
NAMED = {
    "sweep": _FIX_METRICS,
    "fusion": _FIX_METRICS,
    "track": _FIX_METRICS + ("fix_ms_p50", "fix_ms_p99", "fix_ms_samples"),
    "plan": ("plans_per_s", "fail_frac", "setup_s", "peak_rss_mb"),
}

# Layers that must see calls on a workload (the "on" column of README.md's
# prediction table).
BUSY = {
    "sweep": ("geom.line_of_sight", "geom.solve_frame_basis", "sim.measure",
              "sim.locate", "sim.sensitivity_sweep", "solve.Reading",
              "solve.select_readings", "solve.mflp_closed_form",
              "solve.to_world_position", "solve.mflp_least_squares",
              "solve._kernels.solve_single"),
    "fusion": ("geom.solve_frame_basis", "sim.measure", "solve.Reading",
               "solve.solve_multi", "solve.trilaterate"),
    "track": ("signal.synthesize_trace", "signal.extract_amplitude",
              "sim.measure", "solve.mflp_least_squares",
              "solve._kernels.solve_single"),
    "plan": ("geom.line_of_sight", "sim.greedy_min_lamps",
             "sim.coverage_analysis"),
}

# Layers that must see no calls on a workload (the "predicted elsewhere"
# column of README.md).
IDLE = {
    "sweep": ("signal.", "solve.solve_multi.", "solve.trilaterate.",
              "sim.greedy_min_lamps.", "sim.coverage_analysis."),
    "fusion": ("signal.", "sim.sensitivity_sweep.", "sim.greedy_min_lamps.",
               "sim.coverage_analysis."),
    "track": ("solve.solve_multi.", "solve.trilaterate.",
              "sim.sensitivity_sweep.", "sim.greedy_min_lamps.",
              "sim.coverage_analysis."),
    "plan": ("signal.", "solve.", "sim.measure.", "sim.locate.",
             "geom.solve_frame_basis.", "sim.sensitivity_sweep."),
}


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    run.load_lightpos()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def check(ok, message):
        if not ok:
            problems.append(message)

    for workload in bench["workloads"]:
        name = workload["name"]
        plain, report, plain_out = run.run(name, SEED, SMOKE_SECONDS, False)
        check(plain["correct"], f"{name}: untraced run failed its gate: "
              f"{[line for line in report if line.startswith('gate')]}")
        check(units(plain) == end_to_end,
              f"{name}: end-to-end metrics {units(plain)} != {end_to_end}")
        printed = {line.split()[0]: line.split()[-1] for line in report}
        for metric in NAMED[name]:
            check(metric in printed, f"{name}: report lacks {metric}")

        traced, report, traced_out = run.run(name, SEED, SMOKE_SECONDS,
                                             True)
        check(traced["correct"], f"{name}: traced run failed its gate")
        for line in report:
            check(not line.startswith("tracer:"), f"{name}: {line}")
        check(units(traced) == per_layer,
              f"{name}: per-layer metrics differ from BENCHMARK.json")
        check(traced_out[0] == plain_out[0],
              f"{name}: round 0 differs between the two runs")
        metrics = traced["metrics"]
        shares = sum(v["value"] for k, v in metrics.items()
                     if k.endswith(".share"))
        check(abs(shares - 1.0) < 1e-9, f"{name}: shares sum to {shares}")
        for k, v in metrics.items():
            if k.endswith(".calls_per_op") and k.startswith(IDLE[name]):
                check(v["value"] == 0, f"{name}: {k} = {v['value']}, "
                      "predicted 0")
        for layer in BUSY[name]:
            calls = metrics.get(f"{layer}.calls_per_op", {}).get("value", 0)
            check(calls > 0, f"{name}: {layer} sees no calls, predicted "
                  "busy")
        print(f"{name}: checked", flush=True)

    reference = run.load_reference()
    wrong = copy.deepcopy(reference)
    wrong["workloads"]["fusion"]["multi9.err_p50_m"] *= 1.01
    result, report, _ = run.run("fusion", SEED, SMOKE_SECONDS, False,
                                reference=wrong)
    check(not result["correct"] and not result["metrics"],
          "a wrong reference value did not fail the run")
    check(any("multi9.err_p50_m" in line for line in report),
          "the gate did not name the wrong reference value")

    for message in problems:
        print(f"FAIL {message}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
