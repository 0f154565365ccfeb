"""Command-line interface.

Exit codes: 0 on success, 1 for input or validation errors, 2 when the
requested solve fails (degenerate geometry or non-convergence above the
allowed fraction).  Outputs are byte-stable for a fixed scenario and
seed; the default seed is the scenario file's ``noise.seed`` (0 when
unset).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .compass import MagSample, calibrate_heading, fit_ellipse
from .report import (
    STATS_COLUMNS,
    envelope,
    fmt,
    render_csv,
    render_json,
    stats_row,
)
from .scenario import (
    ScenarioFormatError,
    _json,
    _numbers,
    load_scenario,
    profile_from_json,
)
from .sim import (
    METHODS,
    MODES,
    PIPELINES,
    coverage_analysis,
    greedy_min_lamps,
    run_static,
    run_trajectory,
    sensitivity_sweep,
)
from .signal import WaveComponent, identify_lamps, synthesize_trace
from .solve import STATUS_UNIQUE, mflp_least_squares, trilaterate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVE = 2


class _InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # A document nested past the recursion limit is bad input too.
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"{path}: {exc}") from None


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fix_rows(fixes):
    rows = []
    for f in fixes:
        est = f.estimate
        err = f.error if f.status == STATUS_UNIQUE else math.nan
        rows.append([
            f.time_s,
            float(f.true_position[0]), float(f.true_position[1]),
            float(f.true_position[2]),
            float(est[0]), float(est[1]), float(est[2]),
            err, f.status,
        ])
    return rows


def _run_seed(args, sf) -> int:
    """The run's seed: ``--seed``, else the scenario's ``noise.seed``."""
    if args.seed is None:
        return sf.scenario.noise.seed
    if args.seed < 0:
        raise _InputError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _cmd_simulate(args):
    sf = load_scenario(args.scenario)
    seed = _run_seed(args, sf)
    if not 0 <= args.max_failure_frac <= 1:
        raise _InputError("--max-failure-frac must be in [0, 1], got "
                          f"{args.max_failure_frac}")
    if sf.trajectory is None and not sf.points:
        raise _InputError("scenario has neither points nor a trajectory")
    try:
        if sf.trajectory is not None:
            fixes, stats = run_trajectory(
                sf.scenario, sf.trajectory.waypoints, sf.trajectory.speed_mps,
                sf.trajectory.interval_s, pipeline=args.pipeline, m=args.m,
                mode=args.mode, seed=seed,
            )
        else:
            fixes, stats = run_static(
                sf.scenario, sf.points, pipeline=args.pipeline, m=args.m,
                mode=args.mode, seed=seed,
            )
    except ValueError as exc:  # the pipeline, or a pose outside the bounds
        raise _InputError(str(exc)) from None

    header = ["time_s", "true_x", "true_y", "true_z",
              "est_x", "est_y", "est_z", "error_m", "status"]
    csv_text = render_csv(header, _fix_rows(fixes))
    _emit(csv_text, args.out)
    sidecar = envelope(args.scenario, seed, args.timestamp, extra={
        "pipeline": args.pipeline,
        "mode": args.mode,
        "fixes": len(fixes),
        "failures": stats.failures,
        "stats": dict(zip(STATS_COLUMNS, (fmt(v) for v in stats_row(stats)))),
    })
    _emit(render_json(sidecar), args.out and args.out + ".stats.json")
    if fixes and stats.failures > args.max_failure_frac * len(fixes):
        return EXIT_SOLVE
    return EXIT_OK


def _emit_solve_result(res, out_path):
    """Write a solver's fix as JSON; exit 0 if it is unique, else 2."""
    _emit(render_json({
        "status": res.status,
        "point": [fmt(float(v)) for v in res.point],
        "residual_rms": fmt(res.residual_rms),
        "iterations": res.iterations,
    }), out_path)
    return EXIT_OK if res.status == STATUS_UNIQUE else EXIT_SOLVE


def _cmd_solve(args):
    data = _load_json(args.input)
    try:
        planes, s = [], []
        for i, r in enumerate(data["readings"]):
            at = f"readings/{i}/"
            planes.append(np.array(_numbers(r["plane"], at + "plane"),
                                   dtype=float))
            s.append(float(_json(r["s"], at + "s")))
            # The ids are not solved for; they must still be integers.
            for name in ("lamp_id", "face_id"):
                _json(r.get(name, 0), at + name, "an integer")
        res = mflp_least_squares(planes, s, float(_json(data["k"], "k")),
                                 profile_from_json(data))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise _InputError(str(exc)) from None
    return _emit_solve_result(res, args.out)


def _cmd_trilaterate(args):
    data = _load_json(args.input)
    try:
        # A null or absent receiver height is solved for.
        z = _json(data.get("z_receiver"), "z_receiver", "a number or null")
        res = trilaterate(_numbers(data["lamps"], "lamps"),
                          float(_json(data["k"], "k")),
                          profile_from_json(data), _numbers(data["s"], "s"),
                          z_receiver=z)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise _InputError(str(exc)) from None
    return _emit_solve_result(res, args.out)


# A fit or heading that overflows floats is an input error.
@np.errstate(over="raise", invalid="raise")
def _cmd_calibrate(args):
    data = _load_json(args.input)
    try:
        fit = fit_ellipse(_numbers(data["points"], "points"))
        out = {
            "ellipse": {
                "cx": fmt(fit.cx), "cy": fmt(fit.cy),
                "p": fmt(fit.p), "q": fmt(fit.q),
                "phi_deg": fmt(math.degrees(fit.phi)),
            }
        }
        if "samples" in data:
            samples = [
                MagSample(_json(s["mx"], f"samples/{i}/mx"),
                          _json(s["my"], f"samples/{i}/my"),
                          s.get("sensor", i))
                for i, s in enumerate(data["samples"])
            ]
            pitch, roll = (math.radians(_json(data.get(key, 0.0), key))
                           for key in ("pitch_deg", "roll_deg"))
            heading = calibrate_heading(samples, fit, pitch=pitch, roll=roll)
            out["heading_deg"] = fmt(math.degrees(heading))
    except (KeyError, ValueError, TypeError, OverflowError,
            FloatingPointError) as exc:
        raise _InputError(str(exc)) from None
    _emit(render_json(out), args.out)
    return EXIT_OK


def _cmd_coverage(args):
    sf = load_scenario(args.scenario)
    scn = sf.scenario
    grid = dict(cell_size=sf.cell_size_m, receiver_height=sf.receiver_height_m)
    if args.plan and not sf.candidates:
        raise _InputError("scenario has no candidate lamp sites to plan with")
    try:
        if args.plan:
            count, chosen, shortfall = greedy_min_lamps(
                scn.bounds, scn.obstacles, sf.candidates, args.method, **grid)
        else:
            rep = coverage_analysis(
                scn.bounds, scn.obstacles, scn.lamps, args.method, **grid)
    except ValueError as exc:  # a lamp on a cell center, a grid over the cap
        raise _InputError(str(exc)) from None
    if args.plan:
        out = {"plan": {
            "method": args.method,
            "lamps": count,
            "chosen": chosen,
            "uncovered_cells": shortfall,
        }}
    else:
        out = {"coverage": {
            "method": rep.method,
            "fraction": fmt(rep.fraction),
            "uncovered_cells": len(rep.uncovered_cells),
            "lamps": rep.lamp_count,
        }}
    _emit(render_json(out), args.out)
    return EXIT_OK


def _grid(flag, text):
    """The comma-separated numbers of a grid flag."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise _InputError(f"{flag}: {exc}") from None


def _cmd_sensitivity(args):
    sf = load_scenario(args.scenario)
    if not sf.points:
        raise _InputError("sensitivity needs scenario points")
    seed = _run_seed(args, sf)
    eps_grid = _grid("--eps", args.eps)
    eps_h_grid = [math.radians(v) for v in _grid("--eps-h-deg",
                                                 args.eps_h_deg)]
    try:
        # The sweep checks the trial count and every grid value before
        # its first cell runs.
        rows, monotone = sensitivity_sweep(
            sf.scenario, sf.points, eps_grid, eps_h_grid, args.trials,
            pipeline=args.pipeline, seed=seed,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    header = ["rss_epsilon", "heading_epsilon_deg", *STATS_COLUMNS,
              "count", "failures"]
    table = [
        [eps, math.degrees(eps_h), *stats_row(st), st.count, st.failures]
        for eps, eps_h, st in rows
    ]
    _emit(render_csv(header, table), args.out)
    sidecar = envelope(args.scenario, seed, args.timestamp, extra={
        "trials": args.trials,
        "mean_monotone_in_rss_epsilon": monotone,
    })
    _emit(render_json(sidecar), args.out and args.out + ".stats.json")
    return EXIT_OK


# A trace that overflows floats is an input error.
@np.errstate(over="raise", invalid="raise")
def _cmd_signal(args):
    data = _load_json(args.input)
    try:
        for key in ("components", "candidates"):
            _json(data[key], key, "a list")
        components = []
        for i, c in enumerate(data["components"]):
            _json(c, f"components/{i}", "an object")
            shape = {"shape": c["shape"]} if "shape" in c else {}
            components.append(WaveComponent(
                _json(c.get("freq_hz", 0.0), f"components/{i}/freq_hz"),
                _json(c["peak"], f"components/{i}/peak"), **shape))
        seed = _json(data.get("seed", 0), "seed", "an integer")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        trace = synthesize_trace(
            components, _json(data["rate_hz"], "rate_hz"),
            _json(data["duration_s"], "duration_s"),
            gaussian_noise_sd=_json(data.get("noise_sd", 0.0), "noise_sd"),
            seed=seed,
        )
        readings = identify_lamps(
            trace, _numbers(data["candidates"], "candidates"))
    except (KeyError, ValueError, TypeError, OverflowError,
            FloatingPointError) as exc:
        raise _InputError(str(exc)) from None
    rows = [[r.freq_hz, r.amplitude] for r in readings]
    _emit(render_csv(["freq_hz", "amplitude"], rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightpos",
        description="Light-intensity indoor positioning toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"lightpos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and report fixes")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--out", help="CSV output path (stdout when omitted)")
    sim.add_argument("--pipeline", default="mflp", choices=PIPELINES)
    sim.add_argument("--m", type=int, default=3,
                     help="readings used by the multi pipeline")
    sim.add_argument("--mode", default="fast", choices=MODES)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--max-failure-frac", type=float, default=0.5,
                     help="exit 2 when more than this fraction of fixes fail")
    sim.add_argument("--timestamp", default=None,
                     help="recorded in the sidecar; omitted = null")
    sim.set_defaults(func=_cmd_simulate)

    slv = sub.add_parser("solve", help="single-lamp solve from readings JSON")
    slv.add_argument("--input", required=True)
    slv.add_argument("--out")
    slv.set_defaults(func=_cmd_solve)

    tri = sub.add_parser("trilaterate", help="three-lamp range solve from a "
                         "JSON input of vertical lamps (no central rays)")
    tri.add_argument("--input", required=True)
    tri.add_argument("--out")
    tri.set_defaults(func=_cmd_trilaterate)

    cal = sub.add_parser("calibrate",
                         help="magnetometer ellipse fit and heading")
    cal.add_argument("--input", required=True)
    cal.add_argument("--out")
    cal.set_defaults(func=_cmd_calibrate)

    cov = sub.add_parser("coverage", help="coverage fraction or lamp planning")
    cov.add_argument("--scenario", required=True)
    cov.add_argument("--method", default="mflp", choices=METHODS)
    cov.add_argument("--plan", action="store_true",
                     help="greedy minimum-lamp placement from candidates")
    cov.add_argument("--out")
    cov.set_defaults(func=_cmd_coverage)

    sen = sub.add_parser("sensitivity", help="noise perturbation sweep")
    sen.add_argument("--scenario", required=True)
    sen.add_argument("--eps", default="0,0.1,0.2",
                     help="comma-separated RSS noise levels")
    sen.add_argument("--eps-h-deg", default="0,5,10",
                     help="comma-separated heading noise bounds in degrees")
    sen.add_argument("--trials", type=int, default=100)
    sen.add_argument("--pipeline", default="mflp", choices=PIPELINES)
    sen.add_argument("--seed", type=int, default=None)
    sen.add_argument("--timestamp", default=None)
    sen.add_argument("--out")
    sen.set_defaults(func=_cmd_sensitivity)

    sig = sub.add_parser("signal",
                         help="synthesize a trace and extract amplitudes")
    sig.add_argument("--input", required=True)
    sig.add_argument("--out")
    sig.set_defaults(func=_cmd_signal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, ScenarioFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
