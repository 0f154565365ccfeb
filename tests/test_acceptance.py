"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL
line (written straight to the terminal so it shows under pytest's
output capture).
"""

import json
import math
import sys
import time
from contextlib import contextmanager, nullcontext
from importlib import resources

import numpy as np
import pytest

from lightpos.cli import EXIT_OK, main
from lightpos.compass import (
    EllipseParams,
    calibrate_heading,
    fit_ellipse,
    synth_distorted_samples,
)
from lightpos.geom import (
    Attitude,
    half_dodecahedron,
    tri_face_min_distance,
    visible_faces,
)
from lightpos.rss import make_profile, rss_model
from lightpos.scenario import load_scenario
from lightpos.signal import (
    OOK_FUNDAMENTAL,
    WaveComponent,
    extract_amplitude,
    synthesize_trace,
)
from lightpos.sim import (
    PIPELINE_MULTI,
    greedy_min_lamps,
    locate_batch,
    measure_batch,
    sensitivity_sweep,
)
from lightpos.streams import KeyedStreams
from lightpos.solve import (
    STATUS_DEGENERATE,
    STATUS_UNIQUE,
    mflp_closed_form_batch,
    mflp_least_squares,
    trilaterate,
)
from rss_oracle import profile_at

COS = make_profile("cosine_power", [1.0])
FIXTURES = resources.files("lightpos") / "fixtures"


def fixture_path(name):
    return str(FIXTURES / name)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_reporting(request):
    """Expose pytest's capture manager so the criterion lines always
    reach the terminal, even under output capture."""
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE = None


def _announce(line):
    suspend = (_CAPTURE.global_and_fixture_disabled()
               if _CAPTURE is not None else nullcontext())
    with suspend:
        print(line, file=sys.stderr, flush=True)


@contextmanager
def criterion(num, budget_s, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"criterion {num:02d} FAIL {desc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        _announce(f"criterion {num:02d} FAIL {desc} "
                  f"(over budget: {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"runtime {elapsed:.1f}s exceeds {budget_s}s")
    _announce(f"criterion {num:02d} PASS {desc} ({elapsed:.1f}s)")


def readings_for(point, planes, k=1.0, profile=COS):
    """Unit planes signed to dot positively with a lamp at ``point``, and
    their model amplitudes: (planes (n, 3), s (n,))."""
    planes = np.asarray(planes, dtype=float)
    planes = planes / np.linalg.norm(planes, axis=1)[:, None]
    point = np.asarray(point, dtype=float)
    planes = np.where((planes @ point)[:, None] > 0, planes, -planes)
    return planes, rss_model(planes, k, profile, point)[0]


def closed_form(readings, k, profile):
    """mflp_closed_form_batch on one problem of three readings: its
    (point, unique)."""
    planes, s = readings
    point, unique, _ = mflp_closed_form_batch(planes[None], s[None], k,
                                              profile)
    return point[0], unique[0]


def test_criterion_01_worked_example():
    with criterion(1, 1.0, "worked example: forward values, closed form, "
                   "degenerate ambiguity curve"):
        point = np.array([10.0, 10.0, 10.0])
        axes = np.eye(3)
        s = rss_model(axes, 1.0, COS, point)[0]
        assert np.max(np.abs(s - 1 / 900)) < 1e-12 / 900
        tilted = np.array([[1.0, 2.0, 0.0]]) / math.sqrt(5)
        s4 = float(rss_model(tilted, 1.0, COS, point)[0][0])
        target4 = 1 / (300 * math.sqrt(5))
        assert abs(s4 - target4) < 1e-12 * target4

        got, unique = closed_form(readings_for(point, axes), 1.0, COS)
        assert unique
        assert np.max(np.abs(got - point)) < 1e-9

        # A linearly dependent triple is reported as degenerate ...
        dep = np.array([[1, 0, 0], [0, 1, 0], [1, 2, 0]], dtype=float)
        _, unique_dep = closed_form(readings_for(point, dep), 1.0, COS)
        assert not unique_dep

        # ... because a whole curve of positions reproduces the readings:
        # all three normals are horizontal, so x = y = a and only the
        # combination a*z/d^4 is pinned down.
        dep_n = dep / np.linalg.norm(dep, axis=1)[:, None]
        s_dep = rss_model(dep_n, 1.0, COS, point)[0]
        curve = []
        for z in np.linspace(6.0, 14.0, 11):
            # a z / (2 a^2 + z^2)^2 = 1/900 is a quartic in a; the branch
            # through the point is its one real root in (0, z / sqrt 6).
            roots = np.roots([4.0, 0.0, 4 * z * z, -900.0 * z, z ** 4])
            (a,) = [r.real for r in roots if abs(r.imag) < 1e-9
                    and 0 < r.real < z / math.sqrt(6.0)]
            curve.append(np.array([a, a, z]))
        assert len({tuple(np.round(p, 6)) for p in curve}) >= 10
        for p in curve:
            resid = rss_model(dep_n, 1.0, COS, p)[0] - s_dep
            assert np.linalg.norm(resid) / np.linalg.norm(s_dep) < 1e-9


def test_criterion_02_closed_form_roundtrip():
    with criterion(2, 10.0, "closed-form recovery over 1000 random "
                   "configurations, least squares agreeing"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            profile = make_profile("cosine_power", [rng.uniform(0.5, 3.0)])
            point = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3),
                              rng.uniform(0.5, 5.0)])
            while True:
                planes = rng.normal(size=(3, 3))
                planes /= np.linalg.norm(planes, axis=1)[:, None]
                if (abs(np.linalg.det(planes)) > 0.05
                        and np.min(np.abs(planes @ point))
                        > 1e-3 * np.linalg.norm(point)):
                    break
            k = rng.uniform(1, 100)
            r = readings_for(point, planes, k, profile)
            cf, unique = closed_form(r, k, profile)
            assert unique
            scale = np.linalg.norm(point)
            assert np.linalg.norm(cf - point) < 1e-9 * scale
            # Three readings: the closed form is the fix; least squares
            # started there agrees.
            ls = mflp_least_squares(*r, k, profile, init=cf)
            assert ls.status == STATUS_UNIQUE
            assert np.linalg.norm(ls.point - cf) < 1e-6


def test_criterion_03_signal_extraction():
    with criterion(3, 1.0, "tone extraction: square-wave fundamental, "
                   "dc rejection, linearity"):
        peak = 100.0
        comps = [
            WaveComponent(65.0, peak, "square_ook"),
            WaveComponent(0.0, 850.0, "dc"),
            WaveComponent(100.0, 30.0, "sine"),
        ]
        trace = synthesize_trace(comps, 640.0, 1.0)
        got = extract_amplitude(trace, 65.0)
        expected = OOK_FUNDAMENTAL * peak
        assert abs(got - expected) < 0.02 * expected

        dc_only = synthesize_trace([WaveComponent(0.0, 850.0, "dc")],
                                   640.0, 1.0)
        assert extract_amplitude(dc_only, 65.0) == 0.0

        a1 = extract_amplitude(
            synthesize_trace([WaveComponent(65.0, 1.0, "square_ook")],
                             640.0, 1.0), 65.0)
        a2 = extract_amplitude(
            synthesize_trace([WaveComponent(65.0, 7.25, "square_ook")],
                             640.0, 1.0), 65.0)
        assert abs(a2 - 7.25 * a1) < 1e-9 * a2


def test_criterion_04_three_face_visibility():
    with criterion(4, 5.0, "three-face visibility threshold of the "
                   "half-dodecahedral receiver"):
        dmin = tri_face_min_distance(1.0)
        assert 2.485 <= dmin <= 2.495
        poly = half_dodecahedron(1.0)
        rng = np.random.default_rng(4)
        n = 100_000
        dirs = rng.normal(size=(n, 3))
        dirs[:, 2] = np.abs(dirs[:, 2]) + 1e-9
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        counts = np.sum(poly.normals @ dirs.T > 1e-12, axis=0)
        assert counts.min() >= 3
        # Spot check against the list-based helper.
        for i in range(0, n, 20000):
            assert len(visible_faces(poly, dirs[i])) == counts[i]


def test_criterion_05_noise_sensitivity():
    with criterion(5, 120.0, "single-lamp noise sensitivity: sub-meter at "
                   "full noise, exact when noise-free, monotone"):
        sf = load_scenario(fixture_path("office_single_lamp.json"))
        assert len(sf.points) == 50
        rows, monotone = sensitivity_sweep(
            sf.scenario, sf.points, [0.0, 0.1, 0.2],
            [0.0, math.radians(10.0)], trials=500, seed=42)
        stats = {(e, round(math.degrees(h), 6)): st for e, h, st in rows}
        assert stats[(0.0, 0.0)].mean < 1e-6
        assert stats[(0.2, 10.0)].mean < 1.0
        assert monotone


def test_criterion_06_more_readings_help():
    with criterion(6, 120.0, "multi-reading fusion: nine readings beat "
                   "three under noise"):
        sf = load_scenario(fixture_path("three_lamps.json"))
        scn = sf.scenario
        from dataclasses import replace
        scn = replace(scn, noise=replace(scn.noise, rss_epsilon=0.1))
        # Trial t of point i draws the stream of default_rng((42, t, i)).
        trials, points = 500, np.asarray(sf.points, dtype=float)
        keys = np.stack(np.broadcast_arrays(
            42, np.arange(trials)[:, None], np.arange(len(points))),
            axis=-1).reshape(-1, 3)
        truth = np.tile(points, (trials, 1))
        batch = measure_batch(scn, truth, Attitude(0, 0, 0),
                              KeyedStreams(keys))
        errs = {}
        for m in (3, 9):
            est, status, *_ = locate_batch(scn, batch, PIPELINE_MULTI, m)
            unique = status == STATUS_UNIQUE
            errs[m] = np.linalg.norm(est[unique] - truth[unique], axis=1)
        mean3 = float(np.mean(errs[3]))
        mean9 = float(np.mean(errs[9]))
        assert len(errs[3]) > 4900 and len(errs[9]) > 4900
        assert mean9 < mean3


def test_criterion_07_trilateration():
    with criterion(7, 1.0, "trilateration: exact noise-free recovery, "
                   "collinear lamps rejected"):
        lamps = np.array([[0.0, 0.0, 3.0], [4.0, 0.0, 3.0], [2.0, 3.0, 3.0]])
        truth = np.array([1.5, 1.0, 0.0])
        k = 40.0
        s = []
        for lamp in lamps:
            dz = lamp[2] - truth[2]
            d = np.linalg.norm(lamp - truth)
            s.append(k * dz * float(profile_at(COS, math.acos(dz / d))) / d**3)
        res = trilaterate(lamps, k, COS, s, z_receiver=0.0)
        assert res.status == STATUS_UNIQUE
        assert np.linalg.norm(res.point - truth) < 1e-6

        collinear = np.array([[0.0, 0.0, 3.0], [2.0, 0.0, 3.0],
                              [4.0, 0.0, 3.0]])
        res2 = trilaterate(collinear, k, COS, [1.0, 1.0, 1.0], z_receiver=0.0)
        assert res2.status == STATUS_DEGENERATE


def test_criterion_08_compass_calibration():
    with criterion(8, 30.0, "magnetometer auto-calibration: exact "
                   "noise-free, median under 2 degrees at 1% noise"):
        def wrap_err(a, b):
            return abs((a - b + math.pi) % (2 * math.pi) - math.pi)

        rng = np.random.default_rng(8)
        for _ in range(100):
            dist = EllipseParams(rng.uniform(-0.5, 0.5),
                                 rng.uniform(-0.5, 0.5),
                                 1.0, 1.0 / rng.uniform(1.0, 1.5),
                                 rng.uniform(-1.5, 1.5))
            heading = rng.uniform(0, 2 * math.pi)
            ang = rng.uniform(0, 2 * math.pi, size=60)
            fit = fit_ellipse(
                dist.apply(np.column_stack([np.cos(ang), np.sin(ang)])))
            got = calibrate_heading(synth_distorted_samples(heading, dist),
                                    fit)
            assert wrap_err(got, heading) < 1e-6

        errs = []
        for t in range(500):
            trng = np.random.default_rng((88, t))
            dist = EllipseParams(trng.uniform(-0.5, 0.5),
                                 trng.uniform(-0.5, 0.5),
                                 1.0, 1.0 / trng.uniform(1.0, 1.5),
                                 trng.uniform(-1.5, 1.5))
            heading = trng.uniform(0, 2 * math.pi)
            ang = trng.uniform(0, 2 * math.pi, size=200)
            pts = dist.apply(np.column_stack([np.cos(ang), np.sin(ang)]))
            fit = fit_ellipse(pts + trng.normal(0, 0.01, size=pts.shape))
            samples = synth_distorted_samples(
                heading, dist, noise_sd=0.01,
                seed=int(trng.integers(2**32)))
            errs.append(wrap_err(calibrate_heading(samples, fit), heading))
        assert math.degrees(float(np.median(errs))) < 2.0


def test_criterion_09_deployment_cost():
    with criterion(9, 60.0, "lamp planning: trilateration needs 5x and 9x "
                   "the lamps of the single-lamp pipeline"):
        for name, min_ratio in (("two_room.json", 5), ("four_room.json", 9)):
            sf = load_scenario(fixture_path(name))
            scn = sf.scenario
            counts = {}
            for method in ("mflp", "trilateration"):
                n, _, shortfall = greedy_min_lamps(
                    scn.bounds, scn.obstacles, sf.candidates, method,
                    cell_size=sf.cell_size_m,
                    receiver_height=sf.receiver_height_m)
                assert shortfall == 0
                counts[method] = n
            assert counts["trilateration"] / counts["mflp"] >= min_ratio


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, 60.0, "reporting: same seed gives byte-identical "
                   "CSV and sidecar output"):
        # The fixtures are noise-free; a copy of one with accelerometer,
        # heading and amplitude noise draws every kind of noise, and its
        # output must move with the seed.
        data = json.loads((FIXTURES / "office_single_lamp.json").read_text())
        data["noise"] = {"accel_sd": 0.02, "heading_epsilon_deg": 5.0,
                         "rss_epsilon": 0.05}
        noisy = tmp_path / "noisy_office.json"
        noisy.write_text(json.dumps(data))
        noisy = str(noisy)
        for scenario, extra in (
                (fixture_path("office_single_lamp.json"), []),
                (fixture_path("three_lamps.json"),
                 ["--pipeline", "multi", "--m", "9"]),
                (fixture_path("three_lamps.json"),
                 ["--pipeline", "trilateration"]),
                (noisy, []), (noisy, ["--mode", "end_to_end"])):
            blobs = []
            for name, seed in (("run_a", "123"), ("run_b", "123"),
                               ("run_c", "124")):
                out = tmp_path / f"{name}.csv"
                rc = main(["simulate", "--scenario", scenario, "--out",
                           str(out), "--seed", seed, *extra])
                assert rc == EXIT_OK
                blobs.append((out.read_bytes(), (
                    tmp_path / f"{name}.csv.stats.json").read_bytes()))
            assert blobs[0] == blobs[1]
            assert (blobs[0][0] != blobs[2][0]) == (scenario == noisy)
            side = json.loads(blobs[0][1])
            assert side["seed"] == 123 and side["timestamp"] is None
