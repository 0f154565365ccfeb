"""Scenario file parsing and command-line interface behaviour."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import MISSING, fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightpos.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVE, main
from lightpos.compass import EllipseParams, synth_distorted_samples
from lightpos.geom import Aabb
from lightpos.rss import LampModel, make_profile
from lightpos.scenario import (
    ScenarioFile,
    ScenarioFormatError,
    Trajectory,
    load_scenario,
    parse_scenario,
)
from lightpos.sim import NoiseSpec, ReceiverSpec, Scenario

FIXTURES = resources.files("lightpos") / "fixtures"


def fixture_path(name):
    return str(FIXTURES / name)


MINIMAL = {
    "bounds": {"min": [0, 0, 0], "max": [10, 10, 3]},
    "lamps": [{"position": [5, 5, 3], "k": 40.0, "flash_hz": 65.0}],
}


def _defaults(cls):
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def test_parse_minimal_defaults():
    # A file of only bounds and lamps takes every default of the models.
    sf = parse_scenario(MINIMAL)
    lamp = sf.scenario.lamps[0]
    assert np.allclose(lamp.central_ray, [0, 0, -1])
    assert lamp.profile == make_profile("cosine_power", [1.0])
    assert _defaults(LampModel) == {"range_m": math.inf}
    assert lamp.range_m == math.inf
    assert sf.scenario.receiver.polyhedron.edge_length == \
        ReceiverSpec.default().polyhedron.edge_length
    for obj, cls in ((sf.scenario, Scenario), (sf, ScenarioFile)):
        for name, value in _defaults(cls).items():
            assert getattr(obj, name) == value, name
    assert sf.scenario.noise == NoiseSpec()


def test_parse_converts_heading_noise_to_radians():
    doc = dict(MINIMAL, noise={"heading_epsilon_deg": 10.0})
    sf = parse_scenario(doc)
    assert sf.scenario.noise.heading_epsilon == pytest.approx(
        math.radians(10.0))


def test_schema_error_reports_json_path():
    doc = {"bounds": {"min": [0, 0, 0], "max": [10, 10, 3]},
           "lamps": [{"position": [5, 5, 3], "k": -1.0, "flash_hz": 65.0}]}
    # The lamp's path, and the field its constructor names.
    with pytest.raises(ScenarioFormatError, match="at lamps/0: k must be"):
        parse_scenario(doc)


def test_schema_rejects_unknown_field():
    with pytest.raises(ScenarioFormatError):
        parse_scenario(dict(MINIMAL, bogus=1))


def test_cli_rejects_receiver_base_height(tmp_path, capsys):
    # The receiver model has no base height, so the schema has none.
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(dict(MINIMAL, receiver={"base_height_m": 1.0})))
    rc = main(["coverage", "--scenario", str(p)])
    assert_input_error(capsys, rc, "base_height_m")


def test_model_validation_wrapped_as_format_error():
    doc = dict(MINIMAL)
    doc["lamps"] = [{"position": [50, 5, 3], "k": 40.0, "flash_hz": 65.0}]
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc)


def test_load_scenario_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        load_scenario(p)


@pytest.mark.parametrize("name", [
    "empty_room.json", "office_single_lamp.json", "three_lamps.json",
    "two_room.json", "four_room.json",
])
def test_bundled_fixtures_load(name):
    sf = load_scenario(fixture_path(name))
    assert sf.scenario.lamps or sf.candidates


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("lightpos ")


def test_cli_simulate_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "fixes.csv"
    rc = main(["simulate", "--scenario", fixture_path("empty_room.json"),
               "--out", str(out), "--seed", "7"])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ("time_s,true_x,true_y,true_z,"
                        "est_x,est_y,est_z,error_m,status")
    assert len(lines) > 1
    side = json.loads((tmp_path / "fixes.csv.stats.json").read_text())
    assert side["seed"] == 7
    assert side["timestamp"] is None
    assert side["failures"] == 0
    assert len(side["scenario_sha256"]) == 64


def test_cli_simulate_byte_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["simulate", "--scenario",
                   fixture_path("office_single_lamp.json"),
                   "--out", str(out), "--seed", "11"])
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_simulate_missing_scenario_is_input_error(capsys):
    rc = main(["simulate", "--scenario", "/nonexistent.json"])
    assert rc == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [990, 5000])
def test_cli_deeply_nested_scenario_is_input_error(tmp_path, capsys, depth):
    # A member of 5,000 nested lists is past the JSON decoder's recursion
    # limit; one of 990 is near it, where decoding or reporting the bad
    # member recurses past it.  Either file exits 1 with no traceback.
    text = (FIXTURES / "empty_room.json").read_text(encoding="utf-8")
    end = text.rindex("}")
    p = tmp_path / "nested.json"
    p.write_text(text[:end] + ', "points": ' + "[" * depth + "]" * depth
                 + text[end:], encoding="utf-8")
    assert_input_error(capsys, main(["simulate", "--scenario", str(p)]), "")


@pytest.mark.parametrize("member, path", [
    ('"saturation": {}', "saturation"),
    ('"noise": {{"seed": {}}}', "noise/seed"),
    ('"obstacles": [{{"min": [0, 0, {}], "max": [1, 1, 1]}}]',
     "obstacles/0/min/2"),
])
def test_cli_deeply_nested_member_is_not_a_number(tmp_path, capsys, member,
                                                  path):
    # The loader reads a document by its known shape, so a list nested
    # near the recursion limit where a number belongs fails at a short
    # path, and is named, not printed.
    text = (FIXTURES / "empty_room.json").read_text(encoding="utf-8")
    end = text.rindex("}")
    p = tmp_path / "nested.json"
    p.write_text(text[:end] + ", " + member.format("[" * 900 + "]" * 900)
                 + text[end:], encoding="utf-8")
    assert_input_error(capsys, main(["simulate", "--scenario", str(p)]),
                       f"at {path}: must be ")
    assert "got a list" in str(pytest.raises(
        ScenarioFormatError, load_scenario, p).value)


@pytest.mark.parametrize("command", ["simulate", "sensitivity"])
def test_cli_negative_seed_is_input_error(capsys, command):
    rc = main([command, "--scenario", fixture_path("empty_room.json"),
               "--seed", "-1"])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert "Traceback" not in err


def test_cli_solve_roundtrip(tmp_path, capsys):
    doc = {
        "k": 1.0,
        "readings": [
            {"plane": [1, 0, 0], "s": 1 / 900},
            {"plane": [0, 1, 0], "s": 1 / 900},
            {"plane": [0, 0, 1], "s": 1 / 900},
        ],
    }
    p = tmp_path / "readings.json"
    p.write_text(json.dumps(doc))
    rc = main(["solve", "--input", str(p)])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "unique"
    point = [float(v) for v in out["point"]]
    assert np.allclose(point, [10, 10, 10], atol=1e-6)
    # Three readings are solved in closed form; a fourth is refined.
    assert out["iterations"] == 0
    plane = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    d = math.sqrt(300.0)
    four = doc["readings"] + [{"plane": plane.tolist(),
                               "s": 20 / math.sqrt(2) * (10 / d) / d**3,
                               "lamp_id": 0, "face_id": 2**70}]
    p.write_text(json.dumps(dict(doc, readings=four)))
    assert main(["solve", "--input", str(p)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "unique" and out["iterations"] >= 1
    assert np.allclose([float(v) for v in out["point"]], [10, 10, 10],
                       atol=1e-6)
    # A non-finite amplitude, plane or k, an id that is not a JSON
    # integer, or an empty polynomial profile is bad input, not a failed
    # solve.
    good = doc["readings"][1]
    for key, bad in (("s", math.nan), ("s", math.inf),
                     ("plane", [math.nan, 0, 0]), ("lamp_id", math.inf),
                     ("face_id", "x"), ("lamp_id", 1.5), ("lamp_id", True),
                     ("face_id", "2"), ("face_id", 2.0), ("lamp_id", None)):
        readings = doc["readings"][:1] + [dict(good, **{key: bad})] \
            + doc["readings"][2:]
        p.write_text(json.dumps(dict(doc, readings=readings)))
        assert main(["solve", "--input", str(p)]) == EXIT_INPUT
    for k in (math.nan, -1.0):
        p.write_text(json.dumps(dict(doc, k=k)))
        assert main(["solve", "--input", str(p)]) == EXIT_INPUT
    p.write_text(json.dumps(dict(doc, profile={"kind": "polynomial",
                                               "params": []})))
    assert main(["solve", "--input", str(p)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("error:") for line in err)


@pytest.mark.parametrize("plane", [[1, 0], [1, 0, 0, 0], [[1, 0, 0]]])
def test_cli_solve_rejects_plane_of_wrong_size(tmp_path, capsys, plane):
    readings = [{"plane": [1, 0, 0], "s": 1 / 900},
                {"plane": plane, "s": 1 / 900},
                {"plane": [0, 0, 1], "s": 1 / 900}]
    p = tmp_path / "readings.json"
    p.write_text(json.dumps({"k": 1.0, "readings": readings}))
    assert main(["solve", "--input", str(p)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "three coefficients" in err


@pytest.mark.parametrize("edit", [
    {"lamps": [[0, 0], [4, 0], [0, 4]]},
    {"lamps": [[0, 0, 3, 1], [4, 0, 3, 1], [0, 4, 3, 1]]},
    {"lamps": [0, 4, 3]},
    {"s": [0.5, 0.5]},
    {"s": [0.5, 0.5, 0.5, 0.5]},
    {"s": 0.5},
])
def test_cli_trilaterate_rejects_misshapen_input(tmp_path, capsys, edit):
    doc = {"k": 40.0, "lamps": [[0, 0, 3], [4, 0, 3], [0, 4, 3]],
           "s": [0.5, 0.5, 0.5], "z_receiver": 0.0}
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(dict(doc, **edit)))
    assert main(["trilaterate", "--input", str(p)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(n, 3)" in err
    assert "Traceback" not in err


def test_cli_solve_degenerate_exit_code(tmp_path, capsys):
    doc = {
        "k": 1.0,
        "readings": [
            {"plane": [1, 0, 0], "s": 1 / 900},
            {"plane": [0, 1, 0], "s": 1 / 900},
            {"plane": [1, 2, 0], "s": 3 / (900 * math.sqrt(5))},
        ],
    }
    p = tmp_path / "readings.json"
    p.write_text(json.dumps(doc))
    rc = main(["solve", "--input", str(p)])
    capsys.readouterr()
    assert rc == EXIT_SOLVE
    # A subnormal amplitude overflows the closed form: degenerate, with
    # no warning.
    doc["readings"][2] = {"plane": [0, 0, 1], "s": 1e-320}
    p.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(p)]) == EXIT_SOLVE
    assert capsys.readouterr().err == ""


def test_cli_trilaterate(tmp_path, capsys):
    lamps = np.array([[0.0, 0.0, 3.0], [4.0, 0.0, 3.0], [2.0, 3.0, 3.0]])
    truth = np.array([1.5, 1.0, 0.0])
    k = 40.0
    s = []
    for lamp in lamps:
        dz = lamp[2] - truth[2]
        d = np.linalg.norm(lamp - truth)
        s.append(k * dz * math.cos(math.acos(dz / d)) / d**3)
    doc = {"k": k, "lamps": lamps.tolist(), "s": s, "z_receiver": 0.0}
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(doc))
    rc = main(["trilaterate", "--input", str(p)])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    point = [float(v) for v in out["point"]]
    assert np.allclose(point[:2], truth[:2], atol=1e-5)
    for key, bad in (("s", [s[0], math.nan, s[2]]),
                     ("s", [s[0], math.inf, s[2]]),
                     ("lamps", [lamps[0].tolist(), [4.0, math.nan, 3.0],
                                lamps[2].tolist()]),
                     ("k", math.nan), ("z_receiver", math.inf),
                     ("profile", {"kind": "polynomial", "params": []})):
        p.write_text(json.dumps(dict(doc, **{key: bad})))
        assert main(["trilaterate", "--input", str(p)]) == EXIT_INPUT
    capsys.readouterr()


# Fuzzed solve, trilaterate, signal and calibrate inputs: a well-formed
# document of plausible values, with up to two values replaced by edge
# cases: non-finite, subnormal, huge or zero numbers, or values of the
# wrong type or shape.
_EDGE_VALUES = [0.0, -0.0, -1.0, 1e-320, 1e-300, 1e300, 1e308, math.nan,
                math.inf, -math.inf, 10**400, None, True, "", "x", [], {}]
_edge = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(),
                  st.lists(st.floats(), max_size=4))
# The numbers that size a signal trace (rate, duration, flash frequency)
# take only edge values that make no longer trace and no more harmonics:
# a trace of up to 50,000 samples, with up to 1,000 harmonics per square
# flash, is too slow for a fuzz example.
_SIZES = ("rate_hz", "duration_s", "freq_hz")
_size_edge = st.sampled_from([v for v in _EDGE_VALUES
                              if v not in (1e-320, 1e-300)])
_profiles = st.one_of(
    st.floats(0.5, 3.0).map(lambda g: {"kind": "cosine_power",
                                       "params": [g]}),
    st.floats(-0.6, 0.0).map(lambda a: {"kind": "polynomial",
                                        "params": [1.0, a]}))


def _slots(node):
    """Every (container, key) of a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def _fuzzed(draw, doc):
    doc = draw(doc)
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        node[key] = draw(_size_edge if key in _SIZES else _edge)
    return json.dumps(doc)


_coords = st.floats(-5.0, 5.0)
_solve_docs = _fuzzed(st.fixed_dictionaries({
    "k": st.floats(0.1, 100.0),
    "readings": st.lists(st.fixed_dictionaries(
        {"plane": st.lists(_coords, min_size=3, max_size=3),
         "s": st.floats(1e-3, 10.0)},
        optional={"lamp_id": st.integers(0, 3),
                  "face_id": st.integers(0, 5)}), min_size=3, max_size=6)},
    optional={"profile": _profiles}))
_trilaterate_docs = _fuzzed(st.integers(3, 5).flatmap(
    lambda n: st.fixed_dictionaries(
        {"k": st.floats(1.0, 100.0),
         "lamps": st.lists(st.tuples(_coords, _coords, st.floats(2.0, 4.0))
                           .map(list), min_size=n, max_size=n),
         "s": st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n)},
        optional={"z_receiver": st.floats(-1.0, 1.0),
                  "profile": _profiles})))
_signal_docs = _fuzzed(st.fixed_dictionaries(
    {"components": st.lists(st.fixed_dictionaries(
        {"freq_hz": st.floats(40.0, 150.0), "peak": st.floats(0.0, 1e3)},
        optional={"shape": st.sampled_from(["sine", "square_ook"])}),
        min_size=1, max_size=3),
     "rate_hz": st.floats(320.0, 1000.0),
     "duration_s": st.floats(0.2, 2.0),
     "candidates": st.lists(st.floats(40.0, 150.0), min_size=1, max_size=3)},
    optional={"noise_sd": st.floats(0.0, 5.0),
              "seed": st.integers(0, 2**64)}))


@st.composite
def _calibration(draw):
    """A distorted circle's points, and maybe one heading's samples."""
    q = draw(st.floats(0.5, 1.0))
    dist = EllipseParams(draw(_coords), draw(_coords),
                         q * draw(st.floats(1.0, 2.0)), q,
                         draw(st.floats(-1.5, 1.5)))
    ang = np.linspace(0, 2 * math.pi, draw(st.integers(6, 12)),
                      endpoint=False)
    doc = {"points": dist.apply(np.column_stack([np.cos(ang), np.sin(ang)])
                                ).tolist()}
    if draw(st.booleans()):
        doc["samples"] = [
            {"mx": s.mx, "my": s.my, "sensor": s.sensor}
            for s in synth_distorted_samples(draw(st.floats(0.0, 6.0)), dist)]
        doc.update(draw(st.fixed_dictionaries({}, optional={
            "pitch_deg": st.floats(-30.0, 30.0),
            "roll_deg": st.floats(-30.0, 30.0)})))
    return doc


_calibrate_docs = _fuzzed(_calibration())

_WORKED = {"k": 1.0, "readings": [{"plane": [1, 0, 0], "s": 1 / 900},
                                  {"plane": [0, 1, 0], "s": 1 / 900},
                                  {"plane": [0, 0, 1], "s": 1 / 900}]}
_TRIANGLE = {"k": 40.0, "lamps": [[0, 0, 3], [4, 0, 3], [2, 3, 3]],
             "s": [0.5, 0.6, 0.7], "z_receiver": 0.0}
_EMPTY_POLYNOMIAL = {"kind": "polynomial", "params": []}
_TONE = {"components": [{"freq_hz": 65.0, "peak": 100.0}], "rate_hz": 640.0,
         "duration_s": 1.0, "candidates": [65.0], "noise_sd": 1.0}
_CIRCLE = [[math.cos(a), math.sin(a)] for a in np.arange(6) * math.pi / 3]


def _worked_with(key, value):
    """The worked example's readings, the second one's ``key`` set to
    ``value``, as JSON text."""
    readings = [dict(r) for r in _WORKED["readings"]]
    readings[1][key] = value
    return json.dumps(dict(_WORKED, readings=readings))


@pytest.fixture(scope="module")
def _input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _assert_fails_only_at_the_boundary(argv):
    # Whatever the JSON, each command exits 0, 1 (stderr opens with
    # "error:") or 2, and nothing escapes as a traceback; a leaked
    # RuntimeWarning is an error under the test configuration.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_SOLVE)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if rc == EXIT_INPUT:
        assert err.getvalue().startswith("error:")
    else:
        assert err.getvalue() == ""


@settings(max_examples=600, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just("solve"), _solve_docs),
    st.tuples(st.just("trilaterate"), _trilaterate_docs),
    st.tuples(st.just("signal"), _signal_docs),
    st.tuples(st.just("calibrate"), _calibrate_docs)))
@example(case=("signal", json.dumps(dict(_TONE, components=[1]))))
@example(case=("signal", json.dumps(dict(_TONE, components={"a": 1}))))
@example(case=("signal", json.dumps(dict(_TONE, duration_s=1e308))))
@example(case=("signal", json.dumps(dict(_TONE, seed=None))))
@example(case=("signal", json.dumps(dict(_TONE, noise_sd=1e308))))
@example(case=("calibrate", json.dumps({"points": [1, 2, 3, 4, 5, 6]})))
@example(case=("calibrate", json.dumps({"points": _CIRCLE, "samples": [
    {"mx": x, "my": y, "sensor": 1.5} for x, y in _CIRCLE]})))
@example(case=("calibrate", json.dumps({"points": _CIRCLE, "samples": [
    {"mx": x, "my": y} for x, y in _CIRCLE], "pitch_deg": math.nan})))
@example(case=("solve", json.dumps(dict(_WORKED,
                                        profile=_EMPTY_POLYNOMIAL))))
@example(case=("trilaterate", json.dumps(dict(_TRIANGLE,
                                              profile=_EMPTY_POLYNOMIAL))))
@example(case=("solve", _worked_with("s", 1e-320)))
@example(case=("solve", _worked_with("lamp_id", 1).replace(
    '"lamp_id": 1', '"lamp_id": 1e400')))
@example(case=("solve", _worked_with("face_id", 1).replace(
    '"face_id": 1', '"face_id": 1e400')))
@example(case=("solve", json.dumps(dict(_WORKED, readings=[
    {"plane": plane, "s": 1.0} for plane in (
        [1, 0, 0], [0, 0, 1], [0, 0, 1], [0, 2.225073858507e-311, 1])]))))
@example(case=("trilaterate", json.dumps(dict(
    _TRIANGLE, lamps=[[1e300, 0, 3], [4, 0, 3], [2, 3, 3]]))))
@example(case=("trilaterate", json.dumps(dict(_TRIANGLE, k=1e308))))
@example(case=("solve", _worked_with("plane", [1, 0])))
@example(case=("solve", _worked_with("plane", [1, 0, 0, 0])))
@example(case=("solve", _worked_with("plane", [0, 0, 0])))
@example(case=("solve", _worked_with("plane", [math.nan, 0, 1])))
@example(case=("solve", _worked_with("plane", [math.inf, 0, 1])))
@example(case=("solve", _worked_with("s", 0.0)))
@example(case=("solve", _worked_with("s", -1.0)))
@example(case=("solve", _worked_with("s", math.nan)))
@example(case=("solve", _worked_with("s", math.inf)))
def test_cli_solvers_fail_only_at_the_boundary(_input_path, case):
    command, text = case
    _input_path.write_text(text)
    _assert_fails_only_at_the_boundary([command, "--input", str(_input_path)])


# Fuzzed coverage scenarios: a floor plan fixture at a coarse grid, with up
# to two values replaced by edge cases.  The base grids have cells of
# 0.5 m or more on floors of at most 12 x 12 m, at most 576 cells, so an
# example plans in milliseconds; an edge value can refine the grid only up
# to sim.MAX_GRID_CELLS, past which grid_cells rejects it unallocated.
_FLOORS = [(FIXTURES / f"{name}.json").read_text(encoding="utf-8")
           for name in ("two_room", "four_room")]


def _floor(text, cell_size, height):
    return dict(json.loads(text), coverage={"cell_size_m": cell_size,
                                            "receiver_height_m": height})


_coverage_docs = _fuzzed(st.builds(_floor, st.sampled_from(_FLOORS),
                                   st.floats(0.5, 3.0), st.floats(0.0, 2.5)))


@settings(max_examples=100, deadline=None)
@given(text=_coverage_docs, method=st.sampled_from(["mflp", "trilateration"]),
       plan=st.booleans())
# Grids of 7.2e13 and 7.2e7 cells: before the cell cap, the first failed
# with MemoryError and the second was killed while allocating.
@example(text=json.dumps(_floor(_FLOORS[0], 1e-6, 1.0)), method="mflp",
         plan=False)
@example(text=json.dumps(_floor(_FLOORS[0], 1e-6, 1.0)), method="mflp",
         plan=True)
@example(text=json.dumps(_floor(_FLOORS[0], 1e-3, 1.0)), method="mflp",
         plan=False)
@example(text=json.dumps(_floor(_FLOORS[0], 1e-3, 1.0)), method="mflp",
         plan=True)
def test_cli_coverage_fails_only_at_the_boundary(_input_path, text, method,
                                                 plan):
    _input_path.write_text(text)
    _assert_fails_only_at_the_boundary(
        ["coverage", "--scenario", str(_input_path), "--method", method,
         *(["--plan"] if plan else [])])


# Fuzzed simulate and sensitivity scenarios: a fixture with points, cut
# to one to three of them or to a trajectory through two or three of them,
# with lamps that may lean up to 0.3 off vertical and optional noise, and
# up to two values replaced by edge cases.  The counts stay small so an
# example runs in milliseconds in either mode: a trajectory at 1-2 m/s
# every 0.5-1 s through fixture points samples at most ~50 epochs, and
# the sweep is 2 x 2 cells of two trials per point, at most 24 fixes.  An
# edge value can lengthen a trajectory only up to
# sim.MAX_TRAJECTORY_EPOCHS, past which it raises unsampled, and a trace
# only up to signal.MAX_TRACE_SAMPLES.
_RUN_FLOORS = [(FIXTURES / f"{name}.json").read_text(encoding="utf-8")
               for name in ("empty_room", "office_single_lamp",
                            "three_lamps")]
_lean = st.floats(-0.3, 0.3)


@st.composite
def _run_floor(draw):
    doc = json.loads(draw(st.sampled_from(_RUN_FLOORS)))
    for lamp in doc["lamps"]:
        if draw(st.booleans()):
            lamp["central_ray"] = [draw(_lean), draw(_lean), -1.0]
    doc["noise"] = draw(st.fixed_dictionaries({}, optional={
        "rss_epsilon": st.sampled_from([0.0, 0.1]),
        "heading_epsilon_deg": st.sampled_from([0.0, 5.0]),
        "accel_sd": st.sampled_from([0.0, 0.05]),
        "trace_noise_sd": st.sampled_from([0.0, 0.5])}))
    points = draw(st.lists(st.sampled_from(doc["points"]), min_size=1,
                           max_size=3))
    if len(points) > 1 and draw(st.booleans()):
        del doc["points"]
        doc["trajectory"] = {"waypoints": points,
                             "speed_mps": draw(st.floats(1.0, 2.0)),
                             "interval_s": draw(st.floats(0.5, 1.0))}
    else:
        doc["points"] = points
    return doc


_WALK = dict(json.loads(_RUN_FLOORS[2]), trajectory={
    "waypoints": [[6, 5, 0], [10, 6.5, 0]], "speed_mps": 1.0,
    "interval_s": 1e-320})
del _WALK["points"]


@settings(max_examples=100, deadline=None)
@given(text=_fuzzed(_run_floor()),
       command=st.sampled_from(["simulate", "sensitivity"]),
       pipeline=st.sampled_from(["mflp", "multi", "trilateration"]),
       m=st.integers(2, 9), mode=st.sampled_from(["fast", "end_to_end"]))
# A subnormal interval, and a waypoint whose path length overflows: before
# the epoch cap, both sampled without end.
@example(text=json.dumps(_WALK), command="simulate",
         pipeline="trilateration", m=3, mode="fast")
@example(text=json.dumps(dict(_WALK, trajectory=dict(
    _WALK["trajectory"], interval_s=0.5,
    waypoints=[[6, 5, 0], [1e300, 6.5, 0]]))), command="simulate",
         pipeline="mflp", m=3, mode="fast")
def test_cli_runs_fail_only_at_the_boundary(_input_path, text, command,
                                            pipeline, m, mode):
    _input_path.write_text(text)
    argv = [command, "--scenario", str(_input_path), "--pipeline", pipeline]
    if command == "simulate":
        argv += ["--m", str(m), "--mode", mode]
    else:
        argv += ["--eps", "0,0.1", "--eps-h-deg", "0,5", "--trials", "2"]
    _assert_fails_only_at_the_boundary(argv)


def test_cli_calibrate(tmp_path, capsys):
    dist = EllipseParams(0.2, -0.1, 1.3, 0.9, 0.4)
    ang = np.linspace(0, 2 * math.pi, 60, endpoint=False)
    pts = dist.apply(np.column_stack([np.cos(ang), np.sin(ang)]))
    heading = 1.2
    samples = synth_distorted_samples(heading, dist)
    doc = {
        "points": pts.tolist(),
        "samples": [{"mx": s.mx, "my": s.my, "sensor": s.sensor}
                    for s in samples],
    }
    p = tmp_path / "cal.json"
    p.write_text(json.dumps(doc))
    rc = main(["calibrate", "--input", str(p)])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert float(out["heading_deg"]) == pytest.approx(
        math.degrees(heading), abs=1e-6)
    assert float(out["ellipse"]["cx"]) == pytest.approx(0.2, abs=1e-7)


def test_cli_coverage_and_plan(capsys):
    rc = main(["coverage", "--scenario", fixture_path("two_room.json"),
               "--method", "mflp"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= float(out["coverage"]["fraction"]) <= 1.0

    rc = main(["coverage", "--scenario", fixture_path("two_room.json"),
               "--method", "trilateration", "--plan"])
    assert rc == EXIT_OK
    plan = json.loads(capsys.readouterr().out)["plan"]
    assert plan["lamps"] == 5
    assert plan["uncovered_cells"] == 0


def _edited_two_room(tmp_path, edit):
    with open(fixture_path("two_room.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity literals
    return str(path)


@pytest.mark.parametrize("edit", [
    lambda d: d["obstacles"][0]["min"].__setitem__(1, math.nan),
    lambda d: d["bounds"]["max"].__setitem__(0, math.inf),
    lambda d: d["lamps"][0].__setitem__("k", math.nan),
    lambda d: d["candidates"][2]["position"].__setitem__(2, math.nan),
    lambda d: d["candidates"][0].__setitem__("flash_hz", math.inf),
    lambda d: d["candidates"][0].__setitem__("range_m", math.nan),
    lambda d: d["coverage"].__setitem__("cell_size_m", math.nan),
    lambda d: d["coverage"].__setitem__("receiver_height_m", math.inf),
    lambda d: d["bounds"]["max"].__setitem__(0, 10**400),
], ids=["obstacle-corner", "bounds-corner", "lamp-k", "candidate-position",
        "candidate-flash", "candidate-range", "cell-size", "height",
        "bounds-huge-int"])
def test_cli_coverage_rejects_non_finite_scenario(tmp_path, capsys, edit):
    path = _edited_two_room(tmp_path, edit)
    with pytest.raises(ScenarioFormatError, match="not finite"):
        load_scenario(path)
    for extra in ([], ["--plan"]):
        rc = main(["coverage", "--scenario", path, "--method", "mflp",
                   *extra])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: at ")


def test_huge_integer_seed_is_finite():
    # 10**400 is past the float range, yet a seed is an integer.
    sf = parse_scenario(dict(MINIMAL, noise={"seed": 10**400}))
    assert sf.scenario.noise.seed == 10**400


_BASE_FILE = parse_scenario(MINIMAL)
_WAYPOINTS = ((4.0, 4.0, 0.0), (6.0, 6.0, 0.0))


@pytest.mark.parametrize("build, field", [
    *[(lambda v=v: replace(_BASE_FILE.scenario, saturation=v), "saturation")
      for v in (0.0, -1.0, math.nan, math.inf)],
    *[(lambda v=v: replace(_BASE_FILE.scenario, ambient_dc=v), "ambient_dc")
      for v in (-5.0, math.nan, math.inf)],
    *[(lambda v=v: NoiseSpec(seed=v), "seed")
      for v in (-1, True, 3.0, "1", None)],
    *[(lambda v=v: Trajectory(_WAYPOINTS, v, 0.5), "speed_mps")
      for v in (0.0, -1.0, math.nan, math.inf)],
    *[(lambda v=v: Trajectory(_WAYPOINTS, 1.0, v), "interval_s")
      for v in (0.0, -1.0, math.nan, math.inf)],
    (lambda: Trajectory(_WAYPOINTS[:1], 1.0, 0.5), "2 waypoints"),
    *[(lambda v=v: replace(_BASE_FILE, cell_size_m=v), "cell_size_m")
      for v in (0.0, -1.0, math.nan, math.inf)],
    *[(lambda v=v: replace(_BASE_FILE, receiver_height_m=v),
       "receiver_height_m") for v in (math.nan, math.inf, -math.inf)],
    *[(lambda v=v: ReceiverSpec.default(v), "edge length")
      for v in (math.nan, math.inf)],
])
def test_models_reject_what_files_may_not_hold(build, field):
    # The rules a scenario file's values follow are the constructors', so
    # the Python API keeps them too; each error names its field.
    with pytest.raises(ValueError, match=field):
        build()


def test_seed_of_any_integer_size_is_valid():
    assert NoiseSpec(seed=10**400).seed == 10**400
    assert NoiseSpec(seed=0).seed == 0


def test_non_finite_number_reports_json_path():
    doc = dict(MINIMAL, noise={"accel_sd": math.nan},
               points=[[1, 1, 0], [2, math.inf, 0]])
    with pytest.raises(ScenarioFormatError, match="at noise/accel_sd"):
        parse_scenario(doc)
    del doc["noise"]
    with pytest.raises(ScenarioFormatError, match="at points/1/1"):
        parse_scenario(doc)


def _api_build(doc) -> ScenarioFile:
    """The model of a well-shaped scenario document built through the
    constructors alone, as a Python API caller would build it."""
    def lamp(obj):
        profile = obj.get("profile", {"kind": "cosine_power", "params": [1]})
        return LampModel(obj["position"], obj.get("central_ray", [0, 0, -1]),
                         obj["k"], make_profile(**profile), obj["flash_hz"],
                         **{k: obj[k] for k in ("range_m",) if k in obj})

    def box(obj):
        return Aabb(obj["min"], obj["max"])

    noise = dict(doc.get("noise", {}))
    if "heading_epsilon_deg" in noise:
        noise["heading_epsilon"] = math.radians(
            noise.pop("heading_epsilon_deg"))
    scn = Scenario(box(doc["bounds"]),
                   [box(obj) for obj in doc.get("obstacles", [])],
                   [lamp(obj) for obj in doc["lamps"]],
                   ReceiverSpec.default(*doc.get("receiver", {}).values()),
                   NoiseSpec(**noise),
                   **{k: doc[k] for k in ("saturation", "ambient_dc",
                                          "sample_rate_hz", "window_s")
                      if k in doc})
    walk = doc.get("trajectory")
    return ScenarioFile(
        scn, tuple(doc.get("points", ())),
        walk and Trajectory(tuple(walk["waypoints"]), walk["speed_mps"],
                            walk["interval_s"]),
        tuple(lamp(obj) for obj in doc.get("candidates", ())),
        **doc.get("coverage", {}))


def _agreement_docs():
    """Fixture documents that set every field a scenario file may hold."""
    three = json.loads(_RUN_FLOORS[2])
    three.update(noise={"rss_epsilon": 0.1, "heading_epsilon_deg": 5.0,
                        "accel_sd": 0.05, "trace_noise_sd": 0.5, "seed": 3},
                 receiver={"edge_length_m": 0.05}, saturation=1000.0,
                 ambient_dc=850.0, sample_rate_hz=640.0)
    three["lamps"][0]["profile"] = {"kind": "polynomial",
                                    "params": [1.0, -0.4]}
    three["lamps"][1]["central_ray"] = [0.1, 0.0, -1.0]
    walk = {key: value for key, value in three.items() if key != "points"}
    walk["trajectory"] = {"waypoints": [[6, 5, 0], [10, 6.5, 0]],
                          "speed_mps": 1.0, "interval_s": 0.5}
    return [three, walk, json.loads(_FLOORS[0])]


_AGREEMENT_DOCS = _agreement_docs()


def _paths(node, path=()):
    """The JSON path of every member of a document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _is_number(x):
    return type(x) in (int, float)


@st.composite
def _one_edit(draw):
    """A fixture document with one edit, the edited member's path, and
    the new number when a number replaced a number (else None).  An edit
    sets an edge value, or deletes a member, or adds a key or list item."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_AGREEMENT_DOCS))))
    path = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    kind = draw(st.sampled_from(["value", "delete", "add"]))
    if kind == "value":
        old = node[path[-1]]
        node[path[-1]] = draw(st.sampled_from(
            [0, -1, 0.2000001, 1e308, math.nan, 3.0, True, "1"]))
        new = node[path[-1]]
        return doc, path, new if _is_number(old) and _is_number(new) else None
    member = node[path[-1]]
    if kind == "delete":
        del node[path[-1]]  # a key, or a list item: a list too short
    elif type(member) is dict:
        member["bogus"], path = 1.0, path + ("bogus",)
    elif type(member) is list and member:
        member.append(member[-1])  # a list too long
    return doc, path, None


def _ok(build):
    try:
        build()
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(case=_one_edit())
@example(case=(dict(_AGREEMENT_DOCS[0], saturation=-1), ("saturation",),
               -1))
@example(case=(dict(_AGREEMENT_DOCS[0], ambient_dc=-1), ("ambient_dc",),
               -1))
@example(case=(dict(_AGREEMENT_DOCS[0], noise=dict(
    _AGREEMENT_DOCS[0]["noise"], seed=3.0)), ("noise", "seed"), 3.0))
@example(case=(dict(_AGREEMENT_DOCS[1], trajectory=dict(
    _AGREEMENT_DOCS[1]["trajectory"], speed_mps=0)),
               ("trajectory", "speed_mps"), 0))
@example(case=(dict(_AGREEMENT_DOCS[2], coverage={"cell_size_m": -1}),
               ("coverage", "cell_size_m"), -1))
def test_loader_agrees_with_the_api(_input_path, case):
    # One edit to a fixture: the loader either loads the document or
    # names the edited member, or an object enclosing it.  A finite number
    # in place of a number is rejected exactly when the constructors,
    # given it through the Python API, reject it; a NaN always is.  Every
    # rejection exits 1 from the CLI with the same path.
    doc, path, number = case
    loaded = _ok(lambda: parse_scenario(doc))
    if number is not None:
        assert loaded == (not math.isnan(number)
                          and _ok(lambda: _api_build(doc)))
    if loaded:
        return
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(doc)
    at = str(exc.value).split(": ", 1)[0]
    assert at.startswith("at ")
    if at != "at (top level)":
        named = at[3:].split("/")
        assert named == [str(key) for key in path[:len(named)]]
    _input_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["coverage", "--scenario", str(_input_path)]) \
            == EXIT_INPUT
    assert err.getvalue().startswith(f"error: {at}: ")


def test_cli_coverage_candidate_on_cell_center_is_input_error(tmp_path,
                                                              capsys):
    # Cells are 0.5 m at height 1.0, so (0.25, 0.25, 1.0) is a cell center.
    path = _edited_two_room(tmp_path, lambda d: d["candidates"][1].update(
        position=[0.25, 0.25, 1.0]))
    rc = main(["coverage", "--scenario", path, "--plan"])
    assert rc == EXIT_INPUT
    assert "cell center" in capsys.readouterr().err


def _edited_three_lamps(tmp_path, edit):
    with open(fixture_path("three_lamps.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("edit, message", [
    # 640 Hz sampling: Nyquist is 320 Hz.
    (lambda d: d["lamps"][0].update(flash_hz=330.0), "Nyquist"),
    (lambda d: d["lamps"][0].update(flash_hz=320.0), "Nyquist"),
    (lambda d: d.update(sample_rate_hz=100.0), "Nyquist"),
    # A 0.4 s window holds 256 samples, 0.8 periods of a 2 Hz flash.
    (lambda d: d["lamps"][0].update(flash_hz=2.0), "shorter than one period"),
    (lambda d: d.update(window_s=0.01), "shorter than one period"),
], ids=["above-nyquist", "at-nyquist", "slow-sampling", "slow-flash",
        "short-window"])
def test_cli_rejects_unsampleable_flash(tmp_path, capsys, edit, message):
    path = _edited_three_lamps(tmp_path, edit)
    with pytest.raises(ScenarioFormatError, match=message):
        load_scenario(path)
    rc = main(["simulate", "--scenario", path, "--mode", "end_to_end"])
    assert rc == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_flash_just_below_nyquist_and_one_period_accepted(tmp_path):
    # 319 Hz stays below Nyquist; 2.5 Hz fills exactly one period of 256
    # samples at 640 Hz.
    load_scenario(_edited_three_lamps(
        tmp_path, lambda d: d["lamps"][0].update(flash_hz=319.0)))
    load_scenario(_edited_three_lamps(
        tmp_path, lambda d: d["lamps"][0].update(flash_hz=2.5)))


def test_cli_plan_rejects_candidate_outside_bounds(tmp_path, capsys):
    path = _edited_two_room(
        tmp_path, lambda d: d["candidates"][3]["position"].__setitem__(0, 60.0))
    with pytest.raises(ScenarioFormatError,
                       match=r"at \(top level\): candidates/3 lies outside"):
        load_scenario(path)
    rc = main(["coverage", "--scenario", path, "--plan"])
    assert rc == EXIT_INPUT
    assert "candidates/3" in capsys.readouterr().err


def test_cli_sensitivity(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sensitivity", "--scenario", fixture_path("empty_room.json"),
               "--eps", "0,0.1", "--eps-h-deg", "0", "--trials", "5",
               "--out", str(out), "--seed", "3"])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rss_epsilon,heading_epsilon_deg,median")
    assert len(lines) == 3
    side = json.loads((tmp_path / "sweep.csv.stats.json").read_text())
    assert side["mean_monotone_in_rss_epsilon"] is True


def assert_input_error(capsys, rc, flag):
    assert rc == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid, message", [
    (["--eps", "abc"], "--eps"),
    (["--eps", "0.5"], "rss_epsilon"),
    (["--eps=-0.1"], "rss_epsilon"),
    (["--eps-h-deg", "inf"], "finite"),
    (["--eps-h-deg", "0,nan"], "finite"),
])
def test_cli_sensitivity_rejects_bad_grid_value(capsys, grid, message):
    # Checked before the first cell runs: no rows, no traceback, and no
    # RuntimeWarning from drawing heading noise of an infinite bound.
    rc = main(["sensitivity", "--scenario", fixture_path("empty_room.json"),
               "--trials", "1", *grid])
    assert_input_error(capsys, rc, message)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cli_sensitivity_rejects_trials_below_one(capsys, trials):
    rc = main(["sensitivity", "--scenario", fixture_path("empty_room.json"),
               "--eps", "0", "--eps-h-deg", "0", "--trials", trials])
    assert_input_error(capsys, rc, "trials")


@pytest.mark.parametrize("path", ["points", "trajectory"])
def test_cli_simulate_multi_with_two_readings_is_input_error(
        tmp_path, capsys, path):
    # Both the static and the trajectory run reject m < 3 before any fix,
    # instead of marking every fix degenerate and exiting 2.
    doc = dict(MINIMAL)
    if path == "points":
        doc["points"] = [[4.0, 4.0, 0.0], [6.0, 6.0, 0.0]]
    else:
        doc["trajectory"] = {"waypoints": [[4, 4, 0], [6, 6, 0]],
                             "speed_mps": 1.0, "interval_s": 0.5}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(doc))
    rc = main(["simulate", "--scenario", str(p), "--pipeline", "multi",
               "--m", "2"])
    assert_input_error(capsys, rc, "three readings")


@pytest.mark.parametrize("frac", ["nan", "inf", "-0.1", "1.5"])
def test_cli_simulate_rejects_bad_max_failure_frac(capsys, frac):
    rc = main(["simulate", "--scenario", fixture_path("empty_room.json"),
               "--max-failure-frac", frac])
    assert_input_error(capsys, rc, "--max-failure-frac")


def test_cli_signal(tmp_path, capsys):
    doc = {
        "components": [
            {"freq_hz": 65.0, "peak": 100.0},
            {"peak": 850.0, "shape": "dc"},
        ],
        "rate_hz": 640.0,
        "duration_s": 1.0,
        "candidates": [55.0, 65.0, 75.0],
    }
    p = tmp_path / "sig.json"
    p.write_text(json.dumps(doc))
    rc = main(["signal", "--input", str(p)])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "freq_hz,amplitude"
    vals = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert vals[55.0] == 0.0
    assert vals[65.0] == pytest.approx(200.0 / math.pi, rel=1e-6)


def test_cli_signal_bad_input_exit_code(tmp_path, capsys):
    p = tmp_path / "sig.json"
    p.write_text(json.dumps({"components": [], "rate_hz": 640.0}))
    rc = main(["signal", "--input", str(p)])
    capsys.readouterr()
    assert rc == EXIT_INPUT


def test_cli_signal_noise_is_reproducible(tmp_path, capsys):
    p = tmp_path / "sig.json"
    outs = []
    for seed in (0, 0, 1):
        p.write_text(json.dumps(dict(_TONE, seed=seed)))
        assert main(["signal", "--input", str(p)]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]
    p.write_text(json.dumps(_TONE))  # the seed defaults to 0
    assert main(["signal", "--input", str(p)]) == EXIT_OK
    assert capsys.readouterr().out == outs[0]


@pytest.mark.parametrize("command, doc, message", [
    ("signal", dict(_TONE, seed=None), "seed"),
    ("signal", dict(_TONE, seed=-1), "seed"),
    ("signal", dict(_TONE, seed=1.0), "seed"),
    ("signal", dict(_TONE, seed=True), "seed"),
    ("signal", dict(_TONE, components=[1]), "component"),
    ("signal", dict(_TONE, duration_s=1e308), "infinity"),
    ("signal", dict(_TONE, candidates="7"), "at candidates: must be a list"),
    ("signal", dict(_TONE, components={}), "at components: must be a list"),
    ("signal", dict(_TONE, duration_s=100.0), "samples"),
    ("signal", dict(_TONE, components=[{"freq_hz": 0.15, "peak": 1.0}]),
     "harmonics"),
    ("calibrate", {"points": [1, 2, 3, 4, 5, 6]}, "(n, 2)"),
    ("calibrate", {"points": _CIRCLE, "samples": [
        {"mx": x, "my": y, "sensor": 1.5} for x, y in _CIRCLE]}, "sensor"),
], ids=["seed-null", "seed-negative", "seed-float", "seed-bool",
        "component-number", "duration-huge", "candidates-string",
        "components-object", "samples-over-cap", "harmonics-over-cap",
        "points-flat", "sensor-float"])
def test_cli_signal_and_calibrate_reject_bad_values(tmp_path, capsys,
                                                    command, doc, message):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(doc))
    assert_input_error(capsys, main([command, "--input", str(p)]), message)


# Every value a JSON command reads as a number must be a JSON number: a
# string or a boolean exits 1 naming its field.  Each of these documents
# was read as a number before, and each command exited 0 on it.
def _with(doc, path, value):
    """A copy of ``doc`` whose member at ``path`` is ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _assert_not_a_number(tmp_path, capsys, command, doc, path, value):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(_with(doc, path, value)))
    field = "/".join(str(key) for key in path)
    assert_input_error(capsys, main([command, "--input", str(p)]),
                       f"at {field}: must be a number")


_COS_ONE = dict(_WORKED, profile={"kind": "cosine_power", "params": [1]})
_SAMPLED = {"points": _CIRCLE, "samples": [{"mx": 1.0, "my": 0.0}]}


@pytest.mark.parametrize("doc, path, value", [
    (_WORKED, ("k",), "1.0"), (_WORKED, ("k",), True),
    (_WORKED, ("readings", 1, "s"), str(1 / 900)),
    (_WORKED, ("readings", 1, "s"), True),
    (_WORKED, ("readings", 1, "plane", 1), True),
    (_WORKED, ("readings", 1, "plane", 1), "1"),
    (_COS_ONE, ("profile", "params", 0), True),
    (_COS_ONE, ("profile", "params", 0), "1"),
])
def test_cli_solve_rejects_strings_and_booleans(tmp_path, capsys, doc,
                                                path, value):
    _assert_not_a_number(tmp_path, capsys, "solve", doc, path, value)


@pytest.mark.parametrize("path, value", [
    (("k",), "1"), (("k",), True), (("z_receiver",), True),
    (("z_receiver",), "0"), (("lamps", 1, 0), "4"), (("lamps", 1, 2), True),
    (("s", 1), "0.6"), (("s", 1), True),
])
def test_cli_trilaterate_rejects_strings_and_booleans(tmp_path, capsys,
                                                      path, value):
    _assert_not_a_number(tmp_path, capsys, "trilaterate", _TRIANGLE, path,
                         value)


@pytest.mark.parametrize("path, value", [
    (("points", 0, 0), "1.0"), (("points", 0, 0), True),
    (("samples", 0, "mx"), True), (("pitch_deg",), True),
])
def test_cli_calibrate_rejects_strings_and_booleans(tmp_path, capsys,
                                                    path, value):
    _assert_not_a_number(tmp_path, capsys, "calibrate", _SAMPLED, path,
                         value)


@pytest.mark.parametrize("path, value", [
    (("components", 0, "peak"), True), (("candidates", 1), "85"),
    (("candidates", 0), True), (("noise_sd",), True),
    (("duration_s",), True),
])
def test_cli_signal_rejects_strings_and_booleans(tmp_path, capsys, path,
                                                 value):
    _assert_not_a_number(tmp_path, capsys, "signal",
                         dict(_TONE, candidates=[65.0, 85.0]), path, value)


@pytest.mark.parametrize("depth", [900, 5000])
def test_cli_deeply_nested_input_is_input_error(tmp_path, capsys, depth):
    # Past numpy's 64 dimensions, and past the JSON decoder's recursion
    # limit, a nested plane exits 1 with no traceback.
    p = tmp_path / "input.json"
    p.write_text('{"k": 1.0, "readings": [{"s": 1.0, "plane": '
                 + "[" * depth + "1" + "]" * depth + "}]}")
    assert_input_error(capsys, main(["solve", "--input", str(p)]), "")
