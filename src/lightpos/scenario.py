"""Scenario file loading: a JSON document's shape, read into the model.

Files use meters, degrees, and Hz; angles are converted to radians on
load.  The loader checks each object's keys, each list's length and that
every number is a finite JSON number; the model constructors own every
value rule, for files and the Python API alike.  An error opens with the
JSON path of the bad member, or of the object whose constructor rejected
it: ``at lamps/1: k must be finite and > 0, got -1.0``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geom import Aabb, check_finite
from .rss import KIND_COSINE_POWER, EmissionProfile, LampModel, make_profile
from .sim import NoiseSpec, ReceiverSpec, Scenario

# A scenario document's top-level keys; bounds and lamps are required.
SCENARIO_KEYS = ("bounds", "lamps", "obstacles", "candidates", "receiver",
                 "noise", "saturation", "ambient_dc", "sample_rate_hz",
                 "window_s", "points", "trajectory", "coverage")

# The Python types a decoded JSON value of each kind has.  A JSON
# boolean is no number, though Python's bool is an int.
_JSON_TYPES = {"an integer": (int,), "a number": (int, float),
               "a number or null": (int, float, type(None)),
               "a string": (str,), "a list": (list,), "an object": (dict,)}


class ScenarioFormatError(ValueError):
    """Raised for scenario files that break a shape or model rule."""


@dataclass(frozen=True)
class Trajectory:
    """A piecewise-linear walk through its waypoints, sampled every
    ``interval_s`` seconds at ``speed_mps``."""

    waypoints: tuple
    speed_mps: float
    interval_s: float

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a trajectory needs at least 2 waypoints, got "
                             f"{len(self.waypoints)}")
        # The rules sim.sample_trajectory applies to its speed and interval.
        check_finite("speed_mps", self.speed_mps, 0, strict=True)
        check_finite("interval_s", self.interval_s, 0, strict=True)


@dataclass(frozen=True)
class ScenarioFile:
    """A validated scenario plus its evaluation inputs."""

    scenario: Scenario
    points: tuple = ()
    trajectory: Trajectory | None = None
    candidates: tuple = ()
    cell_size_m: float = 0.3
    receiver_height_m: float = 0.0

    def __post_init__(self):
        # The rules sim.grid_cells applies to its cell size and height.
        check_finite("cell_size_m", self.cell_size_m, 0, strict=True)
        check_finite("receiver_height_m", self.receiver_height_m)
        for i, lamp in enumerate(self.candidates):
            if not self.scenario.bounds.contains(lamp.position):
                raise ValueError(f"candidates/{i} lies outside the scenario "
                                 "bounds")


def _json(value, path: str, kind: str = "a number"):
    """``value`` if JSON gave it as ``kind`` (a key of _JSON_TYPES), and
    finite if it is a number, unless ``kind`` is "an integer" (of any
    size); else a ValueError naming the member by its JSON ``path``."""
    if type(value) not in _JSON_TYPES[kind]:
        # A container is named, not printed: it may nest deep.
        got = {list: "a list", dict: "an object"}.get(type(value)) \
            or repr(value)
        raise ValueError(f"at {path or '(top level)'}: must be {kind}, "
                         f"got {got}")
    # An int past the float range is not finite either.
    if kind != "an integer" and type(value) in (int, float) \
            and not abs(value) <= sys.float_info.max:
        raise ValueError(f"at {path}: number is not finite")
    return value


def _numbers(value, path: str):
    """``value`` if it is a number or a list whose items are such values
    (its shape is the reader's to check), at any depth; else a ValueError
    naming, by its JSON path, the first item that is not."""
    todo = [(path, value)]
    while todo:
        at, item = todo.pop()
        if type(item) is list:
            todo += reversed([(f"{at}/{i}", x) for i, x in enumerate(item)])
        else:
            _json(item, at)
    return value


def _child(path: str, key) -> str:
    return f"{path}/{key}" if path else str(key)


def _object(value, path: str, allowed, required=()) -> dict:
    """``value`` if it is a JSON object whose keys are among ``allowed``
    and include ``required``."""
    _json(value, path, "an object")
    for key in value:
        if key not in allowed:
            raise ValueError(f"at {_child(path, key)}: unknown key")
    for key in required:
        if key not in value:
            raise ValueError(f"at {_child(path, key)}: required key missing")
    return value


def _each(value, path: str, read, least: int = 0,
          most: float = math.inf) -> tuple:
    """``read(item, item_path)`` of each item of ``value``, a JSON list of
    ``least`` to ``most`` items."""
    _json(value, path, "a list")
    if not least <= len(value) <= most:
        want = least if least == most else f"at least {least}"
        raise ValueError(f"at {path}: {len(value)} items, expected {want}")
    return tuple(read(item, f"{path}/{i}") for i, item in enumerate(value))


def _vector(value, path: str) -> np.ndarray:
    """A point or direction: three finite JSON numbers, as floats."""
    return np.array(_each(value, path, _json, 3, 3), dtype=float)


def _given(obj, path: str, *keys) -> dict:
    """The members among ``keys`` that a file object sets, each a finite
    JSON number."""
    return {key: _json(obj[key], _child(path, key)) for key in keys
            if key in obj}


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``: its ValueError opens with the JSON path
    of the object it builds."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"at {path or '(top level)'}: {exc}") from None


def profile_from_json(obj, path: str = "") -> EmissionProfile:
    """The ``profile`` member of the lamp or solver input ``obj`` at JSON
    ``path``, a ``kind`` string and a list of ``params`` numbers; cos(omega)
    when it sets none."""
    if "profile" not in obj:
        return make_profile(KIND_COSINE_POWER, [1.0])
    at = _child(path, "profile")
    profile = _object(obj["profile"], at, ("kind", "params"),
                      ("kind", "params"))
    return _build(at, make_profile,
                  _json(profile["kind"], f"{at}/kind", "a string"),
                  _each(profile["params"], f"{at}/params", _json))


def _lamp(obj, path: str) -> LampModel:
    _object(obj, path, ("position", "central_ray", "k", "profile",
                        "flash_hz", "range_m"), ("position", "k", "flash_hz"))
    ray = (_vector(obj["central_ray"], f"{path}/central_ray")
           if "central_ray" in obj else np.array([0.0, 0.0, -1.0]))
    return _build(path, LampModel,
                  _vector(obj["position"], f"{path}/position"), ray,
                  _json(obj["k"], f"{path}/k"),
                  profile_from_json(obj, path),
                  _json(obj["flash_hz"], f"{path}/flash_hz"),
                  **_given(obj, path, "range_m"))


def _box(obj, path: str) -> Aabb:
    _object(obj, path, ("min", "max"), ("min", "max"))
    return _build(path, Aabb, _vector(obj["min"], f"{path}/min"),
                  _vector(obj["max"], f"{path}/max"))


def _receiver(obj) -> ReceiverSpec:
    _object(obj, "receiver", ("edge_length_m",))
    edge = _given(obj, "receiver", "edge_length_m")
    return _build("receiver", ReceiverSpec.default, *edge.values())


def _noise(obj) -> NoiseSpec:
    _object(obj, "noise", ("rss_epsilon", "heading_epsilon_deg", "accel_sd",
                           "trace_noise_sd", "seed"))
    values = _given(obj, "noise", "rss_epsilon", "accel_sd", "trace_noise_sd")
    if "heading_epsilon_deg" in obj:
        values["heading_epsilon"] = math.radians(
            _json(obj["heading_epsilon_deg"], "noise/heading_epsilon_deg"))
    if "seed" in obj:  # an integer of any size
        values["seed"] = _json(obj["seed"], "noise/seed", "an integer")
    return _build("noise", NoiseSpec, **values)


def _trajectory(obj) -> Trajectory:
    keys = ("waypoints", "speed_mps", "interval_s")
    _object(obj, "trajectory", keys, keys)
    return _build("trajectory", Trajectory,
                  _each(obj["waypoints"], "trajectory/waypoints", _vector),
                  _json(obj["speed_mps"], "trajectory/speed_mps"),
                  _json(obj["interval_s"], "trajectory/interval_s"))


def parse_scenario(data) -> ScenarioFile:
    """Check a decoded scenario document's shape, whose numbers must all
    be finite, and build the model objects, which check its values."""
    try:
        _object(data, "", SCENARIO_KEYS, ("bounds", "lamps"))
        scn = _build("", Scenario, _box(data["bounds"], "bounds"),
                     _each(data.get("obstacles", []), "obstacles", _box),
                     _each(data["lamps"], "lamps", _lamp, least=1),
                     _receiver(data.get("receiver", {})),
                     _noise(data.get("noise", {})),
                     **_given(data, "", "saturation", "ambient_dc",
                              "sample_rate_hz", "window_s"))
        coverage = _object(data.get("coverage", {}), "coverage",
                           ("cell_size_m", "receiver_height_m"))
        return _build("", ScenarioFile, scn,
                      _each(data["points"], "points", _vector, least=1)
                      if "points" in data else (),
                      _trajectory(data["trajectory"])
                      if "trajectory" in data else None,
                      _each(data.get("candidates", []), "candidates",
                            _lamp),
                      **_given(coverage, "coverage", "cell_size_m",
                               "receiver_height_m"))
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None


def load_scenario(path) -> ScenarioFile:
    """Load and validate a scenario JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # A file nested past the recursion limit is malformed input too.
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ScenarioFormatError(f"invalid JSON: {exc}") from None
    return parse_scenario(data)
