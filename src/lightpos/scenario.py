"""Scenario file loading: JSON schema validation and conversion to the
simulation model.

Files use meters, degrees, and Hz; angles are converted to radians on
load.  Validation failures report the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import jsonschema
import numpy as np

from .geom import Aabb
from .rss import KIND_COSINE_POWER, EmissionProfile, LampModel, make_profile
from .sim import NoiseSpec, ReceiverSpec, Scenario

_VEC3 = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 3,
    "maxItems": 3,
}

_BOX = {
    "type": "object",
    "properties": {"min": _VEC3, "max": _VEC3},
    "required": ["min", "max"],
    "additionalProperties": False,
}

_PROFILE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["cosine_power", "polynomial"]},
        "params": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["kind", "params"],
    "additionalProperties": False,
}

_LAMP = {
    "type": "object",
    "properties": {
        "position": _VEC3,
        "central_ray": _VEC3,
        "k": {"type": "number", "exclusiveMinimum": 0},
        "profile": _PROFILE,
        "flash_hz": {"type": "number", "exclusiveMinimum": 0},
        "range_m": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["position", "k", "flash_hz"],
    "additionalProperties": False,
}

SCHEMA = {
    "type": "object",
    "properties": {
        "bounds": _BOX,
        "obstacles": {"type": "array", "items": _BOX},
        "lamps": {"type": "array", "items": _LAMP, "minItems": 1},
        "candidates": {"type": "array", "items": _LAMP},
        "receiver": {
            "type": "object",
            "properties": {
                "edge_length_m": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "noise": {
            "type": "object",
            "properties": {
                "rss_epsilon": {"type": "number", "minimum": 0, "maximum": 0.2},
                "heading_epsilon_deg": {"type": "number", "minimum": 0},
                "accel_sd": {"type": "number", "minimum": 0},
                "trace_noise_sd": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "saturation": {"type": "number", "exclusiveMinimum": 0},
        "ambient_dc": {"type": "number", "minimum": 0},
        "sample_rate_hz": {"type": "number", "exclusiveMinimum": 0},
        "window_s": {"type": "number", "exclusiveMinimum": 0},
        "points": {"type": "array", "items": _VEC3, "minItems": 1},
        "trajectory": {
            "type": "object",
            "properties": {
                "waypoints": {"type": "array", "items": _VEC3, "minItems": 2},
                "speed_mps": {"type": "number", "exclusiveMinimum": 0},
                "interval_s": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["waypoints", "speed_mps", "interval_s"],
            "additionalProperties": False,
        },
        "coverage": {
            "type": "object",
            "properties": {
                "cell_size_m": {"type": "number", "exclusiveMinimum": 0},
                "receiver_height_m": {"type": "number"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["bounds", "lamps"],
    "additionalProperties": False,
}


class ScenarioFormatError(ValueError):
    """Raised for scenario files that fail schema or model validation."""


@dataclass(frozen=True)
class Trajectory:
    waypoints: tuple
    speed_mps: float
    interval_s: float


@dataclass(frozen=True)
class ScenarioFile:
    """A validated scenario plus its evaluation inputs."""

    scenario: Scenario
    points: tuple = ()
    trajectory: Trajectory | None = None
    candidates: tuple = ()
    cell_size_m: float = 0.3
    receiver_height_m: float = 0.0


def _given(obj, *keys) -> dict:
    """The members among ``keys`` that a file object sets."""
    return {key: obj[key] for key in keys if key in obj}


def profile_from_json(obj) -> EmissionProfile:
    """A lamp or solver input's profile, cos(omega) when it sets none."""
    profile = obj.get("profile", {"kind": KIND_COSINE_POWER, "params": [1.0]})
    return make_profile(profile["kind"], profile["params"])


def _lamp_from_json(obj) -> LampModel:
    return LampModel(
        position=np.array(obj["position"], dtype=float),
        central_ray=np.array(obj.get("central_ray", [0.0, 0.0, -1.0])),
        k=obj["k"],
        profile=profile_from_json(obj),
        flash_hz=obj["flash_hz"],
        **_given(obj, "range_m"),
    )


def _non_finite_paths(node, path=""):
    # JSON paths of the NaN and infinite numbers in a decoded document
    # (Python's json module reads NaN, Infinity and 1e999).
    if isinstance(node, float) and not math.isfinite(node):
        yield path
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _non_finite_paths(child, f"{path}/{key}")


def parse_scenario(data) -> ScenarioFile:
    """Validate a decoded scenario document, whose numbers must all be
    finite, and build the model objects."""
    try:
        jsonschema.validate(data, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ScenarioFormatError(f"at {path}: {exc.message}") from None
    for path in _non_finite_paths(data):
        raise ScenarioFormatError(f"at {path[1:]}: number is not finite")

    try:
        bounds = Aabb(data["bounds"]["min"], data["bounds"]["max"])
        obstacles = tuple(
            Aabb(o["min"], o["max"]) for o in data.get("obstacles", [])
        )
        lamps = tuple(_lamp_from_json(l) for l in data["lamps"])
        candidates = tuple(_lamp_from_json(l) for l in data.get("candidates", []))
        rx = data.get("receiver", {})
        receiver = (ReceiverSpec.default(rx["edge_length_m"])
                    if "edge_length_m" in rx else ReceiverSpec.default())
        noise = dict(data.get("noise", {}))
        if "heading_epsilon_deg" in noise:
            noise["heading_epsilon"] = math.radians(
                noise.pop("heading_epsilon_deg"))
        scn = Scenario(
            bounds=bounds,
            obstacles=obstacles,
            lamps=lamps,
            receiver=receiver,
            noise=NoiseSpec(**noise),
            **_given(data, "saturation", "ambient_dc", "sample_rate_hz",
                     "window_s"),
        )
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None
    for i, lamp in enumerate(candidates):
        if not bounds.contains(lamp.position):
            raise ScenarioFormatError(
                f"at candidates/{i}: lamp site outside scenario bounds")

    traj = None
    if "trajectory" in data:
        t = data["trajectory"]
        traj = Trajectory(
            tuple(np.array(w, dtype=float) for w in t["waypoints"]),
            t["speed_mps"],
            t["interval_s"],
        )
    return ScenarioFile(
        scenario=scn,
        points=tuple(np.array(p, dtype=float) for p in data.get("points", [])),
        trajectory=traj,
        candidates=candidates,
        **_given(data.get("coverage", {}), "cell_size_m",
                 "receiver_height_m"),
    )


def load_scenario(path) -> ScenarioFile:
    """Load and validate a scenario JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON: {exc}") from None
    return parse_scenario(data)
