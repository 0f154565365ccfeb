"""Byte-stable result serialization: CSV tables and JSON envelopes.

All floating-point values are rendered with repr-stable ``%.9g``
formatting, rows end with a bare newline, and JSON keys are sorted, so
identical inputs and seeds always produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__

STATS_COLUMNS = ("median", "mean", "max", "stdev")


def fmt(value) -> str:
    """Canonical scalar rendering: %.9g for floats, str otherwise."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def render_csv(header, rows) -> str:
    """CSV text with a header row, LF line endings, canonical floats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def stats_row(stats):
    """Error statistics in the canonical column order."""
    return [stats.median, stats.mean, stats.max, stats.stdev]


def digest_file(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def envelope(scenario_path=None, seed=None, timestamp=None, extra=None) -> dict:
    """Reproducibility sidecar: tool version, input digest, and seed.

    The timestamp is recorded as null unless explicitly supplied, keeping
    repeated runs byte-identical.
    """
    env = {
        "version": __version__,
        "scenario_sha256": digest_file(scenario_path) if scenario_path else None,
        "seed": seed,
        "timestamp": timestamp,
    }
    if extra:
        env.update(extra)
    return env


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
