"""Report serialization: JSON for the full run, CSV for per-block samples.

Serialization is deterministic: sorted keys, fixed separators, repr-exact
floats. Two runs of the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

CSV_COLUMNS = ("block", "discrepancy", "utilization", "psi", "captured_profit")
_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


def dumps_report(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, byte for byte.

    ``indent`` forces json's pure-Python encoder. Here each container whose
    values are all scalars goes through the C encoder instead, its
    separators carrying the newline and indent; only the levels above those
    are joined in Python.
    """
    return _dumps(report, 0)


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder for the items of a container ``depth`` levels deep."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * (depth + 1), ": "))


def _dumps(value, depth: int) -> str:
    if not isinstance(value, _CONTAINERS) or not value:
        return _encoder(depth).encode(value)
    pad = "\n" + _INDENT * (depth + 1)
    close = "\n" + _INDENT * depth
    children = value.values() if isinstance(value, dict) else value
    if not any(isinstance(child, _CONTAINERS) for child in children):
        flat = _encoder(depth).encode(value)
        return flat[0] + pad + flat[1:-1] + close + flat[-1]
    if not isinstance(value, dict):
        parts = [_dumps(item, depth + 1) for item in value]
        return "[" + pad + ("," + pad).join(parts) + close + "]"
    if not all(isinstance(key, str) for key in value):
        # json's own key coercion (ints, floats, bools, None); strings
        # hold no raw newline, so re-indenting its lines is exact
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", close)
    parts = [
        encode_basestring_ascii(key) + ": " + _dumps(item, depth + 1)
        for key, item in sorted(value.items())
    ]
    return "{" + pad + ("," + pad).join(parts) + close + "}"


def write_json(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_report(report) + "\n", encoding="utf-8")
    return path


def _write_csv(path: str | Path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_blocks_csv(report: dict, path: str | Path) -> Path:
    """One row per block sample, header included, UTF-8."""
    rows = (
        [repr(row[c]) if isinstance(row[c], float) else row[c] for c in CSV_COLUMNS]
        for row in report["blocks"]
    )
    return _write_csv(path, CSV_COLUMNS, rows)


def write_comparison_json(comparison: dict, path: str | Path) -> Path:
    return write_json(comparison, path)


def write_comparison_csv(comparison: dict, path: str | Path) -> Path:
    """Per-mode, per-seed summary table."""
    rows = (
        (mode, row["seed"], *(repr(row[c]) for c in ("time_avg_discrepancy", "captured", "leaked")))
        for mode in comparison["modes"]
        for row in comparison["per_mode"][mode]["per_seed"]
    )
    return _write_csv(path, ("mode", "seed", "time_avg_discrepancy", "captured", "leaked"), rows)
