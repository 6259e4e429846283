"""Report serialization: JSON for the full run, CSV for per-block samples.

Serialization is deterministic: sorted keys, fixed separators, repr-exact
floats, ``\n`` line ends; the same config and seed give byte-identical
files. Each streams to a temporary sibling that replaces it once complete.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
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
    run in Python. ``write_json`` streams the same pieces to its file.
    """
    parts: list[str] = []
    _emit(report, 0, parts.append)
    return "".join(parts)


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder for the items of a container ``depth`` levels deep."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * (depth + 1), ": "))


def _emit(value, depth: int, write):
    if not isinstance(value, _CONTAINERS) or not value:
        return write(_encoder(depth).encode(value))
    pad = "\n" + _INDENT * (depth + 1)
    close = "\n" + _INDENT * depth
    keyed = isinstance(value, dict)
    if not any(isinstance(child, _CONTAINERS) for child in (value.values() if keyed else value)):
        flat = _encoder(depth).encode(value)
        return write(flat[0] + pad + flat[1:-1] + close + flat[-1])
    if keyed and not all(isinstance(key, str) for key in value):
        # json's own key coercion (ints, floats, bools, None); strings
        # hold no raw newline, so re-indenting its lines is exact
        return write(json.dumps(value, sort_keys=True, indent=2).replace("\n", close))
    sep = ("{" if keyed else "[") + pad
    for key, item in sorted(value.items()) if keyed else enumerate(value):
        write(sep + (encode_basestring_ascii(key) + ": " if keyed else ""))
        _emit(item, depth + 1, write)
        sep = "," + pad
    write(close + ("}" if keyed else "]"))


@contextlib.contextmanager
def _replacing(path: Path, newline: str):
    """A UTF-8 text handle on a sibling file that replaces ``path`` once the block succeeds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.urandom(4).hex()}.partial")
    try:
        with open(partial, "x", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_json(report: dict, path: str | Path) -> Path:
    with _replacing(path := Path(path), "\n") as handle:
        _emit(report, 0, handle.write)
        handle.write("\n")
    return path


def _write_csv(path: str | Path, header, rows) -> Path:
    with _replacing(path := Path(path), "") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_blocks_csv(report: dict, path: str | Path) -> Path:
    """One row per block sample, header included, UTF-8."""
    rows = ([row[c] for c in CSV_COLUMNS] for row in report["blocks"])
    return _write_csv(path, CSV_COLUMNS, rows)


def write_comparison_json(comparison: dict, path: str | Path) -> Path:
    return write_json(comparison, path)


def write_comparison_csv(comparison: dict, path: str | Path) -> Path:
    """Per-mode, per-seed summary table."""
    rows = (
        (mode, row["seed"], *(row[c] for c in ("time_avg_discrepancy", "captured", "leaked")))
        for mode in comparison["modes"]
        for row in comparison["per_mode"][mode]["per_seed"]
    )
    return _write_csv(path, ("mode", "seed", "time_avg_discrepancy", "captured", "leaked"), rows)
