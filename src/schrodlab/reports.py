"""Deterministic report containers and persistence.

Reports serialize to JSON (stable key order, shortest-roundtrip floats) and
to CSV.  Wall-clock data is kept out of the serialized payload so that
rerunning a configuration with the same seed reproduces files byte for
byte; runtimes are surfaced through logging instead.

The config reader ``read`` lives here too: every command reads its config
whole against a table of key paths, kinds and defaults, and rejects what
the table does not allow with the same ConfigError.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

from .grid import GridSpec

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

__all__ = ["EstimateReport", "write_report", "config_hash",
           "ConfigError", "NoConvergence", "read", "REQUIRED", "COUNT", "NATURAL", "EXPONENT",
           "COMMON", "GRID", "grid_spec"]


class ConfigError(Exception):
    """Configuration problem, reported with the offending key path."""


class NoConvergence(RuntimeError):
    """A numerical method failed to reach its tolerance (CLI exit 3)."""


#: Default of a key that must be given.
REQUIRED = object()
#: Kind of an int >= 1.
COUNT = "count"
#: Kind of an int >= 0, such as an RNG seed.
NATURAL = "natural"
#: Kind of a Lebesgue exponent: a number or a string such as "4/3", checked where it is used.
EXPONENT = "exponent"

#: Keys every command's config may carry besides its own.
COMMON = {"output_dir": (str, ".")}
#: The ``grid`` block; GridSpec checks the values on construction.
GRID = {"n": (int, REQUIRED), "box_time": (float, REQUIRED), "box_space": (float, REQUIRED),
        "pts_time": (int, REQUIRED), "pts_space": (int, REQUIRED)}


def grid_spec(grid: dict) -> GridSpec:
    """The GridSpec of a ``grid`` block read against GRID."""
    try:
        return GridSpec(**grid)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def read(cfg: dict, table: dict, path: str = "") -> dict:
    """The values of ``cfg`` as ``table`` reads them, every default filled in.

    ``table`` maps each key to ``(kind, default)``; the kinds are ``int``,
    ``float``, ``COUNT``, ``NATURAL``, ``str``, ``EXPONENT``, a tuple of
    allowed strings, a nested table (or a function of the block that
    returns its table), and ``[kind]``, a non-empty list of one of these.
    An absent or null key takes its default, read as the key is
    (a nested table's default is ``{}``: its keys' defaults); ``REQUIRED``
    makes it required.  An unknown key at any depth, a missing required
    key and a value of the wrong kind raise ConfigError naming the key
    path.  A number is never a YAML boolean, an int, a count or a natural
    is integral, and a float is finite.
    """
    unknown = sorted(str(k) for k in set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown config key: {f'{path}.' if path else ''}{unknown[0]} "
                          f"(known keys: {', '.join(table)})")
    out = {}
    for key, (kind, default) in table.items():
        here = f"{path}.{key}" if path else key
        value = default if cfg.get(key) is None else cfg[key]
        if value is REQUIRED:
            raise ConfigError(f"missing config key: {here}")
        try:
            out[key] = None if value is None else _convert(value, kind, here)
        except ValueError as exc:
            raise ConfigError(f"config key {here} has wrong type (want {exc}), got {here}: "
                              f"{json.dumps(value, default=str)}") from None
    return out


def _convert(value, kind, here: str):
    """``value`` read as ``kind``; a ValueError carries what was wanted."""
    if callable(kind) and not isinstance(kind, type):  # the table depends on the block
        kind = kind(value) if isinstance(value, dict) else {}
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError("mapping")
        return read(value, kind, here)
    if isinstance(value, list) != isinstance(kind, list):
        raise ValueError("a list" if isinstance(kind, list) else "a single value")
    if isinstance(kind, list):
        if not value:
            raise ValueError("a non-empty list")
        return [_convert(v, kind[0], here) for v in value]
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ValueError("one of " + ", ".join(kind))
    want = getattr(kind, "__name__", kind)
    if kind is str:
        if isinstance(value, str):
            return value
        raise ValueError(want)
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(want)
    if kind is EXPONENT:
        return value
    try:  # a number written as a string: YAML reads 1e-6 as one
        x = float(value)
    except (ValueError, OverflowError):
        raise ValueError(want) from None
    if kind is float:
        if math.isfinite(x):
            return x
        raise ValueError("a finite float")
    if not x.is_integer() or (kind is COUNT and x < 1) or (kind is NATURAL and x < 0):
        raise ValueError(want)
    return value if isinstance(value, int) else int(x)


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class EstimateReport:
    """A sweep record: parameter grid, per-sample ratios, verdict.

    ``verdict`` is "pass" iff every ratio is finite and max_ratio <= ceiling
    (vacuously "pass" for an empty sweep); a sample without a ratio or a
    non-finite ratio fails it, with or without a ceiling; ``samples``
    records every parameter/seed combination so a sweep can be replayed
    sample by sample.  ``rules`` holds a command's own rules beside the
    verdict (name -> held), and ``passed`` joins them with it.
    """

    estimate: str
    grid: dict
    params: dict
    samples: list = field(default_factory=list)  # dicts incl. seed + ratio
    ceiling: float | None = None
    runtime: float = 0.0  # seconds, set by the CLI; excluded from serialization
    rules: dict[str, bool] = field(default_factory=dict)  # excluded from serialization

    @property
    def ratios(self) -> list:
        return [s["ratio"] for s in self.samples if "ratio" in s]

    @property
    def max_ratio(self) -> float | None:
        """Largest ratio; NaN if any ratio is NaN, wherever it sits."""
        r = self.ratios
        if not r:
            return None
        return math.nan if any(math.isnan(x) for x in r) else max(r)

    @property
    def verdict(self) -> str:
        if not self.samples:
            return "pass"  # vacuous
        r = self.ratios
        if len(r) < len(self.samples) or not all(math.isfinite(x) for x in r):
            return "fail"
        if self.ceiling is None:
            return "recorded"
        return "pass" if max(r) <= self.ceiling else "fail"

    @property
    def passed(self) -> bool:
        """The run's outcome (CLI exit 0): the verdict is not "fail" and every rule holds."""
        return self.verdict != "fail" and all(self.rules.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "estimate": self.estimate,
            "grid": self.grid,
            "params": self.params,
            "samples": self.samples,
            "ceiling": self.ceiling,
            "max_ratio": self.max_ratio,
            "verdict": self.verdict,
        }


def write_report(report: EstimateReport, path, fmt: str = "json") -> None:
    """Persist a report with stable field ordering.

    JSON is streamed into the file as it is encoded, never held whole.
    """
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        keys = sorted({k for s in report.samples for k in s})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")  # quotes a cell holding a comma
            writer.writerow(keys)
            writer.writerows([repr(s.get(k, "")) for k in keys] for s in report.samples)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    logger.info("wrote %s report to %s (runtime %.2fs)", report.estimate, path, report.runtime)

