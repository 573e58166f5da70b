"""Deterministic report containers and persistence.

Reports serialize to JSON (stable key order, shortest-roundtrip floats) and
to CSV.  Wall-clock data is kept out of the serialized payload so that
rerunning a configuration with the same seed reproduces files byte for
byte; runtimes are surfaced through logging instead.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

__all__ = ["EstimateReport", "report_to_json", "write_report", "read_report", "config_hash"]


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class EstimateReport:
    """A sweep record: parameter grid, per-sample ratios, verdict.

    ``verdict`` is "pass" iff every ratio is finite and max_ratio <= ceiling
    (vacuously "pass" for an empty sweep, "fail" for samples without a
    ratio; a non-finite ratio fails even without a ceiling); ``samples``
    records every parameter/seed combination so a sweep can be replayed
    sample by sample.
    """

    estimate: str
    grid: dict
    params: dict
    samples: list = field(default_factory=list)  # dicts incl. seed + ratio
    ceiling: float | None = None
    runtime: float = 0.0  # seconds; excluded from serialization

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
        if not all(math.isfinite(x) for x in r):
            return "fail"
        if self.ceiling is None:
            return "recorded"
        return "pass" if r and max(r) <= self.ceiling else "fail"

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


def report_to_json(report: EstimateReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def write_report(report: EstimateReport, path, fmt: str = "json") -> None:
    """Persist a report with stable field ordering."""
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(report_to_json(report))
    elif fmt == "csv":
        keys = sorted({k for s in report.samples for k in s})
        with open(path, "w", newline="") as fh:
            fh.write(",".join(keys) + "\n")
            for s in report.samples:
                fh.write(",".join(repr(s.get(k, "")) for k in keys) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    logger.info("wrote %s report to %s (runtime %.2fs)", report.estimate, path, report.runtime)


def read_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
