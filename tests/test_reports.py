"""Report container semantics, serialization, determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from schrodlab.reports import (
    EstimateReport,
    config_hash,
    write_report,
)


def sample_report():
    rep = EstimateReport(
        estimate="gain",
        grid={"n": 2, "pts_time": 16},
        params={"seed": 0},
        ceiling=2.0,
    )
    rep.samples.append({"nu": 2.0, "seed": 0, "ratio": 1.2})
    rep.samples.append({"nu": 4.0, "seed": 0, "ratio": 0.9})
    rep.runtime = 3.5
    return rep


class TestVerdicts:
    def test_pass(self):
        assert sample_report().verdict == "pass"
        assert sample_report().max_ratio == 1.2

    def test_fail(self):
        rep = sample_report()
        rep.ceiling = 1.0
        assert rep.verdict == "fail"

    def test_recorded_without_ceiling(self):
        rep = sample_report()
        rep.ceiling = None
        assert rep.verdict == "recorded"

    def test_vacuous_pass(self):
        rep = EstimateReport("gain", {}, {})
        assert rep.verdict == "pass"
        assert rep.max_ratio is None

    @pytest.mark.parametrize("ratios", [[0.5, math.nan], [math.nan, 0.5], [0.5, math.inf]])
    def test_non_finite_ratio_fails_in_any_position(self, ratios):
        for ceiling in (2.0, None):
            rep = EstimateReport("gain", {}, {}, ceiling=ceiling)
            rep.samples = [{"seed": 0, "ratio": r} for r in ratios]
            assert rep.verdict == "fail"
            assert not math.isfinite(rep.max_ratio)

    def test_samples_without_ratio_fail(self):
        rep = EstimateReport("gain", {}, {}, ceiling=1.0)
        rep.samples.append({"seed": 0})
        assert rep.verdict == "fail"
        assert rep.max_ratio is None

    def test_sample_without_ratio_fails_without_ceiling(self):
        rep = EstimateReport("gain", {}, {})
        rep.samples.append({"seed": 0})
        assert rep.verdict == "fail"

    def test_sample_without_ratio_fails_beside_a_passing_one(self):
        rep = EstimateReport("gain", {}, {}, ceiling=1.0)
        rep.samples = [{"seed": 0, "ratio": 0.5}, {"seed": 0}]
        assert rep.verdict == "fail"


class TestPassed:
    """``passed`` decides the CLI exit code: the verdict and every rule must hold."""

    def test_empty_sweep_passes(self):
        assert EstimateReport("gain", {}, {}).passed

    def test_recorded_sweep_passes(self):
        rep = sample_report()
        rep.ceiling = None
        assert rep.verdict == "recorded"
        assert rep.passed

    def test_failing_rule_fails(self):
        rep = sample_report()
        rep.rules = {"decay": True, "growth": False}
        assert rep.verdict == "pass"
        assert not rep.passed

    def test_nan_ratio_fails_with_passing_rule(self):
        rep = EstimateReport("embedding_ratio", {}, {})
        rep.samples = [{"seed": 0, "ratio": r} for r in (0.5, math.nan, 0.7)]
        rep.rules["growth"] = True
        assert not rep.passed

    def test_rules_not_serialized(self, tmp_path):
        rep = sample_report()
        rep.rules["decay"] = False
        write_report(rep, tmp_path / "a.json")
        write_report(sample_report(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestSerialization:
    def test_runtime_excluded(self, tmp_path):
        write_report(sample_report(), tmp_path / "r.json")
        payload = json.loads((tmp_path / "r.json").read_text())
        assert "runtime" not in payload
        assert payload["schema_version"] == 1
        assert payload["verdict"] == "pass"

    def test_json_roundtrip(self, tmp_path):
        rep = sample_report()
        p = tmp_path / "r.json"
        write_report(rep, p)
        back = json.loads(p.read_text())
        assert back == rep.to_dict()

    def test_json_is_streamed(self, tmp_path):
        # the kernel table's 1600 samples: the encoded text is written as it is made,
        # never joined whole.  Joining it peaked at 2.0 MiB traced for 0.3 MiB of text
        rng = np.random.default_rng(0)
        rep = EstimateReport("kernel_table", {}, {"tol": 1e-6}, ceiling=1e-6)
        rep.samples = [{"sigma": float(s), "x": float(x), "seed": 0, "closed": float(c),
                        "quadrature": float(c + e), "ratio": float(abs(e))}
                       for s in (-5, -1, -0.1, 0.1, 0.3, 0.5, 2, 10)
                       for x, c, e in zip(np.linspace(-20.0, 20.0, 200),
                                          rng.standard_normal(200),
                                          1e-16 * rng.standard_normal(200))]
        path = tmp_path / "kernel_table.json"
        tracemalloc.start()
        try:
            write_report(rep, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 250_000
        assert peak < 0.25 * size

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1, r2 = sample_report(), sample_report()
        r2.runtime = 99.0  # differing wall clock must not leak into bytes
        write_report(r1, p1)
        write_report(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_export(self, tmp_path):
        p = tmp_path / "r.csv"
        write_report(sample_report(), p, fmt="csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "nu,ratio,seed"
        assert len(lines) == 3

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(sample_report(), tmp_path / "r.xml", fmt="xml")


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_short_hex(self):
        h = config_hash({"a": 1})
        assert len(h) == 16
        int(h, 16)
