"""Ratio measurements: scaling invariance, oracles, and sweep behavior."""

import numpy as np
import pytest

from schrodlab import estimates
from schrodlab.cli import build_inputs
from schrodlab.estimates import gain_ratio, standard_family, strichartz_ratio, sweep, sweep_table
from schrodlab.grid import Field, GridSpec
from schrodlab.multipliers import apply_plan, plan_S, plan_S_nu
from schrodlab.reports import ConfigError, read
from schrodlab.symbols import ExponentPair

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
NU = 8.0
# the gain sweep's lattice (tau and xi_n offsets) and the Strichartz sweep's (tau only)
GAIN_PLAN = plan_S_nu(SPEC, NU, offset_xin=True)
STRICHARTZ_PLAN = plan_S_nu(SPEC, NU)
GRID_CFG = {"n": 2, "box_time": np.pi, "box_space": np.pi,
            "pts_time": 16, "pts_space": 16}


def packet(seed=0):
    rng = np.random.default_rng(seed)
    return standard_family(SPEC, rng, count=1, min_xi_n=1.0)[0]


def run(config):
    """The sweep of ``config``, read and built as verify-strichartz reads and builds it."""
    values = read(config, sweep_table(config))
    inputs = build_inputs(values)
    return sweep(config, values, inputs["spec"], inputs.get("pairs"))


class TestRatios:
    def test_gain_scaling_invariance(self):
        f = packet(1)
        r1 = gain_ratio(f, GAIN_PLAN)
        r2 = gain_ratio(f * 7.3, GAIN_PLAN)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_gain_rejects_plan_without_nu(self):
        # a plan of S carries no drift to compensate by
        with pytest.raises(ValueError, match="carries nu"):
            gain_ratio(packet(), plan_S(SPEC))

    def test_gain_rejects_zero_field(self):
        zero = Field(SPEC, np.zeros(SPEC.shape, dtype=np.complex128))
        with pytest.raises(ValueError):
            gain_ratio(zero, GAIN_PLAN)

    def test_strichartz_scaling_invariance(self):
        pair = ExponentPair("4/3", "4/3", 2)
        f = packet(2)
        g = f * 0.01
        assert strichartz_ratio(f, apply_plan(STRICHARTZ_PLAN, f), pair) == pytest.approx(
            strichartz_ratio(g, apply_plan(STRICHARTZ_PLAN, g), pair), rel=1e-12
        )

    def test_strichartz_rejects_inadmissible(self):
        f = packet()
        with pytest.raises(ValueError):
            strichartz_ratio(f, apply_plan(STRICHARTZ_PLAN, f), ExponentPair(2, 2, 2))

    def test_strichartz_rejects_zero_field(self):
        zero = Field(SPEC, np.zeros(SPEC.shape, dtype=np.complex128))
        with pytest.raises(ValueError, match="f = 0"):
            strichartz_ratio(zero, zero, ExponentPair("4/3", "4/3", 2))


class TestStandardFamily:
    def test_count_and_hard_case(self):
        rng = np.random.default_rng(0)
        fam = standard_family(SPEC, rng, count=3)
        assert len(fam) == 4  # 3 random + 1 near-characteristic

    def test_deterministic(self):
        a = standard_family(SPEC, np.random.default_rng(5), count=2)
        b = standard_family(SPEC, np.random.default_rng(5), count=2)
        for f, g in zip(a, b):
            assert np.array_equal(f.data, g.data)

    def test_min_xi_n_respected(self):
        rng = np.random.default_rng(1)
        fam = standard_family(SPEC, rng, count=4, min_xi_n=2.0)[:4]
        xin = SPEC.xi_axis()
        for f in fam:
            coeffs = np.abs(np.fft.fftn(f.data, norm="ortho")) ** 2
            mean_xin = (coeffs.sum(axis=(0, 1)) * np.abs(xin)).sum() / coeffs.sum()
            assert mean_xin > 1.0


class TestSweeps:
    def test_gain_sweep_nu_uniform(self):
        report = run({
            "grid": GRID_CFG, "estimate": "gain", "seed": 0, "nu_values": [4, 16, 64],
            "family": 3,
        })
        per_nu = {}
        for s in report.samples:
            per_nu.setdefault(s["nu"], []).append(s["ratio"])
        maxima = [max(v) for _, v in sorted(per_nu.items())]
        assert max(maxima) / min(maxima) < 1.5

    def test_strichartz_sweep_shape(self):
        report = run({
            "grid": GRID_CFG, "seed": 0, "nu_values": [4, 16],
            "pairs": [["4/3", "4/3"], [1, 2]], "family": 2,
        })
        assert len(report.samples) == 2 * 2 * 3  # pairs x nu x (2 random + hard)
        assert all(s["ratio"] > 0 for s in report.samples)

    def test_strichartz_sweep_applies_once_per_nu_and_field(self, monkeypatch):
        # the pair loop sat outside the nu loop: one plan per (pair, nu) and one apply per
        # (pair, nu, field), though only the mixed norms differ between pairs
        counts = {"apply_plan": 0, "plan_S_nu": 0}

        def counted(name):
            real = getattr(estimates, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(estimates, name, counted(name))
        nu_values, family = [4, 16], 2
        pairs = [["4/3", "4/3"], [1, 2]]
        report = run({"grid": GRID_CFG, "seed": 5, "nu_values": nu_values, "pairs": pairs,
                      "family": family})
        assert counts == {"apply_plan": len(nu_values) * (family + 1),
                          "plan_S_nu": len(nu_values)}
        monkeypatch.undo()
        fields = standard_family(SPEC, np.random.default_rng(5), family)
        expected = []
        for q, r in pairs:  # pair-major, as the report lists them
            pair = ExponentPair(q, r, SPEC.n)
            for mag in nu_values:
                plan = plan_S_nu(SPEC, mag)
                expected += [(str(pair.q), str(pair.r), float(mag), k,
                              strichartz_ratio(f, apply_plan(plan, f), pair))
                             for k, f in enumerate(fields)]
        assert [(*s["pair"], s["nu"], s["field"], s["ratio"])
                for s in report.samples] == expected

    def test_unknown_estimate(self):
        with pytest.raises(ConfigError, match="estimate"):
            sweep_table({"grid": GRID_CFG, "estimate": "nope"})

    def test_sweep_deterministic(self):
        cfg = {"grid": GRID_CFG, "estimate": "gain", "seed": 3, "nu_values": [4, 8],
               "family": 2}
        r1 = run(cfg)
        r2 = run(cfg)
        assert r1.samples == r2.samples

    def test_ceiling_sets_verdict(self):
        cfg = {"grid": GRID_CFG, "estimate": "gain", "seed": 0, "nu_values": [4],
               "family": 1, "ceiling": 1e-9}
        assert run(cfg).verdict == "fail"
