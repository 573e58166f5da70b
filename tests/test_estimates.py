"""Ratio measurements: scaling invariance, oracles, and sweep behavior."""

import numpy as np
import pytest

from schrodlab.estimates import (
    dispersive_ratio,
    gain_ratio,
    run_sweep,
    standard_family,
    strichartz_ratio,
)
from schrodlab.grid import Field, GridSpec, gaussian_packet
from schrodlab.multipliers import plan_S, plan_S_nu
from schrodlab.reports import ConfigError
from schrodlab.symbols import ExponentPair, NuVector

from oracles import free_dispersive_ratio

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
NU = NuVector([0.0, 8.0])
# the gain sweep's lattice (tau and xi_n offsets) and the Strichartz sweep's (tau only)
GAIN_PLAN = plan_S_nu(SPEC, NU, offset_tau=True, offset_xin=True)
STRICHARTZ_PLAN = plan_S_nu(SPEC, NU)
GRID_CFG = {"n": 2, "box_time": np.pi, "box_space": np.pi,
            "pts_time": 16, "pts_space": 16}


def packet(seed=0):
    rng = np.random.default_rng(seed)
    return standard_family(SPEC, rng, count=1, min_xi_n=1.0)[0]


class TestRatios:
    def test_gain_scaling_invariance(self):
        f = packet(1)
        r1 = gain_ratio(f, GAIN_PLAN)
        r2 = gain_ratio(f * 7.3, GAIN_PLAN)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_gain_rejects_non_aligned(self):
        with pytest.raises(ValueError):
            gain_ratio(packet(), plan_S_nu(SPEC, NuVector([3.0, 4.0])))

    def test_gain_rejects_plan_without_nu(self):
        # a plan of S carries no drift to compensate by
        with pytest.raises(ValueError, match="carries nu"):
            gain_ratio(packet(), plan_S(SPEC))

    def test_gain_rejects_zero_field(self):
        zero = Field(SPEC, "physical", np.zeros(SPEC.shape, dtype=np.complex128))
        with pytest.raises(ValueError):
            gain_ratio(zero, GAIN_PLAN)

    def test_strichartz_scaling_invariance(self):
        pair = ExponentPair("4/3", "4/3", 2)
        f = packet(2)
        assert strichartz_ratio(f, pair, STRICHARTZ_PLAN) == pytest.approx(
            strichartz_ratio(f * 0.01, pair, STRICHARTZ_PLAN), rel=1e-12
        )

    def test_strichartz_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            strichartz_ratio(packet(), ExponentPair(2, 2, 2), STRICHARTZ_PLAN)

    def test_dispersive_oracle_gaussian(self):
        # without the damping cutoff, the free evolution of a Gaussian has
        # the closed form sup |u(s)| = (1 + (2s/w^2)^2)^{-n/4} sup|phi|,
        # so the compensated ratio approaches (4 pi)^{-n/2} * (L1/L1) shape
        # factor for s large; here we just pin the exact Gaussian value
        w = 0.4
        x = SPEC.x_axis()
        mesh = np.meshgrid(x, x, indexing="ij")
        phi = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / (2 * w**2)).astype(complex)
        s = 0.05
        r = free_dispersive_ratio(SPEC, phi, s)
        l1 = float(np.abs(phi).sum() * SPEC.dx**2)
        spread = (1.0 + (2.0 * s / w**2) ** 2) ** (-2 / 4)
        expected = abs(s) * spread / l1
        assert r == pytest.approx(expected, rel=1e-3)

    def test_dispersive_uniform_in_s(self):
        # the compensated sup-norm ratio is bounded by the universal
        # dispersive constant (4 pi)^{-n/2} ~ 0.0796 for n = 2
        w = 0.4
        x = SPEC.x_axis()
        mesh = np.meshgrid(x, x, indexing="ij")
        phi = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / (2 * w**2)).astype(complex)
        for s in (0.02, 0.1, 0.5, 2.0):
            assert dispersive_ratio(SPEC, phi, s) <= (4 * np.pi) ** -1 * 1.05


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
        from schrodlab.grid import transform

        rng = np.random.default_rng(1)
        fam = standard_family(SPEC, rng, count=4, min_xi_n=2.0)[:4]
        xin = SPEC.xi_axis()
        for f in fam:
            coeffs = np.abs(transform(f).data) ** 2
            mean_xin = (coeffs.sum(axis=(0, 1)) * np.abs(xin)).sum() / coeffs.sum()
            assert mean_xin > 1.0


class TestSweeps:
    def test_gain_sweep_nu_uniform(self):
        report = run_sweep("gain", {
            "grid": GRID_CFG, "seed": 0, "nu_values": [4, 16, 64], "family": 3,
        })
        per_nu = {}
        for s in report.samples:
            per_nu.setdefault(s["nu"], []).append(s["ratio"])
        maxima = [max(v) for _, v in sorted(per_nu.items())]
        assert max(maxima) / min(maxima) < 1.5

    def test_strichartz_sweep_shape(self):
        report = run_sweep("strichartz", {
            "grid": GRID_CFG, "seed": 0, "nu_values": [4, 16],
            "pairs": [["4/3", "4/3"], [1, 2]], "family": 2,
        })
        assert len(report.samples) == 2 * 2 * 3  # pairs x nu x (2 random + hard)
        assert all(s["ratio"] > 0 for s in report.samples)

    def test_dispersive_sweep(self):
        report = run_sweep("dispersive", {
            "grid": GRID_CFG, "seed": 0, "s_values": [0.05, 0.2, 1.0],
        })
        assert len(report.samples) == 3

    def test_unknown_estimate(self):
        with pytest.raises(ValueError):
            run_sweep("nope", {"grid": GRID_CFG})

    @pytest.mark.parametrize("extra", [
        {"nu_value": [4]}, {"nu_values": []}, {"pairs": [[1, 2]]},
        {"grid": {**GRID_CFG, "pts_time": 12}},
    ], ids=["typo", "empty", "strichartz-key", "bad-grid"])
    def test_library_config_read_as_cli(self, extra):
        # library callers get the CLI's checks, not a silent default or a ValueError
        with pytest.raises(ConfigError):
            run_sweep("gain", {"grid": GRID_CFG, "nu_values": [4], "family": 1, **extra})

    def test_sweep_deterministic(self):
        cfg = {"grid": GRID_CFG, "seed": 3, "nu_values": [4, 8], "family": 2}
        r1 = run_sweep("gain", cfg)
        r2 = run_sweep("gain", cfg)
        assert r1.samples == r2.samples

    def test_ceiling_sets_verdict(self):
        cfg = {"grid": GRID_CFG, "seed": 0, "nu_values": [4], "family": 1,
               "ceiling": 1e-9}
        assert run_sweep("gain", cfg).verdict == "fail"
