"""Endpoint embedding failure (divergent families) and the positive
local-smoothing control."""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0  # the oracle for the numpy J_0

from schrodlab import cli, counterexample
from schrodlab.counterexample import (
    RhoFamilyMember,
    _ball_profiles,
    _j0,
    _radial_rule,
    bourgain_norm,
    build_dispersion_profile,
    build_gaussian_trace,
    build_loglog_trace,
    embedding_ratio_sweep,
)
from schrodlab.grid import Field, GridSpec, l2_norm, random_band_limited

from oracles import _ball_profile, build_u_rho, local_smoothing_check

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trace():
    return build_loglog_trace()


@pytest.fixture(scope="module")
def profile():
    return build_dispersion_profile()


class TestTraces:
    def test_offset_lattice_avoids_origin(self, trace):
        assert np.abs(trace.t).min() > 0.0
        assert np.isfinite(trace.g).all()

    def test_trace_support(self, trace):
        outer = trace.params["outer"]
        assert np.all(trace.g[np.abs(trace.t) >= outer] == 0.0)

    def test_h_half_norm_finite(self, trace):
        # the loglog singularity is H^{1/2}: the norm is finite and modest
        assert 0.0 < trace.h_half_norm < 10.0

    def test_evaluate_matches_samples(self, trace):
        assert np.abs(trace.evaluate(trace.t) - trace.g).max() < 1e-14

    def test_gaussian_control(self):
        tr = build_gaussian_trace()
        assert tr.params["kind"] == "gaussian"
        assert np.isfinite(tr.h_half_norm)
        assert tr.evaluate(np.array([0.0]))[0] == pytest.approx(1.0)


class TestJ0:
    """The numpy J_0 agrees with scipy.special.j0 to 5e-15 absolute."""

    TOL = 5e-15

    def assert_matches_scipy(self, x):
        x = np.asarray(x, dtype=float)
        assert np.abs(_j0(x) - scipy_j0(x)).max() <= self.TOL

    def test_dense_grid(self):
        # 1000 ascending rows, so the near/far split runs row block by row block
        self.assert_matches_scipy(np.linspace(0.0, 1000.0, 1_000_000).reshape(1000, 1000))

    def test_zero_and_subnormal(self):
        self.assert_matches_scipy([0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1e-8])

    def test_ulps_either_side_of_8(self):
        below, above = [8.0], [8.0]
        for _ in range(4):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 9.0))
        self.assert_matches_scipy(below[::-1] + above[1:])

    def test_even(self):
        x = np.linspace(0.0, 50.0, 5001)
        assert np.array_equal(_j0(-x), _j0(x))
        self.assert_matches_scipy(-x)

    def test_rows_in_any_order(self):
        # unsorted rows put near and far entries in the same columns
        x = np.random.default_rng(3).uniform(-30.0, 30.0, (70, 53))
        self.assert_matches_scipy(x)

    def test_radial_table(self):
        # the 1000 x 480 table that build_dispersion_profile evaluates block by block
        self.assert_matches_scipy(np.outer(np.arange(0.0, 200.0, 0.2) + 0.1, _radial_rule()[0]))


class TestDispersionProfile:
    def test_value_at_zero(self, profile):
        # P(0, y) is the Fourier transform of the unit disc; h(0) is the
        # largest profile value
        assert profile(0.0) == profile.values.max()

    def test_tail_exponent(self, profile):
        # n(1/2 - 1/r') = 2 (1/2 - 1/4) = 1/2
        assert profile.tail_exponent == pytest.approx(0.5)

    def test_tail_continuous_at_switch(self, profile):
        u = profile.u[-1]
        assert profile(u * 1.0001) == pytest.approx(profile.values[-1], rel=1e-3)

    def test_monotone_decay_large_u(self, profile):
        assert profile(200.0) < profile(100.0) < profile(50.0)

    def test_even_in_u(self, profile):
        assert profile(-30.0) == profile(30.0)

    def test_table_equals_per_u_quadrature(self, profile):
        # the table shares its J_0 blocks across u; any other summation
        # (one GEMM over all u) moves the last digit of the reports
        expected = []
        for s in profile.u:
            y = np.arange(0.0, 2.0 * s + 40.0, 0.2) + 0.1
            p = _ball_profile(s, y)
            integral = ((np.abs(p) ** 4) * y).sum() * 0.2 * 2.0 * np.pi
            expected.append((2.0 * np.pi) ** -1.0 * integral**0.25)
        assert np.array_equal(profile.values, expected)

    @pytest.mark.parametrize("block_rows", [32, 37])
    def test_blocked_rows_equal_per_u_rows(self, profile, monkeypatch, block_rows):
        # at 32 rows a block one u ends one row into a block; at 37 four do, and the
        # 1000-row table would end on a one-row block.  A one-row GEMV rounds
        # differently, by too little to move h(u) here, so P itself is compared
        monkeypatch.setattr(counterexample, "_J0_BLOCK_ROWS", block_rows)
        y, rows = _ball_profiles(profile.u)
        assert [p.size for p in rows][-1] == y.size == 1000
        ends = [p.size % block_rows == 1 for p in rows]
        assert sum(ends) == {32: 1, 37: 4}[block_rows] and ends[-1] == (block_rows == 37)
        for s, p in zip(profile.u, rows):
            assert np.array_equal(p, _ball_profile(s, y[:p.size])), s
        assert np.array_equal(build_dispersion_profile().values, profile.values)

    def test_memory_peak(self):
        # one complex block of 32 x 480 J_0 values (240 KiB), the weights of the 70 u
        # (525 KiB) and their P rows (341 KiB); measured at 2.31 MiB, against 11.0
        # MiB for the whole 1000 x 480 table and its complex copy per u
        _radial_rule()  # built once per process
        tracemalloc.start()
        try:
            build_dispersion_profile()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < 2.31 + 0.5

    def test_values_match_scipy_j0(self, profile, monkeypatch):
        monkeypatch.setattr(counterexample, "_j0", scipy_j0)
        expected = build_dispersion_profile()  # rebuilt with scipy's J_0
        np.testing.assert_allclose(profile.values, expected.values, rtol=1e-13, atol=0.0)


class TestRhoFamily:
    def test_f_norm_is_ball_volume(self, trace):
        member = RhoFamilyMember(4.0, "shifted", trace)
        assert member.f_norm == pytest.approx(math.sqrt(math.pi))

    def test_shifted_bourgain_norm_rho_free(self, trace):
        norms = [RhoFamilyMember(r, "shifted", trace).bourgain_norm()
                 for r in (4.0, 64.0, 1024.0)]
        assert max(norms) == pytest.approx(min(norms), rel=1e-12)

    def test_unscaled_bourgain_norm_rho_free(self, trace):
        norms = [RhoFamilyMember(r, "unscaled", trace).bourgain_norm()
                 for r in (4.0, 1024.0)]
        assert norms[0] == pytest.approx(norms[1], rel=1e-12)

    def test_unknown_family_rejected(self, trace, profile):
        with pytest.raises(ValueError):
            RhoFamilyMember(4.0, "bogus", trace).mixed_norm(profile)

    @pytest.mark.parametrize("rho,family", [(-4.0, "shifted"), (0.0, "control"),
                                            (1e300, "unscaled")])
    def test_bad_rho_rejected(self, trace, profile, rho, family):
        # rho < 0 gave a NaN norm, rho = 0 a zero ratio, and rho^2 = 1e600 an OverflowError
        with pytest.raises(ValueError):
            RhoFamilyMember(rho, family, trace).mixed_norm(profile)


class TestDivergence:
    def test_shifted_family_diverges(self, trace, profile):
        report = embedding_ratio_sweep([4, 16, 64, 256, 1024], "shifted",
                                       trace, profile)
        ratios = [s["ratio"] for s in report.samples]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 1.15

    def test_unscaled_family_diverges(self, trace, profile):
        report = embedding_ratio_sweep([4, 16, 64, 256, 1024], "unscaled",
                                       trace, profile)
        ratios = [s["ratio"] for s in report.samples]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 1.15

    def test_control_family_flat(self, profile):
        report = embedding_ratio_sweep([4, 16, 64, 256, 1024], "control",
                                       build_gaussian_trace(), profile)
        ratios = [s["ratio"] for s in report.samples]
        assert max(ratios) / min(ratios) < 2.0


    def test_committed_sweep_matches_the_benchmark_reference(self):
        # the benchmark checks these norms at rtol 1e-9 on every run; a drift in the
        # trace, the profile or the rho family shows here first
        cfg = cli.load_config(ROOT / "configs" / "counterexample.yaml")
        values = cli.read(cfg, {**cli.COMMON, **cli.TABLES["counterexample-sweep"]})
        _, report, _ = cli.counterexample_sweep(cfg, values, cli.build_inputs(values))
        reference = json.loads((ROOT / "bench" / "reference.json").read_text())["counterexample"]
        for key in ("mixed_norm", "bourgain_norm", "ratio"):
            got = [s[key] for s in report.samples]
            assert got == pytest.approx(reference[key], rel=1e-12, abs=0.0), key


class TestLatticeCrossCheck:
    def test_build_u_rho_coverage_guard(self, trace):
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                        pts_time=16, pts_space=16)
        with pytest.raises(ValueError):
            build_u_rho(64.0, trace, spec)

    def test_lattice_ratio_agrees_with_semi_analytic(self, trace, profile):
        # at rho = 4 the assembled lattice field reproduces the
        # semi-analytic ratio up to box-truncation of the packet tails
        from schrodlab.grid import mixed_norm

        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                        pts_time=512, pts_space=32)
        rho = 4.0
        u = build_u_rho(rho, trace, spec)
        mixed = mixed_norm(u, 4, 4)
        bourg = bourgain_norm(u, "shifted", rho=rho)
        member = RhoFamilyMember(rho, "shifted", trace)
        semi = member.mixed_norm(profile) / member.bourgain_norm()
        lattice = mixed / bourg
        assert abs(lattice - semi) / semi < 0.35


class TestBourgainNorm:
    SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                    pts_time=16, pts_space=16)

    def rand(self, seed=0):
        rng = np.random.default_rng(seed)
        return random_band_limited(self.SPEC, rng, band_time=4, band_space=4)

    def test_homogeneous_needs_nu(self):
        with pytest.raises(ValueError):
            bourgain_norm(self.rand(), "homogeneous")

    def test_shifted_needs_rho(self):
        with pytest.raises(ValueError):
            bourgain_norm(self.rand(), "shifted")

    def test_unknown_weight(self):
        with pytest.raises(ValueError):
            bourgain_norm(self.rand(), "nope")

    def test_scaling_linearity(self):
        u = self.rand(1)
        nu = 8.0
        a = bourgain_norm(u, "homogeneous", nu=nu)
        b = bourgain_norm(u * 3.0, "homogeneous", nu=nu)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_inhomogeneous_dominates_l2(self):
        from schrodlab.grid import mixed_norm

        u = self.rand(2)
        # weight <Re p>^{1/2} >= 1, so the norm dominates the L2 norm
        assert bourgain_norm(u, "inhomogeneous") >= mixed_norm(u, 2, 2) * (1 - 1e-12)


class TestLocalSmoothing:
    def test_bounded_spread(self):
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                        pts_time=16, pts_space=16)
        rng = np.random.default_rng(0)
        fields = [random_band_limited(spec, rng, 4, 4) for _ in range(3)]
        report = local_smoothing_check(fields, [4, 16, 64, 256], T=1.0, R=1.0)
        ratios = [s["ratio"] for s in report.samples]
        assert max(ratios) / min(ratios) < 10.0

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError):
            local_smoothing_check([], [4], T=1.0, R=1.0)
