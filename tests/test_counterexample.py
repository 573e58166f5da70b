"""Endpoint embedding failure (divergent families) and the positive
local-smoothing control."""

import math

import numpy as np
import pytest

from schrodlab.counterexample import (
    RhoFamilyMember,
    _ball_profile,
    bourgain_norm,
    build_dispersion_profile,
    build_gaussian_trace,
    build_loglog_trace,
    build_u_rho,
    embedding_ratio_sweep,
    local_smoothing_check,
)
from schrodlab.grid import Field, GridSpec, l2_norm, random_band_limited
from schrodlab.symbols import NuVector


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

    def test_loglog_lower_bound(self, trace):
        for delta in (0.1, 0.01, 1e-3):
            assert trace.lower_bound_check(delta)

    def test_lower_bound_domain_guard(self, trace):
        with pytest.raises(ValueError):
            trace.lower_bound_check(0.5)  # above 1/(2e)

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
        # the table shares one J_0 matrix across u; any other summation
        # (one GEMM over all u) moves the last digit of the reports
        expected = []
        for s in profile.u:
            y = np.arange(0.0, 2.0 * s + 40.0, 0.2) + 0.1
            p = _ball_profile(s, y)
            integral = ((np.abs(p) ** 4) * y).sum() * 0.2 * 2.0 * np.pi
            expected.append((2.0 * np.pi) ** -1.0 * integral**0.25)
        assert np.array_equal(profile.values, expected)


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

    def test_pointwise_floor_stable(self, trace):
        floors = [RhoFamilyMember(r, "shifted", trace).pointwise_floor()
                  for r in (16.0, 256.0, 1024.0)]
        assert min(floors) > 0.3
        assert max(floors) / min(floors) < 1.5


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
                                       profile=profile)
        ratios = [s["ratio"] for s in report.samples]
        assert max(ratios) / min(ratios) < 2.0


class TestLatticeCrossCheck:
    def test_build_u_rho_coverage_guard(self, trace):
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                        pts_time=16, pts_space=16)
        with pytest.raises(ValueError):
            build_u_rho(64.0, trace, spec)

    def test_lattice_ratio_agrees_with_semi_analytic(self, trace, profile):
        # at rho = 4 the assembled lattice field reproduces the
        # semi-analytic ratio up to box-truncation of the packet tails
        from schrodlab.grid import mixed_norm, transform

        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                        pts_time=512, pts_space=32, max_points=1 << 20)
        rho = 4.0
        u_hat = build_u_rho(rho, trace, spec)
        u = transform(u_hat, "inverse")
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
        nu = NuVector([0.0, 8.0])
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
