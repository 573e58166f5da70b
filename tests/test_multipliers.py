"""Diagonal multiplier operators and their propagator cross-check."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schrodlab.grid import Field, GridSpec, l2_norm, random_band_limited, transform
from schrodlab import multipliers
from schrodlab.multipliers import (
    apply_S,
    apply_S_dyadic,
    apply_S_nu,
    apply_S_via_propagator,
    apply_U_s,
    apply_plan,
    apply_symbol,
    equation_residual,
    plan_S,
    plan_S_nu,
    propagator_factor,
    u_s_multiplier,
)
from schrodlab.symbols import NuVector

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
NU = NuVector([0.0, 8.0])


def node_loop(plan, nodes, weights):
    """Oracle for the batched s-node sum: one full-grid exp per node."""
    tau, *xi = plan.spec.meshgrid_freq(plan.tau_offset, plan.xi_n_offset)
    phase = sum(c**2 for c in xi) - tau
    factor = np.zeros(plan.spec.shape, dtype=np.complex128)
    for s, w in zip(nodes, weights):
        damp = np.where(s * xi[-1] < 0.0, np.exp(-np.abs(s * xi[-1])), 0.0)
        factor = factor + w * (1j * np.sign(s) * np.exp(1j * s * phase) * damp)
    return factor


def rand_field(spec=SPEC, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return Field(spec, "physical", data)


class TestPlans:
    def test_plan_S_offsets(self):
        plan = plan_S(SPEC)
        assert plan.tau_offset == 0.0
        assert plan.xi_n_offset == 0.5 * SPEC.dxi

    def test_plan_S_nu_offsets(self):
        plan = plan_S_nu(SPEC, NU)
        assert plan.tau_offset == 0.5 * SPEC.dtau
        assert plan.xi_n_offset == 0.0

    def test_offset_kills_lattice_zeros(self):
        plan = plan_S(SPEC)
        assert plan.dropped_count == 0
        plan_nu = plan_S_nu(SPEC, NU)
        assert plan_nu.dropped_count == 0

    def test_no_offset_hits_characteristic_set(self):
        # with no offsets the normalized symbol vanishes exactly at
        # tau = |xi'|^2, xi_n = 0 lattice points
        plan = plan_S(SPEC, offset_xin=False, offset_tau=False)
        assert plan.dropped_count > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            plan_S_nu(SPEC, NuVector([1.0]))

    def test_offset_transform_is_unitary(self):
        plan = plan_S_nu(SPEC, NU, offset_tau=True, offset_xin=True)
        f = rand_field(seed=1)
        coeffs = plan.to_freq(f)
        assert np.linalg.norm(coeffs) == pytest.approx(l2_norm(f), rel=1e-12)
        back = plan.from_freq(coeffs)
        assert np.abs(back.data - f.data).max() < 1e-12


class TestApply:
    def test_inverse_composition(self):
        # applying the symbol then its reciprocal is the identity
        plan = plan_S_nu(SPEC, NU)
        f = rand_field(seed=2)
        g = apply_plan(plan, apply_symbol(plan, f))
        assert np.abs(g.data - f.data).max() < 1e-10 * np.abs(f.data).max()

    def test_equation_residual_tiny(self):
        plan = plan_S_nu(SPEC, NU)
        assert equation_residual(plan, rand_field(seed=3)) < 1e-12

    def test_floored_modes_come_out_zero(self):
        # exact lattice zeros of the symbol are floored, not divided by
        plan = plan_S(SPEC, offset_xin=False, offset_tau=False)
        assert plan.dropped_count > 0
        f = rand_field(seed=11)
        coeffs = plan.to_freq(f)
        assert np.all((coeffs / plan.denom)[plan.dropped] == 0.0)
        out = apply_plan(plan, f)
        assert np.isfinite(out.data).all()
        kept = np.where(plan.dropped, 0.0, coeffs / np.where(plan.dropped, 1.0, plan.symbol))
        assert np.array_equal(out.data, plan.from_freq(kept).data)

    def test_linearity(self):
        plan = plan_S(SPEC)
        f, g = rand_field(seed=4), rand_field(seed=5)
        lhs = apply_plan(plan, Field(SPEC, "physical", f.data + 2j * g.data))
        rhs = apply_plan(plan, f).data + 2j * apply_plan(plan, g).data
        assert np.abs(lhs.data - rhs).max() < 1e-12

    def test_wrapper_guards(self):
        with pytest.raises(ValueError):
            apply_S(rand_field(), plan_S_nu(SPEC, NU))
        with pytest.raises(ValueError):
            apply_S_nu(rand_field(), NU, plan_S(SPEC))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_bounded_by_inverse_symbol_floor(self, seed):
        plan = plan_S_nu(SPEC, NU)
        f = rand_field(seed=seed)
        gain = l2_norm(apply_plan(plan, f)) / l2_norm(f)
        assert gain <= 1.0 / np.abs(plan.symbol).min() + 1e-12


class TestUs:
    def test_multiplier_damping_support(self):
        mult = u_s_multiplier(SPEC, 0.7)
        xin = SPEC.xi_axis()
        # modes with s * xi_n >= 0 are annihilated
        dead = mult[..., xin >= 0]
        assert np.abs(dead).max() == 0.0

    def test_multiplier_magnitude(self):
        mult = u_s_multiplier(SPEC, -0.5)
        xin = SPEC.xi_axis()
        live = xin > 0
        expected = np.exp(-0.5 * xin[live])
        assert np.abs(np.abs(mult[0, live]) - expected).max() < 1e-12

    def test_s_zero_rejected(self):
        with pytest.raises(ValueError):
            u_s_multiplier(SPEC, 0.0)

    def test_apply_U_s_contracts(self):
        rng = np.random.default_rng(7)
        phi = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        out = apply_U_s(SPEC, phi, 1.0)
        assert np.linalg.norm(out) <= np.linalg.norm(phi)


class TestPropagator:
    def test_factor_converges_to_reciprocal_symbol(self):
        plan = plan_S(SPEC)
        factor = propagator_factor(plan, s_max=40.0, quad_pts=12000)
        recip = 1.0 / plan.symbol
        # modes with tiny |xi_n| converge slowest; the offset floor is 1/2
        rel = np.abs(factor - recip) / np.abs(recip)
        assert rel.max() < 1e-6

    def test_apply_matches_direct_S(self):
        plan = plan_S(SPEC)
        f = Field(SPEC, "physical",
                  random_band_limited(SPEC, np.random.default_rng(8), 2, 2).data)
        direct = apply_S(f, plan)
        via = apply_S_via_propagator(f, plan, quad_pts=6000, s_max=40.0)
        rel = l2_norm(Field(SPEC, "physical", via.data - direct.data)) / l2_norm(direct)
        assert rel < 1e-6

    def test_truncation_error_decreases(self):
        plan = plan_S(SPEC)
        f = rand_field(seed=9)
        direct = apply_S(f, plan)
        errs = []
        for s_max in (5.0, 20.0):
            via = apply_S_via_propagator(f, plan, quad_pts=4000, s_max=s_max)
            errs.append(
                l2_norm(Field(SPEC, "physical", via.data - direct.data)) / l2_norm(direct)
            )
        assert errs[1] < errs[0]

    def test_dyadic_pieces_sum_to_total(self):
        plan = plan_S(SPEC)
        f = rand_field(seed=10)
        # the s-integral over (2^{j-1}, 2^j] pieces telescopes to (s_lo, s_hi]
        total = np.zeros(SPEC.shape, dtype=complex)
        for j in range(-8, 6):
            total = total + apply_S_dyadic(f, j, plan, quad_pts=400).data
        via = apply_S_via_propagator(f, plan, quad_pts=12000, s_max=2.0**5)
        # the uncovered |s| <= 2^{-9} core and the per-piece quadrature
        # error dominate the gap
        diff = np.abs(total - via.data).max()
        assert diff < 0.02

    @pytest.mark.parametrize("offset_xin", [False, True], ids=["xin-off", "xin-on"])
    @pytest.mark.parametrize("offset_tau", [False, True], ids=["tau-off", "tau-on"])
    @pytest.mark.parametrize("conjugated", [False, True], ids=["S", "S_nu"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_node_sum_matches_node_loop(self, n, conjugated, offset_tau, offset_xin):
        spec = GridSpec(n=n, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=8)
        if conjugated:
            plan = plan_S_nu(spec, NuVector.along_last_axis(8.0, n),
                             offset_tau=offset_tau, offset_xin=offset_xin)
        else:
            plan = plan_S(spec, offset_xin=offset_xin, offset_tau=offset_tau)
        half, w = multipliers._s_panels(1e-9, 10.0, 150)
        nodes, weights = np.concatenate([half, -half]), np.concatenate([w, w])
        assert len(nodes) % multipliers._S_CHUNK != 0  # a partial last chunk
        oracle = node_loop(plan, nodes, weights)
        batched = multipliers._s_node_sum(plan, nodes, weights)
        # relative to the largest mode: a mode whose node terms cancel is
        # ill-conditioned in any summation order
        assert np.abs(batched - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_node_sum_memory_flat_in_node_count(self):
        # the (k x pts_space^n) symbol block is built a chunk at a time
        plan = plan_S(SPEC)
        peaks = []
        for count in (1000, 12000):
            half = np.geomspace(1e-3, 40.0, count // 2)
            nodes = np.concatenate([half, -half])
            weights = np.full(count, 1e-3)
            tracemalloc.start()
            try:
                multipliers._s_node_sum(plan, nodes, weights)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
