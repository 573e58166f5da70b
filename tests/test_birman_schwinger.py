"""Sandwiched multiplier operator: factorization, norms, splitting, decay."""

import numpy as np
import pytest

from schrodlab.birman_schwinger import (
    FactorW,
    Potential,
    apply_BS,
    apply_BS_adjoint,
    bs_decay_sweep,
    build_W,
    cusp_potential,
    dense_bs_matrix,
    gaussian_potential,
    op_norm,
    piecewise_time_approx,
    split_W,
)
from schrodlab.grid import Field, GridSpec, l2_norm
from schrodlab.multipliers import plan_S_nu
from schrodlab.symbols import NuVector

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
TINY = GridSpec(n=1, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
NU = NuVector([0.0, 8.0])


def rand_field(spec=SPEC, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return Field(spec, "physical", data)


class TestPotentials:
    def test_gaussian_support(self):
        V = gaussian_potential(SPEC, amplitude=2.0, width=0.5)
        assert V.support_leak() == 0.0
        assert np.abs(V.field.data).max() == pytest.approx(2.0, rel=1e-6)

    def test_gaussian_pair_validated(self):
        with pytest.raises(ValueError):
            gaussian_potential(SPEC, pair=(2, 3))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            gaussian_potential(SPEC, window=(1.0, 1.0))

    def test_cusp_grows_with_resolution(self):
        # the |x|^-alpha tip is unbounded: doubling the resolution raises
        # the largest sample
        fine = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=32)
        v1 = cusp_potential(SPEC).field.data
        v2 = cusp_potential(fine).field.data
        assert np.abs(v2).max() > np.abs(v1).max()

    def test_cusp_cutoff(self):
        V = cusp_potential(SPEC, cutoff=1.0)
        x = SPEC.x_axis()
        mesh = np.meshgrid(x, x, indexing="ij")
        rad = np.sqrt(mesh[0] ** 2 + mesh[1] ** 2)
        assert np.abs(V.field.data[:, rad > 1.0]).max() == 0.0

    def test_line_decay_zero_inside_radius(self):
        V = gaussian_potential(SPEC, width=0.3)
        # everything within 4 widths; far tail is Gaussian-small
        assert V.line_decay() < 1e-3


class TestFactorization:
    def test_recomposition(self):
        V = gaussian_potential(SPEC)
        W = build_W(V)
        recomposed = W.magnitude * W.field.data
        assert np.abs(recomposed - V.field.data).max() < 1e-12

    def test_zero_stays_zero(self):
        V = gaussian_potential(SPEC)
        W = build_W(V)
        assert np.all(W.field.data[np.abs(V.field.data) == 0.0] == 0.0)

    def test_magnitude_is_sqrt(self):
        V = gaussian_potential(SPEC, amplitude=4.0)
        W = build_W(V)
        assert np.abs(W.magnitude.max() - 2.0) < 1e-6

    def test_signed_potential(self):
        V = gaussian_potential(SPEC, amplitude=-1.0)
        W = build_W(V)
        recomposed = W.magnitude * W.field.data
        assert np.abs(recomposed - V.field.data).max() < 1e-12


class TestOperator:
    def test_adjoint_pairing(self):
        # <A v, u> = <v, A* u> for random fields
        W = build_W(gaussian_potential(SPEC))
        v, u = rand_field(seed=1), rand_field(seed=2)
        av = apply_BS(v, W, W, NU)
        astar_u = apply_BS_adjoint(u, W, W, NU)
        lhs = np.vdot(u.data, av.data)
        rhs = np.vdot(astar_u.data, v.data)
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("plan", [
        plan_S_nu(SPEC, NU, offset_tau=False, offset_xin=False),
        plan_S_nu(SPEC, NU, offset_tau=True, offset_xin=True, eps_floor_rel=0.05),
    ], ids=["lattice_zeros", "offset_raised_floor"])
    def test_adjoint_pairing_with_floored_modes(self, plan):
        assert plan.dropped_count > 0
        adj = plan.adjoint()
        assert adj.dropped is plan.dropped
        assert adj.eps_floor == plan.eps_floor
        assert adj.modulation is plan.modulation
        W = build_W(gaussian_potential(SPEC))
        v, u = rand_field(seed=3), rand_field(seed=4)
        av = apply_BS(v, W, W, NU, plan)
        astar_u = apply_BS_adjoint(u, W, W, NU, plan)
        lhs = np.vdot(u.data, av.data)
        rhs = np.vdot(astar_u.data, v.data)
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_dense_matrix_matches_apply(self):
        W = build_W(gaussian_potential(TINY, pair=(2, 1)))
        nu = NuVector([4.0])
        A = dense_bs_matrix(TINY, W, W, nu)
        v = rand_field(TINY, 3)
        direct = apply_BS(v, W, W, nu).data.ravel()
        assert np.abs(A @ v.data.ravel() - direct).max() < 1e-10

    def test_dense_matrix_size_guard(self):
        big = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                       pts_time=32, pts_space=16)
        W = build_W(gaussian_potential(big))
        with pytest.raises(ValueError):
            dense_bs_matrix(big, W, W, NU)

    def test_power_iteration_matches_svd(self):
        W = build_W(gaussian_potential(TINY, pair=(2, 1)))
        nu = NuVector([4.0])
        A = dense_bs_matrix(TINY, W, W, nu)
        exact = np.linalg.svd(A, compute_uv=False)[0]
        est, diag = op_norm(W, W, nu, tol=1e-6)
        assert diag["converged"]
        assert diag["starts_agree"]
        assert est == pytest.approx(exact, rel=1e-3)

    def test_norm_decays_in_nu(self):
        W = build_W(gaussian_potential(SPEC))
        small, _ = op_norm(W, W, NuVector([0.0, 2.0]), tol=1e-3)
        large, _ = op_norm(W, W, NuVector([0.0, 64.0]), tol=1e-3)
        assert large < 0.5 * small


class TestSplitting:
    def test_split_recomposes(self):
        W = build_W(cusp_potential(SPEC))
        sharp, flat = split_W(W, lam=1.0, radius=1.0)
        total = sharp.field.data + flat.field.data
        assert np.abs(total - W.field.data).max() == 0.0

    def test_sharp_bounded_inside(self):
        W = build_W(cusp_potential(SPEC))
        sharp, _ = split_W(W, lam=1.0, radius=1.0)
        x = SPEC.x_axis()
        mesh = np.meshgrid(x, x, indexing="ij")
        rad = np.sqrt(mesh[0] ** 2 + mesh[1] ** 2)
        inside = np.abs(sharp.field.data[:, rad <= 1.0])
        assert inside.max() <= 1.0 + 1e-12

    def test_flat_mass_shrinks_with_lam(self):
        W = build_W(cusp_potential(SPEC))
        _, flat_lo = split_W(W, lam=0.5, radius=1.0)
        _, flat_hi = split_W(W, lam=2.0, radius=1.0)
        assert l2_norm(flat_hi.field) < l2_norm(flat_lo.field)

    def test_invalid_args(self):
        W = build_W(gaussian_potential(SPEC))
        with pytest.raises(ValueError):
            split_W(W, -1.0, 1.0)
        with pytest.raises(ValueError):
            split_W(W, 1.0, 0.0)

    def test_piecewise_time_approx(self):
        # a time-constant W is reproduced exactly by any partition
        W = build_W(gaussian_potential(SPEC, window=(-np.pi, np.pi - 1e-9)))
        approx, err = piecewise_time_approx(W, 4)
        assert err < 1e-12
        assert np.abs(approx.field.data - W.field.data).max() < 1e-12

    def test_piecewise_error_decreases(self):
        # a time-varying W is better approximated by finer partitions
        data = rand_field(seed=5).data
        t = SPEC.t_axis().reshape(-1, 1, 1)
        W = FactorW(Field(SPEC, "physical", np.sin(t) * np.ones_like(data)))
        _, e2 = piecewise_time_approx(W, 2)
        _, e8 = piecewise_time_approx(W, 8)
        assert e8 < e2


class TestSweep:
    def test_decay_sweep_report(self):
        V = gaussian_potential(SPEC)
        report = bs_decay_sweep(V, [4, 16, 64], tol=1e-3)
        ratios = [s["ratio"] for s in report.samples]
        assert ratios[-1] < 0.5 * ratios[0]
        for s in report.samples:
            assert s["converged"] and s["starts_agree"]
            assert s["lambda"] == pytest.approx(s["nu"] ** 0.25)

    def test_sweep_deterministic(self):
        V = gaussian_potential(SPEC)
        r1 = bs_decay_sweep(V, [4, 8], seed=1)
        r2 = bs_decay_sweep(V, [4, 8], seed=1)
        assert r1.samples == r2.samples
