"""Split-step evolution, mass conservation, and the bilinear identity."""

import numpy as np
import pytest

from schrodlab.birman_schwinger import gaussian_potential
from schrodlab.forward import (
    evolve,
    integral_identity_check,
    itf_map,
    sample_potential,
)
from schrodlab.grid import GridSpec

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=32)


def packet(seed=0, width=0.5, mod=(2.0, 0.0)):
    rng = np.random.default_rng(seed)
    x = SPEC.x_axis()
    mesh = np.meshgrid(x, x, indexing="ij")
    c = rng.uniform(-0.3, 0.3, size=2)
    phase = sum(m * (c_ - cc) for m, c_, cc in zip(mod, mesh, c))
    return np.exp(
        -sum((c_ - cc) ** 2 for c_, cc in zip(mesh, c)) / (2 * width**2)
    ) * np.exp(1j * phase)


def potential(amplitude=1.0):
    return gaussian_potential(SPEC, amplitude=amplitude, width=0.6,
                              window=(-np.pi, np.pi - 1e-9))


class TestSamplePotential:
    def test_none_is_free(self):
        assert sample_potential(None, 0.3) == 0.0

    def test_interpolates(self):
        V = potential()
        t = SPEC.t_axis()
        mid = 0.5 * (t[2] + t[3])
        expected = 0.5 * (V.field.data[2] + V.field.data[3])
        assert np.abs(sample_potential(V, mid) - expected).max() < 1e-12

    def test_clamps_ends(self):
        V = potential()
        assert np.array_equal(sample_potential(V, -100.0), V.field.data[0])
        assert np.array_equal(sample_potential(V, 100.0), V.field.data[-1])


class TestEvolve:
    def test_mass_conserved(self):
        traj = evolve(potential(), packet(), T=0.5, steps=64)
        assert traj.mass_drift() < 1e-12

    def test_free_evolution_exact(self):
        # with a zero potential the scheme applies the exact free
        # propagator, so one step equals many
        V0 = gaussian_potential(SPEC, amplitude=0.0)
        f = packet(1)
        one = evolve(V0, f, T=0.5, steps=1).final
        many = evolve(V0, f, T=0.5, steps=64).final
        assert np.abs(one - many).max() < 1e-11

    def test_second_order_convergence(self):
        V = potential()
        f = packet(2)
        ref = evolve(V, f, T=0.5, steps=1024).final
        errs = []
        for steps in (32, 64):
            errs.append(np.linalg.norm(evolve(V, f, T=0.5, steps=steps).final - ref))
        order = np.log2(errs[0] / errs[1])
        assert 1.7 < order < 2.3

    def test_backward_inverts_forward(self):
        V = potential()
        f = packet(3)
        fwd = evolve(V, f, T=0.4, steps=128)
        back = evolve(V, fwd.final, T=-0.4, steps=128, t0=0.4)
        assert np.abs(back.final - f).max() < 1e-9

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            evolve(potential(), np.ones((8, 8)), T=0.1, steps=4)

    def test_steps_guard(self):
        with pytest.raises(ValueError):
            evolve(potential(), packet(), T=0.1, steps=0)

    def test_trajectory_bookkeeping(self):
        traj = evolve(potential(), packet(4), T=0.3, steps=16)
        assert traj.times.shape == (17,)
        assert traj.slices.shape == (17, 32, 32)
        assert np.array_equal(traj.initial, traj.slices[0])
        assert np.array_equal(traj.final, traj.slices[-1])


class TestItfMap:
    def test_stacked_finals_own_their_memory(self):
        V = potential()
        probes = [packet(5), packet(6)]
        finals = itf_map(V, probes, T=0.2, steps=32)
        assert finals.shape == (2, 32, 32)
        # no view into a trajectory: each (steps + 1)-slice array is freed
        assert finals.base is None and finals.flags.owndata
        for f, u in zip(probes, finals):
            assert np.array_equal(u, evolve(V, f, T=0.2, steps=32).final)

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            itf_map(potential(), [], T=0.2)


class TestIntegralIdentity:
    def test_holds_against_free_reference(self):
        out = integral_identity_check(potential(0.6), None, packet(7), packet(8),
                                      T=0.5, steps=256)
        assert out["normalized_residual"] < 1e-4

    def test_residual_is_second_order(self):
        f, g = packet(9), packet(10)
        V = potential(0.6)
        r64 = integral_identity_check(V, None, f, g, T=0.5, steps=64)
        r256 = integral_identity_check(V, None, f, g, T=0.5, steps=256)
        gain = r64["normalized_residual"] / r256["normalized_residual"]
        assert 8.0 < gain < 32.0  # ~16x for a second-order scheme

    def test_two_potentials(self):
        out = integral_identity_check(potential(0.8), potential(0.3),
                                      packet(11), packet(12), T=0.4, steps=256)
        assert out["normalized_residual"] < 1e-4

    def test_identical_potentials_give_zero_lhs(self):
        V = potential(0.5)
        out = integral_identity_check(V, V, packet(13), packet(14), T=0.3, steps=64)
        assert abs(out["lhs"]) < 1e-10
        assert abs(out["rhs"]) < 1e-10
