"""Plane-wave probing and low-frequency potential recovery."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from schrodlab import forward
from schrodlab.birman_schwinger import Potential, gaussian_potential
from schrodlab.forward import itf_map
from schrodlab.grid import Field, GridSpec
from schrodlab.reconstruction import (
    born_sample,
    lattice_parametrization,
    reconstruct_potential,
)

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=64)


def small_potential(eps=0.05, width=0.7):
    return gaussian_potential(SPEC, amplitude=eps, width=width,
                              window=(-np.pi, np.pi - 1e-9))


class TestLatticeParametrization:
    @given(st.integers(min_value=-10, max_value=10),
           st.integers(min_value=-10, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_integer_identities(self, x1, x2):
        tau, eta, kappa = lattice_parametrization((x1, x2))
        assert tuple(k - e for e, k in zip(eta, kappa)) == (x1, x2)
        assert tau == sum(e * e for e in eta) - sum(k * k for k in kappa)
        assert all(isinstance(v, int) for v in eta + kappa) and isinstance(tau, int)


class TestBornSample:
    def test_single_coefficient_recovered(self):
        # a potential with one spatial mode: V = eps cos(xi.x)
        eps = 0.02
        x = SPEC.x_axis()
        mesh = np.meshgrid(x, x, indexing="ij")
        bump = eps * np.cos(2 * mesh[0])
        data = np.broadcast_to(bump[None], SPEC.shape).astype(complex)
        V = Potential(Field(SPEC, "physical", data.copy()),
                      (-np.pi, np.pi - 1e-9), radius=np.pi, pair=(2, 2))
        s = born_sample(V, (2, 0), T=0.5, steps=128)
        # the cos splits into e^{+-i 2 x} with coefficient eps/2 each
        assert abs(s.amplitude - eps / 2) < 0.05 * eps
        assert s.born_ok

    def test_born_flag(self):
        V = gaussian_potential(SPEC, amplitude=10.0,
                               window=(-np.pi, np.pi - 1e-9))
        s = born_sample(V, (1, 0), T=0.5, steps=32)
        assert not s.born_ok

    def test_given_final_state_matches_own_evolution(self):
        V = small_potential()
        _, eta, _ = lattice_parametrization((2, 1))
        probe = np.exp(1j * sum(e * SPEC.dxi * c for e, c in zip(eta, SPEC.spatial_mesh())))
        u_final = itf_map(V, [probe], T=0.5, steps=32)[0]
        given = born_sample(V, (2, 1), T=0.5, steps=32, u_final=u_final)
        assert given == born_sample(V, (2, 1), T=0.5, steps=32)


class TestReconstruction:
    def test_small_potential_recovered(self):
        V = small_potential(eps=0.05)
        ref = V.field.data[SPEC.pts_time // 2].real
        est, report = reconstruct_potential(V, freq_radius=6.0, T=0.5,
                                            steps=128, reference=ref)
        assert report["relative_l2_error"] < 0.05
        assert report["n_not_born"] == 0
        # the estimate is essentially real for a real potential
        assert np.abs(est.imag).max() < 0.1 * np.abs(est.real).max()

    def test_error_grows_with_amplitude(self):
        # the Born correction is quadratic: larger eps, larger error
        errs = []
        for eps in (0.2, 0.05):
            V = small_potential(eps=eps)
            ref = V.field.data[SPEC.pts_time // 2].real
            _, report = reconstruct_potential(V, freq_radius=4.0, T=0.5,
                                              steps=64, reference=ref)
            errs.append(report["relative_l2_error"])
        assert errs[1] < errs[0]

    def test_each_distinct_probe_evolved_once(self, monkeypatch):
        V = small_potential()
        evolved = []
        evolve = forward.evolve

        def counting(V, f, *args, **kwargs):
            evolved.extend(f.reshape((-1,) + f.shape[-2:]))  # the probe rows of the call
            return evolve(V, f, *args, **kwargs)

        monkeypatch.setattr(forward, "evolve", counting)
        _, report = reconstruct_potential(V, freq_radius=3.0, T=0.5, steps=8)
        # 29 targets |xi| <= 3 share 11 distinct probes eta = -floor(xi / 2)
        assert report["n_samples"] == 29
        assert len(evolved) == 11
        assert len({f.tobytes() for f in evolved}) == 11

    def test_peak_memory_independent_of_probe_count(self):
        # 17 distinct probes at |xi| <= 4; a run that kept each probe's
        # trajectory alive would peak near 17 trajectories
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=32)
        V = gaussian_potential(spec, amplitude=0.05, width=0.7,
                               window=(-np.pi, np.pi - 1e-9))
        steps = 64
        trajectory = (steps + 1) * spec.pts_space**2 * 16
        tracemalloc.start()
        try:
            reconstruct_potential(V, freq_radius=4.0, T=0.5, steps=steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * trajectory
