"""Plane-wave probing and low-frequency potential recovery."""

import itertools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schrodlab import cli, forward, reconstruction
from schrodlab.birman_schwinger import Potential, gaussian_potential
from schrodlab.forward import itf_map
from schrodlab.grid import Field, GridSpec
from schrodlab.reconstruction import (
    born_sample,
    lattice_parametrization,
    reconstruct_potential,
)

from oracles import fingerprint

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=64)
ROOT = pathlib.Path(__file__).resolve().parent.parent


def small_potential(eps=0.05, width=0.7, spec=SPEC):
    # (2, n) satisfies the admissibility relation 2 - 2/a = n/b on any grid
    return gaussian_potential(spec, amplitude=eps, width=width,
                              window=(-np.pi, np.pi - 1e-9), pair=(2, spec.n))


def plane_wave(spec, freq):
    """Oracle: e^{i freq.x} built on the lattice, freq in lattice index units."""
    return np.exp(1j * sum(k * spec.dxi * c for k, c in zip(freq, spec.spatial_mesh())))


def oracle_amplitude(V, xi, T, u_final):
    """Oracle: the Born amplitude at xi from the probe's final state, paired
    against a plane wave e^{i kappa.x} built on the lattice."""
    spec = V.field.spec
    _, eta, kappa = lattice_parametrization(xi)
    sq_eta = sum((e * spec.dxi) ** 2 for e in eta)
    sq_kappa = sum((k * spec.dxi) ** 2 for k in kappa)
    tau = sq_eta - sq_kappa
    free_final = plane_wave(spec, eta) * np.exp(-1j * sq_eta * T)
    lhs = 1j * ((u_final - free_final) * np.conj(plane_wave(spec, kappa))).sum() * spec.dx**spec.n
    win = complex(T) if tau == 0 else (1.0 - np.exp(-1j * tau * T)) / (1j * tau)
    return lhs * np.exp(1j * sq_kappa * T) / (win * (2.0 * spec.box_space) ** spec.n)


def oracle_reconstruction(V, freq_radius, T, steps):
    """Oracle: every target's amplitude, each probe evolved on its own, and the
    estimate summed as one lattice exponential per target."""
    spec = V.field.spec
    kmax = int(np.floor(freq_radius))
    amplitudes = {}
    for xi in itertools.product(range(-kmax, kmax + 1), repeat=spec.n):
        if sum(k * k for k in xi) > freq_radius**2:
            continue
        probe = plane_wave(spec, lattice_parametrization(xi)[1])
        amplitudes[xi] = oracle_amplitude(V, xi, T, itf_map(V, probe[None], T, steps)[0])
    est = sum(c * plane_wave(spec, xi) for xi, c in amplitudes.items())
    return amplitudes, est


def recorded_reconstruction(monkeypatch, V, freq_radius, T, steps, reference=None):
    """reconstruct_potential, with every Born amplitude it makes recorded by target."""
    samples = {}

    def recording(spec, xi, *args):
        samples[tuple(xi)] = amplitude = born_sample(spec, xi, *args)
        return amplitude

    monkeypatch.setattr(reconstruction, "born_sample", recording)
    est, report = reconstruct_potential(V, freq_radius, T, steps, reference=reference)
    return samples, est, report


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
    def test_single_coefficient_recovered(self, monkeypatch):
        # a potential with one spatial mode: V = eps cos(xi.x)
        eps = 0.02
        x = SPEC.x_axis()
        mesh = np.meshgrid(x, x, indexing="ij")
        bump = eps * np.cos(2 * mesh[0])
        data = np.broadcast_to(bump[None], SPEC.shape).astype(complex)
        V = Potential(Field(SPEC, data.copy()),
                      (-np.pi, np.pi - 1e-9), radius=np.pi, pair=(2, 2))
        samples, _, report = recorded_reconstruction(monkeypatch, V, 2.0, T=0.5, steps=128)
        # the cos splits into e^{+-i 2 x} with coefficient eps/2 each
        assert abs(samples[(2, 0)] - eps / 2) < 0.05 * eps
        assert report["n_not_born"] == 0

    def test_born_flag(self):
        V = gaussian_potential(SPEC, amplitude=10.0,
                               window=(-np.pi, np.pi - 1e-9))
        _, report = reconstruct_potential(V, 1.0, T=0.5, steps=32)
        assert report["n_not_born"] == report["n_samples"] == 5

    def test_given_final_state_matches_own_evolution(self):
        # born_sample reads the bin of the scattered spectrum; the oracle evolves
        # the probe itself and pairs against a lattice plane wave
        V, xi, T = small_potential(), (2, 1), 0.5
        _, eta, _ = lattice_parametrization(xi)
        probe = plane_wave(SPEC, eta)
        u_final = itf_map(V, probe[None], T=T, steps=32)[0]
        sq_eta = sum((e * SPEC.dxi) ** 2 for e in eta)
        scattered_hat = np.fft.fftn(u_final - probe * np.exp(-1j * sq_eta * T))
        amplitude = born_sample(SPEC, xi, T, scattered_hat)
        expected = oracle_amplitude(V, xi, T, u_final)
        assert isinstance(amplitude, complex)
        assert abs(amplitude - expected) <= 1e-12 * abs(expected)


#: (grid, freq_radius): xi = 0 alone, a ball inside the band, and a ball that
#: reaches the Nyquist bin, where targets +-N/2 along an axis alias onto one bin
ORACLE_CASES = [
    (GridSpec(n=1, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=16), 0.0),
    (GridSpec(n=1, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=16), 8.0),
    (GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=16), 3.0),
    (GridSpec(n=2, box_time=np.pi, box_space=2.0, pts_time=8, pts_space=8), 4.5),
    (GridSpec(n=3, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=8), 0.0),
    (GridSpec(n=3, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=8), 4.0),
]


class TestTransformsMatchOracle:
    @pytest.mark.parametrize("spec,freq_radius", ORACLE_CASES,
                             ids=[f"n{s.n}-N{s.pts_space}-r{r:g}" for s, r in ORACLE_CASES])
    def test_amplitudes_and_estimate(self, monkeypatch, spec, freq_radius):
        V = small_potential(eps=0.3, width=0.6, spec=spec)
        T, steps = 0.5, 8
        samples, est, report = recorded_reconstruction(monkeypatch, V, freq_radius, T, steps)
        amplitudes, expected = oracle_reconstruction(V, freq_radius, T, steps)
        assert sorted(samples) == sorted(amplitudes)
        assert report["n_samples"] == len(amplitudes)
        scale = max(abs(c) for c in amplitudes.values())
        for xi, c in amplitudes.items():
            assert abs(samples[xi] - c) <= 1e-12 * scale, xi
        assert np.abs(est - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_aliased_targets_add_up(self, monkeypatch):
        spec, freq_radius = ORACLE_CASES[1]
        samples, est, _ = recorded_reconstruction(monkeypatch, small_potential(spec=spec),
                                                  freq_radius, T=0.5, steps=8)
        # xi = -8 and 8 are one lattice function, (-1)^8 e^{i pi j}; both coefficients count
        nyquist = np.fft.fft(est)[8] / spec.pts_space
        assert nyquist == pytest.approx(samples[(8,)] + samples[(-8,)],
                                        rel=1e-12)


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

    def test_committed_run_matches_the_benchmark_reference(self, monkeypatch):
        # the benchmark checks the error and the estimate fingerprint on every run;
        # a drift in the Born path shows here first
        values = cli.read(cli.load_config(ROOT / "configs" / "reconstruct.yaml"),
                          {**cli.COMMON, **cli.TABLES["reconstruct"]})
        V = cli.build_inputs(values)["V"]
        reference = V.field.data[V.field.spec.pts_time // 2]
        samples, est, report = recorded_reconstruction(
            monkeypatch, V, values["freq_radius"], values["T"], values["steps"],
            reference=reference)
        assert len(samples) == 197  # lattice points with |xi| <= 8
        expected = json.loads((ROOT / "bench" / "reference.json").read_text())["reconstruct"]
        assert report["relative_l2_error"] == pytest.approx(
            expected["relative_l2_error"][0], rel=1e-12, abs=0.0)
        ref = expected["potential_estimate"]
        assert np.abs(np.subtract(fingerprint(est), ref)).max() <= 1e-12 * abs(ref[0])
