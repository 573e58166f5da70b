"""Split-step evolution, mass conservation, and the bilinear identity."""

import json
import logging
import pathlib
import threading
import tracemalloc

import numpy as np
import pytest

from schrodlab import cli, forward, parallel, reconstruction
from schrodlab.birman_schwinger import gaussian_potential
from schrodlab.forward import (
    evolve,
    integral_identity_check,
    itf_map,
    sample_potential,
)
from schrodlab.grid import GridSpec

from oracles import fingerprint

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=32)
# one chunk of 8 probes at 64^2 is 512 KiB, over numpy's 256 KiB threshold for
# computing an expression's temporary in place
SPEC64 = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=8, pts_space=64)


def packet(seed=0, width=0.5, mod=(2.0, 0.0), spec=SPEC):
    rng = np.random.default_rng(seed)
    x = spec.x_axis()
    mesh = np.meshgrid(x, x, indexing="ij")
    c = rng.uniform(-0.3, 0.3, size=2)
    phase = sum(m * (c_ - cc) for m, c_, cc in zip(mod, mesh, c))
    return np.exp(
        -sum((c_ - cc) ** 2 for c_, cc in zip(mesh, c)) / (2 * width**2)
    ) * np.exp(1j * phase)


def potential(amplitude=1.0, spec=SPEC):
    return gaussian_potential(spec, amplitude=amplitude, width=0.6,
                              window=(-np.pi, np.pi - 1e-9))


def freq_sq(spec=SPEC):
    return sum(c**2 for c in spec.spatial_mesh(frequency=True))


def strang_trajectory(V, f, T, steps, t0=0.0, conjugate_potential=False):
    """Oracle: the per-probe Strang loop on one 2-D state, every slice kept."""
    dt = T / steps
    free = np.exp(-1j * freq_sq(V.field.spec) * dt)
    u = np.asarray(f, dtype=complex)
    slices = [u]
    for k in range(steps):
        vmid = sample_potential(V, t0 + (k + 0.5) * dt)
        half = np.exp(-1j * (np.conj(vmid) if conjugate_potential else vmid) * (dt / 2.0))
        u = half * np.fft.ifftn(np.fft.fftn(half * u) * free)
        slices.append(u)
    return np.array(slices)


def identity_oracle(V1, V2, f, g, T, steps):
    """Both sides of the bilinear identity from full stored trajectories."""
    vol = SPEC.dx**SPEC.n
    u1 = evolve(V1, f, T, steps, store="all")
    ts = T / steps * np.arange(steps + 1)
    if V2 is None:
        u2_final = np.fft.ifftn(np.fft.fftn(f) * np.exp(-1j * freq_sq() * T))
        ghat = np.fft.fftn(g)
        v2 = np.array([np.fft.ifftn(ghat * np.exp(-1j * freq_sq() * (t - T))) for t in ts])
    else:
        u2_final = evolve(V2, f, T, steps, store="all").final
        v2 = evolve(V2, g, -T, steps, t0=T, conjugate_potential=True, store="all").slices[::-1]
    lhs = 1j * ((u1.final - u2_final) * np.conj(g)).sum() * vol
    integrand = [((sample_potential(V1, t) - sample_potential(V2, t)) * u * np.conj(v)).sum() * vol
                 for t, u, v in zip(ts, u1.slices, v2)]
    rhs = np.trapezoid(np.array(integrand), dx=T / steps)
    return complex(lhs), complex(rhs), float(abs(lhs - rhs))


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
        with pytest.raises(ValueError):  # one probe axis at most
            evolve(potential(), np.ones((2, 3, 32, 32)), T=0.1, steps=4)

    def test_steps_guard(self):
        with pytest.raises(ValueError):
            evolve(potential(), packet(), T=0.1, steps=0)

    def test_none_potential_rejected(self):
        with pytest.raises(ValueError, match="zero potential for free evolution"):
            evolve(None, packet(), T=0.1, steps=4)

    def test_trajectory_bookkeeping(self):
        f = packet(4)
        traj = evolve(potential(), f, T=0.3, steps=16)
        assert traj.times.shape == (17,)
        assert traj.slices.shape == (17, 32, 32)
        assert traj.mass.shape == (17,)
        assert np.array_equal(traj.slices[0], f)
        assert np.array_equal(traj.final, traj.slices[-1])

    def test_store_guard(self):
        with pytest.raises(ValueError):
            evolve(potential(), packet(), T=0.1, steps=4, store="some")


class TestBatchedEvolve:
    """A leading probe axis: one step loop per chunk of probes."""

    def probes(self, count):
        return np.stack([packet(20 + k, mod=(k - 2.0, 1.0)) for k in range(count)])

    def test_ragged_chunks_match_per_probe_loop(self, monkeypatch):
        monkeypatch.setattr(forward, "CHUNK", 4)  # 5 probes: chunks of 4 and 1
        V, probes = potential(), self.probes(5)
        batch = evolve(V, probes, T=0.3, steps=24, store="final")
        assert batch.final.shape == (5, 32, 32)
        assert batch.slices.shape == (1, 5, 32, 32)
        assert batch.mass.shape == (25, 5)
        for k, f in enumerate(probes):
            one = evolve(V, f, T=0.3, steps=24)
            assert np.array_equal(batch.final[k], one.final)
            assert np.array_equal(batch.mass[:, k], one.mass)

    def test_stored_slices_equal_single_probe_trajectory(self, monkeypatch):
        monkeypatch.setattr(forward, "CHUNK", 2)
        V, probes = potential(), self.probes(3)
        batch = evolve(V, probes, T=0.3, steps=16, store="all")
        assert batch.slices.shape == (17, 3, 32, 32)
        for k, f in enumerate(probes):
            assert np.array_equal(batch.slices[:, k], strang_trajectory(V, f, 0.3, 16))
        assert np.array_equal(batch.final, batch.slices[-1])

    @pytest.mark.parametrize("count", [1, 8, 20])
    def test_chunks_at_64_match_per_probe_oracle(self, count):
        # 8 probes fill one chunk, 20 make chunks of 8, 8 and 4
        V = potential(spec=SPEC64)
        probes = np.stack([packet(50 + k, mod=(k % 5 - 2.0, 1.0), spec=SPEC64)
                           for k in range(count)])
        traj = evolve(V, probes, T=0.3, steps=4, store="final")
        for k, f in enumerate(probes):
            assert np.array_equal(traj.final[k], strang_trajectory(V, f, 0.3, 4)[-1])

    def test_inputs_left_unchanged(self):
        V = potential()
        probes = np.stack([packet(45), packet(46)])
        assert probes.dtype == complex and probes.flags.c_contiguous
        kept = probes.copy()
        evolve(V, probes, T=0.2, steps=8)
        evolve(V, probes, T=0.2, steps=8, store="final")
        evolve(V, probes[0], T=0.2, steps=8, store="final")
        itf_map(V, probes, T=0.2, steps=8)
        integral_identity_check(V, None, probes, probes[::-1].copy(), T=0.2, steps=8)
        assert np.array_equal(probes, kept)

    def test_backward_conjugate_matches_oracle(self):
        V, f = potential(), packet(30)
        V.field.data = V.field.data * (1.0 - 0.2j)
        traj = evolve(V, f, T=-0.3, steps=16, t0=0.3, conjugate_potential=True)
        assert np.array_equal(traj.slices, strang_trajectory(V, f, -0.3, 16, 0.3, True))

    def test_drift_warning_names_worst_probe(self, caplog):
        V = potential()
        V.field.data = V.field.data * (1.0 - 0.5j)  # absorbing: mass decays
        # only the middle probe sits on the bump at the origin
        probes = np.stack([np.roll(packet(40), 16, axis=(0, 1)), packet(41),
                           np.roll(packet(42), 16, axis=0)])
        with caplog.at_level(logging.WARNING, logger="schrodlab.forward"):
            traj = evolve(V, probes, T=0.3, steps=16, store="final")
        drift = np.abs(traj.mass - traj.mass[0]).max(axis=0) / traj.mass[0]
        assert int(np.argmax(drift)) == 1
        assert traj.mass_drift() == drift.max() > 1e-8
        assert [r.getMessage() for r in caplog.records] == [
            f"mass drift {drift.max():.2e} at probe 1 (complex potential or aliasing)"]


class TestTwoParts:
    """A stack of more than one chunk steps in two parts, the second on a worker thread.

    The fixtures ``started`` and ``on_one_and_two_threads`` are in conftest.py.
    """

    def probes(self, count):
        return np.stack([packet(60 + k, mod=(k % 5 - 2.0, 1.0)) for k in range(count)])

    def assert_same_trajectory(self, serial, parts):
        for name in ("slices", "final", "mass"):
            assert np.array_equal(getattr(serial, name), getattr(parts, name)), name

    @pytest.mark.parametrize("store", ["all", "final"])
    def test_forward_solve_is_bit_identical(self, on_one_and_two_threads, store):
        # 13 probes: chunks of 8 and 5, so the cut falls at 8 and the second part is ragged
        V, probes = potential(), self.probes(13)
        serial, parts = on_one_and_two_threads(
            lambda: evolve(V, probes, T=0.3, steps=12, store=store))
        assert parts.slices.shape == ((13 if store == "all" else 1), 13, 32, 32)
        self.assert_same_trajectory(serial, parts)

    @pytest.mark.parametrize("store", ["all", "final"])
    def test_backward_conjugate_solve_is_bit_identical(self, on_one_and_two_threads, store):
        V, probes = potential(), self.probes(13)
        V.field.data = V.field.data * (1.0 - 0.2j)
        serial, parts = on_one_and_two_threads(
            lambda: evolve(V, probes, T=-0.3, steps=12, t0=0.3,
                           conjugate_potential=True, store=store))
        self.assert_same_trajectory(serial, parts)

    def test_itf_map_on_reconstruct_probes_is_bit_identical(self, monkeypatch,
                                                              on_one_and_two_threads):
        cfg = cli.load_config(str(ROOT / "configs" / "reconstruct.yaml"))
        values = cli.read(cfg, {**cli.COMMON, **cli.TABLES["reconstruct"]})
        V = cli.build_inputs(values)["V"]
        T, steps = values["T"], values["steps"]
        stacks = []
        monkeypatch.setattr(reconstruction, "itf_map",
                            lambda V, probes, T, steps: stacks.append(probes.copy()) or probes)
        reconstruction.reconstruct_potential(V, values["freq_radius"], T, steps)
        (probes,) = stacks
        assert len(probes) == 58  # cut at 32: parts of 32 and 26 probes
        serial, parts = on_one_and_two_threads(lambda: itf_map(V, probes, T, steps))
        assert np.array_equal(serial, parts)

    @pytest.mark.parametrize("count", [1, forward.CHUNK])
    def test_stack_of_one_chunk_starts_no_thread(self, monkeypatch, started, count):
        monkeypatch.setattr(parallel, "_THREADS", 2)
        evolve(potential(), self.probes(count), T=0.3, steps=4)
        evolve(potential(), packet(7), T=0.3, steps=4)
        assert started == []

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_exception_in_either_part_propagates_and_worker_is_joined(
            self, monkeypatch, started, failing):
        monkeypatch.setattr(parallel, "_THREADS", 2)
        weights = forward._slice_weights

        def one_part_fails(spec, t):
            if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
                raise RuntimeError(f"{failing} part failed")
            return weights(spec, t)

        monkeypatch.setattr(forward, "_slice_weights", one_part_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} part failed"):
            evolve(potential(), self.probes(13), T=0.3, steps=4)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before


def test_committed_run_matches_the_benchmark_reference():
    # the benchmark checks the final-state fingerprint on every run; a drift in the
    # step loop shows here first
    cfg = cli.load_config(ROOT / "configs" / "forward.yaml")
    values = cli.read(cfg, {**cli.COMMON, **cli.TABLES["forward-evolve"]})
    _, _, artifacts = cli.forward_evolve(cfg, values, cli.build_inputs(values))
    ref = json.loads((ROOT / "bench" / "reference.json").read_text())["forward"]["final_state"]
    got = fingerprint(artifacts["final_state.npy"])
    assert np.abs(np.subtract(got, ref)).max() <= 1e-12 * abs(ref[0])


class TestItfMap:
    def test_stacked_finals_own_their_memory(self):
        V = potential()
        probes = np.stack([packet(5), packet(6)])
        finals = itf_map(V, probes, T=0.2, steps=32)
        assert finals.shape == (2, 32, 32)
        # no view into a trajectory: each (steps + 1)-slice array is freed
        assert finals.base is None and finals.flags.owndata
        for f, u in zip(probes, finals):
            assert np.array_equal(u, evolve(V, f, T=0.2, steps=32).final)

    def test_given_stack_is_not_copied_twice(self):
        # a given stack goes to evolve as it is, so the only other stack is
        # evolve's working copy (which becomes the finals)
        V = potential()
        itf_map(V, packet(0)[None], T=0.2, steps=1)  # first-call FFT set-up, not counted
        tracemalloc.start()
        try:
            probes = np.empty((64,) + (SPEC.pts_space,) * 2, dtype=complex)
            for k, p in enumerate(probes):
                p[...] = packet(k)
            finals = itf_map(V, probes, T=0.2, steps=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert finals.shape == probes.shape
        assert peak < 2.5 * probes.nbytes

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            itf_map(potential(), np.empty((0,) + (SPEC.pts_space,) * 2, dtype=complex), T=0.2)


class TestIntegralIdentity:
    def test_holds_against_free_reference(self):
        [out] = integral_identity_check(potential(0.6), None, packet(7)[None], packet(8)[None],
                                        T=0.5, steps=256)
        assert out["normalized_residual"] < 1e-4

    def test_residual_is_second_order(self):
        f, g = packet(9)[None], packet(10)[None]
        V = potential(0.6)
        [r64] = integral_identity_check(V, None, f, g, T=0.5, steps=64)
        [r256] = integral_identity_check(V, None, f, g, T=0.5, steps=256)
        gain = r64["normalized_residual"] / r256["normalized_residual"]
        assert 8.0 < gain < 32.0  # ~16x for a second-order scheme

    def test_two_potentials(self):
        [out] = integral_identity_check(potential(0.8), potential(0.3),
                                        packet(11)[None], packet(12)[None], T=0.4, steps=256)
        assert out["normalized_residual"] < 1e-4

    @pytest.mark.parametrize("second", [None, 0.3])
    def test_streamed_sums_equal_stored_trajectory_oracle(self, second):
        V1 = potential(0.8)
        V2 = None if second is None else potential(second)
        f, g = packet(15), packet(16, mod=(-1.0, 1.0))
        [out] = integral_identity_check(V1, V2, f[None], g[None], T=0.4, steps=32)
        assert (out["lhs"], out["rhs"], out["residual"]) == identity_oracle(V1, V2, f, g, 0.4, 32)

    @pytest.mark.parametrize("second", [None, 0.3])
    def test_stacked_trials_equal_per_trial_calls(self, monkeypatch, second):
        monkeypatch.setattr(forward, "CHUNK", 2)  # 3 trials: chunks of 2 and 1
        V1 = potential(0.8)
        V2 = None if second is None else potential(second)
        fs = np.stack([packet(60 + k, mod=(k - 1.0, 1.0)) for k in range(3)])
        gs = np.stack([packet(70 + k, mod=(-1.0, k - 1.0)) for k in range(3)])
        outs = integral_identity_check(V1, V2, fs, gs, T=0.4, steps=16)
        assert isinstance(outs, list) and len(outs) == 3
        for out, f, g in zip(outs, fs, gs):
            [one] = integral_identity_check(V1, V2, f[None], g[None], T=0.4, steps=16)
            assert out.keys() == one.keys()
            assert np.array_equal(list(out.values()), list(one.values()))

    def test_mismatched_trials_rejected(self):
        with pytest.raises(ValueError):
            integral_identity_check(potential(), None, np.stack([packet(1), packet(2)]),
                                    packet(3)[None], T=0.2, steps=8)

    def test_single_states_rejected(self):
        # the identity takes stacks of trials; one state is a stack of one
        with pytest.raises(ValueError, match="stacks"):
            integral_identity_check(potential(), None, packet(1), packet(2), T=0.2, steps=8)

    def test_identical_potentials_give_zero_lhs(self):
        V = potential(0.5)
        [out] = integral_identity_check(V, V, packet(13)[None], packet(14)[None], T=0.3, steps=64)
        assert abs(out["lhs"]) < 1e-10
        assert abs(out["rhs"]) < 1e-10


def traced_peak(run):
    """tracemalloc peak of one call, after an untraced warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    FIELD = 16 * SPEC.pts_space**2  # bytes of one complex state

    @pytest.mark.parametrize("threads", [1, 2])
    def test_evolve_final_within_stack_and_one_and_a_half_chunks(self, monkeypatch, threads):
        # the stack and a few single fields per part: each part holds its own
        # one-probe |u|^2 buffer, phase, potential slice and FFT scratch, and the
        # two parts share the free step; an FFT pass that allocated its result
        # would add a chunk
        monkeypatch.setattr(parallel, "_THREADS", threads)
        V = potential()
        probes = np.stack([packet(80 + k) for k in range(16)])
        peak = traced_peak(lambda: evolve(V, probes, T=0.2, steps=8, store="final"))
        assert peak <= (16 + 1.5 * forward.CHUNK) * self.FIELD

    def test_identity_with_second_potential_holds_one_trajectory(self):
        # one trial's backward trajectory (steps + 1 fields) and about ten single
        # fields of states, phases and products; batched trials would hold three
        V1, V2 = potential(0.8), potential(0.3)
        fs = np.stack([packet(90 + k) for k in range(3)])
        gs = np.stack([packet(95 + k) for k in range(3)])
        steps = 64
        peak = traced_peak(lambda: integral_identity_check(V1, V2, fs, gs, T=0.4, steps=steps))
        assert peak <= (steps + 1 + 12) * self.FIELD
