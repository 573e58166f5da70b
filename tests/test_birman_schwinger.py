"""Sandwiched multiplier operator: factorization, norms, splitting, decay."""

import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from schrodlab import birman_schwinger, cli, multipliers, parallel
from schrodlab.birman_schwinger import (
    Potential,
    apply_BS,
    apply_BS_adjoint,
    bs_decay_sweep,
    build_W,
    cusp_potential,
    gaussian_potential,
    op_norm,
    plan_BS,
    split_W,
)
from schrodlab.grid import Field, GridSpec, l2_norm
from schrodlab.multipliers import MultiplierPlan

from oracles import adjoint_plan_op_norm, dense_bs_matrix

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
TINY = GridSpec(n=1, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
NU = 8.0


def rand_field(spec=SPEC, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return Field(spec, data)


class TestPotentials:
    def test_gaussian_support(self):
        V = gaussian_potential(SPEC, amplitude=2.0, width=0.5)
        t = SPEC.t_axis()
        assert not np.abs(V.field.data[(t < V.window[0]) | (t > V.window[1])]).any()
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


class TestFactorization:
    def test_recomposition(self):
        V = gaussian_potential(SPEC)
        W = build_W(V)
        recomposed = np.abs(W.data) * W.data
        assert np.abs(recomposed - V.field.data).max() < 1e-12

    def test_zero_stays_zero(self):
        V = gaussian_potential(SPEC)
        W = build_W(V)
        assert np.all(W.data[np.abs(V.field.data) == 0.0] == 0.0)

    def test_magnitude_is_sqrt(self):
        V = gaussian_potential(SPEC, amplitude=4.0)
        W = build_W(V)
        assert np.abs(np.abs(W.data).max() - 2.0) < 1e-6

    def test_signed_potential(self):
        V = gaussian_potential(SPEC, amplitude=-1.0)
        W = build_W(V)
        recomposed = np.abs(W.data) * W.data
        assert np.abs(recomposed - V.field.data).max() < 1e-12


class TestOperator:
    def test_adjoint_pairing(self):
        # <A v, u> = <v, A* u> for random fields
        W = build_W(gaussian_potential(SPEC))
        v, u = rand_field(seed=1), rand_field(seed=2)
        plan = plan_BS(SPEC, NU)
        av = apply_BS(v, W, W, plan)
        astar_u = apply_BS_adjoint(u, W, W, plan.adjoint())
        lhs = np.vdot(u.data, av.data)
        rhs = np.vdot(astar_u.data, v.data)
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("offsets,floor", [
        (False, 1e-12),
        (True, 0.05),
    ], ids=["lattice_zeros", "offset_raised_floor"])
    def test_adjoint_pairing_with_floored_modes(self, monkeypatch, offsets, floor):
        monkeypatch.setattr(multipliers, "_EPS_FLOOR_REL", floor)
        plan = plan_BS(SPEC, NU) if offsets else MultiplierPlan(SPEC, NU, 0.0, 0.0)
        assert plan.dropped_count > 0
        adj = plan.adjoint()
        assert adj.dropped_count == plan.dropped_count
        assert np.array_equal(np.isinf(adj.denom), np.isinf(plan.denom))
        assert adj.eps_floor == plan.eps_floor
        assert adj.modulation is plan.modulation
        W = build_W(gaussian_potential(SPEC))
        v, u = rand_field(seed=3), rand_field(seed=4)
        av = apply_BS(v, W, W, plan)
        astar_u = apply_BS_adjoint(u, W, W, adj)
        lhs = np.vdot(u.data, av.data)
        rhs = np.vdot(astar_u.data, v.data)
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_dense_matrix_matches_apply(self):
        W = build_W(gaussian_potential(TINY, pair=(2, 1)))
        plan = plan_BS(TINY, 4.0)
        A = dense_bs_matrix(W, W, plan)
        v = rand_field(TINY, 3)
        direct = apply_BS(v, W, W, plan).data.ravel()
        assert np.abs(A @ v.data.ravel() - direct).max() < 1e-10

    def test_dense_matrix_size_guard(self):
        big = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                       pts_time=32, pts_space=16)
        W = build_W(gaussian_potential(big))
        with pytest.raises(ValueError):
            dense_bs_matrix(W, W, plan_BS(big, NU))

    def test_power_iteration_matches_svd(self):
        W = build_W(gaussian_potential(TINY, pair=(2, 1)))
        plan = plan_BS(TINY, 4.0)
        A = dense_bs_matrix(W, W, plan)
        exact = np.linalg.svd(A, compute_uv=False)[0]
        est, diag = op_norm(W, W, plan, tol=1e-6)
        assert diag["converged"]
        assert diag["starts_agree"]
        assert est == pytest.approx(exact, rel=1e-3)

    def test_memory_flat_in_iteration_count(self):
        # each start keeps its one field for all its iterations, never one per step
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=32, pts_space=32)
        W = build_W(gaussian_potential(spec))
        plan = plan_BS(spec, NU)
        field_bytes = 16 * spec.total_points
        peaks, iterations = [], []
        for tol in (1e-3, 1e-4):
            tracemalloc.start()
            try:
                _, diag = op_norm(W, W, plan, tol=tol)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            iterations.append(diag["iterations"])
        assert iterations[1] >= 3 * iterations[0]
        assert abs(peaks[1] - peaks[0]) <= field_bytes

    @staticmethod
    def traced_peak_in_fields() -> float:
        """tracemalloc peak of one op_norm call at 32^3, in fields."""
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=32, pts_space=32)
        W = build_W(gaussian_potential(spec))
        plan = plan_BS(spec, NU)
        tracemalloc.start()
        try:
            op_norm(W, W, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (16 * spec.total_points)

    def test_memory_peak_below_two_fields(self, monkeypatch):
        # one start at a time: its iterate and half a field of its random draw; the
        # adjoint half of each step builds neither a conjugated denominator nor conj(W)
        monkeypatch.setattr(parallel, "_THREADS", 1)
        assert self.traced_peak_in_fields() < 1.75

    def test_memory_peak_of_both_starts_at_once(self, monkeypatch):
        # the iterates of both starts, both drawn before the worker starts, and half a
        # field of one draw; the worker allocates no field
        monkeypatch.setattr(parallel, "_THREADS", 2)
        assert self.traced_peak_in_fields() < 2 + 0.75

    def test_plan_memory_at_64_cubed(self):
        # the symbol and the temporaries that build it; the modulation is a 64 x 64
        # (t, x_n) table, not a field.  Measured at 1.60 fields, against 4.06 fields
        # with a full-grid modulation
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=64, pts_space=64)
        tracemalloc.start()
        try:
            plan = plan_BS(spec, NU)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.modulation.size == spec.pts_time * spec.pts_space
        assert peak / (16 * spec.total_points) < 1.60 + 0.25

    @pytest.mark.parametrize("case", ["n1", "n2_cusp", "n3", "complex_W", "magnitude",
                                      "no_offsets", "floored"])
    def test_op_norm_matches_the_adjoint_plan_bit_for_bit(self, monkeypatch, case):
        # the adjoint half of each step, run by conjugation on the plan's own
        # denominator and W, gives the estimates of the adjoint plan and conj(W)
        spec = {"n1": TINY, "n3": GridSpec(n=3, box_time=np.pi, box_space=np.pi,
                                           pts_time=16, pts_space=16)}.get(case, SPEC)
        if case == "floored":
            monkeypatch.setattr(multipliers, "_EPS_FLOOR_REL", 0.05)
        if case == "n2_cusp":
            V = cusp_potential(spec)
        else:
            V = gaussian_potential(spec, pair=(2, spec.n))
        if case == "complex_W":
            x = spec.spatial_mesh()[-1][None]
            V = Potential(Field(spec, V.field.data * np.exp(1j * x)), V.window, V.radius,
                          V.pair)
        W = build_W(V)
        W2 = Field(spec, np.abs(W.data).astype(complex)) if case == "magnitude" else W
        plan = (MultiplierPlan(spec, NU, 0.0, 0.0) if case == "no_offsets"
                else plan_BS(spec, NU))
        assert (plan.dropped_count > 0) == (case in ("no_offsets", "floored"))
        assert np.any(V.field.data.imag != 0.0) == (case == "complex_W")
        got = op_norm(W, W2, plan, tol=1e-4, seed=3)
        assert got == adjoint_plan_op_norm(W, W2, plan, tol=1e-4, seed=3)
        assert got[1]["iterations"] > 1

    def test_norm_decays_in_nu(self):
        W = build_W(gaussian_potential(SPEC))
        small, _ = op_norm(W, W, plan_BS(SPEC, 2.0), tol=1e-3)
        large, _ = op_norm(W, W, plan_BS(SPEC, 64.0), tol=1e-3)
        assert large < 0.5 * small


class TestTwoStarts:
    """op_norm's two starts run at once on two threads, bit-identical to one thread.

    The fixtures ``started`` and ``on_one_and_two_threads`` are in conftest.py.
    """

    def test_op_norm_is_bit_identical(self, on_one_and_two_threads):
        W = build_W(cusp_potential(SPEC))
        plan = plan_BS(SPEC, NU)
        serial, parts = on_one_and_two_threads(lambda: op_norm(W, W, plan, tol=1e-4, seed=3))
        assert serial == parts
        assert serial[1]["iterations"] > 1 and serial[1]["converged"]

    def test_decay_sweep_is_bit_identical(self, on_one_and_two_threads):
        V = gaussian_potential(SPEC)
        serial, parts = on_one_and_two_threads(lambda: bs_decay_sweep(V, [4, 16, 64]).samples)
        assert serial == parts

    def test_starts_drawn_on_the_calling_thread(self, monkeypatch, started):
        # the worker allocates no field: both draws happen before it starts
        monkeypatch.setattr(parallel, "_THREADS", 2)
        draws, default_rng = [], np.random.default_rng

        def recording(seed):
            draws.append((seed, threading.current_thread() is threading.main_thread(),
                          len(started)))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        W = build_W(gaussian_potential(SPEC))
        op_norm(W, W, plan_BS(SPEC, NU), seed=5)
        assert draws == [(5, True, 0), (6, True, 0)]
        assert len(started) == 1

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_exception_in_either_start_propagates_and_worker_is_joined(
            self, monkeypatch, started, failing):
        monkeypatch.setattr(parallel, "_THREADS", 2)
        kernel = birman_schwinger._sandwich  # each step runs it twice

        def one_start_fails(*args, **kwargs):
            if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
                raise RuntimeError(f"{failing} start failed")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(birman_schwinger, "_sandwich", one_start_fails)
        W = build_W(gaussian_potential(SPEC))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} start failed"):
            op_norm(W, W, plan_BS(SPEC, NU))
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before


class TestSplitting:
    def test_split_recomposes(self):
        W = build_W(cusp_potential(SPEC))
        sharp, flat = split_W(W, lam=1.0, radius=1.0)
        total = sharp.data + flat.data
        assert np.abs(total - W.data).max() == 0.0

    def test_sharp_bounded_inside(self):
        W = build_W(cusp_potential(SPEC))
        sharp, _ = split_W(W, lam=1.0, radius=1.0)
        x = SPEC.x_axis()
        mesh = np.meshgrid(x, x, indexing="ij")
        rad = np.sqrt(mesh[0] ** 2 + mesh[1] ** 2)
        inside = np.abs(sharp.data[:, rad <= 1.0])
        assert inside.max() <= 1.0 + 1e-12

    def test_flat_mass_shrinks_with_lam(self):
        W = build_W(cusp_potential(SPEC))
        _, flat_lo = split_W(W, lam=0.5, radius=1.0)
        _, flat_hi = split_W(W, lam=2.0, radius=1.0)
        assert l2_norm(flat_hi) < l2_norm(flat_lo)

    def test_invalid_args(self):
        W = build_W(gaussian_potential(SPEC))
        with pytest.raises(ValueError):
            split_W(W, -1.0, 1.0)
        with pytest.raises(ValueError):
            split_W(W, 1.0, 0.0)


class TestSweep:
    def test_decay_sweep_report(self):
        V = gaussian_potential(SPEC)
        report = bs_decay_sweep(V, [4, 16, 64], tol=1e-3)
        ratios = [s["ratio"] for s in report.samples]
        assert ratios[-1] < 0.5 * ratios[0]
        for s in report.samples:
            assert s["converged"] and s["starts_agree"]
            assert s["lambda"] == pytest.approx(s["nu"] ** 0.25)

    def test_memory_peak_flat_in_sweep_length(self):
        # the split fields of one nu are dropped once their masses are taken, so the
        # next nu's plan and power iteration do not run beside them
        spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=32, pts_space=32)
        V = gaussian_potential(spec)
        peaks = []
        for nu_values in ([4.0], [4.0, 16.0, 64.0]):
            tracemalloc.start()
            try:
                bs_decay_sweep(V, nu_values)
                peaks.append(tracemalloc.get_traced_memory()[1] / (16 * spec.total_points))
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.25

    def test_sweep_deterministic(self):
        V = gaussian_potential(SPEC)
        r1 = bs_decay_sweep(V, [4, 8], seed=1)
        r2 = bs_decay_sweep(V, [4, 8], seed=1)
        assert r1.samples == r2.samples

    def test_committed_sweep_matches_the_benchmark_reference(self):
        # the benchmark checks these ratios at rtol 1e-9 on every run; a drift shows here first
        values = cli.read(cli.load_config(ROOT / "configs" / "bs_sweep.yaml"),
                          {**cli.COMMON, **cli.TABLES["bs-norm-sweep"]})
        report = bs_decay_sweep(cli.build_inputs(values)["V"], values["nu_values"],
                                tol=values["tol"], seed=values["seed"])
        reference = json.loads((ROOT / "bench" / "reference.json").read_text())["bs_sweep"]
        ratios = [s["ratio"] for s in report.samples]
        assert ratios == pytest.approx(reference["ratio"], rel=1e-12, abs=0.0)

    def test_sweep_independent_of_blas_threads(self):
        # l2_norm sums in numpy's einsum loop, not in BLAS, whose threads split the sum
        # and round differently; so the committed sweep repeats digit for digit
        script = (
            "import sys\n"
            "from schrodlab import cli\n"
            "from schrodlab.birman_schwinger import bs_decay_sweep\n"
            "values = cli.read(cli.load_config(sys.argv[1]),\n"
            "                  {**cli.COMMON, **cli.TABLES['bs-norm-sweep']})\n"
            "report = bs_decay_sweep(cli.build_inputs(values)['V'], values['nu_values'],\n"
            "                        tol=values['tol'], seed=values['seed'])\n"
            "print([repr(s[k]) for s in report.samples\n"
            "       for k in ('ratio', 'sharp_mass', 'flat_mass')])\n"
        )
        src = str(ROOT / "src")
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            outs.append(subprocess.run(
                [sys.executable, "-c", script, str(ROOT / "configs" / "bs_sweep.yaml")],
                capture_output=True, text=True, env=env, check=True).stdout)
        assert outs[0].count("'") == 2 * 3 * 5  # ratio, sharp and flat mass at five nu
        assert outs[0] == outs[1]
