"""The hyperplane packet u_sharp, the contraction solve, and remainder decay."""

from dataclasses import asdict
import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from schrodlab import cgo, cli
from schrodlab.birman_schwinger import apply_BS, build_W, gaussian_potential, plan_BS
from schrodlab.cgo import (
    NotContractive,
    build_cgo,
    hyperplane_usharp,
    remainder_decay_sweep,
    solve_v_neumann,
)
from schrodlab.grid import Field, GridSpec, hyperplane_norm, l2_norm
from schrodlab.multipliers import MultiplierPlan, apply_plan, apply_symbol
from schrodlab.reports import NoConvergence

from oracles import fingerprint

SPEC = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
NU = 32.0
ROOT = pathlib.Path(__file__).resolve().parent.parent


def spec_in(n):
    return GridSpec(n=n, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)


class TestWavePacket:
    def test_band_cut(self, monkeypatch):
        # a wide packet reaches past the time-frequency Nyquist range; the hyperplane DFT
        # of u_sharp at one t is psi times unit phases, so it vanishes on the cut modes
        monkeypatch.setattr(cgo, "PACKET_WIDTH", 50.0)
        u, _ = hyperplane_usharp(SPEC)
        dft = np.abs(np.fft.fft(u.data[3, :, 0]))
        beyond = SPEC.xi_axis() ** 2 > np.pi / SPEC.dt
        assert beyond.any() and dft[~beyond].min() > 0.5 * dft.max()
        assert dft[beyond].max() <= 1e-13 * dft.max()

    def test_norm_positive(self):
        # Plancherel on the hyperplane, at every t: each plane x_n = s carries ||psi||^2 per
        # unit time, so its time x hyperplane norm is ||psi|| sqrt(2 box_time)
        for n in (1, 2, 3):
            spec = spec_in(n)
            u, psi_norm = hyperplane_usharp(spec)
            assert psi_norm > 0.0
            np.testing.assert_allclose(hyperplane_norm(u),
                                       psi_norm * np.sqrt(2.0 * spec.box_time), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_usharp_shape_and_invariance(self, n):
        spec = spec_in(n)
        u, _ = hyperplane_usharp(spec)
        assert u.data.shape == spec.shape
        # constant along the drift axis
        spread = np.abs(u.data - u.data[..., :1]).max()
        assert spread < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_usharp_solves_free_equation(self, n):
        # the conjugated symbol annihilates u_sharp to spectral accuracy;
        # its modes sit exactly on the unshifted lattice (tau = -|xi'|^2,
        # xi_n = 0), so this check uses the offset-free plan
        spec = spec_in(n)
        u, _ = hyperplane_usharp(spec)
        plan = MultiplierPlan(spec, NU, 0.0, 0.0)
        resid = l2_norm(apply_symbol(plan, u)) / l2_norm(u)
        assert resid < 1e-10


class TestNeumannSolve:
    def test_fixed_point_residual(self):
        V = gaussian_potential(SPEC, amplitude=0.5)
        sol = build_cgo(V, NU)
        assert sol.residuals["fixed_point"] < 1e-7
        assert sol.rho < 0.9
        assert sol.terms >= 1

    def test_remainder_equation_residual(self, monkeypatch):
        monkeypatch.setattr(cgo, "NEUMANN_TOL", 1e-10)
        V = gaussian_potential(SPEC, amplitude=0.5)
        sol = build_cgo(V, NU)
        assert sol.residuals["remainder_equation"] < 1e-8

    def test_not_contractive_raised(self):
        # a huge potential at small drift breaks the contraction
        V = gaussian_potential(SPEC, amplitude=50.0)
        W = build_W(V)
        usharp, _ = hyperplane_usharp(SPEC)
        with pytest.raises(NotContractive):
            solve_v_neumann(W, usharp, plan_BS(SPEC, 2.0))

    def test_no_convergence_raised(self, monkeypatch):
        # cap the term count so a legitimate contraction cannot finish
        monkeypatch.setattr(cgo, "_MAX_TERMS", 1)
        monkeypatch.setattr(cgo, "NEUMANN_TOL", 1e-14)
        V = gaussian_potential(SPEC, amplitude=0.9)
        W = build_W(V)
        usharp, _ = hyperplane_usharp(SPEC)
        with pytest.raises(NoConvergence, match="after 1 terms"):
            solve_v_neumann(W, usharp, plan_BS(SPEC, NU))

    @pytest.mark.parametrize("flag", ["converged", "starts_agree"])
    def test_unconverged_norm_raised(self, monkeypatch, flag):
        # the norm estimate is the contraction test and the tail bound; one that did not
        # converge, or whose starts disagree, must not let the series pass
        real = cgo.op_norm

        def flagged(*args, **kwargs):
            rho, diag = real(*args, **kwargs)
            return rho, {**diag, flag: False}

        monkeypatch.setattr(cgo, "op_norm", flagged)
        W = build_W(gaussian_potential(SPEC, amplitude=0.5))
        usharp, _ = hyperplane_usharp(SPEC)
        with pytest.raises(NoConvergence):
            solve_v_neumann(W, usharp, plan_BS(SPEC, NU))

    def test_diag_fixed_point_is_the_build_residual(self):
        V = gaussian_potential(SPEC, amplitude=0.5)
        W, plan = build_W(V), plan_BS(SPEC, NU)
        usharp, _ = hyperplane_usharp(SPEC)
        v, diag = solve_v_neumann(W, usharp, plan)
        rhs = Field(SPEC, W.data * usharp.data)
        defect = v - apply_BS(v, W, Field(SPEC, np.abs(W.data).astype(complex)), plan) - rhs
        assert diag["rhs_norm"] == l2_norm(rhs)
        assert diag["fixed_point"] == l2_norm(defect) / l2_norm(rhs)
        assert diag["fixed_point"] == build_cgo(V, NU).residuals["fixed_point"]

    def test_remainder_norm_is_the_norm_of_W_uflat(self):
        W = build_W(gaussian_potential(SPEC, amplitude=0.5))
        usharp, _ = hyperplane_usharp(SPEC)
        plan = plan_BS(SPEC, NU)
        v, diag = solve_v_neumann(W, usharp, plan)
        uflat = apply_plan(plan, Field(SPEC, np.abs(W.data).astype(complex) * v.data))
        expected = l2_norm(Field(SPEC, W.data * uflat.data))
        assert expected > 0.0
        assert diag["remainder_norm"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_potential_gives_zero_v(self):
        W = build_W(gaussian_potential(SPEC, amplitude=0.0))
        usharp, _ = hyperplane_usharp(SPEC)
        v, diag = solve_v_neumann(W, usharp, plan_BS(SPEC, NU))
        assert not v.data.any()
        assert diag["terms"] == 0
        assert diag["fixed_point"] == diag["remainder_norm"] == diag["rhs_norm"] == 0.0

    def test_solve_is_bit_identical_on_one_and_two_threads(self, on_one_and_two_threads):
        # op_norm runs its two starts at once on two threads (fixture in conftest.py)
        W = build_W(gaussian_potential(SPEC, amplitude=0.5))
        usharp, _ = hyperplane_usharp(SPEC)
        plan = plan_BS(SPEC, NU)
        (v1, diag1), (v2, diag2) = on_one_and_two_threads(
            lambda: solve_v_neumann(W, usharp, plan))
        assert diag1 == diag2
        assert np.array_equal(v1.data, v2.data)

    def test_committed_build_matches_the_benchmark_reference(self):
        # the benchmark checks rho and the uflat fingerprint at rtol 1e-9 on every run;
        # a drift in the Neumann path shows here first
        values = cli.read(cli.load_config(ROOT / "configs" / "cgo.yaml"),
                          {**cli.COMMON, **cli.TABLES["cgo-build"]})
        V = cli.build_inputs(values)["V"]
        sol = build_cgo(V, values["nu"])
        reference = json.loads((ROOT / "bench" / "reference.json").read_text())["cgo"]
        assert sol.rho == pytest.approx(reference["rho"][0], rel=1e-12, abs=0.0)
        ref = reference["uflat"]
        assert np.abs(np.subtract(fingerprint(sol.uflat.data), ref)).max() <= 1e-12 * abs(ref[0])


class TestSweep:
    def test_remainder_decays_with_nu(self):
        V = gaussian_potential(SPEC, amplitude=0.5)
        report = remainder_decay_sweep(V, [16, 64])
        ratios = [s["ratio"] for s in report.samples]
        leading = [s["leading_ratio"] for s in report.samples]
        assert ratios[-1] < 0.5 * ratios[0]
        # the leading term stays of one size across the sweep
        assert max(leading) / min(leading) < 2.0

    def test_sweep_factors_V_once_and_builds_no_uflat(self, monkeypatch):
        calls = dict.fromkeys(["build_W", "hyperplane_usharp", "apply_plan", "apply_symbol"], 0)
        for name in calls:
            def counted(*args, _real=getattr(cgo, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cgo, name, counted)
        remainder_decay_sweep(gaussian_potential(SPEC, amplitude=0.5), [16, 32, 64])
        assert calls == {"build_W": 1, "hyperplane_usharp": 1, "apply_plan": 0,
                         "apply_symbol": 0}

    def test_sweep_records_diagnostics(self):
        V = gaussian_potential(SPEC, amplitude=0.5)
        report = remainder_decay_sweep(V, [32])
        s = report.samples[0]
        assert s["rho"] < 0.9
        assert s["fixed_point_residual"] < 1e-7
        assert s["terms"] >= 1
        assert report.params["tol"] == 1e-8  # the tolerance every nu solves at


def test_settings_have_one_source(monkeypatch, tmp_path):
    # the Neumann tolerance is one constant: the sweep's params and cgo-build's params and
    # ceiling follow it, where each used to state 1e-8 on its own
    monkeypatch.setattr(cgo, "NEUMANN_TOL", 1e-9)
    V = gaussian_potential(SPEC, amplitude=0.5)
    assert remainder_decay_sweep(V, [32]).params["tol"] == 1e-9
    config = tmp_path / "cgo.json"
    config.write_text(json.dumps({"grid": asdict(SPEC), "nu": NU,
                                  "potential": {"kind": "gaussian", "amplitude": 0.5}}))
    res = CliRunner().invoke(cli.main, ["cgo-build", "--config", str(config),
                                        "--output", str(tmp_path)])
    assert res.exit_code == cli.EXIT_PASS, res.output
    report = json.loads((tmp_path / "cgo_build.json").read_text())
    assert report["ceiling"] == report["params"]["tol"] == 1e-9
    assert report["params"]["packet"] == {"center": 0.0, "width": cgo.PACKET_WIDTH}
