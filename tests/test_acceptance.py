"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test states its claim in the docstring and measures it end to end on
the committed configurations; nothing here depends on implementation
details beyond the public API.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from schrodlab.birman_schwinger import (
    bs_decay_sweep,
    build_W,
    cusp_potential,
    gaussian_potential,
    op_norm,
    plan_BS,
)
from schrodlab.cgo import build_cgo, gaussian_packet_on_hyperplane, remainder_decay_sweep
from schrodlab.cli import main as cli_main
from schrodlab.counterexample import (
    build_dispersion_profile,
    build_gaussian_trace,
    build_loglog_trace,
    embedding_ratio_sweep,
)
from schrodlab.estimates import SWEEP_TABLES, standard_family, strichartz_ratio, sweep
from schrodlab.forward import integral_identity_check
from schrodlab.grid import (
    Field,
    GridSpec,
    l2_norm,
    random_band_limited,
)
from schrodlab.kernels import eval_K_sigma, eval_K_sigma_quadrature
from schrodlab.multipliers import (
    apply_S,
    apply_plan,
    plan_S,
    plan_S_nu,
    propagator_factor,
)
from schrodlab.reconstruction import reconstruct_potential
from schrodlab.reports import grid_spec, read

from oracles import dense_bs_matrix, equation_residual, local_smoothing_check

PI = np.pi


def grid(n, pts_time, pts_space):
    return GridSpec(n=n, box_time=PI, box_space=PI, pts_time=pts_time, pts_space=pts_space)


def test_01_kernel_closed_form_matches_quadrature():
    """Closed-form resolvent kernel agrees with independent oscillatory
    quadrature to 1e-6 absolute over the full (sigma, x) acceptance grid,
    and the sampled sup norm is finite and stable under 2x refinement."""
    sigmas = [-5.0, -1.0, -0.1, 0.1, 0.3, 0.5, 2.0, 10.0]
    xs = np.linspace(-20.0, 20.0, 200)
    worst = 0.0
    sup_coarse = 0.0
    for sigma in sigmas:
        quads = eval_K_sigma_quadrature(sigma, xs)
        for x, quad in zip(xs, quads):
            closed = eval_K_sigma(sigma, float(x))
            worst = max(worst, abs(closed - quad))
            sup_coarse = max(sup_coarse, abs(closed))
    assert worst <= 1e-6
    assert np.isfinite(sup_coarse)
    sup_fine = max(
        abs(eval_K_sigma(sigma, float(x)))
        for sigma in sigmas
        for x in np.linspace(-20.0, 20.0, 400)
    )
    assert sup_fine <= sup_coarse * 1.05 + 1e-12
    assert sup_fine >= sup_coarse * 0.95 - 1e-12


def test_02_multiplier_inverts_conjugated_equation():
    """The conjugated multiplier solves its PDE: relative residual of
    (i d_t + Lap + 2 nu.grad) S_nu f = f stays below 1e-8 for 20 random
    band-limited fields across n in {1, 2} and nu in {4, 16, 64}."""
    for n in (1, 2):
        spec = grid(n, 16, 16)
        rng = np.random.default_rng(n)
        fields = [random_band_limited(spec, rng, 4, 4) for _ in range(10)]
        for mag in (4.0, 16.0, 64.0):
            nu = mag
            plan = plan_S_nu(spec, nu, offset_xin=True)
            for f in fields:
                assert equation_residual(plan, f) <= 1e-8


def test_03_propagator_representation_cross_validates():
    """The time-slice propagator quadrature reproduces the direct spectral
    application of S to 1e-4 relative on 10 smooth fields, n = 1 and 2."""
    for n, count in ((1, 5), (2, 5)):
        spec = grid(n, 16, 16)
        plan = plan_S(spec)
        factor = propagator_factor(plan, s_max=40.0, quad_pts=12000)
        rng = np.random.default_rng(10 + n)
        for k in range(count):
            f = random_band_limited(spec, rng, 2, 2)
            direct = apply_S(f, plan)
            via = plan.from_freq(plan.to_freq(f) * factor)
            rel = l2_norm(via - direct) / l2_norm(direct)
            assert rel <= 1e-4


def test_04_strichartz_ratios_nu_uniform():
    """For three admissible pairs per dimension (including the n = 3
    endpoint (2, 6/5)), the Strichartz ratio over the standard family
    spreads by at most 10x across nu in {2..64}, and the ratio is
    invariant under input rescaling to 1e-10."""
    from schrodlab.symbols import ExponentPair

    pairs = {
        2: [("4/3", "4/3"), (1, 2), ("8/7", "8/5")],
        3: [(2, "6/5"), (1, 2), ("4/3", "3/2")],
    }
    for n, plist in pairs.items():
        spec = grid(n, 16, 16)
        rng = np.random.default_rng(20 + n)
        fields = standard_family(spec, rng, count=3)
        for q, r in plist:
            pair = ExponentPair(q, r, n)
            ratios = []
            for mag in (2.0, 8.0, 32.0, 64.0):
                nu = mag
                plan = plan_S_nu(spec, nu)
                ratios.extend(strichartz_ratio(f, apply_plan(plan, f), pair) for f in fields)
            assert max(ratios) / min(ratios) <= 10.0
        # scaling invariance on one sample
        pair = ExponentPair(*plist[0], n)
        nu = 8.0
        plan = plan_S_nu(spec, nu)
        f, g = fields[0], fields[0] * 1e3
        r1 = strichartz_ratio(f, apply_plan(plan, f), pair)
        r2 = strichartz_ratio(g, apply_plan(plan, g), pair)
        assert abs(r1 - r2) <= 1e-10 * r1


def test_05_gain_estimate_compensated_ratio_bounded():
    """The |nu|-compensated hyperplane-trace ratio stays within a 3x
    spread across the nu sweep on the Gaussian family, n = 2."""
    config = {
        "grid": {"n": 2, "box_time": PI, "box_space": PI,
                 "pts_time": 32, "pts_space": 32},
        "seed": 7,
        "nu_values": [2, 4, 8, 16, 32, 64],
        "family": 5,
        "min_xi_n": 1.0,
    }
    values = read(config, SWEEP_TABLES["gain"])
    report = sweep(config, values, grid_spec(values["grid"]), None)
    per_nu = {}
    for s in report.samples:
        per_nu.setdefault(s["nu"], []).append(s["ratio"])
    maxima = [max(v) for _, v in sorted(per_nu.items())]
    assert max(maxima) / min(maxima) <= 3.0


def test_06_sandwiched_norm_decays_and_matches_oracle():
    """The sandwiched operator norm at nu = 64 is at most half its value
    at nu = 4, for both a bounded Gaussian potential and an unbounded
    cusp; on a tiny grid the power iteration matches a dense SVD within
    1%."""
    spec = grid(2, 32, 32)
    for V in (gaussian_potential(spec, amplitude=2.0, width=0.6),
              cusp_potential(spec, alpha=0.75, amplitude=1.0)):
        report = bs_decay_sweep(V, [4, 64], tol=1e-3)
        ratios = [s["ratio"] for s in report.samples]
        assert ratios[-1] <= 0.5 * ratios[0]
        assert all(s["converged"] and s["starts_agree"] for s in report.samples)
    tiny = GridSpec(n=1, box_time=PI, box_space=PI, pts_time=16, pts_space=16)
    W = build_W(gaussian_potential(tiny, pair=(2, 1)))
    nu = 8.0
    plan = plan_BS(tiny, nu)
    exact = np.linalg.svd(dense_bs_matrix(W, W, plan), compute_uv=False)[0]
    est, diag = op_norm(W, W, plan, tol=1e-6)
    assert diag["converged"] and diag["starts_agree"]
    assert abs(est - exact) <= 0.01 * exact


def test_07_cgo_contraction_and_remainder_decay():
    """Below the contraction cap the fixed-point defect is at most
    1e-6 of the forcing, and the remainder-to-packet ratio at nu = 64
    is at most half its value at nu = 16."""
    spec = grid(2, 16, 16)
    V = gaussian_potential(spec, amplitude=0.5, width=0.6)
    sol = build_cgo(V, gaussian_packet_on_hyperplane(spec, 32.0))
    assert sol.rho <= 0.9
    assert sol.residuals["fixed_point"] <= 1e-6
    report = remainder_decay_sweep(V, [16, 64])
    ratios = [s["ratio"] for s in report.samples]
    assert ratios[-1] <= 0.5 * ratios[0]


def test_08_integral_identity_two_sided():
    """The bilinear identity holds to 1e-4 normalized residual at 256
    steps on a 64^2 spatial grid (free reference solution), and the
    residual scales as steps^-2 within 30%."""
    spec = grid(2, 8, 64)
    V = gaussian_potential(spec, amplitude=0.05, width=0.8,
                           window=(-PI, PI - 1e-9))
    x = spec.x_axis()
    mesh = np.meshgrid(x, x, indexing="ij")
    f = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 0.5) * np.exp(2j * mesh[0])
    g = np.exp(-((mesh[0] - 0.3) ** 2 + mesh[1] ** 2) / 0.5) * np.exp(-1j * mesh[1])
    res = {}
    for steps in (64, 128, 256):
        [out] = integral_identity_check(V, None, f[None], g[None], T=0.5, steps=steps)
        res[steps] = out["normalized_residual"]
    assert res[256] <= 1e-4
    for steps in (64, 128):
        order = res[steps] / res[2 * steps]
        assert 4.0 * 0.7 <= order <= 4.0 * 1.3


def test_09_born_reconstruction():
    """Probing with lattice plane waves recovers the low-frequency box
    |xi| <= 8 of a small Gaussian potential (eps = 0.05) to at most 20%
    relative error, and the error decreases monotonically as eps
    shrinks through {0.1, 0.05, 0.025}."""
    spec = grid(2, 8, 64)

    def run(eps, radius):
        V = gaussian_potential(spec, amplitude=eps, width=0.7,
                               window=(-PI, PI - 1e-9))
        ref = V.field.data[spec.pts_time // 2].real
        _, report = reconstruct_potential(V, freq_radius=radius, T=0.5,
                                          steps=128, reference=ref)
        return report["relative_l2_error"]

    assert run(0.05, 8.0) <= 0.20
    errs = [run(eps, 4.0) for eps in (0.1, 0.05, 0.025)]
    assert errs[0] > errs[1] > errs[2]


def test_10_endpoint_embedding_fails_with_loglog_growth():
    """The divergent families' mixed-to-weighted ratio strictly increases
    over rho in {4,...,1024} with total growth at least 1.15, for both
    the drifted and the centered family; the smooth Gaussian control
    family stays flat within a factor of two."""
    trace = build_loglog_trace()
    profile = build_dispersion_profile()
    for family in ("shifted", "unscaled"):
        report = embedding_ratio_sweep([4, 16, 64, 256, 1024], family,
                                       trace, profile)
        ratios = [s["ratio"] for s in report.samples]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] >= 1.15
    control = embedding_ratio_sweep([4, 16, 64, 256, 1024], "control",
                                    build_gaussian_trace(), profile)
    ratios = [s["ratio"] for s in control.samples]
    assert max(ratios) / min(ratios) <= 2.0


def test_11_local_smoothing_embedding_holds():
    """The |nu|^{1/4}-compensated local L2 norm stays within a 10x spread
    of the homogeneous weighted norm across the nu sweep."""
    spec = grid(2, 16, 16)
    rng = np.random.default_rng(0)
    fields = [random_band_limited(spec, rng, 4, 4) for _ in range(4)]
    report = local_smoothing_check(fields, [4, 16, 64, 256], T=1.0, R=1.0)
    ratios = [s["ratio"] for s in report.samples]
    assert max(ratios) / min(ratios) <= 10.0


def test_12_reports_are_deterministic(tmp_path):
    """Rerunning a configuration with the same seed reproduces the
    report files byte for byte."""
    cfg = tmp_path / "gain.yaml"
    cfg.write_text(
        "grid:\n  n: 2\n  box_time: 3.141592653589793\n"
        "  box_space: 3.141592653589793\n  pts_time: 16\n  pts_space: 16\n"
        "estimate: gain\nnu_values: [4, 16, 64]\nfamily: 3\nseed: 11\n"
        "ceiling: 3.0\n"
    )
    runner = CliRunner()
    blobs = []
    for d in ("a", "b"):
        res = runner.invoke(cli_main, ["verify-strichartz", "--config", str(cfg),
                                       "--output", str(tmp_path / d)])
        assert res.exit_code == 0
        blobs.append((tmp_path / d / "gain_sweep.json").read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["verdict"] == "pass"
