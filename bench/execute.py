"""Run one experiment and check its outputs.

An execution fails if it raises, exits non-zero, or fails an output check.
The checks run outside the timed region:

* the exit code is 0 and every report's verdict is ``pass`` or ``recorded``;
* no ratio is non-finite, and where a report has a ceiling every ratio is
  at or below it (so rounding-level residuals are held to their ceilings);
* every ``bs_norm_sweep`` row has ``converged`` and ``starts_agree`` true;
* with the committed seed, the non-residual quantities match the values in
  ``reference.json`` to a relative tolerance of ``RTOL``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib

import numpy as np

from workloads import Experiment

RTOL = 1e-9

REPORT_FILES = {
    "strichartz": "strichartz_sweep.json",
    "gain": "gain_sweep.json",
    "bs_sweep": "bs_norm_sweep.json",
    "bs_norm_sweep_64": "bs_norm_sweep.json",
    "cgo": "cgo_build.json",
    "forward": "forward_evolve.json",
    "identity": "identity_check.json",
    "reconstruct": "reconstruct.json",
    "kernel_table": "kernel_table.json",
    "counterexample": "counterexample_shifted.json",
}


def run_cli(cli, exp: Experiment, config: pathlib.Path, out: pathlib.Path):
    """Invoke a subcommand in-process; return its exit code."""
    args = [exp.command, "--config", str(config), "--output", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            return exc.code if exc.code is not None else 0
    return 0


def propagator_check(cfg: dict) -> dict:
    """Acceptance test_03 (n = 2): the propagator quadrature against apply_S."""
    from schrodlab.grid import GridSpec, l2_norm, random_band_limited
    from schrodlab.multipliers import apply_S, plan_S, propagator_factor

    spec = GridSpec(**cfg["grid"])
    plan = plan_S(spec)
    factor = propagator_factor(plan, s_max=cfg["s_max"], quad_pts=cfg["quad_pts"])
    rng = np.random.default_rng(cfg["seed"])
    rel, direct_norm = [], []
    for _ in range(cfg["fields"]):
        f = random_band_limited(spec, rng, cfg["band_time"], cfg["band_space"])
        direct = apply_S(f, plan)
        via = plan.from_freq(plan.to_freq(f) * factor)
        rel.append(l2_norm(via - direct) / l2_norm(direct))
        direct_norm.append(l2_norm(direct))
    return {"rel": rel, "direct_norm": direct_norm}


def run(cli, exp: Experiment, cfg: dict, config: pathlib.Path, out: pathlib.Path):
    """The timed part of one execution."""
    if exp.command is None:
        return propagator_check(cfg)
    return run_cli(cli, exp, config, out)


def clear_outputs(out: pathlib.Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for path in out.iterdir():
        path.unlink()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def fingerprint(array) -> list[float]:
    """Norm and a fixed random projection of an array, for reference checks.

    Both projections are bounded by the norm, so all three entries are
    compared at ``RTOL`` times the reference norm.
    """
    a = np.asarray(array, dtype=complex).ravel()
    rng = np.random.default_rng(0)
    r = rng.standard_normal(a.size) + 1j * rng.standard_normal(a.size)
    p = np.vdot(r / np.linalg.norm(r), a)
    return [float(np.linalg.norm(a)), float(p.real), float(p.imag)]


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def observe(exp: Experiment, cfg: dict, out: pathlib.Path, outcome) -> tuple[dict, list[str]]:
    """Quantities to compare with the reference, and the problems found."""
    if exp.command is None:
        problems = []
        if not _finite(outcome["rel"] + outcome["direct_norm"]):
            problems.append("non-finite propagator error")
        elif max(outcome["rel"]) > cfg["tol"]:
            problems.append(f"propagator error {max(outcome['rel']):.3e} above {cfg['tol']}")
        return {"direct_norm": outcome["direct_norm"]}, problems

    if outcome != 0:
        return {}, [f"exit code {outcome}"]
    report_path = out / REPORT_FILES[exp.name]
    if not report_path.exists():
        return {}, [f"missing report {report_path.name}"]
    report = json.loads(report_path.read_text())
    samples = report["samples"]
    ratios = [s["ratio"] for s in samples]
    problems = []
    if report["verdict"] not in ("pass", "recorded"):
        problems.append(f"verdict {report['verdict']}")
    if not samples or not _finite(ratios):
        problems.append("missing or non-finite ratio")
    elif report["ceiling"] is not None and max(ratios) > report["ceiling"]:
        problems.append(f"ratio {max(ratios):.3e} above ceiling {report['ceiling']}")

    quantities: dict = {}
    if exp.name in ("strichartz", "gain"):
        quantities = {"ratio": ratios}
    elif exp.name in ("bs_sweep", "bs_norm_sweep_64"):
        if not all(s["converged"] and s["starts_agree"] for s in samples):
            problems.append("power iteration not converged or starts disagree")
        quantities = {k: [s[k] for s in samples] for k in ("ratio", "sharp_mass", "flat_mass")}
    elif exp.name == "cgo":
        from schrodlab.grid import load_field

        quantities = {"rho": [report["params"]["rho"]],
                      "uflat": fingerprint(load_field(out / "uflat.slf").data)}
    elif exp.name == "forward":
        quantities = {"final_state": fingerprint(np.load(out / "final_state.npy"))}
    elif exp.name == "reconstruct":
        quantities = {"relative_l2_error": ratios,
                      "potential_estimate": fingerprint(np.load(out / "potential_estimate.npy"))}
    elif exp.name == "kernel_table":
        quantities = {"closed": fingerprint([s["closed"] for s in samples]),
                      "quadrature": fingerprint([s["quadrature"] for s in samples])}
    elif exp.name == "counterexample":
        quantities = {k: [s[k] for s in samples] for k in ("mixed_norm", "bourgain_norm", "ratio")}
    for name, values in quantities.items():
        if not _finite(values):
            problems.append(f"non-finite {name}")
    return quantities, problems


FINGERPRINTS = ("uflat", "final_state", "potential_estimate", "closed", "quadrature")

# The quantities each experiment's reference entry must hold.  ``identity``
# has none: its outputs are residuals, held to their ceilings.
REFERENCE_QUANTITIES = {
    "strichartz": ("ratio",),
    "gain": ("ratio",),
    "bs_sweep": ("ratio", "sharp_mass", "flat_mass"),
    "bs_norm_sweep_64": ("ratio", "sharp_mass", "flat_mass"),
    "cgo": ("rho", "uflat"),
    "forward": ("final_state",),
    "identity": (),
    "reconstruct": ("relative_l2_error", "potential_estimate"),
    "kernel_table": ("closed", "quadrature"),
    "counterexample": ("mixed_norm", "bourgain_norm", "ratio"),
    "propagator_check": ("direct_norm",),
}


def compare(experiment: str, quantities: dict, reference: dict) -> list[str]:
    """Differences beyond ``RTOL`` between observed and reference quantities.

    A quantity missing from ``reference`` is a difference too, so that a
    lost entry cannot let the check pass vacuously.
    """
    problems = []
    entry = reference.get(experiment, {})
    for name in REFERENCE_QUANTITIES[experiment]:
        ref, got = entry.get(name), quantities.get(name)
        if not ref:
            problems.append(f"{name}: no reference value")
            continue
        if got is None or len(got) != len(ref):
            problems.append(f"{name}: shape differs from the reference")
            continue
        for k, (x, r) in enumerate(zip(got, ref)):
            scale = abs(ref[0]) if name in FINGERPRINTS else abs(r)
            if not abs(x - r) <= RTOL * scale:
                problems.append(f"{name}[{k}] = {x!r}, reference {r!r}")
    return problems
