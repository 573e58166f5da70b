"""Command-line front end tying the experiment modules together.

Every subcommand reads one config file (YAML or JSON; schema documented
in docs/config_schema.md), runs its experiment, writes reports into the
configured output directory, and exits with:

* 0 - experiment ran and every verdict passed,
* 1 - experiment ran but a verdict failed,
* 2 - usage or configuration error (message names the offending key),
* 3 - numerical non-convergence.

Reports are deterministic: given the same config (including seed) the
written bytes are identical run to run.
"""

from __future__ import annotations

import json
import logging
import pathlib
import sys

import click
import numpy as np
import yaml

from . import __version__
from .birman_schwinger import Potential, bs_decay_sweep, cusp_potential, gaussian_potential
from .cgo import NoConvergence, NotContractive, build_cgo, gaussian_packet_on_hyperplane
from .counterexample import (
    build_dispersion_profile,
    build_gaussian_trace,
    build_loglog_trace,
    embedding_ratio_sweep,
)
from .estimates import run_sweep
from .forward import evolve, integral_identity_check
from .grid import GridSpec, save_field
from .kernels import kernel_table
from .reconstruction import reconstruct_potential
from .reports import ConfigError, EstimateReport, config_hash, number, require, write_report
from .symbols import NuVector

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    p = pathlib.Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    try:
        cfg = json.loads(text) if p.suffix == ".json" else yaml.safe_load(text)
    except (yaml.YAMLError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a mapping of keys to values")
    return cfg


def build_grid(cfg: dict) -> GridSpec:
    g = require(cfg, "grid", dict)
    try:
        return GridSpec(
            n=require(g, "n", int, "grid"),
            box_time=float(require(g, "box_time", (int, float), "grid")),
            box_space=float(require(g, "box_space", (int, float), "grid")),
            pts_time=require(g, "pts_time", int, "grid"),
            pts_space=require(g, "pts_space", int, "grid"),
            max_points=number(g, "max_points", int, GridSpec.max_points, "grid"),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_potential(cfg: dict, spec: GridSpec) -> Potential:
    p = require(cfg, "potential", dict)
    kind = require(p, "kind", str, "potential")
    if kind not in ("gaussian", "cusp"):
        raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    window = number(p, "window", float, [], "potential")  # [] keeps the default window
    shared = {"amplitude": number(p, "amplitude", float, 1.0, "potential"),
              "window": tuple(window) if window else None,
              "pair": tuple(p.get("pair", (2, 2)))}
    try:
        if kind == "gaussian":
            return gaussian_potential(spec, width=number(p, "width", float, 0.5, "potential"),
                                      **shared)
        return cusp_potential(spec, alpha=number(p, "alpha", float, 0.75, "potential"),
                              center=number(p, "center", float, 0.0, "potential"),
                              cutoff=number(p, "cutoff", float, 1.0, "potential"), **shared)
    except ValueError as exc:  # window, alpha and pair are checked on construction
        raise ConfigError(f"potential: {exc}") from exc


def gaussian_state(spec: GridSpec, center, width: float, modulation) -> np.ndarray:
    """Modulated Gaussian initial state on the spatial lattice."""
    mesh = spec.spatial_mesh()
    return np.exp(
        -sum((c - c0) ** 2 for c, c0 in zip(mesh, center)) / (2.0 * width**2)
    ) * np.exp(1j * sum(m * c for m, c in zip(modulation, mesh)))


def out_dir(cfg: dict, override: str | None) -> pathlib.Path:
    d = pathlib.Path(override or cfg.get("output_dir", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def emit(report: EstimateReport, cfg: dict, directory: pathlib.Path,
         name: str, fmt: str) -> None:
    """Stamp the report with the config hash and version, then write it."""
    report.params["config_hash"] = config_hash(cfg)
    report.params["version"] = __version__
    path = directory / f"{name}.{fmt}"
    write_report(report, path, fmt)
    click.echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# CLI skeleton
# ---------------------------------------------------------------------------


def run_guarded(fn):
    """Run a subcommand body, translating exceptions into exit codes."""
    try:
        code = fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except RuntimeError as exc:
        if not (isinstance(exc, (NotContractive, NoConvergence))
                or "converge" in str(exc).lower()):
            raise
        click.echo(f"non-convergence: {exc}", err=True)
        sys.exit(EXIT_NONCONVERGENCE)
    sys.exit(code)


def run_experiment(experiment, keys, config_path, output_override, fmt, dry_run) -> int:
    """Load the config, run the experiment, write its report and artifacts.

    A top-level key outside ``keys`` is rejected before anything runs,
    ``--dry-run`` included.
    """
    cfg = load_config(config_path)
    unknown = sorted(str(k) for k in set(cfg) - keys)
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]} "
                          f"(known keys: {', '.join(sorted(keys))})")
    if dry_run:
        click.echo(json.dumps(cfg, indent=2, sort_keys=True, default=str))
        return EXIT_PASS
    stem, report, ok, artifacts = experiment(cfg)
    directory = out_dir(cfg, output_override)
    emit(report, cfg, directory, stem, fmt)
    for name, value in artifacts.items():
        path = directory / name
        if path.suffix == ".slf":
            save_field(value, path)
        else:
            np.save(path, value)
        click.echo(f"wrote {path}")
    return EXIT_PASS if ok else EXIT_VERDICT


@click.group()
@click.version_option(__version__)
def main():
    """Numerical experiments for conjugated Schrodinger multipliers."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def command(name: str, *keys: str):
    """Register ``experiment(cfg)`` as the subcommand ``name``.

    ``keys`` are the top-level config keys the experiment reads; every
    command also takes ``output_dir``.  The experiment returns ``(report
    stem, EstimateReport, passed, artifacts)`` where ``artifacts`` maps file
    names (``.npy`` arrays, ``.slf`` fields) to the values written beside
    the report.
    """
    known = frozenset(keys) | {"output_dir"}

    def register(experiment):
        @main.command(name, help=experiment.__doc__)
        @click.option("--config", "config_path", required=True,
                      type=click.Path(), help="YAML or JSON config file")
        @click.option("--output", "output_override", default=None,
                      help="override the config output directory")
        @click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
        @click.option("--dry-run", is_flag=True, help="print the resolved config and exit")
        def invoke(config_path, output_override, fmt, dry_run):
            run_guarded(lambda: run_experiment(experiment, known, config_path,
                                               output_override, fmt, dry_run))
        return experiment
    return register


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


@command("verify-strichartz", "grid", "estimate", "seed", "nu_values", "pairs", "family",
         "min_xi_n", "s_values", "width", "ceiling")
def verify_strichartz(cfg):
    """Measure nu-uniform Strichartz / gain / dispersive ratios."""
    spec = build_grid(cfg)
    estimate = cfg.get("estimate", "strichartz")
    if estimate not in ("strichartz", "gain", "dispersive"):
        raise ConfigError(f"estimate: unknown estimate {estimate!r}")
    report = run_sweep(estimate, cfg, spec)
    return f"{estimate}_sweep", report, report.verdict in ("pass", "recorded"), {}


@command("kernel-table", "sigmas", "x", "tol")
def kernel_table_cmd(cfg):
    """Tabulate the resolvent kernel, closed form vs quadrature."""
    sigmas = require(cfg, "sigmas", list)
    xcfg = require(cfg, "x", dict)
    xs = np.linspace(float(require(xcfg, "min", (int, float), "x")),
                     float(require(xcfg, "max", (int, float), "x")),
                     int(require(xcfg, "count", int, "x")))
    tol = number(cfg, "tol", float, 1e-6)  # report ceiling; the quadrature runs at 1e-9
    report = EstimateReport(
        estimate="kernel_table", grid={}, params={"sigmas": sigmas, "tol": tol},
        ceiling=tol,
    )
    table = kernel_table(sigmas, xs)
    for closed, quad in zip(table[::2], table[1::2]):
        report.samples.append({
            "sigma": float(closed.parameter[0]), "x": float(closed.argument), "seed": 0,
            "closed": closed.value.real, "quadrature": quad.value.real,
            "ratio": abs(closed.value - quad.value),
        })
    return "kernel_table", report, report.verdict == "pass", {}


@command("bs-norm-sweep", "grid", "potential", "nu_values", "tol", "seed")
def bs_norm_sweep(cfg):
    """Operator-norm decay of the sandwiched multiplier over nu."""
    spec = build_grid(cfg)
    V = build_potential(cfg, spec)
    nu_values = require(cfg, "nu_values", list)
    report = bs_decay_sweep(V, nu_values, tol=number(cfg, "tol", float, 1e-3),
                            seed=number(cfg, "seed", int, 0))
    if any(not s["converged"] for s in report.samples):
        raise NoConvergence("power iteration hit the iteration cap")
    if any(not s["starts_agree"] for s in report.samples):
        raise NoConvergence("power iteration starts disagree")
    decay_ok = True
    if len(report.samples) >= 2:
        decay_ok = report.samples[-1]["ratio"] <= 0.5 * report.samples[0]["ratio"]
    return "bs_norm_sweep", report, decay_ok, {}


@command("cgo-build", "grid", "potential", "nu", "packet", "tol", "rho_cap")
def cgo_build(cfg):
    """Construct a CGO solution and record its diagnostics."""
    spec = build_grid(cfg)
    V = build_potential(cfg, spec)
    nu_mag = float(require(cfg, "nu", (int, float)))
    packet_cfg = cfg.get("packet", {})
    packet = gaussian_packet_on_hyperplane(
        spec, NuVector.along_last_axis(nu_mag, spec.n),
        center=number(packet_cfg, "center", float, 0.0, "packet"),
        width=number(packet_cfg, "width", float, 2.0, "packet"),
    )
    tol = number(cfg, "tol", float, 1e-8)
    sol = build_cgo(V, packet, tol=tol, rho_cap=number(cfg, "rho_cap", float, 0.9))
    report = EstimateReport(
        estimate="cgo_build",
        grid=dict(cfg["grid"]),
        params={"nu": nu_mag, "tol": tol, "packet": dict(packet_cfg),
                "rho": sol.rho, "terms": sol.terms},
        ceiling=tol,
    )
    for kind in ("fixed_point", "remainder_equation"):
        report.samples.append({"seed": 0, "ratio": sol.residuals[kind], "kind": kind})
    artifacts = {"uflat.slf": sol.uflat, "usharp.slf": sol.usharp}
    return "cgo_build", report, report.verdict == "pass", artifacts


@command("forward-evolve", "grid", "potential", "T", "steps", "initial")
def forward_evolve(cfg):
    """Evolve an initial state under a potential; export the final state."""
    spec = build_grid(cfg)
    V = build_potential(cfg, spec)
    T = float(require(cfg, "T", (int, float)))
    steps = number(cfg, "steps", int, 256)
    init = cfg.get("initial", {})
    f = gaussian_state(spec, number(init, "center", float, [0.0] * spec.n, "initial"),
                       number(init, "width", float, 0.5, "initial"),
                       number(init, "modulation", float, [0.0] * spec.n, "initial"))
    traj = evolve(V, f, T, steps)
    report = EstimateReport(
        estimate="forward_evolve", grid=dict(cfg["grid"]),
        params={"T": T, "steps": steps, "initial": dict(init)},
        ceiling=1e-8,
    )
    report.samples.append({"seed": 0, "ratio": traj.mass_drift(), "kind": "mass_drift"})
    return "forward_evolve", report, report.verdict == "pass", {"final_state.npy": traj.final}


@command("identity-check", "grid", "potential", "T", "steps", "trials", "tol", "seed")
def identity_check(cfg):
    """Two-sided verification of the bilinear integral identity."""
    spec = build_grid(cfg)
    V1 = build_potential(cfg, spec)
    T = float(require(cfg, "T", (int, float)))
    steps = number(cfg, "steps", int, 256)
    tol = number(cfg, "tol", float, 1e-4)
    seed = number(cfg, "seed", int, 0)
    rng = np.random.default_rng(seed)

    def packet():
        c = rng.uniform(-0.3, 0.3, size=spec.n)
        w = rng.uniform(0.3, 0.7)
        m = rng.uniform(-2, 2, size=spec.n)
        return gaussian_state(spec, c, w, m)

    report = EstimateReport(
        estimate="identity_check", grid=dict(cfg["grid"]),
        params={"T": T, "steps": steps, "tol": tol, "seed": seed},
        ceiling=tol,
    )
    for k in range(number(cfg, "trials", int, 3)):
        out = integral_identity_check(V1, None, packet(), packet(), T, steps)
        report.samples.append(
            {"seed": seed, "trial": k, "ratio": out["normalized_residual"]}
        )
    return "identity_check", report, report.verdict == "pass", {}


@command("reconstruct", "grid", "potential", "T", "freq_radius", "steps", "tol")
def reconstruct(cfg):
    """Born reconstruction of a potential from final-state data."""
    spec = build_grid(cfg)
    V = build_potential(cfg, spec)
    T = float(require(cfg, "T", (int, float)))
    radius = number(cfg, "freq_radius", float, 8.0)
    steps = number(cfg, "steps", int, 256)
    tol = number(cfg, "tol", float, 0.2)
    reference = V.field.data[spec.pts_time // 2]
    est, rep = reconstruct_potential(V, radius, T, steps, reference=reference)
    report = EstimateReport(
        estimate="reconstruct", grid=dict(cfg["grid"]),
        params={"T": T, "steps": steps, "freq_radius": radius,
                "n_samples": rep["n_samples"], "n_not_born": rep["n_not_born"]},
        ceiling=tol,
    )
    report.samples.append({"seed": 0, "ratio": rep.get("relative_l2_error", 0.0)})
    return "reconstruct", report, report.verdict == "pass", {"potential_estimate.npy": est}


@command("counterexample-sweep", "rho_values", "family", "growth_threshold",
         "trace_points")
def counterexample_sweep(cfg):
    """Divergence of the endpoint embedding ratio over the rho family."""
    rho_values = require(cfg, "rho_values", list)
    family = cfg.get("family", "shifted")
    if family not in ("shifted", "unscaled", "control"):
        raise ConfigError(f"family: unknown family {family!r}")
    threshold = number(cfg, "growth_threshold", float, 1.15)
    trace_pts = number(cfg, "trace_points", int, 1 << 15)
    trace = (build_gaussian_trace(points=trace_pts) if family == "control"
             else build_loglog_trace(points=trace_pts))
    profile = build_dispersion_profile()
    report = embedding_ratio_sweep(rho_values, family, trace=trace, profile=profile)
    ratios = report.ratios
    if family == "control":
        ok = len(ratios) < 2 or max(ratios) <= 2.0 * min(ratios)
    else:
        increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
        ok = len(ratios) < 2 or (increasing and ratios[-1] / ratios[0] >= threshold)
    report.params["growth_threshold"] = threshold
    report.params["verdict_growth"] = "pass" if ok else "fail"
    return f"counterexample_{family}", report, ok, {}


if __name__ == "__main__":
    main()
