"""Command-line front end tying the experiment modules together.

Every subcommand reads one config file (YAML or JSON; schema documented
in docs/config_schema.md), runs its experiment, writes reports into the
configured output directory, and exits with:

* 0 - experiment ran and its report passed (``EstimateReport.passed``),
* 1 - experiment ran but its verdict or one of its rules failed,
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
import time

import click
import numpy as np
import yaml

from . import __version__, cgo
from .birman_schwinger import Potential, bs_decay_sweep, cusp_potential, gaussian_potential
from .cgo import NotContractive, build_cgo, remainder_decay_sweep
from .counterexample import (
    build_dispersion_profile,
    build_gaussian_trace,
    build_loglog_trace,
    embedding_ratio_sweep,
    family_speed,
)
from .estimates import read_pairs, sweep, sweep_table
from .forward import evolve, integral_identity_check
from .grid import GridSpec, save_field
from .kernels import eval_K_sigma, eval_K_sigma_quadrature
from .reconstruction import reconstruct_potential
from .reports import (COMMON, COUNT, EXPONENT, GRID, NATURAL, REQUIRED, ConfigError,
                      EstimateReport, NoConvergence, config_hash, grid_spec, read, write_report)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

#: The config table of each command (verify-strichartz: a function of the config).
TABLES = {}
#: The ``potential`` block of each kind; the Potential checks window, alpha and pair on
#: construction.
POTENTIALS = {kind: {"kind": (("gaussian", "cusp"), REQUIRED), "amplitude": (float, 1.0), **own,
                     "window": ([float], None), "pair": ([EXPONENT], [2, 2])}
              for kind, own in (("gaussian", {"width": (float, 0.5)}),
                                ("cusp", {"alpha": (float, 0.75), "center": (float, 0.0),
                                          "cutoff": (float, 1.0)}))}


def potential_table(block: dict) -> dict:
    """The table of the ``potential`` kind ``block`` names; with none named, every kind's keys,
    so that the error names ``potential.kind``."""
    named = [table for kind, table in POTENTIALS.items() if block.get("kind") == kind]
    return named[0] if named else {**POTENTIALS["gaussian"], **POTENTIALS["cusp"]}


#: The blocks of every command that runs on a potential.
WITH_POTENTIAL = {"grid": (GRID, REQUIRED), "potential": (potential_table, REQUIRED)}


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
    """The grid of ``cfg['grid']``; no other key of ``cfg`` is read."""
    return grid_spec(read({"grid": cfg.get("grid")}, {"grid": (GRID, REQUIRED)})["grid"])


def build_potential(spec: GridSpec, p: dict) -> Potential:
    """The potential of a ``potential`` block read against its kind's table."""
    kw = {**p, "pair": tuple(p["pair"]), "window": tuple(p["window"]) if p["window"] else None}
    try:
        if kw.pop("kind") == "gaussian":
            return gaussian_potential(spec, **kw)
        return cusp_potential(spec, **kw)
    except ValueError as exc:  # window, alpha and pair are checked on construction
        raise ConfigError(f"potential: {exc}") from exc


def gaussian_state(spec: GridSpec, center, width: float, modulation) -> np.ndarray:
    """Modulated Gaussian initial state on the spatial lattice."""
    mesh = spec.spatial_mesh()
    return np.exp(
        -sum((c - c0) ** 2 for c, c0 in zip(mesh, center)) / (2.0 * width**2)
    ) * np.exp(1j * sum(m * c for m, c in zip(modulation, mesh)))


def initial_state(spec: GridSpec, init: dict) -> np.ndarray:
    """The state of an ``initial`` block; center and modulation default to 0."""
    for key in ("center", "modulation"):  # one entry per grid axis, or none
        if init[key] is not None and len(init[key]) != spec.n:
            raise ConfigError(f"initial.{key}: want {spec.n} entries, one per grid axis, "
                              f"got {len(init[key])}")
    origin = [0.0] * spec.n
    return gaussian_state(spec, init["center"] or origin, init["width"],
                          init["modulation"] or origin)


def build_inputs(values: dict) -> dict:
    """The objects a run builds from the values read, each built once.

    Every check made after reading is made here, so ``--dry-run`` makes
    it too: ``spec`` is the ``grid``, ``V`` the ``potential``, ``f`` the
    ``initial`` state and ``pairs`` the admissible Strichartz pairs; every
    drift in ``nu`` or ``nu_values``, ``tol`` and the ``initial`` width
    are positive, ``T`` is not 0 unless the run returns
    an ``initial`` state, ``freq_radius`` is not negative, no kernel
    parameter in ``sigmas`` is 0, and ``rho_values`` holds at least two
    rho, each positive with a finite family speed.
    """
    for key in ("nu", "nu_values"):
        for nu in np.ravel(values.get(key, [])):
            if not nu > 0.0:
                raise ConfigError(f"{key}: nu must be > 0, got {nu}")
    if not values.get("tol", 1.0) > 0.0:
        raise ConfigError(f"tol: tol must be > 0, got {values['tol']}")
    # T = 0 leaves identity-check and reconstruct no evolution to measure; forward-evolve
    # then returns its initial state, and a negative T evolves backward
    if values.get("T") == 0.0 and "initial" not in values:
        raise ConfigError("T: the final time must not be 0")
    if values.get("freq_radius", 0.0) < 0.0:
        raise ConfigError(f"freq_radius: the radius must be >= 0, got {values['freq_radius']}")
    if "initial" in values and not values["initial"]["width"] > 0.0:
        raise ConfigError(f"initial.width: width must be > 0, got {values['initial']['width']}")
    inputs = {}
    if "grid" in values:
        inputs["spec"] = grid_spec(values["grid"])
    if "potential" in values:
        inputs["V"] = build_potential(inputs["spec"], values["potential"])
    if "initial" in values:
        inputs["f"] = initial_state(inputs["spec"], values["initial"])
    if "pairs" in values:
        inputs["pairs"] = read_pairs(values["pairs"], inputs["spec"].n)
    if 0.0 in values.get("sigmas", ()):
        raise ConfigError("sigmas: K_sigma is undefined at sigma = 0")
    for rho in values.get("rho_values", ()):
        try:
            family_speed(rho, values["family"])
        except ValueError as exc:  # rho <= 0, or rho^2 overflows for the unscaled family
            raise ConfigError(f"rho_values: {exc}") from exc
    if "rho_values" in values and len(values["rho_values"]) < 2:
        raise ConfigError("rho_values: the verdict compares at least 2 members, "
                          f"got {len(values['rho_values'])}")
    return inputs


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
    except (NotContractive, NoConvergence) as exc:
        click.echo(f"non-convergence: {exc}", err=True)
        sys.exit(EXIT_NONCONVERGENCE)
    sys.exit(code)


def run_experiment(experiment, table, config_path, output_override, fmt, dry_run) -> int:
    """Load the config, run the experiment, write its report and artifacts.

    The config is read whole against ``table`` (and COMMON) and turned
    into the experiment's inputs before anything runs, so ``--dry-run``
    makes every check a run makes; it then prints the values read, every
    default filled in, and stops.  The report's runtime spans the inputs
    and the experiment.
    """
    cfg = load_config(config_path)
    values = read(cfg, {**COMMON, **(table(cfg) if callable(table) else table)})
    start = time.perf_counter()
    inputs = build_inputs(values)
    if dry_run:
        click.echo(json.dumps(values, indent=2, sort_keys=True, default=str))
        return EXIT_PASS
    stem, report, artifacts = experiment(cfg, values, inputs)
    report.runtime = time.perf_counter() - start
    directory = pathlib.Path(output_override or values["output_dir"])
    directory.mkdir(parents=True, exist_ok=True)
    report.params["config_hash"] = config_hash(cfg)  # the config as written
    if "potential" in cfg:
        report.params["potential"] = cfg["potential"]
    report.params["version"] = __version__
    path = directory / f"{stem}.{fmt}"
    write_report(report, path, fmt)
    click.echo(f"wrote {path}")
    for name, value in artifacts.items():
        path = directory / name
        if path.suffix == ".slf":
            save_field(value, path)
        else:
            np.save(path, value)
        click.echo(f"wrote {path}")
    return EXIT_PASS if report.passed else EXIT_VERDICT


@click.group()
@click.version_option(__version__)
def main():
    """Numerical experiments for conjugated Schrodinger multipliers."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def command(name: str, table):
    """Register ``experiment(cfg, values, inputs)`` as the subcommand ``name``.

    ``table`` is the config table the command reads (a function of the
    config where the table depends on a key); ``values`` is the config as
    read against it, beside the raw ``cfg`` that reports echo, and
    ``inputs`` what :func:`build_inputs` built from ``values``.  The
    experiment returns ``(report stem, EstimateReport, artifacts)``; the
    report alone decides the exit code, and ``artifacts`` maps file names
    (``.npy`` arrays, ``.slf`` fields) to the values written beside it.
    """
    TABLES[name] = table

    def register(experiment):
        @main.command(name, help=experiment.__doc__)
        @click.option("--config", "config_path", required=True,
                      type=click.Path(), help="YAML or JSON config file")
        @click.option("--output", "output_override", default=None,
                      help="override the config output directory")
        @click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
        @click.option("--dry-run", is_flag=True, help="print the resolved config and exit")
        def invoke(config_path, output_override, fmt, dry_run):
            run_guarded(lambda: run_experiment(experiment, table, config_path,
                                               output_override, fmt, dry_run))
        return experiment
    return register


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


@command("verify-strichartz", sweep_table)
def verify_strichartz(cfg, values, inputs):
    """Measure nu-uniform Strichartz / gain ratios."""
    report = sweep(cfg, values, inputs["spec"], inputs.get("pairs"))
    return f"{values['estimate']}_sweep", report, {}


@command("kernel-table", {
    "sigmas": ([float], REQUIRED),
    "x": ({"min": (float, REQUIRED), "max": (float, REQUIRED), "count": (COUNT, REQUIRED)},
          REQUIRED)})
def kernel_table_cmd(cfg, values, inputs):
    """Tabulate the resolvent kernel, closed form vs quadrature."""
    # tol is only the report ceiling; the quadrature checks its own error estimates (exit 3)
    x, tol = values["x"], 1e-6
    report = EstimateReport(
        estimate="kernel_table", grid={}, params={"sigmas": cfg["sigmas"], "tol": tol},
        ceiling=tol,
    )
    xs = np.linspace(x["min"], x["max"], x["count"])
    for sigma in values["sigmas"]:  # one vectorized quadrature per sigma
        for point, quad in zip(xs, eval_K_sigma_quadrature(sigma, xs).tolist()):
            closed = eval_K_sigma(sigma, point)
            report.samples.append({"sigma": float(sigma), "x": float(point), "seed": 0,
                                   "closed": closed, "quadrature": quad,
                                   "ratio": abs(closed - quad)})
    return "kernel_table", report, {}


@command("bs-norm-sweep", {**WITH_POTENTIAL, "nu_values": ([float], REQUIRED),
                           "tol": (float, 1e-3), "seed": (NATURAL, 0)})
def bs_norm_sweep(cfg, values, inputs):
    """Operator-norm decay of the sandwiched multiplier over nu."""
    report = bs_decay_sweep(inputs["V"], values["nu_values"], tol=values["tol"],
                            seed=values["seed"])
    if any(not s["converged"] for s in report.samples):
        raise NoConvergence("power iteration hit the iteration cap")
    if any(not s["starts_agree"] for s in report.samples):
        raise NoConvergence("power iteration starts disagree")
    ratios = report.ratios
    if len(ratios) < 2:  # one nu compares nothing; it records, and exits 0
        report.params["decay_verdict"] = "not_compared"
    else:
        # a zero norm at the first nu (a zero potential) shows no decay
        report.rules["decay"] = 0.0 < ratios[0] and ratios[-1] <= 0.5 * ratios[0]
        report.params["decay_verdict"] = "pass" if report.rules["decay"] else "fail"
    return "bs_norm_sweep", report, {}


@command("cgo-build", {**WITH_POTENTIAL, "nu": (float, REQUIRED)})
def cgo_build(cfg, values, inputs):
    """Construct a CGO solution and record its diagnostics."""
    nu = values["nu"]
    sol = build_cgo(inputs["V"], nu)
    report = EstimateReport(
        estimate="cgo_build",
        grid=dict(cfg["grid"]),
        params={"nu": nu, "tol": cgo.NEUMANN_TOL,
                "packet": {"center": 0.0, "width": cgo.PACKET_WIDTH},
                "rho": sol.rho, "terms": sol.terms},
        ceiling=cgo.NEUMANN_TOL,
    )
    for kind in ("fixed_point", "remainder_equation"):
        report.samples.append({"seed": 0, "ratio": sol.residuals[kind], "kind": kind})
    artifacts = {"uflat.slf": sol.uflat, "usharp.slf": sol.usharp}
    return "cgo_build", report, artifacts


@command("cgo-remainder-sweep", {**WITH_POTENTIAL, "nu_values": ([float], REQUIRED)})
def cgo_remainder_sweep(cfg, values, inputs):
    """Decay of the CGO remainder ||W u_flat|| over nu."""
    report = remainder_decay_sweep(inputs["V"], values["nu_values"])
    return f"cgo_remainder_sweep_{values['potential']['kind']}", report, {}


@command("forward-evolve", {
    **WITH_POTENTIAL, "T": (float, REQUIRED), "steps": (COUNT, 256),
    "initial": ({"center": ([float], None), "width": (float, 0.5),
                 "modulation": ([float], None)}, {})})
def forward_evolve(cfg, values, inputs):
    """Evolve an initial state under a potential; export the final state."""
    T, steps = values["T"], values["steps"]
    traj = evolve(inputs["V"], inputs["f"], T, steps, store="final")
    report = EstimateReport(
        estimate="forward_evolve", grid=dict(cfg["grid"]),
        params={"T": T, "steps": steps, "initial": dict(cfg.get("initial") or {})},
        ceiling=1e-8,
    )
    report.samples.append({"seed": 0, "ratio": traj.mass_drift(), "kind": "mass_drift"})
    return "forward_evolve", report, {"final_state.npy": traj.final}


@command("identity-check", {**WITH_POTENTIAL, "T": (float, REQUIRED), "steps": (COUNT, 256),
                            "seed": (NATURAL, 0)})
def identity_check(cfg, values, inputs):
    """Two-sided verification of the bilinear integral identity."""
    spec, V1 = inputs["spec"], inputs["V"]
    T, steps, seed = values["T"], values["steps"], values["seed"]
    tol = 1e-4  # ceiling on the normalized two-sided residual
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
    pairs = [(packet(), packet()) for _ in range(3)]  # f0, g0, f1, g1, ...
    fs, gs = (np.stack(side) for side in zip(*pairs))
    for k, out in enumerate(integral_identity_check(V1, None, fs, gs, T, steps)):
        report.samples.append(
            {"seed": seed, "trial": k, "ratio": out["normalized_residual"]}
        )
    return "identity_check", report, {}


@command("reconstruct", {**WITH_POTENTIAL, "T": (float, REQUIRED), "freq_radius": (float, 8.0),
                         "steps": (COUNT, 256)})
def reconstruct(cfg, values, inputs):
    """Born reconstruction of a potential from final-state data."""
    spec, V = inputs["spec"], inputs["V"]
    T, radius, steps = values["T"], values["freq_radius"], values["steps"]
    reference = V.field.data[spec.pts_time // 2]
    est, rep = reconstruct_potential(V, radius, T, steps, reference=reference)
    report = EstimateReport(
        estimate="reconstruct", grid=dict(cfg["grid"]),
        params={"T": T, "steps": steps, "freq_radius": radius,
                "n_samples": rep["n_samples"], "n_not_born": rep["n_not_born"]},
        ceiling=0.2,
    )
    report.samples.append({"seed": 0, "ratio": rep["relative_l2_error"]})
    return "reconstruct", report, {"potential_estimate.npy": est}


@command("counterexample-sweep", {"rho_values": ([float], REQUIRED),
                                  "family": (("shifted", "unscaled", "control"), "shifted")})
def counterexample_sweep(cfg, values, inputs):
    """Divergence of the endpoint embedding ratio over the rho family."""
    family = values["family"]
    threshold = 1.15  # least ratio[-1] / ratio[0] of a divergent family
    trace = build_gaussian_trace() if family == "control" else build_loglog_trace()
    report = embedding_ratio_sweep(values["rho_values"], family, trace=trace,
                                   profile=build_dispersion_profile())
    ratios = report.ratios
    if family == "control":
        report.rules["growth"] = max(ratios) <= 2.0 * min(ratios)
    else:
        increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
        report.rules["growth"] = increasing and ratios[-1] / ratios[0] >= threshold
    report.params["growth_threshold"] = threshold
    report.params["verdict_growth"] = "pass" if report.rules["growth"] else "fail"
    return f"counterexample_{family}", report, {}


if __name__ == "__main__":
    main()
