"""The benchmark's workloads: which experiments each one runs, on which configs.

Every experiment but one is a ``schrodlab`` CLI subcommand, invoked
in-process on a derived copy of a committed file in ``configs/``.  The copy
differs from the committed file only in the keys listed here: the seed, when
``--seed`` is given, and the grid of the 64^3 variant.  ``propagator_check``
is the library-level experiment: the n = 2 case of acceptance test_03.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
import json
import math
import pathlib

import yaml

PI = math.pi


@dataclass(frozen=True)
class Experiment:
    """One step of a workload pass."""

    name: str
    command: str | None  # schrodlab subcommand; None for propagator_check
    source: str | None  # committed config the derived copy starts from
    overrides: dict = field(default_factory=dict)
    seeded: bool = False  # whether --seed replaces the config's ``seed`` key
    field_kind: str | None = None  # "spacetime" | "slice": the field one layer call touches


PROPAGATOR_CHECK = {
    "grid": {"n": 2, "box_time": PI, "box_space": PI, "pts_time": 16, "pts_space": 16},
    "s_max": 40.0,
    "quad_pts": 12000,
    "fields": 5,
    "band_time": 2,
    "band_space": 2,
    "tol": 1.0e-4,
    "seed": 12,
}

WORKLOADS: dict[str, tuple[Experiment, ...]] = {
    # Multipliers and the Birman-Schwinger stack; no split step, no quadrature.
    "spectral": (
        Experiment("strichartz", "verify-strichartz", "strichartz.yaml", seeded=True,
                   field_kind="spacetime"),
        Experiment("gain", "verify-strichartz", "gain.yaml", seeded=True,
                   field_kind="spacetime"),
        # Not seeded: at about one seed in thirteen the two power-iteration
        # starts of op_norm differ by more than 2% (starts_agree false), a
        # known defect of op_norm's stopping rule, and such a run fails its
        # checks.  At the committed seed it passes and is compared with the
        # reference on every run.
        Experiment("bs_sweep", "bs-norm-sweep", "bs_sweep.yaml", field_kind="spacetime"),
        Experiment("cgo", "cgo-build", "cgo.yaml", field_kind="spacetime"),
        # 4 MiB per field against 512 KiB at 32^3: the other side of a 2 MiB L2.
        Experiment("bs_norm_sweep_64", "bs-norm-sweep", "bs_sweep.yaml",
                   {"grid": {"pts_time": 64, "pts_space": 64}, "nu_values": [64]},
                   field_kind="spacetime"),
    ),
    # The Strang split step: many small 2-D FFTs, plus Born probing.
    "evolution": (
        Experiment("forward", "forward-evolve", "forward.yaml", field_kind="slice"),
        Experiment("identity", "identity-check", "identity.yaml", seeded=True,
                   field_kind="slice"),
        Experiment("reconstruct", "reconstruct", "reconstruct.yaml", field_kind="slice"),
    ),
    # Python-level quadrature loops with almost no FFT.
    "quadrature": (
        Experiment("kernel_table", "kernel-table", "kernel_table.yaml"),
        Experiment("counterexample", "counterexample-sweep", "counterexample.yaml"),
        Experiment("propagator_check", None, None, seeded=True, field_kind="spacetime"),
    ),
}

ALL_EXPERIMENTS = tuple(e.name for exps in WORKLOADS.values() for e in exps)

# Layers whose inclusive span time should account for most of a pass.
DOMINANT_LAYERS = {
    "spectral": ("multipliers.apply_plan", "birman_schwinger.op_norm"),
    "evolution": ("forward.evolve",),
    "quadrature": (
        "kernels.eval_K_sigma_quadrature",
        "kernels.eval_K_sigma",
        "counterexample.build_dispersion_profile",
        "counterexample.trace",
        "counterexample.mixed_norm",
        "counterexample.bourgain_norm",
        "multipliers.propagator_factor",
    ),
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def committed_config(exp: Experiment, root: pathlib.Path) -> dict:
    """The experiment's config as committed, before any override."""
    if exp.source is None:
        return copy.deepcopy(PROPAGATOR_CHECK)
    return yaml.safe_load((root / "configs" / exp.source).read_text())


def derive_config(exp: Experiment, root: pathlib.Path, seed: int | None) -> dict:
    """The config an experiment runs on; ``seed=None`` keeps the committed seed."""
    cfg = _merge(committed_config(exp, root), exp.overrides)
    if exp.seeded and seed is not None:
        cfg["seed"] = int(seed)
    return cfg


def uses_committed_seed(exp: Experiment, root: pathlib.Path, cfg: dict) -> bool:
    """True when the reference values recorded for ``exp`` apply to ``cfg``."""
    if not exp.seeded:
        return True
    return cfg.get("seed") == committed_config(exp, root).get("seed")


def field_bytes(exp: Experiment, cfg: dict) -> int | None:
    """Bytes of one complex128 field as the experiment's inner layer sees it."""
    g = cfg.get("grid")
    if exp.field_kind is None or g is None:
        return None
    points = g["pts_space"] ** g["n"]
    if exp.field_kind == "spacetime":
        points *= g["pts_time"]
    return 16 * points


def write_configs(workload: str, root: pathlib.Path, seed: int | None,
                  directory: pathlib.Path) -> dict[str, dict]:
    """Write each experiment's derived config to ``<name>.json``; return the configs."""
    directory.mkdir(parents=True, exist_ok=True)
    configs = {}
    for exp in WORKLOADS[workload]:
        configs[exp.name] = derive_config(exp, root, seed)
        (directory / f"{exp.name}.json").write_text(
            json.dumps(configs[exp.name], indent=1, sort_keys=True))
    return configs
