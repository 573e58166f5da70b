"""Sweep harness turning boundedness statements into measured ratio tables.

Two ratios are measured:

* ``gain_ratio``: the |nu|-compensated hyperplane estimate
  ``|nu| sup_s ||S_nu f||_{L^2(R x H_s)} / int ||f(., ., s)|| ds``;
* ``strichartz_ratio``: ``||S_nu f||_{q', r'} / ||f||_{q, r}`` for an
  admissible pair (q, r).

Acceptance asserts bounded (and nu-uniform) ratios under randomized
sweeps, never specific constants.  The standard test family is a set of
randomized Gaussian wave packets plus one hard case modulated close to the
characteristic set (xi_n near 0, tau near -|xi|^2).
"""

from __future__ import annotations

import logging

import numpy as np

from .birman_schwinger import plan_BS
from .grid import Field, GridSpec, gaussian_packet, hyperplane_norm, l2_norm, mixed_norm
from .multipliers import MultiplierPlan, apply_plan, plan_S_nu
from .reports import (COMMON, COUNT, EXPONENT, GRID, NATURAL, REQUIRED, ConfigError,
                      EstimateReport, read)
from .symbols import ExponentPair, conjugate_exponent

logger = logging.getLogger(__name__)

__all__ = [
    "gain_ratio",
    "strichartz_ratio",
    "standard_family",
    "sweep",
    "sweep_table",
    "read_pairs",
    "SWEEP_TABLES",
]


def gain_ratio(f: Field, plan: MultiplierPlan) -> float:
    """|nu|-compensated hyperplane-trace ratio for the S_nu of ``plan``.

    The hyperplanes are the lattice planes x_n = s orthogonal to the drift.
    The ratio is invariant under f -> c f.
    """
    nu = plan.nu
    if nu is None:
        raise ValueError("gain_ratio requires a plan of S_nu, which carries nu")
    if l2_norm(f) == 0.0:
        raise ValueError("gain_ratio rejects f = 0")
    u = apply_plan(plan, f)
    sup_u = float(hyperplane_norm(u).max())
    integral_f = float(hyperplane_norm(f).sum() * f.spec.dx)
    return abs(nu) * sup_u / integral_f


def strichartz_ratio(f: Field, Sf: Field, pair: ExponentPair) -> float:
    """||S_nu f||_{q', r'} / ||f||_{q, r} for an admissible pair, with ``Sf`` = S_nu f."""
    if not pair.admissible:
        raise ValueError(f"pair {pair} is not admissible for n={pair.n}")
    if l2_norm(f) == 0.0:
        raise ValueError("strichartz_ratio rejects f = 0")
    q_dual, r_dual = conjugate_exponent(pair.q), conjugate_exponent(pair.r)
    return mixed_norm(Sf, q_dual, r_dual) / mixed_norm(f, pair.q, pair.r)


# ---------------------------------------------------------------------------
# test families
# ---------------------------------------------------------------------------


def standard_family(
    spec: GridSpec,
    rng: np.random.Generator,
    count: int = 5,
    min_xi_n: float | None = None,
) -> list[Field]:
    """``count`` randomized Gaussian wave packets, then one near-characteristic hard case.

    ``min_xi_n`` pushes the xi_n modulation away from zero (used by the
    gain sweep, where the xi_n = 0 lattice plane carries no drift decay).
    """
    out = []
    for _ in range(count):
        center_t = rng.uniform(-0.2, 0.2) * spec.box_time
        center_x = rng.uniform(-0.2, 0.2, size=spec.n) * spec.box_space
        width_t = rng.uniform(0.08, 0.2) * spec.box_time
        width_x = rng.uniform(0.15, 0.35) * spec.box_space
        mod_tau = rng.uniform(-2.0, 2.0) * spec.dtau
        mod_xi = rng.uniform(-3.0, 3.0, size=spec.n) * spec.dxi
        if min_xi_n is not None:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            mod_xi[-1] = sign * rng.uniform(min_xi_n, min_xi_n + 2.0 * spec.dxi)
        out.append(
            gaussian_packet(
                spec, center_t, center_x, width_t, width_x, mod_tau, mod_xi
            )
        )
    # near-characteristic packet: xi_n ~ 0, tau ~ -|xi|^2
    xi0 = np.zeros(spec.n)
    xi0[0] = 2.0 * spec.dxi
    if min_xi_n is not None:
        xi0[-1] = min_xi_n
    tau0 = -float(np.sum(xi0**2))
    out.append(
        gaussian_packet(
            spec,
            0.0,
            np.zeros(spec.n),
            0.15 * spec.box_time,
            0.25 * spec.box_space,
            tau0,
            xi0,
        )
    )
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


#: The config table of each estimate.  A key of one estimate is rejected
#: under another, and the nu_values and family defaults differ.
SWEEP_TABLES = {
    name: {**COMMON, "grid": (GRID, REQUIRED), "estimate": ((name,), name),
           "seed": (NATURAL, 0), "ceiling": (float, None), **keys}
    for name, keys in [
        ("strichartz", {"nu_values": ([float], [2, 4, 8, 16, 32, 64]),
                        "pairs": ([[EXPONENT]], REQUIRED), "family": (COUNT, 4)}),
        ("gain", {"nu_values": ([float], [2, 4, 8, 16, 32]), "family": (COUNT, 5),
                  "min_xi_n": (float, 1.0)}),
    ]
}


def sweep_table(config: dict) -> dict:
    """The table of the estimate ``config`` names; strichartz when it names none."""
    estimate = read({"estimate": config.get("estimate")},
                    {"estimate": (tuple(SWEEP_TABLES), "strichartz")})["estimate"]
    return SWEEP_TABLES[estimate]


def read_pairs(pairs: list, n: int) -> list[ExponentPair]:
    """The ``pairs`` entries as admissible exponent pairs, or a ConfigError naming ``pairs``."""
    out = []
    for entry in pairs:
        try:
            q, r = entry
            pair = ExponentPair(q, r, n)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"pairs: bad entry {entry!r}: {exc}") from None
        if not pair.admissible:
            raise ConfigError(f"pairs: {entry!r} is not admissible for n = {n}")
        out.append(pair)
    return out


def sweep(config: dict, values: dict, spec: GridSpec,
          pairs: list[ExponentPair] | None) -> EstimateReport:
    """Run the ratio sweep ``values['estimate']`` names.

    ``values`` is ``config`` read against the estimate's table, ``spec``
    its grid and ``pairs`` its admissible pairs (None but for strichartz).
    The report echoes ``config['grid']`` and the rest of ``config`` as
    written.
    """
    estimate, seed = values["estimate"], values["seed"]
    report = EstimateReport(
        estimate=estimate,
        grid=dict(config["grid"]),
        params={k: v for k, v in config.items() if k not in ("grid",)},
        ceiling=values["ceiling"],
    )
    rng = np.random.default_rng(seed)

    if estimate == "gain":
        fields = standard_family(spec, rng, values["family"], min_xi_n=values["min_xi_n"])
        for mag in values["nu_values"]:
            plan = plan_BS(spec, mag)
            for k, f in enumerate(fields):
                ratio = gain_ratio(f, plan)
                report.samples.append(
                    {"nu": float(mag), "field": k, "seed": seed, "ratio": ratio}
                )
    else:
        # one S_nu apply per (nu, field): only the mixed norms differ between pairs,
        # whose samples are emitted pair by pair
        fields = standard_family(spec, rng, values["family"])
        per_pair = [[] for _ in pairs]
        for mag in values["nu_values"]:
            plan = plan_S_nu(spec, mag)
            for k, f in enumerate(fields):
                u = apply_plan(plan, f)
                for pair, samples in zip(pairs, per_pair):
                    samples.append({"pair": [str(pair.q), str(pair.r)], "nu": float(mag),
                                    "field": k, "seed": seed,
                                    "ratio": strichartz_ratio(f, u, pair)})
        for samples in per_pair:
            report.samples.extend(samples)

    logger.info("%s sweep: %d samples, max ratio %s, verdict %s",
                estimate, len(report.samples), report.max_ratio, report.verdict)
    return report
