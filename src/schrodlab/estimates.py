"""Sweep harness turning boundedness statements into measured ratio tables.

Three ratios are measured:

* ``gain_ratio``: the |nu|-compensated hyperplane estimate
  ``|nu| sup_s ||S_nu f||_{L^2(R x H_s)} / int ||f(., ., s)|| ds``;
* ``strichartz_ratio``: ``||S_nu f||_{q', r'} / ||f||_{q, r}`` for an
  admissible pair (q, r);
* ``dispersive_ratio``: ``|s|^{n/2} ||U_s phi||_inf / ||phi||_1``.

Acceptance asserts bounded (and nu-uniform) ratios under randomized
sweeps, never specific constants.  The standard test family is a set of
randomized Gaussian wave packets plus hard cases modulated close to the
characteristic set (xi_n near 0, tau near -|xi|^2).
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .grid import Field, GridSpec, gaussian_packet, l2_norm, mixed_norm
from .multipliers import MultiplierPlan, apply_plan, apply_U_s, plan_S_nu
from .reports import ConfigError, EstimateReport, number, require
from .symbols import ExponentPair, NuVector

logger = logging.getLogger(__name__)

__all__ = [
    "gain_ratio",
    "strichartz_ratio",
    "dispersive_ratio",
    "standard_family",
    "run_sweep",
]


def gain_ratio(f: Field, nu: NuVector, plan: MultiplierPlan | None = None) -> float:
    """|nu|-compensated hyperplane-trace ratio for S_nu.

    Requires axis-aligned nu (hyperplanes are lattice planes).  The ratio
    is invariant under f -> c f.
    """
    axis = nu.aligned_axis
    if axis is None:
        raise ValueError("gain_ratio requires an axis-aligned nu")
    if l2_norm(f) == 0.0:
        raise ValueError("gain_ratio rejects f = 0")
    if plan is None:
        plan = plan_S_nu(f.spec, nu)
    u = apply_plan(plan, f)
    spec = f.spec
    weight = spec.dt * spec.dx ** (spec.n - 1)
    # slab L^2 norms over time x hyperplane, per lattice plane s
    def slab_norms(g: Field) -> np.ndarray:
        moved = np.moveaxis(g.data, 1 + axis, 0)
        flat = moved.reshape(spec.pts_space, -1)
        return np.sqrt((np.abs(flat) ** 2).sum(axis=1) * weight)

    sup_u = float(slab_norms(u).max())
    integral_f = float(slab_norms(f).sum() * spec.dx)
    return nu.magnitude * sup_u / integral_f


def strichartz_ratio(
    f: Field,
    pair: ExponentPair,
    nu: NuVector,
    plan: MultiplierPlan | None = None,
) -> float:
    """||S_nu f||_{q', r'} / ||f||_{q, r} for an admissible pair."""
    if not pair.admissible:
        raise ValueError(f"pair {pair} is not admissible for n={pair.n}")
    if l2_norm(f) == 0.0:
        raise ValueError("strichartz_ratio rejects f = 0")
    if plan is None:
        plan = plan_S_nu(f.spec, nu)
    u = apply_plan(plan, f)
    dual = pair.dual_pair()
    return mixed_norm(u, dual.q, dual.r) / mixed_norm(f, pair.q, pair.r)


def dispersive_ratio(
    spec: GridSpec,
    phi: np.ndarray,
    s: float,
    drop_cutoff: bool = False,
) -> float:
    """``|s|^{n/2} ||U_s phi||_inf / ||phi||_1`` for a spatial slice.

    With ``drop_cutoff`` the damping factor of U_s is removed, leaving the
    pure free propagator (used to validate against the closed-form Gaussian
    free evolution).
    """
    if s == 0.0:
        raise ValueError("dispersive_ratio requires s != 0")
    l1 = float(np.abs(phi).sum() * spec.dx**spec.n)
    if l1 == 0.0:
        raise ValueError("dispersive_ratio rejects phi = 0")
    if drop_cutoff:
        sq = sum(c**2 for c in spec.spatial_mesh(frequency=True))
        out = np.fft.ifftn(np.fft.fftn(phi, norm="ortho") * np.exp(1j * s * sq), norm="ortho")
    else:
        out = apply_U_s(spec, phi, s)
    return abs(s) ** (spec.n / 2.0) * float(np.abs(out).max()) / l1


# ---------------------------------------------------------------------------
# test families
# ---------------------------------------------------------------------------


def standard_family(
    spec: GridSpec,
    rng: np.random.Generator,
    count: int = 5,
    hard_cases: bool = True,
    min_xi_n: float | None = None,
) -> list[Field]:
    """Randomized Gaussian wave packets, plus near-characteristic hard cases.

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
    if hard_cases:
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


def _read_pairs(config: dict, n: int) -> list[ExponentPair]:
    """The ``pairs`` entries as admissible exponent pairs, or a ConfigError naming ``pairs``."""
    pairs = []
    for entry in require(config, "pairs", list):
        try:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("want [q, r]")
            pair = ExponentPair(entry[0], entry[1], n)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"pairs: bad entry {entry!r}: {exc}") from None
        if not pair.admissible:
            raise ConfigError(f"pairs: {entry!r} is not admissible for n = {n}")
        pairs.append(pair)
    return pairs


def run_sweep(estimate: str, config: dict, spec: GridSpec | None = None) -> EstimateReport:
    """Run a named ratio sweep; deterministic given config['seed'].

    Supported estimates: ``gain``, ``strichartz``, ``dispersive``.  ``spec``
    is the grid built from ``config['grid']``, which the report echoes.
    Every key is read as the CLI reads it: a YAML boolean or an
    inadmissible ``pairs`` entry raises ConfigError naming the key.
    """
    t0 = time.time()
    spec = spec or GridSpec(**config["grid"])
    seed = number(config, "seed", int, 0)
    report = EstimateReport(
        estimate=estimate,
        grid=dict(config["grid"]),
        params={k: v for k, v in config.items() if k not in ("grid",)},
        ceiling=number(config, "ceiling", float, None),
    )
    rng = np.random.default_rng(seed)

    if estimate == "gain":
        nu_values = number(config, "nu_values", float, [2, 4, 8, 16, 32])
        fields = standard_family(spec, rng, number(config, "family", int, 5),
                                 min_xi_n=number(config, "min_xi_n", float, 1.0))
        for mag in nu_values:
            nu = NuVector.along_last_axis(mag, spec.n)
            # xi_n offset on: the xi_n = 0 lattice plane has a
            # nu-independent symbol and would swamp the compensated ratio.
            plan = plan_S_nu(spec, nu, offset_tau=True, offset_xin=True)
            for k, f in enumerate(fields):
                ratio = gain_ratio(f, nu, plan)
                report.samples.append(
                    {"nu": float(mag), "field": k, "seed": seed, "ratio": ratio}
                )
    elif estimate == "strichartz":
        nu_values = number(config, "nu_values", float, [2, 4, 8, 16, 32, 64])
        pairs = _read_pairs(config, spec.n)
        fields = standard_family(spec, rng, number(config, "family", int, 4))
        for pair in pairs:
            for mag in nu_values:
                nu = NuVector.along_last_axis(mag, spec.n)
                plan = plan_S_nu(spec, nu, offset_tau=True, offset_xin=False)
                for k, f in enumerate(fields):
                    ratio = strichartz_ratio(f, pair, nu, plan)
                    report.samples.append(
                        {
                            "pair": [str(pair.q), str(pair.r)],
                            "nu": float(mag),
                            "field": k,
                            "seed": seed,
                            "ratio": ratio,
                        }
                    )
    elif estimate == "dispersive":
        s_values = number(config, "s_values", float, [0.01, 0.1, 1.0, 10.0])
        width = number(config, "width", float, 0.25) * spec.box_space
        mesh = spec.spatial_mesh()
        phi = np.exp(-sum(c**2 for c in mesh) / (2.0 * width**2)).astype(complex)
        for s in s_values:
            ratio = dispersive_ratio(spec, phi, s)
            report.samples.append({"s": s, "seed": seed, "ratio": ratio})
    else:
        raise ValueError(f"unknown estimate {estimate!r}")

    report.runtime = time.time() - t0
    logger.info(
        "%s sweep: %d samples, max ratio %s, verdict %s (%.2fs)",
        estimate, len(report.samples), report.max_ratio, report.verdict, report.runtime,
    )
    return report
