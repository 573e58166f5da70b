"""Complex-geometrical-optics solutions built from a contraction argument.

The conjugated equation (i d_t + Laplacian + 2 nu . grad - V) u = 0 is
solved as u = u_sharp + u_flat, where u_sharp is a free wave packet
supported on the hyperplane orthogonal to nu (so the drift term vanishes
on it), and the remainder is produced by a Neumann series for

    (Id - M_W S_nu M_{|W|}) v = W u_sharp,        u_flat = S_nu (|W| v).

The series contracts once the sandwiched operator norm rho is below one,
which the norm-decay mechanism guarantees for large |nu|; the empirical
smallest accepted |nu| is surfaced by the sweep rather than a closed-form
threshold.  All quantities live in the conjugated (bounded) variables, so
no exponentially growing factor is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
import logging
import time

import numpy as np

from .birman_schwinger import FactorW, Potential, apply_BS, build_W, op_norm
from .grid import Field, GridSpec, l2_norm
from .multipliers import MultiplierPlan, apply_plan, apply_symbol, plan_S_nu
from .reports import EstimateReport
from .symbols import NuVector

logger = logging.getLogger(__name__)

__all__ = [
    "NotContractive",
    "NoConvergence",
    "WavePacket",
    "CgoSolution",
    "gaussian_packet_on_hyperplane",
    "wave_packet_usharp",
    "solve_v_neumann",
    "build_uflat",
    "build_cgo",
    "remainder_decay_sweep",
]


class NotContractive(RuntimeError):
    """The sandwiched operator norm is too large; |nu| is below threshold."""


class NoConvergence(RuntimeError):
    """The Neumann series failed to reach tolerance within the term cap."""


@dataclass
class WavePacket:
    """Frequency samples psi on the hyperplane lattice orthogonal to nu.

    ``psi`` has shape (pts_space,) * (n - 1), indexed by the fft-ordered
    frequency lattice of the first n - 1 spatial axes; nu must be aligned
    with the last axis so that the hyperplane is a lattice plane.
    """

    psi: np.ndarray
    nu: NuVector

    def __post_init__(self):
        # u_sharp is repeated along axis -1, so only that axis solves the equation
        if self.nu.aligned_axis != self.nu.n - 1:
            raise ValueError("wave packets require nu aligned with the last axis")
        self.psi = np.asarray(self.psi, dtype=complex)

    def norm(self, spec: GridSpec) -> float:
        """L2 norm on the hyperplane frequency lattice."""
        w = spec.dxi ** self.psi.ndim
        return float(np.sqrt((np.abs(self.psi) ** 2).sum() * w))


def gaussian_packet_on_hyperplane(
    spec: GridSpec,
    nu: NuVector,
    center: float = 0.0,
    width: float = 2.0,
) -> WavePacket:
    """Gaussian profile in the hyperplane frequencies (default packet).

    Modes with |xi'|^2 beyond the time-frequency Nyquist range are cut:
    the superposed wave oscillates at tau = -|xi'|^2, and out-of-band
    modes would alias onto the wrong dispersion branch.
    """
    xi = spec.xi_axis()
    mesh = np.meshgrid(*([xi] * (spec.n - 1)), indexing="ij")
    sq = sum((c - center) ** 2 for c in mesh)
    sq0 = sum(c**2 for c in mesh)
    tau_max = np.pi / spec.dt
    psi = np.exp(-sq / (2.0 * width**2)) * (sq0 <= tau_max)
    return WavePacket(psi.astype(complex), nu)


def wave_packet_usharp(packet: WavePacket, spec: GridSpec) -> Field:
    """Superpose hyperplane modes into the free conjugated solution.

    u_sharp(t, x) = (2 pi)^{-(n-1)/2} sum_xi' e^{i x'.xi' - i t |xi'|^2}
    psi(xi') dsigma; it is constant along the nu direction, so the drift
    term vanishes and the dispersion relation tau = -|xi'|^2 makes the
    full conjugated symbol vanish mode by mode.
    """
    n = spec.n
    if packet.psi.shape != (spec.pts_space,) * (n - 1):
        raise ValueError("packet lattice does not match the grid")
    xi = spec.xi_axis()
    mesh = np.meshgrid(*([xi] * (n - 1)), indexing="ij")
    sq = sum(c**2 for c in mesh) if mesh else np.zeros(())
    t = spec.t_axis().reshape((spec.pts_time,) + (1,) * (n - 1))
    modes = packet.psi[None] * np.exp(-1j * t * sq[None])
    # sum_xi psi e^{i x . xi} on the lattice x_j = -L + j dx:
    # e^{i x . xi} = e^{-i L sum xi} e^{2 pi i j k / N}, an inverse DFT.
    shift = np.ones_like(packet.psi, dtype=complex)
    for c in mesh:
        shift = shift * np.exp(1j * (-spec.box_space) * c)
    spatial = np.fft.ifftn(modes * shift[None], axes=tuple(range(1, n))) * (
        spec.pts_space ** (n - 1)
    )
    amp = (2.0 * np.pi) ** (-(n - 1) / 2.0) * spec.dxi ** (n - 1)
    data = np.repeat(
        (amp * spatial)[..., None], spec.pts_space, axis=-1
    )
    return Field(spec, "physical", data)


# ---------------------------------------------------------------------------
# the contraction solve
# ---------------------------------------------------------------------------


@dataclass
class CgoSolution:
    """A constructed solution with its convergence diagnostics."""

    nu: NuVector
    usharp: Field
    v: Field
    uflat: Field
    rho: float
    terms: int
    residuals: dict = dc_field(default_factory=dict)


def solve_v_neumann(
    W: FactorW,
    usharp: Field,
    nu: NuVector,
    tol: float = 1e-8,
    rho_cap: float = 0.9,
    max_terms: int = 200,
    plan: MultiplierPlan | None = None,
) -> tuple[Field, dict]:
    """Solve (Id - M_W S_nu M_{|W|}) v = W u_sharp by Neumann iteration.

    Raises :class:`NotContractive` when the estimated sandwich norm
    exceeds ``rho_cap`` (|nu| below the contraction threshold) and
    :class:`NoConvergence` when the geometric tail has not dropped below
    ``tol`` after ``max_terms`` terms.
    """
    spec = usharp.spec
    if plan is None:
        plan = plan_S_nu(spec, nu, offset_tau=True, offset_xin=True)
    absW = FactorW(Field(spec, "physical", np.abs(W.field.data).astype(complex)))
    rho, diag = op_norm(W, absW, nu, tol=1e-3, plan=plan)
    if rho > rho_cap:
        raise NotContractive(f"sandwich norm {rho:.3f} exceeds cap {rho_cap}")
    rhs = Field(spec, "physical", W.field.data * usharp.data)
    rhs_norm = l2_norm(rhs)
    if rhs_norm == 0.0:
        zero = Field(spec, "physical", np.zeros(spec.shape, complex))
        return zero, {"rho": rho, "terms": 0, "op_norm_diag": diag}
    v = rhs.copy()
    term = rhs
    for k in range(1, max_terms + 1):
        term = apply_BS(term, W, absW, nu, plan)
        v = v + term
        tail = l2_norm(term) * rho / max(1.0 - rho, 1e-12)
        if tail <= tol * rhs_norm:
            return v, {"rho": rho, "terms": k, "tail": tail, "op_norm_diag": diag}
    raise NoConvergence(f"Neumann tail {tail:.2e} above {tol:.2e} after {max_terms} terms")


def build_uflat(
    W: FactorW,
    v: Field,
    nu: NuVector,
    plan: MultiplierPlan | None = None,
) -> Field:
    """u_flat = S_nu (|W| v)."""
    if plan is None:
        plan = plan_S_nu(v.spec, nu, offset_tau=True, offset_xin=True)
    inner = Field(v.spec, "physical", np.abs(W.field.data) * v.data)
    return apply_plan(plan, inner)


def build_cgo(
    V: Potential,
    packet: WavePacket,
    tol: float = 1e-8,
    rho_cap: float = 0.9,
) -> CgoSolution:
    """Full pipeline: packet -> u_sharp -> v -> u_flat, with residuals.

    Residuals recorded: the fixed-point defect ||(Id - A)v - W u_sharp||,
    and the remainder-equation defect
    ||(i d_t + Lap + 2 nu.grad) u_flat - V (u_sharp + u_flat)||_2,
    both normalized by ||W u_sharp||_2.
    """
    spec = V.field.spec
    nu = packet.nu
    W = build_W(V)
    plan = plan_S_nu(spec, nu, offset_tau=True, offset_xin=True)
    usharp = wave_packet_usharp(packet, spec)
    v, diag = solve_v_neumann(W, usharp, nu, tol=tol, rho_cap=rho_cap, plan=plan)
    uflat = build_uflat(W, v, nu, plan)
    absW = FactorW(Field(spec, "physical", np.abs(W.field.data).astype(complex)))

    rhs = Field(spec, "physical", W.field.data * usharp.data)
    defect = v - apply_BS(v, W, absW, nu, plan) - rhs
    rhs_norm = l2_norm(rhs)
    scale = rhs_norm if rhs_norm > 0.0 else 1.0

    applied = apply_symbol(plan, uflat)
    forcing = Field(spec, "physical", V.field.data * (usharp.data + uflat.data))
    eq_defect = l2_norm(applied - forcing) / scale

    sol = CgoSolution(
        nu=nu,
        usharp=usharp,
        v=v,
        uflat=uflat,
        rho=diag["rho"],
        terms=diag["terms"],
        residuals={
            "fixed_point": l2_norm(defect) / scale,
            "remainder_equation": eq_defect,
            "rhs_norm": rhs_norm,
        },
    )
    logger.info(
        "cgo solve |nu|=%g: rho=%.3f terms=%d fixed-point %.2e equation %.2e",
        nu.magnitude, sol.rho, sol.terms,
        sol.residuals["fixed_point"], sol.residuals["remainder_equation"],
    )
    return sol


def remainder_decay_sweep(
    V: Potential,
    nu_list,
    tol: float = 1e-8,
) -> EstimateReport:
    """Table of ||W u_flat||_2 / ||psi|| per nu; the decay diagnostic.

    Also records the leading-term ratio ||W u_sharp||_2 / ||psi||, which
    should stay bounded across the sweep.  Each nu uses the default packet
    (width 2) and contraction cap (0.9) of :func:`build_cgo`.
    """
    t0 = time.time()
    spec = V.field.spec
    report = EstimateReport(
        estimate="cgo_remainder",
        grid=spec.as_dict(),
        params={"nu_values": list(map(float, nu_list)), "packet_width": 2.0,
                "tol": tol, "rho_cap": 0.9},
    )
    W = build_W(V)
    for mag in nu_list:
        nu = NuVector.along_last_axis(mag, spec.n)
        packet = gaussian_packet_on_hyperplane(spec, nu)
        psi_norm = packet.norm(spec)
        sol = build_cgo(V, packet, tol=tol)
        wflat = l2_norm(Field(spec, "physical", W.field.data * sol.uflat.data))
        wsharp = l2_norm(Field(spec, "physical", W.field.data * sol.usharp.data))
        report.samples.append(
            {
                "nu": float(mag),
                "ratio": wflat / psi_norm,
                "leading_ratio": wsharp / psi_norm,
                "rho": sol.rho,
                "terms": sol.terms,
                "fixed_point_residual": sol.residuals["fixed_point"],
                "seed": 0,
            }
        )
    report.runtime = time.time() - t0
    logger.info("cgo remainder sweep over %d nu values (%.2fs)",
                len(report.samples), report.runtime)
    return report
