"""Complex-geometrical-optics solutions built from a contraction argument.

The conjugated equation (i d_t + Laplacian + 2 nu d_n - V) u = 0, with the
drift nu e_n along the last axis, is solved as u = u_sharp + u_flat, where
u_sharp is a free wave packet constant along x_n (so the drift term
vanishes on it), and the remainder is produced by a Neumann series for

    (Id - M_W S_nu M_{|W|}) v = W u_sharp,        u_flat = S_nu (|W| v).

The series contracts once the sandwiched operator norm rho is below one,
which the norm-decay mechanism guarantees for large |nu|; the empirical
smallest accepted |nu| is surfaced by the sweep rather than a closed-form
threshold.  All quantities live in the conjugated (bounded) variables, so
no exponentially growing factor is ever materialized.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
import logging

import numpy as np

from .birman_schwinger import Potential, apply_BS, build_W, op_norm, plan_BS
from .grid import Field, GridSpec, l2_norm
from .multipliers import MultiplierPlan, apply_plan, apply_symbol
from .reports import EstimateReport, NoConvergence

logger = logging.getLogger(__name__)

# Neumann term cap of solve_v_neumann; reaching it raises NoConvergence
_MAX_TERMS = 200
#: The settings every CGO solve runs at, and its reports record: the Neumann tail
#: tolerance relative to ||W u_sharp||, the largest sandwich norm the series is run at,
#: and the width of the hyperplane packet, which is centred at xi' = 0.
NEUMANN_TOL = 1e-8
RHO_CAP = 0.9
PACKET_WIDTH = 2.0

__all__ = [
    "NotContractive",
    "NoConvergence",
    "WavePacket",
    "CgoSolution",
    "gaussian_packet_on_hyperplane",
    "wave_packet_usharp",
    "solve_v_neumann",
    "build_cgo",
    "remainder_decay_sweep",
]


class NotContractive(RuntimeError):
    """The sandwiched operator norm is too large; |nu| is below threshold."""


@dataclass
class WavePacket:
    """Frequency samples psi on the hyperplane lattice orthogonal to the drift nu e_n.

    ``psi`` has shape (pts_space,) * (n - 1), indexed by the fft-ordered
    frequency lattice of the first n - 1 spatial axes.
    """

    psi: np.ndarray
    nu: float

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)

    def norm(self, spec: GridSpec) -> float:
        """L2 norm on the hyperplane frequency lattice."""
        w = spec.dxi ** self.psi.ndim
        return float(np.sqrt((np.abs(self.psi) ** 2).sum() * w))


def gaussian_packet_on_hyperplane(spec: GridSpec, nu: float) -> WavePacket:
    """Gaussian profile of width ``PACKET_WIDTH`` in the hyperplane frequencies, centred at 0.

    Modes with |xi'|^2 beyond the time-frequency Nyquist range are cut:
    the superposed wave oscillates at tau = -|xi'|^2, and out-of-band
    modes would alias onto the wrong dispersion branch.
    """
    xi = spec.xi_axis()
    mesh = np.meshgrid(*([xi] * (spec.n - 1)), indexing="ij")
    sq = sum(c**2 for c in mesh)
    tau_max = np.pi / spec.dt
    psi = np.exp(-sq / (2.0 * PACKET_WIDTH**2)) * (sq <= tau_max)
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
    return Field(spec, data)


# ---------------------------------------------------------------------------
# the contraction solve
# ---------------------------------------------------------------------------


@dataclass
class CgoSolution:
    """A constructed solution with its convergence diagnostics."""

    nu: float
    usharp: Field
    uflat: Field
    rho: float
    terms: int
    residuals: dict = dc_field(default_factory=dict)


def solve_v_neumann(W: Field, usharp: Field, plan: MultiplierPlan) -> tuple[Field, dict]:
    """Solve (Id - A) v = W u_sharp, A = M_W S_nu M_{|W|}, by Neumann iteration.

    S_nu is ``plan``, from :func:`plan_BS`.  Raises :class:`NotContractive`
    when the estimated sandwich norm exceeds ``RHO_CAP`` (|nu| below the
    contraction threshold) and :class:`NoConvergence` when the geometric
    tail has not dropped below ``NEUMANN_TOL`` after ``_MAX_TERMS`` (200) terms.
    The estimate enters the contraction test and the tail bound, so a power
    iteration that did not converge, or whose two starts disagree, raises
    :class:`NoConvergence` as well.

    The diagnostics hold ``rho``, the ``terms`` summed, ``rhs_norm`` =
    ||W u_sharp||, ``remainder_norm`` = ||A v|| = ||W u_flat|| (u_flat =
    S_nu(|W| v)) and ``fixed_point`` = ||v - A v - W u_sharp|| / ||W u_sharp||
    (over 1 when W u_sharp = 0, which gives v = 0 and no terms).
    """
    spec = usharp.spec
    absW = Field(spec, np.abs(W.data).astype(complex))
    rho, diag = op_norm(W, absW, plan, tol=1e-3)
    if not diag["converged"]:
        raise NoConvergence("power iteration for the sandwich norm hit the iteration cap")
    if not diag["starts_agree"]:
        raise NoConvergence("power iteration starts disagree on the sandwich norm")
    if rho > RHO_CAP:
        raise NotContractive(f"sandwich norm {rho:.3f} exceeds cap {RHO_CAP}")
    rhs = Field(spec, W.data * usharp.data)
    rhs_norm = l2_norm(rhs)
    if rhs_norm == 0.0:
        v, k = Field(spec, np.zeros(spec.shape, complex)), 0
    else:
        v, term = rhs.copy(), rhs
        for k in range(1, _MAX_TERMS + 1):
            term = apply_BS(term, W, absW, plan)
            np.add(v.data, term.data, out=v.data)
            tail = l2_norm(term) * rho / max(1.0 - rho, 1e-12)
            if tail <= NEUMANN_TOL * rhs_norm:
                break
        else:
            raise NoConvergence(f"Neumann tail {tail:.2e} above {NEUMANN_TOL:.2e} "
                                f"after {_MAX_TERMS} terms")
    av = apply_BS(v, W, absW, plan)
    return v, {"rho": rho, "terms": k, "rhs_norm": rhs_norm, "remainder_norm": l2_norm(av),
               "fixed_point": l2_norm(v - av - rhs) / (rhs_norm or 1.0)}


def build_cgo(V: Potential, packet: WavePacket) -> CgoSolution:
    """Full pipeline: packet -> u_sharp -> v -> u_flat = S_nu(|W| v), with residuals.

    Residuals recorded: the fixed-point defect of :func:`solve_v_neumann`,
    and the remainder-equation defect
    ||(i d_t + Lap + 2 nu d_n) u_flat - V (u_sharp + u_flat)||_2,
    both normalized by ||W u_sharp||_2.
    """
    spec = V.field.spec
    nu = packet.nu
    W = build_W(V)
    plan = plan_BS(spec, nu)
    usharp = wave_packet_usharp(packet, spec)
    v, diag = solve_v_neumann(W, usharp, plan)
    uflat = apply_plan(plan, Field(spec, np.abs(W.data).astype(complex) * v.data))

    applied = apply_symbol(plan, uflat)
    forcing = Field(spec, V.field.data * (usharp.data + uflat.data))
    eq_defect = l2_norm(applied - forcing) / (diag["rhs_norm"] or 1.0)

    sol = CgoSolution(
        nu=nu,
        usharp=usharp,
        uflat=uflat,
        rho=diag["rho"],
        terms=diag["terms"],
        residuals={"fixed_point": diag["fixed_point"], "remainder_equation": eq_defect},
    )
    logger.info(
        "cgo solve nu=%g: rho=%.3f terms=%d fixed-point %.2e equation %.2e",
        nu, sol.rho, sol.terms,
        sol.residuals["fixed_point"], sol.residuals["remainder_equation"],
    )
    return sol


def remainder_decay_sweep(V: Potential, nu_list) -> EstimateReport:
    """Table of ||W u_flat||_2 / ||psi|| per nu; the decay diagnostic.

    Also records the leading-term ratio ||W u_sharp||_2 / ||psi||, which
    should stay bounded across the sweep.  Each nu uses the packet, tolerance
    and contraction cap of :func:`build_cgo`.  V is factored once, and each
    nu runs only :func:`solve_v_neumann`, whose ``remainder_norm`` is
    ||W u_flat||.
    """
    spec = V.field.spec
    report = EstimateReport(
        estimate="cgo_remainder",
        grid=asdict(spec),
        params={"nu_values": list(map(float, nu_list)), "packet_width": PACKET_WIDTH,
                "tol": NEUMANN_TOL, "rho_cap": RHO_CAP},
    )
    W = build_W(V)
    for mag in nu_list:
        packet = gaussian_packet_on_hyperplane(spec, mag)
        psi_norm = packet.norm(spec)
        usharp = wave_packet_usharp(packet, spec)
        _, diag = solve_v_neumann(W, usharp, plan_BS(spec, mag))
        report.samples.append(
            {
                "nu": float(mag),
                "ratio": diag["remainder_norm"] / psi_norm,  # ||W u_flat||
                "leading_ratio": diag["rhs_norm"] / psi_norm,  # ||W u_sharp||
                "rho": diag["rho"],
                "terms": diag["terms"],
                "fixed_point_residual": diag["fixed_point"],
                "seed": 0,
            }
        )
    logger.info("cgo remainder sweep over %d nu values", len(report.samples))
    return report
