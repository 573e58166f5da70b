"""Fourier multiplier operators: S, S_nu, U_s, dyadic pieces, and the
time-slice propagator representation used for cross-validation.

Characteristic-set policy
-------------------------
The reciprocal symbols 1/p and 1/p_nu are singular on the characteristic
sets Gamma = {p = 0} and Gamma_nu = {p_nu = 0}.  Frequency lattices are
offset by half a spacing (in xi_n for the normalized symbol, in tau for the
conjugated one, both switchable per plan) so exact lattice zeros are
avoided for generic drift vectors; residual near-zeros below the symbol
floor are zeroed and counted, never silently discarded.

The offset lattice is realized by modulation: a half-bin frequency shift
equals multiplication by a unit phase in physical space, so the offset DFT
is still unitary and the operators remain exactly diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import PHYSICAL, Field, GridSpec
from .symbols import NuVector

__all__ = [
    "MultiplierPlan",
    "plan_S",
    "plan_S_nu",
    "apply_plan",
    "apply_S",
    "apply_S_nu",
    "apply_symbol",
    "equation_residual",
    "apply_U_s",
    "u_s_multiplier",
    "apply_S_via_propagator",
    "apply_S_dyadic",
    "propagator_factor",
]


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass
class MultiplierPlan:
    """Precomputed lattice data for one diagonal operator.

    ``symbol`` is p or p_nu evaluated on the (possibly offset) dual
    lattice; ``dropped`` flags modes with |symbol| below the floor, which
    the application zeroes and reports.
    """

    spec: GridSpec
    symbol: np.ndarray
    tau_offset: float
    xi_n_offset: float
    nu: NuVector | None = None
    eps_floor_rel: float = 1e-12
    # derived
    eps_floor: float = field(init=False)
    dropped: np.ndarray = field(init=False)
    dropped_count: int = field(init=False)

    def __post_init__(self):
        scale = float(np.abs(self.symbol).max())
        self.eps_floor = self.eps_floor_rel * scale
        self.dropped = np.abs(self.symbol) < self.eps_floor
        self.dropped_count = int(self.dropped.sum())

    # -- modulated (offset-lattice) transforms ---------------------------

    def _modulation(self) -> np.ndarray | None:
        spec = self.spec
        if self.tau_offset == 0.0 and self.xi_n_offset == 0.0:
            return None
        phase = np.zeros(spec.shape)
        if self.tau_offset != 0.0:
            t = spec.t_axis().reshape((-1,) + (1,) * spec.n)
            phase = phase + self.tau_offset * t
        if self.xi_n_offset != 0.0:
            x = spec.x_axis().reshape((1,) * spec.n + (-1,))
            phase = phase + self.xi_n_offset * x
        return np.exp(-1j * phase)

    def to_freq(self, f: Field) -> np.ndarray:
        """Coefficients of f on this plan's (offset) frequency lattice."""
        if f.rep != PHYSICAL:
            raise ValueError("plan transforms expect a physical-rep field")
        mod = self._modulation()
        data = f.data if mod is None else f.data * mod
        return np.fft.fftn(data, norm="ortho")

    def from_freq(self, coeffs: np.ndarray) -> Field:
        data = np.fft.ifftn(coeffs, norm="ortho")
        mod = self._modulation()
        if mod is not None:
            data = data * np.conj(mod)
        return Field(self.spec, PHYSICAL, data)

    def freq_axes(self):
        """Broadcastable (tau, xi_1..xi_n) arrays of this plan's lattice."""
        return self.spec.meshgrid_freq(self.tau_offset, self.xi_n_offset)


def plan_S(
    spec: GridSpec,
    offset_xin: bool = True,
    offset_tau: bool = False,
    eps_floor_rel: float = 1e-12,
) -> MultiplierPlan:
    """Plan for the normalized multiplier with symbol tau - |xi|^2 + i xi_n."""
    tau_off = 0.5 * spec.dtau if offset_tau else 0.0
    xin_off = 0.5 * spec.dxi if offset_xin else 0.0
    axes = spec.meshgrid_freq(tau_off, xin_off)
    tau = axes[0]
    xi = axes[1:]
    sq = sum(c**2 for c in xi)
    symbol = tau - sq + 1j * xi[-1]
    symbol = np.broadcast_to(symbol, spec.shape).copy()
    return MultiplierPlan(spec, symbol, tau_off, xin_off, None, eps_floor_rel)


def plan_S_nu(
    spec: GridSpec,
    nu: NuVector,
    offset_tau: bool = True,
    offset_xin: bool = False,
    eps_floor_rel: float = 1e-12,
) -> MultiplierPlan:
    """Plan for the conjugated multiplier with symbol -tau - |xi|^2 + 2 i nu.xi."""
    if nu.n != spec.n:
        raise ValueError("nu dimension does not match grid")
    tau_off = 0.5 * spec.dtau if offset_tau else 0.0
    xin_off = 0.5 * spec.dxi if offset_xin else 0.0
    axes = spec.meshgrid_freq(tau_off, xin_off)
    tau = axes[0]
    xi = axes[1:]
    sq = sum(c**2 for c in xi)
    dot = sum(nc * c for nc, c in zip(nu.components, xi))
    symbol = -tau - sq + 2j * dot
    symbol = np.broadcast_to(symbol, spec.shape).copy()
    return MultiplierPlan(spec, symbol, tau_off, xin_off, nu, eps_floor_rel)


# ---------------------------------------------------------------------------
# applications
# ---------------------------------------------------------------------------


def apply_plan(plan: MultiplierPlan, f: Field) -> Field:
    """Apply the reciprocal symbol 1/p on retained modes (floored modes -> 0)."""
    coeffs = plan.to_freq(f)
    out = np.zeros_like(coeffs)
    keep = ~plan.dropped
    out[keep] = coeffs[keep] / plan.symbol[keep]
    return plan.from_freq(out)


def apply_symbol(plan: MultiplierPlan, f: Field) -> Field:
    """Apply the symbol itself: the differential operator on the offset lattice.

    For the conjugated plan this is (i d_t + Laplacian + 2 nu . grad) applied
    spectrally; composing with :func:`apply_plan` is the identity on
    retained modes.
    """
    coeffs = plan.to_freq(f)
    return plan.from_freq(coeffs * plan.symbol)


def apply_S(f: Field, plan: MultiplierPlan | None = None) -> Field:
    if plan is None:
        plan = plan_S(f.spec)
    if plan.nu is not None:
        raise ValueError("apply_S expects a normalized-symbol plan")
    return apply_plan(plan, f)


def apply_S_nu(f: Field, nu: NuVector, plan: MultiplierPlan | None = None) -> Field:
    if plan is None:
        plan = plan_S_nu(f.spec, nu)
    if plan.nu is None:
        raise ValueError("apply_S_nu expects a conjugated-symbol plan")
    return apply_plan(plan, f)


def equation_residual(plan: MultiplierPlan, f: Field) -> float:
    """Relative L^2 residual ||P (S f) - f|| / ||f|| on retained modes.

    P is the plan's symbol applied spectrally; for the conjugated plan this
    is the discrete PDE residual of (i d_t + Delta + 2 nu . grad) u = f.
    Dropped modes of f are excluded (they cannot be inverted).
    """
    coeffs = plan.to_freq(f)
    keep = ~plan.dropped
    retained = np.where(keep, coeffs, 0.0)
    norm = float(np.linalg.norm(retained))
    if norm == 0.0:
        raise ValueError("f vanishes on retained modes")
    sol = np.where(keep, retained / plan.symbol, 0.0)
    resid = sol * plan.symbol - retained
    return float(np.linalg.norm(resid)) / norm


# ---------------------------------------------------------------------------
# U_s propagator pieces
# ---------------------------------------------------------------------------


def _spatial_axes(spec: GridSpec, xi_n_offset: float):
    axes = []
    for j in range(spec.n):
        off = xi_n_offset if j == spec.n - 1 else 0.0
        ax = spec.xi_axis(off)
        shape = [1] * spec.n
        shape[j] = spec.pts_space
        axes.append(ax.reshape(shape))
    return axes


def u_s_multiplier(spec: GridSpec, s: float, xi_n_offset: float = 0.0) -> np.ndarray:
    """The spatial symbol i sign(s) e^{i s |xi|^2} 1(s xi_n < 0) e^{s xi_n}."""
    if s == 0.0:
        raise ValueError("U_s requires s != 0")
    xi = _spatial_axes(spec, xi_n_offset)
    sq = sum(c**2 for c in xi)
    xin = xi[-1]
    damp = np.where(s * xin < 0.0, np.exp(-np.abs(s * xin)), 0.0)
    return 1j * np.sign(s) * np.exp(1j * s * sq) * damp


def apply_U_s(
    spec: GridSpec, phi: np.ndarray, s: float, xi_n_offset: float = 0.0
) -> np.ndarray:
    """Apply U_s to a spatial slice (plain ndarray of shape (pts_space,)*n)."""
    mult = u_s_multiplier(spec, s, xi_n_offset)
    if xi_n_offset != 0.0:
        x = spec.x_axis().reshape((1,) * (spec.n - 1) + (-1,))
        mod = np.exp(-1j * xi_n_offset * x)
        coeffs = np.fft.fftn(phi * mod, norm="ortho")
        return np.fft.ifftn(coeffs * mult, norm="ortho") * np.conj(mod)
    coeffs = np.fft.fftn(phi, norm="ortho")
    return np.fft.ifftn(coeffs * mult, norm="ortho")


# ---------------------------------------------------------------------------
# propagator representation of S
# ---------------------------------------------------------------------------


def _gauss_legendre_panels(edges: np.ndarray, nodes_per_panel: int):
    """Gauss-Legendre nodes/weights on the panels defined by ``edges``."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _s_panels(s_lo: float, s_hi: float, quad_pts: int, nodes_per_panel: int = 10):
    """Panels on [s_lo, s_hi] (one side of 0), refined toward 0.

    A short geometric cascade near zero resolves the |s|^{-1/2} kernel
    growth; the rest is uniform.
    """
    n_panels = max(4, quad_pts // nodes_per_panel)
    bulk = np.linspace(0.0, s_hi, n_panels + 1)[1:]
    fine = bulk[0] * 2.0 ** -np.arange(1, 13)
    edges = np.unique(np.concatenate([[s_lo], fine[fine > s_lo], bulk]))
    return _gauss_legendre_panels(edges, nodes_per_panel)


def propagator_factor(
    plan: MultiplierPlan, s_max: float, quad_pts: int = 2000
) -> np.ndarray:
    """Quadrature of int_R i sign(s) e^{i s |xi|^2} 1(s xi_n<0) e^{s xi_n}
    e^{-i tau s} ds over |s| <= s_max, per (tau, xi) lattice mode.

    This is the mode-wise content of the time-slice representation
    S f(t,.) = int U_s[f(t-s,.)] ds; it converges to 1/p as s_max grows.
    """
    spec = plan.spec
    axes = plan.freq_axes()
    tau = axes[0]
    xi = axes[1:]
    sq = sum(c**2 for c in xi)
    xin = xi[-1]
    factor = np.zeros(spec.shape, dtype=np.complex128)

    for sign in (+1.0, -1.0):
        s_nodes, s_weights = _s_panels(1e-9, s_max, quad_pts // 2)
        s_nodes = sign * s_nodes
        s_weights = sign * s_weights  # orientation
        for s, w in zip(s_nodes, s_weights):
            damp = np.where(s * xin < 0.0, np.exp(-np.abs(s * xin)), 0.0)
            integrand = 1j * np.sign(s) * np.exp(1j * s * (sq - tau)) * damp
            factor = factor + abs(w) * integrand
    return factor


def apply_S_via_propagator(
    f: Field,
    plan: MultiplierPlan | None = None,
    quad_pts: int = 2000,
    s_max: float | None = None,
) -> Field:
    """Cross-validation route: apply S through the U_s time-slice quadrature.

    ``s_max`` defaults to the time-box half-width; the truncation error per
    mode is bounded by e^{-s_max |xi_n|}/|xi_n|.
    """
    if plan is None:
        plan = plan_S(f.spec)
    if s_max is None:
        s_max = f.spec.box_time
    factor = propagator_factor(plan, s_max, quad_pts)
    coeffs = plan.to_freq(f)
    return plan.from_freq(coeffs * factor)


def apply_S_dyadic(
    f: Field,
    j: int,
    plan: MultiplierPlan | None = None,
    quad_pts: int = 400,
) -> Field:
    """The dyadic piece S_j: the s-integral restricted to 2^{j-1} < |s| <= 2^j."""
    if plan is None:
        plan = plan_S(f.spec)
    spec = plan.spec
    axes = plan.freq_axes()
    tau = axes[0]
    xi = axes[1:]
    sq = sum(c**2 for c in xi)
    xin = xi[-1]
    factor = np.zeros(spec.shape, dtype=np.complex128)
    lo, hi = 2.0 ** (j - 1), 2.0**j
    for sign in (+1.0, -1.0):
        nodes, weights = _gauss_legendre_panels(
            np.linspace(lo, hi, max(2, quad_pts // 20)), 10
        )
        for s, w in zip(sign * nodes, weights):
            damp = np.where(s * xin < 0.0, np.exp(-np.abs(s * xin)), 0.0)
            factor = factor + w * 1j * np.sign(s) * np.exp(1j * s * (sq - tau)) * damp
    coeffs = plan.to_freq(f)
    return plan.from_freq(coeffs * factor)
