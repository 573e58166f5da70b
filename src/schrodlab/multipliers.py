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

import copy
from dataclasses import dataclass, field

import numpy as np

from .grid import PHYSICAL, Field, GridSpec
from .symbols import NuVector, eval_p, eval_p_nu

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
    the application zeroes and reports.  Two arrays are cached once per
    plan and shared by every transform and by the adjoint:

    * ``modulation``: the half-bin offset phase e^{-i(tau_off t + xi_n_off
      x_n)} (``None`` without offsets).  It is kept as a full-grid array
      built by one ``exp`` of the summed phase; broadcasting two separable
      1-D factors instead rounds differently and moves report bytes.
    * ``denom``: the symbol with ``inf`` on floored modes, so that
      ``coeffs / denom`` is the reciprocal on retained modes and exactly 0
      on floored ones.
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
    denom: np.ndarray = field(init=False)
    modulation: np.ndarray | None = field(init=False)

    def __post_init__(self):
        scale = float(np.abs(self.symbol).max())
        self.eps_floor = self.eps_floor_rel * scale
        self.dropped = np.abs(self.symbol) < self.eps_floor
        self.dropped_count = int(self.dropped.sum())
        self.denom = np.where(self.dropped, np.inf, self.symbol)
        self.modulation = None
        if self.tau_offset != 0.0 or self.xi_n_offset != 0.0:
            spec = self.spec
            t = spec.t_axis().reshape((-1,) + (1,) * spec.n)
            x = spec.x_axis().reshape((1,) * spec.n + (-1,))
            phase = np.zeros(spec.shape)
            if self.tau_offset != 0.0:
                phase = phase + self.tau_offset * t
            if self.xi_n_offset != 0.0:
                phase = phase + self.xi_n_offset * x
            self.modulation = np.exp(-1j * phase)

    def adjoint(self) -> "MultiplierPlan":
        """The plan of the L^2 adjoint: conjugate symbol, same lattice and floor."""
        adj = copy.copy(self)
        adj.symbol = np.conj(self.symbol)
        adj.denom = np.conj(self.denom)
        return adj

    # -- modulated (offset-lattice) transforms ---------------------------

    def to_freq(self, f: Field) -> np.ndarray:
        """Coefficients of f on this plan's (offset) frequency lattice."""
        if f.rep != PHYSICAL:
            raise ValueError("plan transforms expect a physical-rep field")
        data = f.data if self.modulation is None else f.data * self.modulation
        return np.fft.fftn(data, norm="ortho")

    def from_freq(self, coeffs: np.ndarray) -> Field:
        data = np.fft.ifftn(coeffs, norm="ortho")
        if self.modulation is not None:
            data = data * np.conj(self.modulation)
        return Field(self.spec, PHYSICAL, data)


def plan_S(
    spec: GridSpec,
    offset_xin: bool = True,
    offset_tau: bool = False,
    eps_floor_rel: float = 1e-12,
) -> MultiplierPlan:
    """Plan for the normalized multiplier with symbol tau - |xi|^2 + i xi_n."""
    tau_off = 0.5 * spec.dtau if offset_tau else 0.0
    xin_off = 0.5 * spec.dxi if offset_xin else 0.0
    tau, *xi = spec.meshgrid_freq(tau_off, xin_off)
    symbol = np.broadcast_to(eval_p(tau, xi), spec.shape).copy()
    return MultiplierPlan(spec, symbol, tau_off, xin_off, None, eps_floor_rel)


def plan_S_nu(
    spec: GridSpec,
    nu: NuVector,
    offset_tau: bool = True,
    offset_xin: bool = False,
    eps_floor_rel: float = 1e-12,
) -> MultiplierPlan:
    """Plan for the conjugated multiplier with symbol -tau - |xi|^2 + 2 i nu.xi."""
    tau_off = 0.5 * spec.dtau if offset_tau else 0.0
    xin_off = 0.5 * spec.dxi if offset_xin else 0.0
    tau, *xi = spec.meshgrid_freq(tau_off, xin_off)
    symbol = np.broadcast_to(eval_p_nu(tau, xi, nu), spec.shape).copy()
    return MultiplierPlan(spec, symbol, tau_off, xin_off, nu, eps_floor_rel)


# ---------------------------------------------------------------------------
# applications
# ---------------------------------------------------------------------------


def apply_plan(plan: MultiplierPlan, f: Field) -> Field:
    """Apply the reciprocal symbol 1/p on retained modes (floored modes -> 0)."""
    return plan.from_freq(plan.to_freq(f) / plan.denom)


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
    retained = np.where(plan.dropped, 0.0, coeffs)
    norm = float(np.linalg.norm(retained))
    if norm == 0.0:
        raise ValueError("f vanishes on retained modes")
    resid = coeffs / plan.denom * plan.symbol - retained
    return float(np.linalg.norm(resid)) / norm


# ---------------------------------------------------------------------------
# U_s propagator pieces
# ---------------------------------------------------------------------------


def _u_s_symbol(s: float | np.ndarray, sq: np.ndarray, xin: np.ndarray) -> np.ndarray:
    """i sign(s) e^{i s |xi|^2} 1(s xi_n < 0) e^{s xi_n}, the one U_s symbol.

    ``sq`` is |xi|^2 and ``xin`` is xi_n; ``s`` is a scalar, or a column
    of s-nodes against raveled spatial modes for the batched node sum.
    """
    damp = np.where(s * xin < 0.0, np.exp(-np.abs(s * xin)), 0.0)
    return 1j * np.sign(s) * np.exp(1j * s * sq) * damp


def u_s_multiplier(spec: GridSpec, s: float) -> np.ndarray:
    """The spatial symbol i sign(s) e^{i s |xi|^2} 1(s xi_n < 0) e^{s xi_n}."""
    if s == 0.0:
        raise ValueError("U_s requires s != 0")
    xi = spec.spatial_mesh(frequency=True)
    return _u_s_symbol(s, sum(c**2 for c in xi), xi[-1])


def apply_U_s(spec: GridSpec, phi: np.ndarray, s: float) -> np.ndarray:
    """Apply U_s to a spatial slice (plain ndarray of shape (pts_space,)*n)."""
    coeffs = np.fft.fftn(phi, norm="ortho")
    return np.fft.ifftn(coeffs * u_s_multiplier(spec, s), norm="ortho")


# ---------------------------------------------------------------------------
# propagator representation of S
# ---------------------------------------------------------------------------


# Gauss-Legendre nodes per panel of every s-quadrature
_NODES_PER_PANEL = 10
# s-nodes per GEMM in _s_node_sum: at 16^3 (n = 2) chunks of 64 beat 256
_S_CHUNK = 64


def _gauss_legendre_panels(edges: np.ndarray):
    """Gauss-Legendre nodes/weights on the panels defined by ``edges``."""
    base_x, base_w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _s_panels(s_lo: float, s_hi: float, quad_pts: int):
    """Panels on [s_lo, s_hi] (one side of 0), refined toward 0.

    A short geometric cascade near zero resolves the |s|^{-1/2} kernel
    growth; the rest is uniform.
    """
    n_panels = max(4, quad_pts // _NODES_PER_PANEL)
    bulk = np.linspace(0.0, s_hi, n_panels + 1)[1:]
    fine = bulk[0] * 2.0 ** -np.arange(1, 13)
    edges = np.unique(np.concatenate([[s_lo], fine[fine > s_lo], bulk]))
    return _gauss_legendre_panels(edges)


def _s_node_sum(
    plan: MultiplierPlan, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_k w_k [U_{s_k} symbol] e^{-i tau s_k} per lattice mode of the plan.

    The summand factors into a time part w_k e^{-i tau s_k} and the spatial
    U_{s_k} symbol, so the sum is a (pts_time x k) @ (k x pts_space^n)
    product, taken over chunks of _S_CHUNK nodes: the work space grows with
    the chunk, never with the node count.
    """
    spec = plan.spec
    tau, *xi = spec.meshgrid_freq(plan.tau_offset, plan.xi_n_offset)
    space = (1,) + spec.shape[1:]
    sq = np.broadcast_to(sum(c**2 for c in xi), space).reshape(1, -1)
    xin = np.broadcast_to(xi[-1], space).reshape(1, -1)
    tau = tau.reshape(-1, 1)
    factor = np.zeros((spec.pts_time, sq.size), dtype=np.complex128)
    for lo in range(0, len(nodes), _S_CHUNK):
        s = nodes[lo:lo + _S_CHUNK]
        time_part = weights[lo:lo + _S_CHUNK] * np.exp(-1j * tau * s)
        factor += time_part @ _u_s_symbol(s[:, None], sq, xin)
    return factor.reshape(spec.shape)


def propagator_factor(
    plan: MultiplierPlan, s_max: float, quad_pts: int = 2000
) -> np.ndarray:
    """Quadrature of int_R i sign(s) e^{i s |xi|^2} 1(s xi_n<0) e^{s xi_n}
    e^{-i tau s} ds over |s| <= s_max, per (tau, xi) lattice mode.

    This is the mode-wise content of the time-slice representation
    S f(t,.) = int U_s[f(t-s,.)] ds; it converges to 1/p as s_max grows.
    """
    nodes, weights = [], []
    for sign in (+1.0, -1.0):
        s_nodes, s_weights = _s_panels(1e-9, s_max, quad_pts // 2)
        nodes.append(sign * s_nodes)
        weights.append(s_weights)
    return _s_node_sum(plan, np.concatenate(nodes), np.concatenate(weights))


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
    nodes, weights = _gauss_legendre_panels(
        np.linspace(2.0 ** (j - 1), 2.0**j, max(2, quad_pts // 20))
    )
    factor = _s_node_sum(plan, np.concatenate([nodes, -nodes]),
                         np.concatenate([weights, weights]))
    coeffs = plan.to_freq(f)
    return plan.from_freq(coeffs * factor)
