"""Fourier multiplier operators S and S_nu, and the mode-wise quadrature of
the time-slice propagator representation of S over the U_s symbol.  The
routes that apply S through that quadrature, whole or in dyadic pieces,
are test oracles and live in tests/oracles.py.

Characteristic-set policy
-------------------------
The reciprocal symbols 1/p and 1/p_nu are singular on the characteristic
sets Gamma = {p = 0} and Gamma_nu = {p_nu = 0}.  Frequency lattices are
offset by half a spacing (in xi_n for the normalized symbol, in tau for the
conjugated one, each builder switching the other axis on or off) so exact
lattice zeros are avoided for generic drifts nu; residual near-zeros below
the symbol floor are zeroed and counted, never silently discarded.

The offset lattice is realized by modulation: a half-bin frequency shift
equals multiplication by a unit phase in physical space, so the offset DFT
is still unitary and the operators remain exactly diagonal.

The U_s symbol
--------------
The symbol of U_s is i sign(s) e^{i s |xi|^2} 1(s xi_n < 0) e^{s xi_n}.
Since |xi|^2 = xi_1^2 + ... + xi_n^2 and the damping involves xi_n alone,
it is exactly the product of one factor per spatial axis: e^{i s xi_j^2}
for j < n, and i sign(s) 1(s xi_n < 0) e^{i s xi_n^2 + s xi_n} for the
last.  The propagator node sum builds it so: a column of k s-nodes costs
k n pts_space complex exps instead of k pts_space^n.  The product of exps
equals the exp of the sum up to rounding, so values move only in the last
digits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, GridSpec
from .symbols import eval_p, eval_p_nu

__all__ = [
    "MultiplierPlan",
    "plan_S",
    "plan_S_nu",
    "apply_plan",
    "apply_S",
    "apply_symbol",
    "propagator_factor",
]


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

# modes with |symbol| below this fraction of the largest |symbol| are floored
_EPS_FLOOR_REL = 1e-12

# numpy elides the temporary of a commutative product of arrays of at least
# this many bytes (NPY_MIN_ELIDE_BYTES), evaluating a * temp as temp * a
_ELIDE_BYTES = 256 * 1024


@dataclass
class MultiplierPlan:
    """Precomputed lattice data for one diagonal operator.

    A plan is fixed by its grid, drift and half-bin offsets (:meth:`axes`)
    and builds the rest: ``symbol``, p (``nu`` None) or p_nu on the offset
    lattice; ``eps_floor``, below which |symbol| is floored (``_EPS_FLOOR_REL``
    of its largest value), with ``dropped_count`` floored modes; and two
    arrays shared by every transform and by the adjoint:

    * ``denom``: the symbol with ``inf`` on floored modes, so that
      ``coeffs / denom`` is the reciprocal on retained modes and exactly 0
      on floored ones.  With no floored mode it is ``symbol`` itself, not a
      copy; nothing writes into either.
    * ``modulation``: the half-bin offset phase e^{-i(tau_off t + xi_n_off
      x_n)}, all ones on a plan without offsets, so every transform takes
      one path.  It depends on t and x_n alone, so it is a (pts_time, 1,
      ..., 1, pts_space) table that every product broadcasts, one ``exp``
      of the summed phase per (t, x_n).  That is exact: each entry is the
      exp of the same sum as on the full grid, and numpy's broadcast
      complex products give the bits of full-array products in either
      operand order.  A product of per-axis exps, e^{-i tau_off t}
      e^{-i xi_n_off x_n}, rounds differently from the exp of the sum and
      moves report bytes.  Its conjugate, which undoes the phase after the
      inverse transform, is taken from the table where it is applied.

    Work buffers: :meth:`to_freq` allocates one fresh array and works in
    it.  Only :meth:`from_freq` takes an ``out``, a C-contiguous complex128
    array of the grid shape that receives the result and doubles as the
    only work space; it may be ``coeffs`` itself, because every step reads
    each sample before it writes it.  :func:`apply_plan` passes its
    coefficients there, so one application allocates one array.

    In-place products keep numpy's own evaluation order, so results are
    bit-identical to the full-grid expressions ``f.data * m`` and
    ``ifftn(coeffs) * conj(m)``, with m the modulation broadcast to the
    grid.  Complex multiplication is not bitwise commutative, and for
    arrays of at least 256 KiB numpy elides the temporary ``conj(m)`` and
    evaluates that second product as ``conj(m) * data``; below 256 KiB it
    is ``data * conj(m)``.  :meth:`from_freq` follows the same rule.
    """

    spec: GridSpec
    nu: float | None
    tau_offset: float
    xi_n_offset: float
    # derived
    symbol: np.ndarray | None = field(init=False)
    eps_floor: float = field(init=False)
    dropped_count: int = field(init=False)
    denom: np.ndarray = field(init=False)
    modulation: np.ndarray = field(init=False)

    def __post_init__(self):
        tau, *xi = np.meshgrid(*self.axes(), indexing="ij", sparse=True)
        self.symbol = eval_p(tau, xi) if self.nu is None else eval_p_nu(tau, xi, self.nu)
        mag = np.abs(self.symbol)
        self.eps_floor = _EPS_FLOOR_REL * float(mag.max())
        dropped = mag < self.eps_floor
        self.dropped_count = int(dropped.sum())
        self.denom = np.where(dropped, np.inf, self.symbol) if self.dropped_count else self.symbol
        # a zero offset adds +-0.0 to the phase, which leaves every entry's bits alone
        spec = self.spec
        t = spec.t_axis().reshape((-1,) + (1,) * spec.n)
        x = spec.x_axis().reshape((1,) * spec.n + (-1,))
        phase = np.zeros((spec.pts_time,) + (1,) * (spec.n - 1) + (spec.pts_space,))
        phase = phase + self.tau_offset * t + self.xi_n_offset * x
        self.modulation = np.exp(-1j * phase)

    def axes(self) -> list[np.ndarray]:
        """The 1-D lattice axes (tau, xi_1, ..., xi_n), tau and xi_n offset."""
        spec = self.spec
        xi = spec.xi_axis()
        return [spec.tau_axis() + self.tau_offset] + [xi] * (spec.n - 1) + [xi + self.xi_n_offset]

    def adjoint(self) -> "MultiplierPlan":
        """The plan of the L^2 adjoint, for :func:`apply_plan` only.

        It shares the lattice, floor and modulation and conjugates only
        ``denom``; its ``symbol`` is None.  The power iteration does not
        use it: it applies the adjoint through this plan by conjugation.
        """
        adj = copy.copy(self)
        adj.symbol = None
        adj.denom = np.conj(self.denom)
        return adj

    # -- modulated (offset-lattice) transforms ---------------------------

    def to_freq(self, f: Field) -> np.ndarray:
        """Coefficients of f on this plan's (offset) frequency lattice."""
        data = f.data * self.modulation
        return np.fft.fftn(data, norm="ortho", out=data)

    def from_freq(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> Field:
        if out is None:
            out = np.empty(coeffs.shape, dtype=np.complex128)
        data = np.fft.ifftn(coeffs, norm="ortho", out=out)
        demodulation = np.conj(self.modulation)
        if data.nbytes >= _ELIDE_BYTES:
            np.multiply(demodulation, data, out=data)
        else:
            np.multiply(data, demodulation, out=data)
        return Field(self.spec, data)


def plan_S(
    spec: GridSpec,
    offset_xin: bool = True,
    offset_tau: bool = False,
) -> MultiplierPlan:
    """Plan for the normalized multiplier with symbol tau - |xi|^2 + i xi_n."""
    return MultiplierPlan(spec, None, 0.5 * spec.dtau if offset_tau else 0.0,
                          0.5 * spec.dxi if offset_xin else 0.0)


def plan_S_nu(spec: GridSpec, nu: float, offset_xin: bool = False) -> MultiplierPlan:
    """Plan for the conjugated multiplier -tau - |xi|^2 + 2 i nu xi_n; tau is always offset."""
    return MultiplierPlan(spec, nu, 0.5 * spec.dtau, 0.5 * spec.dxi if offset_xin else 0.0)


# ---------------------------------------------------------------------------
# applications
# ---------------------------------------------------------------------------


def apply_plan(plan: MultiplierPlan, f: Field) -> Field:
    """Apply the reciprocal symbol 1/p on retained modes (floored modes -> 0).

    Every step runs in the one array that :meth:`MultiplierPlan.to_freq`
    allocates.
    """
    coeffs = plan.to_freq(f)
    np.divide(coeffs, plan.denom, out=coeffs)
    return plan.from_freq(coeffs, out=coeffs)


def apply_symbol(plan: MultiplierPlan, f: Field) -> Field:
    """Apply the symbol itself: the differential operator on the offset lattice.

    For the conjugated plan this is (i d_t + Laplacian + 2 nu d_n) applied
    spectrally; composing with :func:`apply_plan` is the identity on
    retained modes.
    """
    coeffs = plan.to_freq(f)
    return plan.from_freq(coeffs * plan.symbol)


def apply_S(f: Field, plan: MultiplierPlan) -> Field:
    if plan.nu is not None:
        raise ValueError("apply_S expects a normalized-symbol plan")
    return apply_plan(plan, f)


# ---------------------------------------------------------------------------
# U_s propagator pieces
# ---------------------------------------------------------------------------


def _u_s_block(s: np.ndarray, xi: list[np.ndarray]) -> np.ndarray:
    """The U_s symbol of each of k s-nodes, as a (k x pts_space^n) block.

    ``xi`` holds the n one-dimensional spatial frequency axes, xi_n last.
    The block is the broadcast product of one (k x pts_space) factor per
    axis (see the module docstring), modes raveled in C order.  The last
    factor uses e^{-|s xi_n|} so that its discarded half cannot overflow.
    """
    s = s[:, None]
    s_xin = s * xi[-1]
    last = 1j * np.sign(s) * np.exp(1j * s * xi[-1]**2 - np.abs(s_xin))
    block = np.where(s_xin < 0.0, last, 0.0)
    for axis in reversed(xi[:-1]):
        block = (np.exp(1j * s * axis**2)[:, :, None] * block[:, None, :]).reshape(len(s), -1)
    return block


# ---------------------------------------------------------------------------
# propagator representation of S
# ---------------------------------------------------------------------------


# Gauss-Legendre nodes per panel of every s-quadrature
_NODES_PER_PANEL = 10
# s-nodes per GEMM in _s_node_sum.  propagator_factor(plan_S(16^3, n = 2),
# 40, 12000), 12,240 nodes: median of 12 alternating rounds on a shared
# 2-vCPU host, and the tracemalloc peak of one call:
#   chunk       64     128    256    512    1024
#   ms          63.9   58.5   55.4   52.4   53.7
#   peak KiB    1083   1411   2067   3379   6003
# Chunks above 64 save at most 12 ms but lift the peak over the 1288 KiB of
# the full-grid construction at 64, so 64 stays.
_S_CHUNK = 64
# propagator_factor integrates over s_inner < |s| <= s_max
_S_INNER = 1e-9


def _gauss_legendre_panels(edges: np.ndarray):
    """Gauss-Legendre nodes/weights on the panels defined by ``edges``."""
    base_x, base_w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * base_x).ravel(), (half * base_w).ravel()


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
    the chunk, never with the node count.  The symbol block of a chunk is
    the broadcast product of per-axis factors (:func:`_u_s_block`), exact
    because |xi|^2 is a sum over axes and the damping sees only xi_n: k n
    pts_space complex exps per chunk instead of k pts_space^n.
    """
    spec = plan.spec
    tau, *xi = plan.axes()
    factor = np.zeros((spec.pts_time, spec.pts_space**spec.n), dtype=np.complex128)
    for lo in range(0, len(nodes), _S_CHUNK):
        s = nodes[lo:lo + _S_CHUNK]
        time_part = weights[lo:lo + _S_CHUNK] * np.exp(-1j * tau[:, None] * s)
        factor += time_part @ _u_s_block(s, xi)
    return factor.reshape(spec.shape)


def propagator_factor(
    plan: MultiplierPlan, s_max: float, quad_pts: int = 2000
) -> np.ndarray:
    """Quadrature of int_R i sign(s) e^{i s |xi|^2} 1(s xi_n<0) e^{s xi_n}
    e^{-i tau s} ds over |s| <= s_max, per (tau, xi) lattice mode.

    This is the mode-wise content of the time-slice representation
    S f(t,.) = int U_s[f(t-s,.)] ds; it converges to 1/p as s_max grows.
    ``s_max`` must be finite and above the 1e-9 inner edge, ``quad_pts``
    at least 1.
    """
    if not (np.isfinite(s_max) and s_max > _S_INNER):
        raise ValueError(f"s_max must be finite and above {_S_INNER:g}, got {s_max!r}")
    if quad_pts < 1:
        raise ValueError(f"quad_pts must be at least 1, got {quad_pts!r}")
    s, w = _s_panels(_S_INNER, s_max, quad_pts // 2)
    return _s_node_sum(plan, np.concatenate([s, -s]), np.concatenate([w, w]))
