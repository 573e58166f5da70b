"""Sandwiched multiplier operator M_{W1} S_nu M_{W2} and its norm decay.

The potential V factorizes as V = |W| W with W = V / |V|^{1/2}, and the
key compactness mechanism is that the sandwiched operator norm
``||M_{W1} S_nu M_{W2}||_{L^2 -> L^2}`` decays as |nu| grows.  This module
provides the factorization, the operator application, a power-iteration
norm estimator (with a dense SVD oracle for tiny grids), the sharp/flat
splitting of W used in the decay proof, and the nu-sweep experiment.

Frequency plans for S_nu here enable the half-bin offset in both tau and
xi_n: on the discrete lattice the xi_n = 0 plane carries a nu-independent
symbol, which would stall the norm decay that the sweep is measuring.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging
import time

import numpy as np

from .grid import Field, GridSpec, l2_norm
from .multipliers import MultiplierPlan, apply_plan, plan_S_nu
from .reports import EstimateReport
from .symbols import NuVector, potential_pair_check

logger = logging.getLogger(__name__)

# power-iteration cap of op_norm; reaching it flags non-convergence
_MAX_ITER = 200

__all__ = [
    "Potential",
    "FactorW",
    "build_W",
    "gaussian_potential",
    "cusp_potential",
    "apply_BS",
    "dense_bs_matrix",
    "op_norm",
    "split_W",
    "piecewise_time_approx",
    "bs_decay_sweep",
]


# ---------------------------------------------------------------------------
# potentials and their square-root factors
# ---------------------------------------------------------------------------


@dataclass
class Potential:
    """A space-time potential with declared support data.

    ``window`` is the time interval [S, T] carrying the support, ``radius``
    the spatial support/concentration radius used by the splitting, and
    ``pair`` the integrability exponents (a, b) the potential is measured
    in (validated against the admissibility relation 2 - 2/a = n/b).
    """

    field: Field
    window: tuple[float, float]
    radius: float
    pair: tuple

    def __post_init__(self):
        if self.field.rep != "physical":
            raise ValueError("Potential wants a physical-representation field")
        s, t = self.window
        if not s < t:
            raise ValueError("empty time window")
        a, b = self.pair
        verdict, _ = potential_pair_check(a, b, self.field.spec.n)
        if not verdict:
            raise ValueError(f"pair {self.pair} fails the admissibility relation "
                             f"2 - 2/a = n/b (n = {self.field.spec.n})")

    def support_leak(self) -> float:
        """Largest |V| sample outside the declared time window."""
        spec = self.field.spec
        t = spec.t_axis()
        outside = (t < self.window[0]) | (t > self.window[1])
        if not outside.any():
            return 0.0
        sl = np.abs(self.field.data[outside]).max()
        return float(sl)

    def line_decay(self) -> float:
        """sup over axes of sum_s ||1_{>R} V||_{L^inf(slice)} dx.

        Discretizes the integral-along-lines decay diagnostic: for each
        coordinate axis, slices orthogonal to it are scanned, the far
        region |x| > radius is kept, and the slice sup norms are summed
        with the lattice spacing.
        """
        spec = self.field.spec
        mesh = spec.spatial_mesh()
        rad = np.sqrt(sum(c**2 for c in mesh))
        far = np.abs(self.field.data) * (rad > self.radius)
        worst = 0.0
        for axis in range(spec.n):
            moved = np.moveaxis(far, 1 + axis, 0).reshape(spec.pts_space, -1)
            worst = max(worst, float(moved.max(axis=1).sum() * spec.dx))
        return worst


@dataclass
class FactorW:
    """Pointwise square-root factor W with |W| W = V."""

    field: Field

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.field.data)


def build_W(V: Potential) -> FactorW:
    """Factor V = |W| W pointwise; W vanishes exactly where V does."""
    data = V.field.data
    mag = np.abs(data)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(mag > 0.0, data / np.sqrt(np.where(mag > 0.0, mag, 1.0)), 0.0)
    return FactorW(Field(V.field.spec, "physical", w.astype(complex)))


def _time_window_mask(spec: GridSpec, window: tuple[float, float]) -> np.ndarray:
    t = spec.t_axis()
    mask = ((t >= window[0]) & (t <= window[1])).astype(float)
    return mask.reshape((spec.pts_time,) + (1,) * spec.n)


def gaussian_potential(
    spec: GridSpec,
    amplitude: float = 1.0,
    width: float = 0.5,
    window: tuple[float, float] | None = None,
    pair: tuple = (2, 2),
) -> Potential:
    """Spatial Gaussian bump, constant in time inside the window."""
    if window is None:
        window = (-0.5 * spec.box_time, 0.5 * spec.box_time)
    mesh = spec.spatial_mesh()
    bump = amplitude * np.exp(-sum(c**2 for c in mesh) / (2.0 * width**2))
    data = _time_window_mask(spec, window) * bump[None]
    f = Field(spec, "physical", data.astype(complex))
    return Potential(f, window, radius=4.0 * width, pair=pair)


def cusp_potential(
    spec: GridSpec,
    alpha: float = 0.75,
    amplitude: float = 1.0,
    center: float = 0.0,
    cutoff: float = 1.0,
    window: tuple[float, float] | None = None,
    pair: tuple = (2, 2),
) -> Potential:
    """Unbounded |x - x0|^{-alpha} tip, truncated outside radius ``cutoff``.

    The tip lands between lattice points (center may be offset), so every
    sample is finite but the sup norm grows with resolution -- the
    unbounded-potential stress case for the norm-decay sweep.
    """
    if not 0.0 < alpha * spec.n < 2.0 * spec.n:
        raise ValueError("alpha out of the integrable range")
    if window is None:
        window = (-0.5 * spec.box_time, 0.5 * spec.box_time)
    mesh = spec.spatial_mesh()
    rad = np.sqrt(sum((c - center) ** 2 for c in mesh))
    rad = np.maximum(rad, 0.25 * spec.dx)  # keep samples finite at the tip
    bump = amplitude * rad ** (-alpha) * (rad <= cutoff)
    data = _time_window_mask(spec, window) * bump[None]
    f = Field(spec, "physical", data.astype(complex))
    return Potential(f, window, radius=cutoff, pair=pair)


# ---------------------------------------------------------------------------
# the sandwiched operator
# ---------------------------------------------------------------------------


def _bs_plan(spec: GridSpec, nu: NuVector) -> MultiplierPlan:
    return plan_S_nu(spec, nu, offset_tau=True, offset_xin=True)


def apply_BS(
    v: Field,
    W1: FactorW,
    W2: FactorW,
    nu: NuVector,
    plan: MultiplierPlan | None = None,
) -> Field:
    """Compute M_{W1} S_nu M_{W2} v."""
    if plan is None:
        plan = _bs_plan(v.spec, nu)
    inner = Field(v.spec, "physical", W2.field.data * v.data)
    mid = apply_plan(plan, inner)
    return Field(v.spec, "physical", W1.field.data * mid.data)


def _adjoint_plan(plan: MultiplierPlan) -> MultiplierPlan:
    """Plan applying the L2 adjoint S_nu^* (conjugate symbol).

    A named function so that bench/tracing.py can count adjoint plans.
    """
    return plan.adjoint()


def apply_BS_adjoint(
    u: Field,
    W1: FactorW,
    W2: FactorW,
    nu: NuVector,
    plan: MultiplierPlan | None = None,
    adjoint_plan: MultiplierPlan | None = None,
) -> Field:
    """Adjoint of apply_BS: M_{conj W2} S_nu^* M_{conj W1} u."""
    if adjoint_plan is None:
        if plan is None:
            plan = _bs_plan(u.spec, nu)
        adjoint_plan = _adjoint_plan(plan)
    inner = Field(u.spec, "physical", np.conj(W1.field.data) * u.data)
    mid = apply_plan(adjoint_plan, inner)
    return Field(u.spec, "physical", np.conj(W2.field.data) * mid.data)


def dense_bs_matrix(
    spec: GridSpec,
    W1: FactorW,
    W2: FactorW,
    nu: NuVector,
    plan: MultiplierPlan | None = None,
) -> np.ndarray:
    """Materialize the operator as a dense matrix (tiny grids only)."""
    if spec.total_points > 4096:
        raise ValueError("dense matrix restricted to <= 4096 lattice points")
    if plan is None:
        plan = _bs_plan(spec, nu)
    cols = []
    for k in range(spec.total_points):
        e = np.zeros(spec.total_points, dtype=complex)
        e[k] = 1.0
        v = Field(spec, "physical", e.reshape(spec.shape))
        cols.append(apply_BS(v, W1, W2, nu, plan).data.ravel())
    return np.array(cols).T


def op_norm(
    W1: FactorW,
    W2: FactorW,
    nu: NuVector,
    tol: float = 1e-3,
    plan: MultiplierPlan | None = None,
    seed: int = 0,
) -> tuple[float, dict]:
    """Estimate ||M_{W1} S_nu M_{W2}|| by power iteration on A* A.

    Runs two independently seeded iterations; they must agree within 2%
    or ``diagnostics['starts_agree']`` is False.  Non-convergence within
    ``_MAX_ITER`` (200) iterations is flagged, with the last iterate still
    returned.
    """
    spec = W1.field.spec
    if plan is None:
        plan = _bs_plan(spec, nu)
    adj = _adjoint_plan(plan)

    def one_start(s: int) -> tuple[float, int, bool]:
        rng = np.random.default_rng(s)
        data = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        v = Field(spec, "physical", data)
        nrm = l2_norm(v)
        if nrm == 0.0:
            return 0.0, 0, True
        v = v * (1.0 / nrm)
        est = 0.0
        for it in range(1, _MAX_ITER + 1):
            av = apply_BS(v, W1, W2, nu, plan)
            w = apply_BS_adjoint(av, W1, W2, nu, plan, adj)
            new = l2_norm(av)  # sqrt of the Rayleigh quotient of A*A
            wn = l2_norm(w)
            if wn == 0.0:
                return 0.0, it, True
            v = w * (1.0 / wn)
            if est > 0.0 and abs(new - est) <= tol * est:
                return new, it, True
            est = new
        return est, _MAX_ITER, False

    e1, it1, conv1 = one_start(seed)
    e2, it2, conv2 = one_start(seed + 1)
    top = max(e1, e2)
    agree = top == 0.0 or abs(e1 - e2) <= 0.02 * top
    diag = {
        "iterations": max(it1, it2),
        "converged": bool(conv1 and conv2),
        "starts_agree": bool(agree),
        "estimates": [e1, e2],
    }
    if not agree:
        logger.warning("power-iteration starts disagree: %.4g vs %.4g", e1, e2)
    return top, diag


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def split_W(W: FactorW, lam: float, radius: float) -> tuple[FactorW, FactorW]:
    """Split W = W_sharp + W_flat.

    W_sharp keeps the small values inside the radius plus everything
    outside (bounded inside, decaying outside); W_flat is the large-value
    core, which is small in the integrability norm when lam is large.
    """
    if lam < 0.0 or radius <= 0.0:
        raise ValueError("split_W wants lam >= 0 and radius > 0")
    spec = W.field.spec
    mesh = spec.spatial_mesh()
    rad = np.sqrt(sum(c**2 for c in mesh))[None]
    inside = rad <= radius
    mag = np.abs(W.field.data)
    sharp = np.where(inside & (mag <= lam), W.field.data, 0.0)
    sharp = sharp + np.where(~inside, W.field.data, 0.0)
    flat = W.field.data - sharp
    return (
        FactorW(Field(spec, "physical", sharp)),
        FactorW(Field(spec, "physical", flat)),
    )


def piecewise_time_approx(W: FactorW, m: int) -> tuple[FactorW, float]:
    """Piecewise-constant-in-time approximant on a uniform partition.

    Diagnostic for the endpoint integrability branch: W is replaced on
    each of m time cells by its value at the cell's first sample, and the
    worst per-slice approximation error (sup over samples of the spatial
    L^n distance to the cell anchor) is returned alongside.
    """
    if m < 1:
        raise ValueError("need at least one time cell")
    spec = W.field.spec
    data = W.field.data
    out = np.empty_like(data)
    edges = np.linspace(0, spec.pts_time, m + 1).astype(int)
    n = spec.n
    worst = 0.0
    vol = spec.dx**n
    for k in range(m):
        lo, hi = edges[k], edges[k + 1]
        if hi <= lo:
            continue
        anchor = data[lo]
        out[lo:hi] = anchor
        diff = np.abs(data[lo:hi] - anchor[None]) ** n
        errs = (diff.reshape(hi - lo, -1).sum(axis=1) * vol) ** (1.0 / n)
        worst = max(worst, float(errs.max()))
    return FactorW(Field(spec, "physical", out)), worst


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def bs_decay_sweep(
    V: Potential,
    nu_list,
    tol: float = 1e-3,
    seed: int = 0,
) -> EstimateReport:
    """Operator-norm estimates of M_W S_nu M_W over a nu sweep.

    Each sample is annotated with the splitting threshold lam = |nu|^{1/4}
    (lam^2 = |nu|^{1/2}, the ``sqrt_nu`` rule) used by the decay argument;
    the annotation records the split sizes but the norm is that of the full
    operator.
    """
    t0 = time.time()
    spec = V.field.spec
    W = build_W(V)
    report = EstimateReport(
        estimate="bs_decay",
        grid=spec.as_dict(),
        params={"nu_values": list(map(float, nu_list)), "lambda_rule": "sqrt_nu",
                "tol": tol, "seed": seed},
    )
    for mag in nu_list:
        nu = NuVector.along_last_axis(mag, spec.n)
        lam = float(mag) ** 0.25
        est, diag = op_norm(W, W, nu, tol=tol, seed=seed)
        sharp, flat = split_W(W, lam, V.radius)
        report.samples.append(
            {
                "nu": float(mag),
                "lambda": lam,
                "ratio": est,
                "iterations": diag["iterations"],
                "converged": diag["converged"],
                "starts_agree": diag["starts_agree"],
                "sharp_mass": l2_norm(sharp.field),
                "flat_mass": l2_norm(flat.field),
                "seed": seed,
            }
        )
    report.runtime = time.time() - t0
    logger.info("bs_decay sweep over %d nu values (%.2fs)", len(report.samples), report.runtime)
    return report
