"""Sandwiched multiplier operator M_{W1} S_nu M_{W2} and its norm decay.

The potential V factorizes as V = |W| W with W = V / |V|^{1/2}, and the
key compactness mechanism is that the sandwiched operator norm
``||M_{W1} S_nu M_{W2}||_{L^2 -> L^2}`` decays as |nu| grows.  This module
provides the factorization, the operator application, a power-iteration
norm estimator, the sharp/flat splitting of W used in the decay proof, and
the nu-sweep experiment.

The operator takes its S_nu as a plan, and the plan carries nu.  Plans for
the sandwich come from :func:`plan_BS`, which enables the half-bin offset in
both tau and xi_n: on the discrete lattice the xi_n = 0 plane carries a
nu-independent symbol, which would stall the norm decay that the sweep is
measuring.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
import logging

import numpy as np

from .grid import Field, GridSpec, l2_norm
from .multipliers import MultiplierPlan, plan_S_nu
from .parallel import run_two
from .reports import EstimateReport
from .symbols import as_exponent, potential_pair_check

logger = logging.getLogger(__name__)

# power-iteration cap of op_norm; reaching it flags non-convergence
_MAX_ITER = 200

__all__ = [
    "Potential",
    "build_W",
    "gaussian_potential",
    "cusp_potential",
    "plan_BS",
    "apply_BS",
    "apply_BS_adjoint",
    "op_norm",
    "split_W",
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
        s, t = self.window
        if not s < t:
            raise ValueError("empty time window")
        a, b = self.pair
        if not potential_pair_check(a, b, self.field.spec.n):
            raise ValueError(f"pair {self.pair} fails the admissibility relation "
                             f"2 - 2/a = n/b (n = {self.field.spec.n})")


def build_W(V: Potential) -> Field:
    """Factor V = |W| W pointwise; W vanishes exactly where V does."""
    data = V.field.data
    mag = np.abs(data)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(mag > 0.0, data / np.sqrt(np.where(mag > 0.0, mag, 1.0)), 0.0)
    return Field(V.field.spec, w.astype(complex))


def _windowed(spec: GridSpec, bump: np.ndarray, window, radius: float, pair: tuple) -> Potential:
    """The spatial ``bump`` inside ``window`` (None: the centred half-box), 0 outside it."""
    if window is None:
        window = (-0.5 * spec.box_time, 0.5 * spec.box_time)
    t = spec.t_axis()
    mask = ((t >= window[0]) & (t <= window[1])).astype(float)
    data = mask.reshape((spec.pts_time,) + (1,) * spec.n) * bump[None]
    f = Field(spec, data.astype(complex))
    return Potential(f, window, radius=radius, pair=pair)


def gaussian_potential(
    spec: GridSpec,
    amplitude: float = 1.0,
    width: float = 0.5,
    window: tuple[float, float] | None = None,
    pair: tuple = (2, 2),
) -> Potential:
    """Spatial Gaussian bump, constant in time inside the window."""
    if not width > 0.0:
        raise ValueError(f"width must be > 0, got {width}")
    mesh = spec.spatial_mesh()
    bump = amplitude * np.exp(-sum(c**2 for c in mesh) / (2.0 * width**2))
    return _windowed(spec, bump, window, 4.0 * width, pair)


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
    unbounded-potential stress case for the norm-decay sweep.  The tip is
    in L^b, b the second exponent of ``pair``, only for 0 < alpha b < n,
    so no alpha passes b = oo.
    """
    _, b = map(as_exponent, pair)
    if not 0.0 < alpha * float(b) < spec.n:
        raise ValueError(f"alpha must satisfy 0 < alpha * b < n = {spec.n} for the pair's "
                         f"b = {b}, got {alpha}")
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    mesh = spec.spatial_mesh()
    rad = np.sqrt(sum((c - center) ** 2 for c in mesh))
    rad = np.maximum(rad, 0.25 * spec.dx)  # keep samples finite at the tip
    bump = amplitude * rad ** (-alpha) * (rad <= cutoff)
    return _windowed(spec, bump, window, cutoff, pair)


# ---------------------------------------------------------------------------
# the sandwiched operator
# ---------------------------------------------------------------------------


def plan_BS(spec: GridSpec, nu: float) -> MultiplierPlan:
    """The plan of S_nu in the sandwich and in the gain sweep: half-bin offsets in tau and xi_n.

    The xi_n offset keeps the lattice off the xi_n = 0 plane, whose symbol
    does not depend on nu: it would stall the norm decay of the sandwich
    and swamp the compensated gain ratio.
    """
    return plan_S_nu(spec, nu, offset_xin=True)


def apply_BS(v: Field, W1: Field, W2: Field, plan: MultiplierPlan) -> Field:
    """Compute M_{W1} S_nu M_{W2} v, with S_nu and nu from ``plan``.

    :func:`_sandwich` conjugated once by the plan's modulation (the
    identity is stated there), in one fresh field.
    """
    w_out, w_in = W1.data, W2.data
    rows_in, rows_out = _time_hull(w_in), _time_hull(w_out)
    buf = np.zeros(v.spec.shape, dtype=np.complex128)
    np.multiply(v.data[rows_in], plan.modulation[rows_in], out=buf[rows_in])
    part = _sandwich(buf, w_in, rows_in, plan.denom, w_out, rows_out)
    np.multiply(part, np.conj(plan.modulation[rows_out]), out=part)
    return Field(v.spec, buf)


def _adjoint_plan(plan: MultiplierPlan) -> MultiplierPlan:
    """Plan applying the L2 adjoint S_nu^* (see :meth:`MultiplierPlan.adjoint`).

    A named function so that bench/tracing.py can count adjoint plans.
    :func:`op_norm` builds none: it applies the adjoint through the plan
    itself, by conjugation.
    """
    return plan.adjoint()


def apply_BS_adjoint(u: Field, W1: Field, W2: Field, adjoint_plan: MultiplierPlan) -> Field:
    """Adjoint of apply_BS: M_{conj W2} S_nu^* M_{conj W1} u.

    ``adjoint_plan`` is the adjoint of apply_BS's plan (``plan.adjoint()``).
    """
    return apply_BS(u, Field(W2.spec, np.conj(W2.data)), Field(W1.spec, np.conj(W1.data)),
                    adjoint_plan)


def _time_hull(w: np.ndarray) -> slice:
    """The time rows from the first to the last one on which ``w`` is nonzero."""
    rows = np.flatnonzero(w.reshape(w.shape[0], -1).any(axis=1))
    return slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)


def _sandwich(buf: np.ndarray, w_in: np.ndarray, rows_in: slice, denom: np.ndarray,
              w_out: np.ndarray, rows_out: slice, reverse: bool = False) -> np.ndarray:
    """M_{w_out} F^-1 D^-1 F M_{w_in} buf in place in ``buf``, with D = ``denom``.

    F is the unitary DFT without modulation.  A plan's S is conj(m) F^-1
    D^-1 F m, with m its half-bin modulation, a unit-modulus pointwise
    factor that commutes with every M_W, so

        M_{W1} S M_{W2} = conj(m) M_{W1} F^-1 D^-1 F M_{W2} m,

    and this kernel is the middle of that product.  With ``reverse`` the
    transforms swap places, M_{w_out} F D^-1 F^-1 M_{w_in}: conjugated on
    both sides, that is the adjoint of the kernel with w_in and w_out
    exchanged (see :func:`op_norm`).  ``rows_in`` and ``rows_out`` are the
    time hulls of ``w_in`` and ``w_out`` (:func:`_time_hull`) and ``buf``
    must be zero outside ``rows_in``, so the spatial transforms run on
    those rows only, with one transform along time on every row; a window
    over the whole box transforms every row.  numpy's ``fftn`` transforms
    time last, so the forward transform is ``fftn`` bit for bit; the
    inverse transforms time first and differs from ``ifftn`` in rounding
    only.  The other rows are zeroed; the returned view holds the rows
    ``rows_out``.
    """
    fft = np.fft  # looked up per call, so that patched transforms are seen
    first, first_n, last, last_n = ((fft.ifft, fft.ifftn, fft.fft, fft.fftn) if reverse
                                    else (fft.fft, fft.fftn, fft.ifft, fft.ifftn))
    space = tuple(range(1, buf.ndim))
    part = buf[rows_in]
    np.multiply(w_in[rows_in], part, out=part)
    first_n(part, axes=space, norm="ortho", out=part)
    first(buf, axis=0, norm="ortho", out=buf)
    np.divide(buf, denom, out=buf)
    last(buf, axis=0, norm="ortho", out=buf)
    part = buf[rows_out]
    last_n(part, axes=space, norm="ortho", out=part)
    buf[:rows_out.start] = 0.0
    buf[rows_out.stop:] = 0.0
    return np.multiply(w_out[rows_out], part, out=part)


def op_norm(
    W1: Field,
    W2: Field,
    plan: MultiplierPlan,
    tol: float = 1e-3,
    seed: int = 0,
) -> tuple[float, dict]:
    """Estimate ||M_{W1} S_nu M_{W2}|| by power iteration on A* A (S_nu from ``plan``).

    The result is an estimate, not a bound: ||Av|| for a unit v is the
    square root of a Rayleigh quotient of A* A, so it is at most the true
    norm, and the iteration stops on a heuristic rule (a relative change
    of at most ``tol`` between steps), not on a certified error.

    Runs two iterations, from random starts seeded ``seed`` and
    ``seed + 1``; they must agree within 2% or
    ``diagnostics['starts_agree']`` is False.  Non-convergence within
    ``_MAX_ITER`` (200) iterations is flagged, with the last iterate still
    returned.

    The loop calls neither apply_BS nor the plan's transforms: each start
    is multiplied once by the modulation m and iterated as u = m v, two
    :func:`_sandwich` calls per step.  With B = F^-1 D^-1 F and that
    kernel's identity, m A* A v = M_{conj W2} B* M_{|W1|^2} B M_{W2} u and
    ||Av|| = ||M_{W1} B M_{W2} u||, so the estimates equal those of the
    modulated operator up to rounding.  The adjoint half of a step uses

        M_{conj W2} B* M_{conj W1} y = conj(M_{W2} F D^-1 F^-1 M_{W1} conj(y)),

    the kernel with ``reverse`` between two in-place conjugations, so the
    loop reads only ``plan.denom``, W1 and W2: no conjugated denominator
    (:meth:`MultiplierPlan.adjoint`) and no conj(W) is built.  The identity
    holds bit for bit, not only up to rounding: numpy's pocketfft runs each
    inverse pass as its forward pass with conjugated twiddles, and its
    complex division and products commute with conjugation exactly
    (``tests/oracles.py``, ``adjoint_plan_op_norm``, is the iteration on
    the adjoint plan that this matches).

    Each start holds one field, its iterate, for all of its iterations:
    every step runs in place in it, and each start is drawn into it in
    place, real parts first.  Where two CPUs are available the two starts
    run at once, the second on a worker thread
    (:func:`schrodlab.parallel.run_two`); both start fields are built on
    the calling thread first, so the worker allocates no field.  Each start
    runs the same operations as it does alone, so the results are
    bit-identical to one thread.
    """
    spec = plan.spec
    w1, w2 = W1.data, W2.data
    h1, h2 = _time_hull(w1), _time_hull(w2)

    def start(s: int):
        """Draw start ``s``, modulated; return its power iteration."""
        rng = np.random.default_rng(s)
        v = np.empty(spec.shape, dtype=np.complex128)
        v.real = rng.standard_normal(spec.shape)
        v.imag = rng.standard_normal(spec.shape)
        np.multiply(v, plan.modulation, out=v)
        return partial(iterate, v)

    def iterate(v: np.ndarray) -> tuple[float, int, bool]:
        nrm = l2_norm(v)
        if nrm == 0.0:
            return 0.0, 0, True
        np.multiply(v, 1.0 / nrm, out=v)
        v[:h2.start] = 0.0  # W2 vanishes there
        v[h2.stop:] = 0.0
        est = 0.0
        for it in range(1, _MAX_ITER + 1):
            av = _sandwich(v, w2, h2, plan.denom, w1, h1)
            new = l2_norm(av)  # sqrt of the Rayleigh quotient of A*A
            np.conjugate(av, out=av)
            w = _sandwich(v, w1, h1, plan.denom, w2, h2, reverse=True)
            np.conjugate(w, out=w)
            wn = l2_norm(w)
            if wn == 0.0:
                return 0.0, it, True
            np.multiply(w, 1.0 / wn, out=w)
            if est > 0.0 and abs(new - est) <= tol * est:
                return new, it, True
            est = new
        return est, _MAX_ITER, False

    (e1, it1, conv1), (e2, it2, conv2) = run_two(partial(start, seed), partial(start, seed + 1))
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


def split_W(W: Field, lam: float, radius: float) -> tuple[Field, Field]:
    """Split W = W_sharp + W_flat.

    W_sharp keeps the small values inside the radius plus everything
    outside (bounded inside, decaying outside); W_flat is the large-value
    core, which is small in the integrability norm when lam is large.
    """
    if lam < 0.0 or radius <= 0.0:
        raise ValueError("split_W wants lam >= 0 and radius > 0")
    spec = W.spec
    mesh = spec.spatial_mesh()
    rad = np.sqrt(sum(c**2 for c in mesh))[None]
    inside = rad <= radius
    mag = np.abs(W.data)
    sharp = np.where(inside & (mag <= lam), W.data, 0.0)
    sharp = sharp + np.where(~inside, W.data, 0.0)
    flat = W.data - sharp
    return Field(spec, sharp), Field(spec, flat)


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
    spec = V.field.spec
    W = build_W(V)
    report = EstimateReport(
        estimate="bs_decay",
        grid=asdict(spec),
        params={"nu_values": list(map(float, nu_list)), "lambda_rule": "sqrt_nu",
                "tol": tol, "seed": seed},
    )
    for mag in nu_list:
        lam = float(mag) ** 0.25
        est, diag = op_norm(W, W, plan_BS(spec, mag), tol=tol, seed=seed)
        sharp, flat = split_W(W, lam, V.radius)
        masses = l2_norm(sharp), l2_norm(flat)
        del sharp, flat  # two fields, not to be held through the next nu's power iteration
        report.samples.append(
            {
                "nu": float(mag),
                "lambda": lam,
                "ratio": est,
                "iterations": diag["iterations"],
                "converged": diag["converged"],
                "starts_agree": diag["starts_agree"],
                "sharp_mass": masses[0],
                "flat_mass": masses[1],
                "seed": seed,
            }
        )
    logger.info("bs_decay sweep over %d nu values", len(report.samples))
    return report
