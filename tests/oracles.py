"""Independent routes to quantities the package computes, for the tests to check it against.

Nothing in the package calls these: each one recomputes a result by another
route (a dense matrix, the propagator quadrature, the full-grid rho family,
the power iteration on the adjoint plan), or measures a bound the reports do
not carry (the PDE residual, the |nu|^{1/4} local-smoothing ratio).  ``fingerprint`` condenses an output
field as bench/execute.py does, for the checks against bench/reference.json.
The tests import them with ``from oracles import ...``.
"""

from dataclasses import asdict

import numpy as np

from schrodlab.birman_schwinger import _MAX_ITER, _sandwich, _time_hull, apply_BS
from schrodlab.counterexample import LogLogTrace, _j0, _radial_rule, bourgain_norm
from schrodlab.grid import Field, GridSpec, l2_norm
from schrodlab.multipliers import (MultiplierPlan, _gauss_legendre_panels, _s_node_sum,
                                   propagator_factor)
from schrodlab.reports import EstimateReport


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def equation_residual(plan: MultiplierPlan, f: Field) -> float:
    """Relative L^2 residual ||P (S f) - f|| / ||f|| on retained modes.

    P is the plan's symbol applied spectrally; for the conjugated plan this
    is the discrete PDE residual of (i d_t + Delta + 2 nu . grad) u = f.
    Dropped modes of f are excluded (they cannot be inverted).
    """
    coeffs = plan.to_freq(f)
    retained = np.where(np.isinf(plan.denom), 0.0, coeffs)
    norm = float(np.linalg.norm(retained))
    if norm == 0.0:
        raise ValueError("f vanishes on retained modes")
    resid = coeffs / plan.denom * plan.symbol - retained
    return float(np.linalg.norm(resid)) / norm


def apply_S_via_propagator(
    f: Field,
    plan: MultiplierPlan,
    quad_pts: int = 2000,
    s_max: float | None = None,
) -> Field:
    """Apply S through the U_s time-slice quadrature.

    ``s_max`` defaults to the time-box half-width; the truncation error per
    mode is bounded by e^{-s_max |xi_n|}/|xi_n|.
    """
    if s_max is None:
        s_max = f.spec.box_time
    factor = propagator_factor(plan, s_max, quad_pts)
    coeffs = plan.to_freq(f)
    return plan.from_freq(coeffs * factor)


def apply_S_dyadic(f: Field, j: int, plan: MultiplierPlan, quad_pts: int = 400) -> Field:
    """The dyadic piece S_j: the s-integral restricted to 2^{j-1} < |s| <= 2^j."""
    nodes, weights = _gauss_legendre_panels(
        np.linspace(2.0 ** (j - 1), 2.0**j, max(2, quad_pts // 20))
    )
    factor = _s_node_sum(plan, np.concatenate([nodes, -nodes]),
                         np.concatenate([weights, weights]))
    coeffs = plan.to_freq(f)
    return plan.from_freq(coeffs * factor)


# ---------------------------------------------------------------------------
# sandwiched operator
# ---------------------------------------------------------------------------


def dense_bs_matrix(W1: Field, W2: Field, plan: MultiplierPlan) -> np.ndarray:
    """Materialize the operator as a dense matrix (tiny grids only)."""
    spec = plan.spec
    if spec.total_points > 4096:
        raise ValueError("dense matrix restricted to <= 4096 lattice points")
    cols = []
    for k in range(spec.total_points):
        e = np.zeros(spec.total_points, dtype=complex)
        e[k] = 1.0
        v = Field(spec, e.reshape(spec.shape))
        cols.append(apply_BS(v, W1, W2, plan).data.ravel())
    return np.array(cols).T


def adjoint_plan_op_norm(W1: Field, W2: Field, plan: MultiplierPlan, tol: float = 1e-3,
                         seed: int = 0) -> tuple[float, dict]:
    """op_norm's power iteration with the adjoint half of each step on the adjoint plan.

    Each step applies A* as M_{conj W2} F^-1 conj(D)^-1 F M_{conj W1}: the
    kernel in its forward order on ``plan.adjoint()``'s conjugated
    denominator and on conj(W1) and conj(W2), with each start drawn as
    ``a + 1j * b``, both starts in turn on one thread.  op_norm instead
    runs conj(M_{W2} F D^-1 F^-1 M_{W1} conj(y)), on ``plan.denom``, W1
    and W2, and matches this bit for bit.  numpy's pocketfft runs each
    inverse pass as its forward pass with conjugated twiddles, and scales
    both by the same 1/sqrt(N), so the inverse transform of conj(x) is the
    conjugate of the forward transform of x exactly.  numpy divides complex
    numbers by Smith's rule, which branches on |Re d| >= |Im d| and so
    takes the same branch for conj(d): conj(x) / d is conj(x / conj(d))
    exactly.  A complex product, with w or its conjugate, commutes with
    conjugation too, since negating an operand only negates products.
    """
    spec = plan.spec
    adj = plan.adjoint()
    w1, w2 = W1.data, W2.data
    w1c, w2c = np.conj(w1), np.conj(w2)
    h1, h2 = _time_hull(w1), _time_hull(w2)

    def iterate(s: int) -> tuple[float, int, bool]:
        rng = np.random.default_rng(s)
        v = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        np.multiply(v, plan.modulation, out=v)
        nrm = l2_norm(v)
        if nrm == 0.0:
            return 0.0, 0, True
        np.multiply(v, 1.0 / nrm, out=v)
        v[:h2.start] = 0.0
        v[h2.stop:] = 0.0
        est = 0.0
        for it in range(1, _MAX_ITER + 1):
            new = l2_norm(_sandwich(v, w2, h2, plan.denom, w1, h1))
            w = _sandwich(v, w1c, h1, adj.denom, w2c, h2)
            wn = l2_norm(w)
            if wn == 0.0:
                return 0.0, it, True
            np.multiply(w, 1.0 / wn, out=w)
            if est > 0.0 and abs(new - est) <= tol * est:
                return new, it, True
            est = new
        return est, _MAX_ITER, False

    (e1, it1, conv1), (e2, it2, conv2) = iterate(seed), iterate(seed + 1)
    top = max(e1, e2)
    agree = top == 0.0 or abs(e1 - e2) <= 0.02 * top
    return top, {"iterations": max(it1, it2), "converged": bool(conv1 and conv2),
                 "starts_agree": bool(agree), "estimates": [e1, e2]}


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _ball_profile(s: float, y: np.ndarray) -> np.ndarray:
    """P(s, y) = 2 pi int_0^1 J_0(y r) e^{i s r^2} r dr (n = 2, radial; 480 nodes).

    One GEMV over the whole J_0(y r) table of this s.
    """
    r, w = _radial_rule()
    return 2.0 * np.pi * (_j0(np.outer(y, r)) @ (np.exp(1j * s * r**2) * r * w))


def build_u_rho(rho: float, trace: LogLogTrace, spec: GridSpec) -> Field:
    """Assemble the lattice field of the drifted family (small rho only).

    The frequency lattice must cover |xi_n| < 3 rho; the trace transform
    is interpolated onto tau - |xi|^2.
    """
    ximax = np.abs(spec.xi_axis()).max()
    if 3.0 * rho > ximax:
        raise ValueError(f"frequency lattice (max {ximax:.1f}) cannot cover 3 rho = {3 * rho:.1f}")
    n = spec.n
    # ghat_rho(sigma) = ghat(sigma / rho) / rho on a dense transform
    m = trace.g.size
    ghat = np.fft.fftshift(np.fft.fft(trace.g)) * trace.dt / np.sqrt(2.0 * np.pi)
    sig = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(m, d=trace.dt))
    tau, *xis = np.meshgrid(spec.tau_axis(), *[spec.xi_axis()] * n, indexing="ij",
                            sparse=True)
    sq = sum(c**2 for c in xis)
    sigma = (tau - sq) / rho
    gr = np.interp(sigma.ravel(), sig, ghat.real, left=0.0, right=0.0)
    gi = np.interp(sigma.ravel(), sig, ghat.imag, left=0.0, right=0.0)
    gfac = (gr + 1j * gi).reshape(sigma.shape) / rho
    center = np.zeros(n)
    center[-1] = 2.0 * rho
    ball = sum((c - cc) ** 2 for c, cc in zip(xis, center)) < rho**2
    fhat = rho ** (-n / 2.0) * ball
    uhat = gfac * fhat
    return Field(spec, np.fft.ifftn(uhat.astype(complex), norm="ortho"))


def local_smoothing_check(fields, nu_list, T: float, R: float) -> EstimateReport:
    """Compensated local-smoothing ratio over a nu sweep.

    ratio = |nu|^{1/4} ||u||_{L^2((0,T) x B_R)} /
            (T^{1/4} R^{1/4} ||u||_{X^{1/2}_nu});
    the verdict of interest is the bounded spread across nu.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("local_smoothing_check wants at least one field")
    spec = fields[0].spec
    t_ax = spec.t_axis()
    mesh = spec.spatial_mesh()
    ball = (sum(c**2 for c in mesh) < R**2)[None]
    window = ((t_ax > 0.0) & (t_ax < T)).reshape((spec.pts_time,) + (1,) * spec.n)
    mask = window & ball
    report = EstimateReport(
        estimate="local_smoothing",
        grid=asdict(spec),
        params={"nu_values": list(map(float, nu_list)), "T": T, "R": R},
    )
    for mag in nu_list:
        comp = float(mag) ** 0.25 / (T**0.25 * R**0.25)
        for k, u in enumerate(fields):
            local = np.sqrt((np.abs(u.data[mask]) ** 2).sum() * spec.cell_volume)
            denom = bourgain_norm(u, "homogeneous", nu=mag)
            report.samples.append(
                {"nu": float(mag), "field": k, "ratio": comp * local / denom, "seed": 0}
            )
    return report


# ---------------------------------------------------------------------------
# benchmark references
# ---------------------------------------------------------------------------


def fingerprint(array) -> list[float]:
    """Norm and a fixed random projection of an array, as bench/execute.py's fingerprint."""
    a = np.asarray(array, dtype=complex).ravel()
    rng = np.random.default_rng(0)
    r = rng.standard_normal(a.size) + 1j * rng.standard_normal(a.size)
    proj = np.vdot(r / np.linalg.norm(r), a)
    return [np.linalg.norm(a), proj.real, proj.imag]
