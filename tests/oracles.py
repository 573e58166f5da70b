"""Independent routes to quantities the package computes, for the tests to check it against.

Nothing in the package calls these: each one recomputes a result by another
route (a dense matrix, the propagator quadrature, the full-grid rho family),
or measures a bound the reports do not carry (the PDE residual, the
|nu|^{1/4} local-smoothing ratio).  ``fingerprint`` condenses an output
field as bench/execute.py does, for the checks against bench/reference.json.
The tests import them with ``from oracles import ...``.
"""

from dataclasses import asdict

import numpy as np

from schrodlab.birman_schwinger import FactorW, apply_BS
from schrodlab.counterexample import LogLogTrace, _j0, _radial_rule, _radial_sum, bourgain_norm
from schrodlab.grid import Field, GridSpec
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
    retained = np.where(plan.dropped, 0.0, coeffs)
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


def dense_bs_matrix(W1: FactorW, W2: FactorW, plan: MultiplierPlan) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _ball_profile(s: float, y: np.ndarray) -> np.ndarray:
    """P(s, y) = 2 pi int_0^1 J_0(y r) e^{i s r^2} r dr (n = 2, radial; 480 nodes)."""
    return _radial_sum(s, _j0(np.outer(y, _radial_rule()[0])))


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
    mesh = spec.meshgrid_freq()
    tau = mesh[0]
    xis = mesh[1:]
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
