"""Failure of the endpoint Bourgain-space embedding, measured.

The divergent families factor as u_rho(t, x) = g_rho(t) * (free evolution
of f_rho)(x), where f_rho is a frequency-ball packet and g_rho a trace
with a log log singularity.  This factorization collapses every norm in
the ratio to one-dimensional quadratures against a rho-independent
dispersion profile

    h(u) = (2 pi)^{-n/2} || P(u, .) ||_{L^{r'}},
    P(u, y) = int_{|w|<1} e^{i y.w + i u |w|^2} dw,

so the sweep reaches rho = 1024 without ever materializing a lattice that
covers frequencies of size 3 rho.  The full grid assembly, a cross-check
at small rho, is a test oracle in tests/oracles.py.  Three families are
provided:

* ``shifted``: the drifted family (frequency ball centered at 2 rho e_n,
  g rescaled by rho) whose Bourgain norm reduces to the shifted weight
  |sigma + i rho|^{1/2} and is exactly rho-independent;
* ``unscaled``: the centered family (no drift, g fixed), measured against
  the inhomogeneous weight <Re p>^{1/2};
* ``control``: a Gaussian trace in place of the log log one, for which
  the ratio stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
import functools
import logging
import math

import numpy as np

from .grid import Field
from .multipliers import plan_S, plan_S_nu
from .reports import EstimateReport

logger = logging.getLogger(__name__)

# traces are sampled at 2^15 points on (-1/2, 1/2); the log log cutoff chi
# runs from 1 inside 1/(2e) to 0 beyond 1/e, and the control bump has width 0.3
_TRACE_POINTS = 1 << 15
_HALF_WIDTH = 0.5
_INNER = 1.0 / (2.0 * math.e)
_OUTER = 1.0 / math.e
_CONTROL_WIDTH = 0.3

__all__ = [
    "LogLogTrace",
    "RhoFamilyMember",
    "build_loglog_trace",
    "build_gaussian_trace",
    "DispersionProfile",
    "build_dispersion_profile",
    "family_speed",
    "bourgain_norm",
    "embedding_ratio_sweep",
]


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 at x <= 0 to 0 at x >= 1."""
    def psi(y):
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.exp(-1.0 / y[pos])
        return out

    x = np.clip(x, 0.0, 1.0)
    a = psi(1.0 - x)
    b = psi(x)
    return a / (a + b)


@dataclass
class LogLogTrace:
    """Sampled singular trace g with its H^{1/2} bookkeeping.

    g is the restriction of the planar function chi(z) log log (1/|z|)
    to the line (t, 0); the smooth cutoff chi is 1 inside radius
    1/(2e) and vanishes beyond 1/e.
    """

    t: np.ndarray
    g: np.ndarray
    dt: float
    h_half_norm: float
    params: dict = dc_field(default_factory=dict)
    evaluate: object = None  # analytic g(t), used by scale-bridging quadratures


def _h_half_norm(g: np.ndarray, dt: float) -> float:
    """Inhomogeneous H^{1/2} norm via the lattice Fourier transform."""
    n = g.size
    ghat = np.fft.fft(g) * dt / np.sqrt(2.0 * np.pi)
    sigma = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    weight = np.sqrt(1.0 + sigma**2)
    return float(np.sqrt((weight * np.abs(ghat) ** 2).sum() * (sigma[1] - sigma[0])))


def _sampled_trace(evaluate, **params) -> LogLogTrace:
    """Sample ``evaluate`` on (-1/2, 1/2), offset by half a cell."""
    dt = 2.0 * _HALF_WIDTH / _TRACE_POINTS
    t = -_HALF_WIDTH + dt * (np.arange(_TRACE_POINTS) + 0.5)
    g = evaluate(t)
    return LogLogTrace(
        t=t, g=g, dt=dt, h_half_norm=_h_half_norm(g, dt),
        params={"points": _TRACE_POINTS, "half_width": _HALF_WIDTH, **params},
        evaluate=evaluate,
    )


def build_loglog_trace() -> LogLogTrace:
    """Sample g(t) = chi(t) log log (1/|t|) on an offset lattice.

    The lattice is offset by half a cell so t = 0 (where g diverges) is
    never sampled; the cutoff radii are 1/(2e) and 1/e.
    """
    def evaluate(tt):
        tt = np.asarray(tt, dtype=float)
        r = np.abs(tt)
        out = np.zeros_like(r)
        core = (r > 0.0) & (r < _OUTER)
        out[core] = np.log(np.log(1.0 / r[core]))
        chi = np.ones_like(r)
        band = (r > _INNER) & (r < _OUTER)
        chi[band] = _smooth_step((r[band] - _INNER) / (_OUTER - _INNER))
        chi[r >= _OUTER] = 0.0
        return out * chi

    return _sampled_trace(evaluate, inner=_INNER, outer=_OUTER, kind="loglog")


def build_gaussian_trace() -> LogLogTrace:
    """Smooth control trace: a Gaussian bump of comparable support."""
    def evaluate(tt):
        tt = np.asarray(tt, dtype=float)
        return np.exp(-(tt**2) / (2.0 * _CONTROL_WIDTH**2))

    return _sampled_trace(evaluate, width=_CONTROL_WIDTH, kind="gaussian")


# ---------------------------------------------------------------------------
# J_0
# ---------------------------------------------------------------------------

# Least-squares fits at 4000 Chebyshev points against scipy.special.j0 and
# y0 (scipy 1.17.1); they agree with j0 to 2.0e-15 on [0, 1000].  For
# |x| <= 8, J_0 was fitted as a 16-term Chebyshev series in
# z = 2 (x/8)^2 - 1 and is kept as powers of z: the coefficients sum to
# 4.2 in absolute value, and Horner's rule takes under half the time of
# Clenshaw's recurrence.  Beyond 8 it is the Hankel form
# P cos chi - Q sin chi, chi = x - pi/4, written with one cosine as
#     J_0(x) = sqrt(2 / (pi x)) M(w) cos(chi + (8/x) F(w)),  w = (8/x)^2,
# where M = sqrt(P^2 + Q^2) and F = (x/8) atan2(Q, P), with P and Q taken
# from j0 and y0 on (8, 8000].  M and F were fitted as 10-term Chebyshev
# series in 2w - 1 and are kept as powers of w: their coefficients sum to
# 1.001 and 0.016 in absolute value, so Horner's rule loses nothing.  The
# cosine is most of the cost, and this form needs no sine.
_J0_NEAR = np.array([
    0.04582966485981391, 0.9303012472958568, -0.6484692830871973, -0.8080888076696794,
    1.0383794611439185, -0.5074680458472094, 0.14598884856650643, -0.028472718610191922,
    0.0040580789918871025, -0.00044354592454830494, 3.847319458575153e-05,
    -2.717745901740765e-06, 1.5956245342598233e-07, -7.917887201711689e-09,
    3.368086398933042e-10, -1.1661609441983458e-11])
_J0_MODULUS = np.array([
    0.9999999999999994, -0.000976562499845243, 2.5272363889104438e-05,
    -2.0707200135156385e-06, 3.4807005805828356e-07, -9.725968457328921e-08,
    3.6913351417978715e-08, -1.4492678327698199e-08, 4.321771805977848e-09,
    -6.52027889085673e-10])
_J0_PHASE = np.array([
    -0.015624999999999143, 0.00012715657536217515, -6.3955730278784374e-06,
    7.810182281090664e-07, -1.7438988954660718e-07, 6.017326501598604e-08,
    -2.636839631566523e-08, 1.1264803542433664e-08, -3.5165805478457e-09,
    5.440591523365271e-10])
# 32 rows of the 480-node table keep every temporary inside the L2 cache
_J0_BLOCK_ROWS = 32


def _j0_near(x: np.ndarray) -> np.ndarray:
    """J_0(x) for |x| <= 8, by Horner's rule in z = 2 (x/8)^2 - 1."""
    z = x * x
    z *= 1.0 / 32.0
    z -= 1.0
    out = np.full_like(z, _J0_NEAR[-1])
    for c in _J0_NEAR[-2::-1]:
        out *= z
        out += c
    return out


def _j0_far(x: np.ndarray) -> np.ndarray:
    """J_0(x) for x > 8, from the modulus and phase in powers of w = (8/x)^2."""
    inv = 8.0 / x
    w = inv * inv
    modulus, phase = np.full_like(w, _J0_MODULUS[-1]), np.full_like(w, _J0_PHASE[-1])
    for m, f in zip(_J0_MODULUS[-2::-1], _J0_PHASE[-2::-1]):
        modulus *= w
        modulus += m
        phase *= w
        phase += f
    phase *= inv
    phase += x - np.pi / 4.0
    return np.sqrt(inv / (4.0 * np.pi)) * modulus * np.cos(phase)


def _j0(x) -> np.ndarray:
    """J_0(x) for a 1-D or 2-D x, evaluated 32 rows at a time.

    In each block, the columns up to the last that holds an |x| <= 8 take
    the near series and the columns from the first that holds an |x| > 8
    the far one, each with |x| clamped to its side of 8; the columns in
    both ranges pick entry by entry.  When each row ascends in |x|, as in
    outer(y, r) with r ascending, a few columns are evaluated twice.
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    out = np.empty(rows.shape)
    for i in range(0, rows.shape[0], _J0_BLOCK_ROWS):
        block, dest = np.abs(rows[i:i + _J0_BLOCK_ROWS]), out[i:i + _J0_BLOCK_ROWS]
        far = block > 8.0
        far_cols, near_cols = np.flatnonzero(far.any(axis=0)), np.flatnonzero(~far.all(axis=0))
        lo = far_cols[0] if far_cols.size else block.shape[1]
        hi = near_cols[-1] + 1 if near_cols.size else 0
        near_vals = _j0_near(np.minimum(block[:, :hi], 8.0))
        far_vals = _j0_far(np.maximum(block[:, lo:], 8.0))
        dest[:, :lo] = near_vals[:, :lo]
        dest[:, hi:] = far_vals[:, hi - lo:]
        dest[:, lo:hi] = np.where(far[:, lo:hi], far_vals[:, :hi - lo], near_vals[:, lo:])
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# dispersion profile h(u)
# ---------------------------------------------------------------------------


@functools.cache
def _radial_rule() -> tuple[np.ndarray, np.ndarray]:
    """480 Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(480)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for a in rule:
        a.flags.writeable = False  # shared by every caller
    return rule


@dataclass
class DispersionProfile:
    """Tabulated h(u) with a fitted dispersive tail beyond the table.

    ``h(u) ~ c |u|^{-n(1/2 - 1/r')}`` for large |u|; the constant is fit
    at the switch point.  Only (n, r') = (2, 4) is tabulated here, which
    is the pair every divergence sweep uses.
    """

    u: np.ndarray
    values: np.ndarray
    tail_exponent: float
    tail_constant: float

    def __call__(self, u) -> np.ndarray:
        a = np.abs(np.asarray(u, dtype=float))
        out = np.empty_like(a)
        inside = a <= self.u[-1]
        out[inside] = np.interp(a[inside], self.u, self.values)
        out[~inside] = self.tail_constant * a[~inside] ** (-self.tail_exponent)
        return out


def _ball_profiles(u_grid: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """P(u, y) = 2 pi sum_k J_0(y r_k) e^{i u r_k^2} r_k w_k for each u of ``u_grid``.

    Each u takes y = 0.1, 0.3, ... below 2u + 40.  arange's i-th value
    depends only on i, so each of these axes is a prefix of the longest,
    which is returned with one P row per u.  J_0(y r) is evaluated once for
    every u, ``_J0_BLOCK_ROWS`` rows of y at a time: each block is cast to
    complex once and multiplied into the weights of every u that reaches
    it, so neither the whole table nor a complex copy of it exists.  Each
    P value is the dot product of one GEMV per u over its whole table, bit
    for bit, as long as no product has a single row: a one-row product
    rounds differently.  So a last y row left alone joins the block before
    it, and a u that ends one row into a block takes a second row and
    drops it.  One GEMM over all u would round differently as well.
    """
    r, w = _radial_rule()
    y = np.arange(0.0, 2.0 * u_grid[-1] + 40.0, 0.2) + 0.1
    weights = [np.exp(1j * s * r**2) * r * w for s in u_grid]
    rows = [np.empty(np.arange(0.0, 2.0 * s + 40.0, 0.2).size, dtype=np.complex128)
            for s in u_grid]
    edges = list(range(0, y.size, _J0_BLOCK_ROWS)) + [y.size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = _j0(np.outer(y[lo:hi], r)).astype(np.complex128)
        for p, wk in zip(rows, weights):
            take = min(hi, p.size) - lo
            if take > 0:
                p[lo:lo + take] = (block[:max(take, 2)] @ wk)[:take]
    for p in rows:
        p *= 2.0 * np.pi
    return y, rows


def build_dispersion_profile() -> DispersionProfile:
    """Tabulate h(u) for (n, r') = (2, 4) by radial quadrature of the evolved ball packet.

    The table has 70 samples on [0, 80]; beyond u = 80 the tail
    c |u|^{-1/2} takes over (exponent n (1/2 - 1/r') = 1/2).  Each sample
    sums |P(u, y)|^4 y over its own y axis (:func:`_ball_profiles`); any
    other summation moves the last digit of the counterexample reports.
    """
    u_grid = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 69)])
    y, rows = _ball_profiles(u_grid)
    vals = np.empty_like(u_grid)
    for k, p in enumerate(rows):
        integral = ((np.abs(p) ** 4) * y[:p.size]).sum() * 0.2 * 2.0 * np.pi
        vals[k] = (2.0 * np.pi) ** -1.0 * integral**0.25
    exponent = 0.5
    c = vals[-1] * u_grid[-1] ** exponent
    return DispersionProfile(u_grid, vals, exponent, c)


# ---------------------------------------------------------------------------
# the rho family
# ---------------------------------------------------------------------------


def family_speed(rho: float, family: str) -> float:
    """The scale of the profile argument of member rho: rho, or rho^2 for ``unscaled``.

    Raises ValueError unless ``family`` is known, rho > 0 and the speed
    is finite.
    """
    if family not in ("shifted", "unscaled", "control"):
        raise ValueError(f"unknown family {family!r}")
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    try:
        speed = rho**2 if family == "unscaled" else rho
    except OverflowError:  # rho^2 beyond the largest float
        speed = math.inf
    if not math.isfinite(speed):
        raise ValueError(f"rho = {rho} gives the {family} family a speed of {speed}")
    return speed


@dataclass
class RhoFamilyMember:
    """Semi-analytic member in n = 2: norms reduce to quadratures over the trace."""

    rho: float
    family: str  # "shifted" | "unscaled" | "control"
    trace: LogLogTrace

    @property
    def f_norm(self) -> float:
        """||f_rho||_2 = ||1_{<1}||_2 = sqrt(pi) in R^2, exactly rho-independent."""
        return math.sqrt(math.pi)

    def mixed_norm(self, profile: DispersionProfile) -> float:
        """|| u_rho ||_{L^4 L^4} via the factorized 1-D quadrature.

        shifted/control families: integral |g(t)|^4 h(rho t)^4 rho dt;
        unscaled family: |g(t)|^4 h(rho^2 t)^4 rho^2 dt.  The spatial
        scaling rho^{n/2 - n/r'} cancels against the time substitution
        for the admissible pair, leaving the bare quadrature.  The
        integrand bridges the scales 1/rho^2 (dispersion transition) and
        1 (trace support), so it is integrated on a log-spaced grid with
        the analytic trace evaluator rather than the fixed lattice.
        """
        tr = self.trace
        speed = family_speed(self.rho, self.family)
        # even integrand: 2 int_0^tmax g(t)^4 h(speed t)^4 speed dt
        tmax = float(np.abs(tr.t).max()) + tr.dt
        t = np.geomspace(1e-12, tmax, 4000)
        gt = tr.evaluate(t)
        weight = profile(speed * t) ** 4
        integrand = gt**4 * weight * speed
        integral = 2.0 * np.trapezoid(integrand, t)
        # the log-spaced grid starts above 0 and misses the sliver below
        # 1e-12, where g^4 h(speed t)^4 speed is largest.  That is
        # negligible while speed * 1e-12 is small, but not for the
        # unscaled family at large rho: at rho = 1e6 (speed 1e12) the norm
        # is 10.7% low, and 0.12% low at rho = 1e5
        return float(integral**0.25)

    def bourgain_norm(self) -> float:
        """The weighted frequency norm, exactly rho-independent.

        The shifted family against |sigma + i rho|^{1/2} and the unscaled
        or control family against <sigma>^{1/2} both collapse to
        ||g||_{H^{1/2}} ||f_rho||_2: substituting sigma = rho s turns
        |rho s + i rho| |ghat_rho|^2 dsigma into |s + i| |ghat|^2 ds, and
        |s + i| = <s>.
        """
        return float(self.trace.h_half_norm * self.f_norm)


# ---------------------------------------------------------------------------
# weighted frequency norms on the lattice
# ---------------------------------------------------------------------------


def bourgain_norm(
    u: Field,
    weight: str = "homogeneous",
    nu: float | None = None,
    rho: float | None = None,
) -> float:
    """Weighted L^2 norm of the space-time Fourier transform.

    weights: ``homogeneous`` |p_nu|^{1/2} (needs nu); ``shifted``
    |Re p + i rho|^{1/2} (needs rho); ``inhomogeneous`` <Re p>^{1/2}.
    Coefficients and symbols come from the multiplier plans, on the
    lattice offset by half a bin in tau.
    """
    spec = u.spec
    if weight == "homogeneous":
        if nu is None:
            raise ValueError("homogeneous weight needs nu")
        plan = plan_S_nu(spec, nu)
        w = np.abs(plan.symbol) ** 0.5
    else:
        plan = plan_S(spec, offset_xin=False, offset_tau=True)
        re_p = plan.symbol.real
        if weight == "shifted":
            if rho is None:
                raise ValueError("shifted weight needs rho")
            w = np.abs(re_p + 1j * rho) ** 0.5
        elif weight == "inhomogeneous":
            w = (1.0 + re_p**2) ** 0.25
        else:
            raise ValueError(f"unknown weight {weight!r}")
    coeffs = plan.to_freq(u)
    scale = np.sqrt(spec.cell_volume)
    return float(np.sqrt((np.abs(w * coeffs) ** 2).sum()) * scale)


# note: Re p here follows the lattice transform convention, where the
# normalized symbol's real part is tau - |xi|^2 up to the sign fixed by
# the forward transform; |Re p| is all the weights use.


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def embedding_ratio_sweep(
    rho_list,
    family: str,
    trace: LogLogTrace,
    profile: DispersionProfile,
) -> EstimateReport:
    """ratio(rho) = mixed norm / Bourgain norm over the rho family, on its trace and profile."""
    report = EstimateReport(
        estimate="embedding_ratio",
        grid={"semi_analytic": True, "n": 2},
        params={"rho_values": list(map(float, rho_list)), "family": family,
                "trace": dict(trace.params)},
    )
    for rho in rho_list:
        member = RhoFamilyMember(float(rho), family, trace)
        mixed = member.mixed_norm(profile)
        bourg = member.bourgain_norm()
        report.samples.append(
            {
                "rho": float(rho),
                "mixed_norm": mixed,
                "bourgain_norm": bourg,
                "ratio": mixed / bourg,
                "seed": 0,
            }
        )
    logger.info("embedding sweep (%s): %d members", family, len(report.samples))
    return report
