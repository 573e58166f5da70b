"""Failure of the endpoint Bourgain-space embedding, measured.

The divergent families factor as u_rho(t, x) = g_rho(t) * (free evolution
of f_rho)(x), where f_rho is a frequency-ball packet and g_rho a trace
with a log log singularity.  This factorization collapses every norm in
the ratio to one-dimensional quadratures against a rho-independent
dispersion profile

    h(u) = (2 pi)^{-n/2} || P(u, .) ||_{L^{r'}},
    P(u, y) = int_{|w|<1} e^{i y.w + i u |w|^2} dw,

so the sweep reaches rho = 1024 without ever materializing a lattice that
covers frequencies of size 3 rho.  The full grid assembly is exercised at
small rho as a cross-check.  Three families are provided:

* ``shifted``: the drifted family (frequency ball centered at 2 rho e_n,
  g rescaled by rho) whose Bourgain norm reduces to the shifted weight
  |sigma + i rho|^{1/2} and is exactly rho-independent;
* ``unscaled``: the centered family (no drift, g fixed), measured against
  the inhomogeneous weight <Re p>^{1/2};
* ``control``: a Gaussian trace in place of the log log one, for which
  the ratio stays flat.

The positive result measured here is the |nu|^{1/4} local-smoothing
embedding: the compensated local L^2 norm stays uniformly controlled by
the homogeneous Bourgain norm across the nu sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
import functools
import logging
import math
import time

import numpy as np
from scipy.special import j0

from .grid import Field, GridSpec
from .multipliers import plan_S, plan_S_nu
from .reports import EstimateReport
from .symbols import NuVector

logger = logging.getLogger(__name__)

# traces are sampled on (-1/2, 1/2); the log log cutoff chi runs from 1
# inside 1/(2e) to 0 beyond 1/e, and the control bump has width 0.3
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
    "build_u_rho",
    "bourgain_norm",
    "embedding_ratio_sweep",
    "local_smoothing_check",
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

    def lower_bound_check(self, delta: float) -> bool:
        """g >= log log (1/delta) on the sampled points of (-delta, delta)."""
        if not 0.0 < delta <= 1.0 / (2.0 * math.e):
            raise ValueError("delta must lie in (0, 1/(2e)]")
        mask = np.abs(self.t) < delta
        if not mask.any():
            raise ValueError("lattice does not resolve the requested delta")
        return bool((self.g[mask] >= math.log(math.log(1.0 / delta))).all())


def _h_half_norm(g: np.ndarray, dt: float) -> float:
    """Inhomogeneous H^{1/2} norm via the lattice Fourier transform."""
    n = g.size
    ghat = np.fft.fft(g) * dt / np.sqrt(2.0 * np.pi)
    sigma = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    weight = np.sqrt(1.0 + sigma**2)
    return float(np.sqrt((weight * np.abs(ghat) ** 2).sum() * (sigma[1] - sigma[0])))


def _sampled_trace(points: int, evaluate, **params) -> LogLogTrace:
    """Sample ``evaluate`` on (-1/2, 1/2), offset by half a cell."""
    dt = 2.0 * _HALF_WIDTH / points
    t = -_HALF_WIDTH + dt * (np.arange(points) + 0.5)
    g = evaluate(t)
    return LogLogTrace(
        t=t, g=g, dt=dt, h_half_norm=_h_half_norm(g, dt),
        params={"points": points, "half_width": _HALF_WIDTH, **params},
        evaluate=evaluate,
    )


def build_loglog_trace(points: int = 1 << 15) -> LogLogTrace:
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

    return _sampled_trace(points, evaluate, inner=_INNER, outer=_OUTER, kind="loglog")


def build_gaussian_trace(points: int = 1 << 15) -> LogLogTrace:
    """Smooth control trace: a Gaussian bump of comparable support."""
    def evaluate(tt):
        tt = np.asarray(tt, dtype=float)
        return np.exp(-(tt**2) / (2.0 * _CONTROL_WIDTH**2))

    return _sampled_trace(points, evaluate, width=_CONTROL_WIDTH, kind="gaussian")


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


def _radial_sum(s: float, bessel: np.ndarray) -> np.ndarray:
    """2 pi sum_k J_0(y r_k) e^{i s r_k^2} r_k w_k, given the rows J_0(y r_k)."""
    r, w = _radial_rule()
    return 2.0 * np.pi * (bessel @ (np.exp(1j * s * r**2) * r * w))


def _ball_profile(s: float, y: np.ndarray) -> np.ndarray:
    """P(s, y) = 2 pi int_0^1 J_0(y r) e^{i s r^2} r dr (n = 2, radial; 480 nodes)."""
    return _radial_sum(s, j0(np.outer(y, _radial_rule()[0])))


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


def build_dispersion_profile() -> DispersionProfile:
    """Tabulate h(u) for (n, r') = (2, 4) by radial quadrature of the evolved ball packet.

    The table has 70 samples on [0, 80]; beyond u = 80 the tail
    c |u|^{-1/2} takes over (exponent n (1/2 - 1/r') = 1/2).
    """
    u_grid = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 69)])
    # arange's i-th value depends only on i, so each u's y axis is a prefix
    # of the longest one, and J_0(y r) is evaluated once for every u.  One
    # GEMM over all u would round differently from the per-u GEMV and move
    # the last digit of the counterexample reports.
    bessel = j0(np.outer(np.arange(0.0, 2.0 * u_grid[-1] + 40.0, 0.2) + 0.1,
                         _radial_rule()[0]))
    vals = np.empty_like(u_grid)
    for k, s in enumerate(u_grid):
        y = np.arange(0.0, 2.0 * s + 40.0, 0.2) + 0.1
        p = _radial_sum(s, bessel[:y.size])
        integral = ((np.abs(p) ** 4) * y).sum() * 0.2 * 2.0 * np.pi
        vals[k] = (2.0 * np.pi) ** -1.0 * integral**0.25
    exponent = 0.5
    c = vals[-1] * u_grid[-1] ** exponent
    return DispersionProfile(u_grid, vals, exponent, c)


# ---------------------------------------------------------------------------
# the rho family
# ---------------------------------------------------------------------------


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
        if self.family in ("shifted", "control"):
            speed = self.rho
        elif self.family == "unscaled":
            speed = self.rho**2
        else:
            raise ValueError(f"unknown family {self.family!r}")
        # even integrand: 2 int_0^tmax g(t)^4 h(speed t)^4 speed dt
        tmax = float(np.abs(tr.t).max()) + tr.dt
        t = np.geomspace(1e-12, tmax, 4000)
        gt = tr.evaluate(t)
        weight = profile(speed * t) ** 4
        integrand = gt**4 * weight * speed
        integral = 2.0 * np.trapezoid(integrand, t)
        # the log-spaced grid starts above 0; the missed sliver carries
        # g^4 h(0)^4 speed * 2e-12 at most, negligible for every family
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

    def pointwise_floor(self) -> float:
        """Fitted constant c in |u_rho| >= c rho^{n/2} log log (18 rho).

        Samples the factorized field on the concentration window
        |x| <= 1/(6 rho), |t| <= 1/(18 rho^2).
        """
        rho = self.rho
        lower = math.log(math.log(18.0 * rho))
        worst = math.inf
        for tt in np.linspace(-1.0 / (18.0 * rho**2), 1.0 / (18.0 * rho**2), 5):
            g_here = np.interp(rho * tt, self.trace.t, self.trace.g)
            xs = np.linspace(0.0, 1.0 / (6.0 * rho), 4)
            # |y| = |rho x + 4 rho^2 t e_n| <= rho |x| + 4 rho^2 |t|
            ys = rho * xs + 4.0 * rho**2 * abs(tt)
            p = np.abs(_ball_profile(rho**2 * tt, ys))
            amp = g_here * (2.0 * np.pi) ** -1.0 * p.min()
            worst = min(worst, amp / lower)
        return float(worst)


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
    return Field(spec, "frequency", uhat.astype(complex))


# ---------------------------------------------------------------------------
# weighted frequency norms on the lattice
# ---------------------------------------------------------------------------


def bourgain_norm(
    u: Field,
    weight: str = "homogeneous",
    nu: NuVector | None = None,
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
    family: str = "shifted",
    trace: LogLogTrace | None = None,
    profile: DispersionProfile | None = None,
) -> EstimateReport:
    """ratio(rho) = mixed norm / Bourgain norm over the rho family."""
    t0 = time.time()
    if trace is None:
        trace = build_gaussian_trace() if family == "control" else build_loglog_trace()
    if profile is None:
        profile = build_dispersion_profile()
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
    report.runtime = time.time() - t0
    logger.info("embedding sweep (%s): %d members (%.2fs)",
                family, len(report.samples), report.runtime)
    return report


def local_smoothing_check(
    fields,
    nu_list,
    T: float,
    R: float,
) -> EstimateReport:
    """Compensated local-smoothing ratio over a nu sweep.

    ratio = |nu|^{1/4} ||u||_{L^2((0,T) x B_R)} /
            (T^{1/4} R^{1/4} ||u||_{X^{1/2}_nu});
    the verdict of interest is the bounded spread across nu.
    """
    t0 = time.time()
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
        grid=spec.as_dict(),
        params={"nu_values": list(map(float, nu_list)), "T": T, "R": R},
    )
    for mag in nu_list:
        nu = NuVector.along_last_axis(mag, spec.n)
        comp = float(mag) ** 0.25 / (T**0.25 * R**0.25)
        for k, u in enumerate(fields):
            local = np.sqrt((np.abs(u.data[mask]) ** 2).sum() * spec.cell_volume)
            denom = bourgain_norm(u, "homogeneous", nu=nu)
            report.samples.append(
                {"nu": float(mag), "field": k, "ratio": comp * local / denom, "seed": 0}
            )
    report.runtime = time.time() - t0
    logger.info("local smoothing sweep: %d samples (%.2fs)",
                len(report.samples), report.runtime)
    return report
