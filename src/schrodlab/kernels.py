"""One-dimensional kernels behind the multiplier estimates.

Three families of oscillatory integrals are evaluated here:

* ``K_sigma(x) = (1/2pi) int e^{-i x eta} / (sigma - eta^2 + i eta) d eta``
  with a four-case closed form (resonant sin branch for sigma > 1/4, sinh
  branch for 0 < sigma < 1/4, one-sided exponentials for sigma < 0) and an
  independent adaptive oscillatory quadrature.
* ``K_s(y) = int e^{i y eta} e^{i s eta^2} 1_{(-inf,0)}(s eta) e^{s eta}
  d eta`` and its two-time variant ``K_(s,t)``.
* the truncated oscillatory tail ``int_{-inf}^{y} e^{i xi^2 / s} e^{xi}
  d xi``.

The sign convention for K_sigma follows the residue evaluation that
produces the closed form (phase ``e^{-i x eta}``); see the tests for the
quadrature/closed-form agreement this convention guarantees.

The quadratic-phase integrals are reduced to the stable primitive
``int_0^inf e^{i a m^2 + c m} dm`` expressed through the Faddeeva function
(a Filon-type evaluation with the smooth factor handled exactly), which is
accurate uniformly in the phase speed; adaptive quadrature cross-checks
live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import integrate
from scipy.special import wofz

__all__ = [
    "KernelSample",
    "eval_K_sigma",
    "eval_K_sigma_quadrature",
    "eval_K_s",
    "oscillatory_tail",
    "eval_K_st",
    "quadratic_phase_integral",
    "kernel_table",
]


@dataclass(frozen=True)
class KernelSample:
    """One kernel evaluation with provenance."""

    parameter: tuple
    argument: float
    value: complex
    method: str  # "closed_form" | "quadrature"
    case: str | None = None
    err_est: float = 0.0


# ---------------------------------------------------------------------------
# K_sigma: closed form
# ---------------------------------------------------------------------------


def _k_sigma_case(sigma: float, x: float) -> tuple[float, str]:
    m = math.sqrt(abs(4.0 * sigma - 1.0)) if sigma != 0.25 else 0.0
    if sigma == 0.25:
        # second-order zero; continuity limit of the sin/sinh branches
        if x < 0.0:
            return -x * math.exp(x / 2.0), "limit_quarter"
        return 0.0, "limit_quarter"
    if sigma > 0.25:
        if x < 0.0:
            return -2.0 * math.exp(x / 2.0) * math.sin(m * x / 2.0) / m, "sin"
        return 0.0, "sin_vanishing"
    if sigma > 0.0:
        if x < 0.0:
            return -2.0 * math.exp(x / 2.0) * math.sinh(m * x / 2.0) / m, "sinh"
        return 0.0, "sinh_vanishing"
    # sigma < 0: one pole on each side of the real axis; both branches come
    # out negative from the residue evaluation.
    if x < 0.0:
        return -math.exp((1.0 + m) * x / 2.0) / m, "neg_left"
    return -math.exp(-(m - 1.0) * x / 2.0) / m, "neg_right"


def eval_K_sigma(sigma: float, x: float) -> KernelSample:
    """Closed-form K_sigma; sigma = 0 is rejected, sigma = 1/4 by limit."""
    if sigma == 0.0:
        raise ValueError("K_sigma is undefined at sigma = 0")
    value, case = _k_sigma_case(float(sigma), float(x))
    return KernelSample((sigma,), x, complex(value), "closed_form", case)


def eval_K_sigma_quadrature(sigma: float, x: float, tol: float = 1e-9) -> KernelSample:
    """Adaptive oscillatory quadrature of the defining integral.

    Exploits the conjugate symmetry of the integrand to reduce to two real
    semi-infinite integrals with cos/sin weights (QUADPACK QAWF).
    """
    if sigma == 0.0:
        raise ValueError("K_sigma is undefined at sigma = 0")
    sigma = float(sigma)
    x = float(x)

    def re_g(eta):
        d = (sigma - eta**2) ** 2 + eta**2
        return (sigma - eta**2) / d

    def im_g(eta):
        d = (sigma - eta**2) ** 2 + eta**2
        return -eta / d

    if x == 0.0:
        val, err = integrate.quad(re_g, 0.0, np.inf, epsabs=tol, limit=400)
        return KernelSample((sigma,), x, complex(val / math.pi), "quadrature", None, err / math.pi)

    w = abs(x)
    sgn = 1.0 if x > 0 else -1.0
    vc, ec = integrate.quad(re_g, 0.0, np.inf, weight="cos", wvar=w, epsabs=tol, limit=400)
    vs, es = integrate.quad(im_g, 0.0, np.inf, weight="sin", wvar=w, epsabs=tol, limit=400)
    # K(x) = (1/pi) int_0^inf [cos(x eta) Re G + sin(x eta) Im G] d eta
    val = (vc + sgn * vs) / math.pi
    err = (ec + es) / math.pi
    if err > max(tol * 100.0, 1e-7):
        raise RuntimeError(f"oscillatory quadrature did not converge: err={err:.2e}")
    return KernelSample((sigma,), x, complex(val), "quadrature", None, err)


# ---------------------------------------------------------------------------
# quadratic-phase primitive
# ---------------------------------------------------------------------------


def quadratic_phase_integral(a: float, c: complex) -> complex:
    """``int_0^inf exp(i a m^2 + c m) dm`` for real a, Re(c) <= 0.

    For a = 0 this is the one-sided exponential -1/c.  Otherwise the value
    is ``(1/2) sqrt(pi/alpha) w(i beta / (2 sqrt(alpha)))`` with
    ``alpha = -i a``, ``beta = -c`` and ``w`` the Faddeeva function, which
    is numerically stable for every phase speed.
    """
    c = complex(c)
    if c.real > 1e-14:
        raise ValueError("quadratic_phase_integral requires Re(c) <= 0")
    if a == 0.0:
        if c == 0:
            raise ValueError("divergent integral: a = 0 and c = 0")
        return -1.0 / c
    alpha = -1j * a
    beta = -c
    root = np.sqrt(alpha)  # principal branch; Re(root) > 0
    return 0.5 * np.sqrt(np.pi) / root * wofz(1j * beta / (2.0 * root))


# ---------------------------------------------------------------------------
# K_s, K_(s,t), oscillatory tail
# ---------------------------------------------------------------------------


def eval_K_s(s: float, y: float) -> KernelSample:
    """``K_s(y) = int e^{i y eta + i s eta^2} 1(s eta < 0) e^{s eta} d eta``."""
    s = float(s)
    y = float(y)
    if s == 0.0:
        raise ValueError("K_s is undefined at s = 0")
    if s > 0.0:
        # eta < 0; substitute eta = -m
        val = quadratic_phase_integral(s, complex(-s, -y))
    else:
        # eta > 0
        val = quadratic_phase_integral(s, complex(s, y))
    err = 1e-13 * (1.0 + abs(val))
    return KernelSample((s,), y, complex(val), "quadrature", None, err)


def eval_K_st(s: float, t: float, y: float) -> KernelSample:
    """Two-time kernel with phase (s - t) eta^2 and decay (s + t) eta.

    Requires s t > 0 (the operator pairing uses same-sign times); s = -t is
    rejected since the damping indicator degenerates.
    """
    s = float(s)
    t = float(t)
    y = float(y)
    if s * t <= 0.0:
        raise ValueError("K_(s,t) requires s t > 0")
    if s + t == 0.0:
        raise ValueError("K_(s,t) is undefined at s = -t")
    a = s - t
    d = s + t
    if d > 0.0:
        val = quadratic_phase_integral(a, complex(-d, -y))
    else:
        val = quadratic_phase_integral(a, complex(d, y))
    err = 1e-13 * (1.0 + abs(val))
    return KernelSample((s, t), y, complex(val), "quadrature", None, err)


def oscillatory_tail(y: float, s: float) -> complex:
    """``int_{-inf}^{y} e^{i xi^2 / s} e^{xi} d xi`` for s != 0.

    Satisfies the uniform bound |value| <~ e^y |s|^{1/2}.
    """
    s = float(s)
    y = float(y)
    if s == 0.0:
        raise ValueError("oscillatory tail requires s != 0")
    # substitute xi = y - m, m in (0, inf)
    prefactor = np.exp(1j * y * y / s + y)
    val = quadratic_phase_integral(1.0 / s, complex(-1.0, -2.0 * y / s))
    return complex(prefactor * val)


# ---------------------------------------------------------------------------
# table export
# ---------------------------------------------------------------------------


def kernel_table(
    sigmas,
    xs,
    methods=("closed_form", "quadrature"),
    tol: float = 1e-9,
) -> list[KernelSample]:
    """Evaluate K_sigma over a (sigma, x) grid for the CSV export."""
    out: list[KernelSample] = []
    for sigma in sigmas:
        for x in xs:
            if "closed_form" in methods:
                out.append(eval_K_sigma(sigma, x))
            if "quadrature" in methods:
                out.append(eval_K_sigma_quadrature(sigma, x, tol))
    return out
