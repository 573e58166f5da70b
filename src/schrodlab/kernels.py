"""The one-dimensional resolvent kernel behind the multiplier estimates.

``K_sigma(x) = (1/2pi) int e^{-i x eta} / (sigma - eta^2 + i eta) d eta``
is evaluated two ways: a four-case closed form (resonant sin branch for
sigma > 1/4, sinh branch for 0 < sigma < 1/4, one-sided exponentials for
sigma < 0) and an independent adaptive oscillatory quadrature.

The sign convention follows the residue evaluation that produces the
closed form (phase ``e^{-i x eta}``); see the tests for the
quadrature/closed-form agreement this convention guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import integrate

__all__ = [
    "KernelSample",
    "eval_K_sigma",
    "eval_K_sigma_quadrature",
    "kernel_table",
]

# absolute tolerance of the oscillatory quadrature
_TOL = 1e-9


@dataclass(frozen=True)
class KernelSample:
    """One kernel evaluation with provenance."""

    parameter: tuple
    argument: float
    value: complex
    method: str  # "closed_form" | "quadrature"


# ---------------------------------------------------------------------------
# K_sigma: closed form
# ---------------------------------------------------------------------------


def _k_sigma(sigma: float, x: float) -> float:
    m = math.sqrt(abs(4.0 * sigma - 1.0)) if sigma != 0.25 else 0.0
    if sigma == 0.25:
        # second-order zero; continuity limit of the sin/sinh branches
        if x < 0.0:
            return -x * math.exp(x / 2.0)
        return 0.0
    if sigma > 0.25:
        if x < 0.0:
            return -2.0 * math.exp(x / 2.0) * math.sin(m * x / 2.0) / m
        return 0.0
    if sigma > 0.0:
        if x < 0.0:
            return -2.0 * math.exp(x / 2.0) * math.sinh(m * x / 2.0) / m
        return 0.0
    # sigma < 0: one pole on each side of the real axis; both branches come
    # out negative from the residue evaluation.
    if x < 0.0:
        return -math.exp((1.0 + m) * x / 2.0) / m
    return -math.exp(-(m - 1.0) * x / 2.0) / m


def eval_K_sigma(sigma: float, x: float) -> KernelSample:
    """Closed-form K_sigma; sigma = 0 is rejected, sigma = 1/4 by limit."""
    if sigma == 0.0:
        raise ValueError("K_sigma is undefined at sigma = 0")
    return KernelSample((sigma,), x, complex(_k_sigma(float(sigma), float(x))), "closed_form")


def eval_K_sigma_quadrature(sigma: float, x: float) -> KernelSample:
    """Adaptive oscillatory quadrature of the defining integral.

    Exploits the conjugate symmetry of the integrand to reduce to two real
    semi-infinite integrals with cos/sin weights (QUADPACK QAWF), each to
    an absolute tolerance of 1e-9.
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
        val, _ = integrate.quad(re_g, 0.0, np.inf, epsabs=_TOL, limit=400)
        return KernelSample((sigma,), x, complex(val / math.pi), "quadrature")

    w = abs(x)
    sgn = 1.0 if x > 0 else -1.0
    vc, ec = integrate.quad(re_g, 0.0, np.inf, weight="cos", wvar=w, epsabs=_TOL, limit=400)
    vs, es = integrate.quad(im_g, 0.0, np.inf, weight="sin", wvar=w, epsabs=_TOL, limit=400)
    # K(x) = (1/pi) int_0^inf [cos(x eta) Re G + sin(x eta) Im G] d eta
    val = (vc + sgn * vs) / math.pi
    err = (ec + es) / math.pi
    if err > 100.0 * _TOL:
        raise RuntimeError(f"oscillatory quadrature did not converge: err={err:.2e}")
    return KernelSample((sigma,), x, complex(val), "quadrature")


# ---------------------------------------------------------------------------
# table export
# ---------------------------------------------------------------------------


def kernel_table(sigmas, xs) -> list[KernelSample]:
    """Evaluate K_sigma over a (sigma, x) grid for the CSV export.

    Each point contributes two consecutive samples: the closed form, then
    the quadrature.
    """
    out: list[KernelSample] = []
    for sigma in sigmas:
        for x in xs:
            out += [eval_K_sigma(sigma, x), eval_K_sigma_quadrature(sigma, x)]
    return out
