"""The one-dimensional resolvent kernel behind the multiplier estimates.

``K_sigma(x) = (1/2pi) int e^{-i x eta} / (sigma - eta^2 + i eta) d eta``
is evaluated two ways: a four-case closed form (resonant sin branch for
sigma > 1/4, sinh branch for 0 < sigma < 1/4, one-sided exponentials for
sigma < 0) and an independent quadrature of the defining integral, one
numpy pass over every x of a sigma.

The quadrature uses the integrand alone: Gauss-Legendre panels up to a
point past its poles, panels in s = a / eta beyond it while |x| eta stays
small, and the double-exponential formula for Fourier integrals (Ooura &
Mori, J. Comput. Appl. Math. 112, 1999) on the oscillatory tail.  Two
refinement levels give every value an a-posteriori error estimate.

The sign convention follows the residue evaluation that produces the
closed form (phase ``e^{-i x eta}``); see the tests for the
quadrature/closed-form agreement this convention guarantees.
"""

from __future__ import annotations

import math

import numpy as np

from .reports import NoConvergence

__all__ = [
    "eval_K_sigma",
    "eval_K_sigma_quadrature",
]

# absolute tolerance of the quadrature: an error estimate above 100 * _TOL raises
_TOL = 1e-9
# the 16-point Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# (parts per panel, tail step) of the two levels: the value, then its check
_LEVELS = ((2, 0.1), (1, 0.2))
# largest |x| times the width of an uncut head panel
_PANEL_PHASE = 10.0
# s-panels [2^-k, 2^(1-k)] for k <= _S_LEVELS, then one down to s = 0
_S_LEVELS = 53
# terms in one e^{-i x eta} block of _fourier_sum (see there for its rows).
# The eight quadratures of configs/kernel_table.yaml (200 x, up to 1152
# terms a row): median of 30 alternating rounds on a shared 2-vCPU host,
# and the tracemalloc peak of one round; every chunk gives the same bits:
#   chunk       2^15   2^16   2^17   2^20
#   ms          64.9   65.2   72.3   70.9
#   peak KiB    1055   2090   4134   5646
# Times are flat within the host's noise, and 2^15 keeps a block at
# 512 KiB; below it the rest of the quadrature sets the peak (992 KiB at 2^14).
_CHUNK = 1 << 15


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
            if x < -1400.0:  # e^{x/2} underflows and sinh may overflow; the product does neither
                return -math.expm1(m * x) * math.exp(x * (1.0 - m) / 2.0) / m
            return -2.0 * math.exp(x / 2.0) * math.sinh(m * x / 2.0) / m
        return 0.0
    # sigma < 0: one pole on each side of the real axis; both branches come
    # out negative from the residue evaluation.
    if x < 0.0:
        return -math.exp((1.0 + m) * x / 2.0) / m
    return -math.exp(-(m - 1.0) * x / 2.0) / m


def eval_K_sigma(sigma: float, x: float) -> float:
    """Closed-form K_sigma; sigma = 0 is rejected, sigma = 1/4 by limit."""
    if sigma == 0.0:
        raise ValueError("K_sigma is undefined at sigma = 0")
    return _k_sigma(float(sigma), float(x))


def eval_K_sigma_quadrature(sigma: float, xs) -> np.ndarray:
    """K_sigma at each x of the 1-D ``xs``, by quadrature of the defining integral.

    The integrand G is conjugate-symmetric, so K(x) is
    (1/pi) Re int_0^inf e^{-i x eta} G(eta) d eta.  It is computed on two
    levels (see ``_level``): the value has panels cut in two and tail step
    0.1, the check uncut panels and step 0.2.  Their difference is each
    value's error estimate; an estimate above 100 * _TOL anywhere raises
    NoConvergence.  Nothing of the closed form is used.
    """
    if sigma == 0.0:
        raise ValueError("K_sigma is undefined at sigma = 0")
    xs = np.asarray(xs, dtype=float)
    if not (math.isfinite(sigma) and np.isfinite(xs).all()):
        raise ValueError("the K_sigma quadrature needs a finite sigma and finite x")
    top = float(np.abs(xs).max())
    width = min(0.5, _PANEL_PHASE / top) if top else 0.5
    value, check = (_level(float(sigma), xs, width, parts, h) / math.pi for parts, h in _LEVELS)
    err = float(np.abs(value - check).max())
    if not err <= 100.0 * _TOL:
        raise NoConvergence(f"K_sigma quadrature did not converge: err={err:.2e}")
    return value


def _level(sigma: float, xs: np.ndarray, width: float, parts: int, h: float) -> np.ndarray:
    """pi K_sigma(x) for each x on one level of the quadrature.

    The half-line splits at a = 1 + 2 sqrt|sigma|, past the real parts of
    G's poles:

    * [0, a]: Gauss-Legendre panels with dyadic edges from below
      1e-4 min(|sigma|, 1) up to 1/2 (the peak of width ~sigma at eta = 0
      when sigma is small and positive), none wider than ``width``;
    * [a, A]: eta = a / s on the panels s in [2^-k, 2^(1-k)], out to the
      first A = a 2^k with |x| A >= 1, so that the tail starts where e^{-i x eta}
      turns over on G's own scale.  For x = 0, and for |x| a < 2^-53,
      they run down to s = 0 and there is no tail;
    * [A, inf): the Ooura-Mori cosine and sine rules in y = |x| (eta - A).

    Each panel is cut into ``parts``; ``h`` is the tail rules' step.
    """
    a = 1.0 + 2.0 * math.sqrt(abs(sigma))
    first = math.floor(math.log2(1e-4) + math.log2(min(abs(sigma), 1.0)))
    head = np.concatenate([[0.0], 2.0 ** np.arange(max(first, -1074), 0), [a]])
    eta, w = _gauss_legendre(_refine(head, width), parts)
    total = _fourier_sum(xs, eta, _integrand(sigma, eta) * w)
    om = np.abs(xs)
    with np.errstate(divide="ignore", over="ignore"):  # x = 0 takes every s-panel
        k = np.clip(np.ceil(np.log2(1.0 / (om * a))), 0, _S_LEVELS + 1)
    for depth in sorted(set(k[k > 0].tolist())):  # np.unique would import numpy.ma
        edges = 2.0 ** -np.arange(min(depth, _S_LEVELS), -1.0, -1.0)
        s, ws = _gauss_legendre(edges if depth <= _S_LEVELS else np.append(0.0, edges), parts)
        here = k == depth
        total[here] += _fourier_sum(xs[here], a / s, _integrand(sigma, a / s) * a / s**2 * ws)
    tail = k <= _S_LEVELS
    x, om, start = xs[tail], om[tail], a * 2.0 ** k[tail]
    (yc, wc), (ys, ws) = _fourier_rule(h, 0.5, np.cos), _fourier_rule(h, 0.0, np.sin)
    cos_part = _integrand(sigma, start[:, None] + yc / om[:, None]) @ wc
    sin_part = _integrand(sigma, start[:, None] + ys / om[:, None]) @ ws
    total[tail] += np.exp(-1j * x * start) * (cos_part - 1j * np.sign(x) * sin_part) / om
    return total.real


def _integrand(sigma: float, eta: np.ndarray) -> np.ndarray:
    """G(eta) = 1 / (sigma - eta^2 + i eta); G(-eta) is its conjugate."""
    return 1.0 / (sigma - eta * eta + 1j * eta)


def _refine(edges: np.ndarray, width: float) -> np.ndarray:
    """``edges`` with every panel cut into equal parts no wider than ``width``."""
    counts = np.ceil(np.diff(edges) / width).astype(int)
    cuts = [np.linspace(lo, hi, n + 1)[:-1] for lo, hi, n in zip(edges[:-1], edges[1:], counts)]
    return np.append(np.concatenate(cuts), edges[-1])


def _gauss_legendre(edges: np.ndarray, parts: int):
    """Nodes and weights of the 16-point rule on each panel of ``edges`` cut into ``parts``."""
    edges = np.interp(np.arange((edges.size - 1) * parts + 1) / parts,
                      np.arange(edges.size), edges)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * _GL_NODES).ravel(),
            (half[:, None] * _GL_WEIGHTS).ravel())


def _fourier_sum(xs: np.ndarray, eta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k e^{-i x eta_k} for each x, in blocks of about _CHUNK terms.

    Every block holds at least two x, and a last x left alone joins the
    block before it: a product over one row rounds differently from the
    same row inside a block, which gives each x the bits of one product
    over all of them.
    """
    rows = max(2, _CHUNK // eta.size)
    edges = list(range(0, xs.size, rows)) + [xs.size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    out = np.empty(xs.size, dtype=np.complex128)
    for lo, hi in zip(edges[:-1], edges[1:]):
        out[lo:hi] = np.exp(-1j * np.outer(xs[lo:hi], eta)) @ weights
    return out


def _fourier_rule(h: float, offset: float, weight) -> tuple[np.ndarray, np.ndarray]:
    """Ooura-Mori rule for int_0^inf f(y) weight(y) dy: nodes y_n, weights with weight(y_n).

    y = M phi(t) with M = pi / h and
    phi(t) = t / (1 - exp(-2t - alpha (1 - e^-t) - beta (e^t - 1))), at
    t = (n + offset) h for |n| <= 6 / h: offset 0 for sin, 1/2 for cos.
    As t grows the nodes approach the zeros of ``weight`` double
    exponentially, so f needs no decay beyond integrability.  The sine
    rule keeps its t = 0 node, where phi and phi' take their limits.
    """
    m, beta = math.pi / h, 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    t = (np.arange(-round(6.0 / h), round(6.0 / h) + 1) + offset) * h
    u = 2.0 * t - alpha * np.expm1(-t) + beta * np.expm1(t)
    den = -np.expm1(-u)
    with np.errstate(invalid="ignore"):  # 0 / 0 at t = 0
        phi = t / den
        dphi = (den - t * np.exp(-u) * (2.0 + alpha * np.exp(-t) + beta * np.exp(t))) / den**2
    c = 2.0 + alpha + beta
    phi[t == 0.0], dphi[t == 0.0] = 1.0 / c, 0.5 + (alpha - beta) / (2.0 * c * c)
    y = m * phi
    return y, m * h * dphi * weight(y)

