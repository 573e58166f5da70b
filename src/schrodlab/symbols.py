"""Operator symbols and exponent arithmetic.

Two polynomial symbols drive everything here:

* the normalized symbol  ``p(tau, xi) = tau - |xi|^2 + i xi_n``
* the conjugated symbol  ``p_nu(tau, xi) = -tau - |xi|^2 + 2 i nu . xi``

For ``nu = |nu| e_n``, the only drift the package builds, they are linked
by ``p_nu(-4|nu|^2 tau, 2|nu| xi) = 4 |nu|^2 p(tau, xi)``.

Lebesgue exponents are represented as exact rationals (plus an infinity
marker) so admissibility is decided without floating-point tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

__all__ = [
    "INF",
    "ExponentPair",
    "NuVector",
    "eval_p",
    "eval_p_nu",
    "as_exponent",
    "conjugate_exponent",
    "potential_pair_check",
]

#: Marker for an infinite Lebesgue exponent.
INF = math.inf


def as_exponent(p) -> "Fraction | float":
    """Coerce to an exact exponent: a Fraction in [1, oo) or INF."""
    if isinstance(p, bool):  # Fraction(True) would read YAML true as 1
        raise ValueError(f"Lebesgue exponent must be a number, got {p!r}")
    if p in ("inf", "oo") or (isinstance(p, float) and math.isinf(p)):
        return INF
    q = Fraction(p)
    if q < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {q}")
    return q


def _recip(p) -> Fraction:
    """1/p with the convention 1/oo = 0, exact."""
    if p is INF or (isinstance(p, float) and math.isinf(p)):
        return Fraction(0)
    return 1 / Fraction(p)


def _from_recip(r: Fraction):
    """Inverse of :func:`_recip`."""
    if r == 0:
        return INF
    return 1 / r


def conjugate_exponent(p):
    """Hölder conjugate p' with 1/p + 1/p' = 1."""
    return _from_recip(1 - _recip(p))


@dataclass(frozen=True)
class ExponentPair:
    """A mixed-norm exponent pair (q, r) with admissibility metadata."""

    q: object
    r: object
    n: int
    dual: bool = False

    def __post_init__(self):
        object.__setattr__(self, "q", as_exponent(self.q))
        object.__setattr__(self, "r", as_exponent(self.r))

    @property
    def admissible(self) -> bool:
        if self.dual:
            # dual pairs satisfy 2/q' = n/2 - n/r'
            lhs = 2 * _recip(self.q)
            rhs = Fraction(self.n, 2) - self.n * _recip(self.r)
            if lhs != rhs:
                return False
            return not (self.n == 2 and self.q == 2 and self.r is INF)
        lhs = 2 - 2 * _recip(self.q)
        rhs = self.n * _recip(self.r) - Fraction(self.n, 2)
        if lhs != rhs:
            return False
        return not (self.n == 2 and self.q == 2 and self.r == 1)

    def dual_pair(self) -> "ExponentPair":
        """The conjugate pair (q', r')."""
        return ExponentPair(
            conjugate_exponent(self.q),
            conjugate_exponent(self.r),
            self.n,
            dual=not self.dual,
        )


def potential_pair_check(a, b, n: int):
    """Decide admissibility of a potential-class pair (a, b).

    The relation is ``2 - 2/a = n/b`` excluding ``(n, a, b) = (2, oo, 1)``.
    Returns ``(verdict, linked)`` where ``linked`` is the (q, r) pair tied
    to (a, b) by ``1/q - 1/q' = 1/a`` and ``1/r - 1/r' = 1/b``.
    """
    av = as_exponent(a)
    bv = as_exponent(b)
    if 2 - 2 * _recip(av) != n * _recip(bv):
        return False, None
    if n == 2 and av is INF and bv == 1:
        return False, None
    # 1/q - 1/q' = 1/a  with  1/q + 1/q' = 1  =>  1/q = (1 + 1/a)/2
    q = _from_recip((1 + _recip(av)) / 2)
    r = _from_recip((1 + _recip(bv)) / 2)
    return True, ExponentPair(q, r, n)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


def eval_p(tau, xi):
    """Normalized symbol p(tau, xi) = tau - |xi|^2 + i xi_n.

    ``xi`` is a sequence of n real arrays/scalars; broadcasting is allowed.
    """
    comps = list(xi)
    sq = sum(np.asarray(c) ** 2 for c in comps)
    return np.asarray(tau) - sq + 1j * np.asarray(comps[-1])


@dataclass(frozen=True)
class NuVector:
    """A nonzero drift vector nu in R^n."""

    components: tuple

    def __init__(self, components):
        comps = tuple(float(c) for c in np.atleast_1d(components))
        if not any(c != 0.0 for c in comps):
            raise ValueError("nu must be nonzero")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.components))

    @property
    def aligned_axis(self):
        """Index of the aligned axis if nu is axis-aligned, else None."""
        nz = [j for j, c in enumerate(self.components) if c != 0.0]
        return nz[0] if len(nz) == 1 else None

    @classmethod
    def along_last_axis(cls, magnitude, n: int) -> "NuVector":
        """nu = magnitude * e_n, the drift axis that ``WavePacket`` requires."""
        return cls([0.0] * (n - 1) + [float(magnitude)])


def eval_p_nu(tau, xi, nu: NuVector):
    """Conjugated symbol p_nu(tau, xi) = -tau - |xi|^2 + 2 i nu . xi."""
    comps = list(xi)
    if len(comps) != nu.n:
        raise ValueError("xi dimension does not match nu")
    sq = sum(np.asarray(c) ** 2 for c in comps)
    dot = sum(nc * np.asarray(c) for nc, c in zip(nu.components, comps))
    return -np.asarray(tau) - sq + 2j * dot
