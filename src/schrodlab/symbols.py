"""Operator symbols and exponent arithmetic.

Two polynomial symbols drive everything here:

* the normalized symbol  ``p(tau, xi) = tau - |xi|^2 + i xi_n``
* the conjugated symbol  ``p_nu(tau, xi) = -tau - |xi|^2 + 2 i nu xi_n``

The drift is nu e_n, along the last axis; ``nu`` is its one float
component.  For nu > 0 the two symbols are linked by
``p_nu(-4 nu^2 tau, 2 nu xi) = 4 nu^2 p(tau, xi)``.

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
    if p in ("inf", "oo") or p == INF:
        return INF
    q = -INF if p == -INF else Fraction(p)  # Fraction(-inf) raises OverflowError
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
    """A mixed-norm exponent pair (q, r) in dimension n."""

    q: object
    r: object
    n: int

    def __post_init__(self):
        object.__setattr__(self, "q", as_exponent(self.q))
        object.__setattr__(self, "r", as_exponent(self.r))

    @property
    def admissible(self) -> bool:
        lhs = 2 - 2 * _recip(self.q)
        rhs = self.n * _recip(self.r) - Fraction(self.n, 2)
        if lhs != rhs:
            return False
        return not (self.n == 2 and self.q == 2 and self.r == 1)


def potential_pair_check(a, b, n: int) -> bool:
    """Whether a potential-class pair (a, b) satisfies ``2 - 2/a = n/b``.

    The pair (a, b) = (oo, 1) is excluded for n = 2.
    """
    av = as_exponent(a)
    bv = as_exponent(b)
    if 2 - 2 * _recip(av) != n * _recip(bv):
        return False
    return not (n == 2 and av is INF and bv == 1)


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


def eval_p_nu(tau, xi, nu: float):
    """Conjugated symbol p_nu(tau, xi) = -tau - |xi|^2 + 2 i nu xi_n."""
    comps = list(xi)
    sq = sum(np.asarray(c) ** 2 for c in comps)
    return -np.asarray(tau) - sq + 2j * (nu * np.asarray(comps[-1]))
