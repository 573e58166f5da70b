"""Exponent arithmetic, admissibility, symbols, and the rescaling between them."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schrodlab.symbols import (
    INF,
    ExponentPair,
    as_exponent,
    conjugate_exponent,
    eval_p,
    eval_p_nu,
    potential_pair_check,
)


class TestExponents:
    def test_as_exponent_fraction(self):
        assert as_exponent("4/3") == Fraction(4, 3)
        assert as_exponent(2) == Fraction(2)
        assert as_exponent("inf") is INF

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            as_exponent("1/2")

    def test_rejects_bool(self):
        # Fraction(True) == 1: YAML true must not pass as the exponent 1
        with pytest.raises(ValueError):
            as_exponent(True)

    def test_conjugate(self):
        assert conjugate_exponent(Fraction(4, 3)) == Fraction(4)
        assert conjugate_exponent(2) == Fraction(2)
        assert conjugate_exponent(1) is INF
        assert conjugate_exponent(INF) == Fraction(1)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_involution(self, a, b):
        p = 1 + Fraction(a, b)
        assert conjugate_exponent(conjugate_exponent(p)) == p


class TestAdmissibility:
    @pytest.mark.parametrize("q,r,n", [
        ("4/3", "4/3", 2),
        (1, 2, 2),
        ("8/7", "8/5", 2),
        (2, "6/5", 3),
        (1, 2, 3),
        ("4/3", "3/2", 3),
    ])
    def test_known_admissible(self, q, r, n):
        pair = ExponentPair(q, r, n)
        assert pair.admissible

    @pytest.mark.parametrize("q,r,n", [
        (2, 2, 2),
        ("4/3", "4/3", 3),
        (1, 2.0001, 2),
    ])
    def test_known_inadmissible(self, q, r, n):
        # the float 2.0001 is coerced exactly, so it misses the scaling line
        assert not ExponentPair(q, r, n).admissible

    def test_endpoint_exclusion_n2(self):
        # (q, r) = (2, 1) sits on the n=2 scaling line but is excluded
        lhs = 2 - 2 * Fraction(1, 2)
        rhs = 2 * Fraction(1, 1) - Fraction(2, 2)
        assert lhs == rhs
        assert not ExponentPair(2, 1, 2).admissible

    def test_potential_pair(self):
        assert potential_pair_check(2, 2, 2)
        assert potential_pair_check(2, 3, 3)

    def test_potential_pair_rejections(self):
        assert not potential_pair_check(2, 3, 2)
        assert not potential_pair_check("inf", 1, 2)  # excluded endpoint


class TestSymbols:
    def test_eval_p_pointwise(self):
        val = eval_p(3.0, (1.0, 2.0))
        assert val == pytest.approx(3.0 - 5.0 + 2.0j)

    def test_eval_p_broadcast(self):
        tau = np.array([0.0, 1.0])
        out = eval_p(tau[:, None], (np.array([0.0, 1.0])[None, :],))
        assert out.shape == (2, 2)

    def test_eval_p_nu_pointwise(self):
        # the drift nu e_n enters through xi_n alone
        val = eval_p_nu(1.0, (1.0, 1.0), 4.0)
        assert val == pytest.approx(-1.0 - 2.0 + 8.0j)
        assert eval_p_nu(1.0, (5.0, 1.0), 4.0).imag == 8.0

    def test_characteristic_set(self):
        # p vanishes (real and imaginary parts) exactly on tau = |xi'|^2,
        # xi_n = 0
        val = eval_p(4.0, (2.0, 0.0))
        assert val == 0.0


class TestRescaling:
    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=3),
        st.floats(min_value=0.5, max_value=64.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_p_nu_is_rescaled_p(self, tau, xi, mag):
        # p_nu(-4 nu^2 tau, 2 nu xi) = 4 nu^2 p(tau, xi) for the drift nu e_n
        lhs = eval_p_nu(-4.0 * mag**2 * tau, [2.0 * mag * c for c in xi], mag)
        rhs = 4.0 * mag**2 * eval_p(tau, xi)
        scale = 4.0 * mag**2 * (abs(tau) + sum(c * c for c in xi) + 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale
