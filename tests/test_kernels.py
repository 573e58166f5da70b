"""Closed-form kernels against independent quadrature oracles."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from schrodlab import kernels
from schrodlab.kernels import eval_K_sigma, eval_K_sigma_quadrature

SIGMAS = [-5.0, -1.0, -0.2, 0.05, 0.2, 0.3, 1.0, 10.0]
XS = [-8.0, -3.0, -1.0, -0.25, 0.25, 1.0, 3.0, 8.0]


class TestKSigma:
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("x", XS)
    def test_closed_form_matches_quadrature(self, sigma, x):
        closed = eval_K_sigma(sigma, x)
        quad = eval_K_sigma_quadrature(sigma, [x])[0]
        assert abs(closed - quad) < 1e-6

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            eval_K_sigma(0.0, 1.0)
        with pytest.raises(ValueError):
            eval_K_sigma_quadrature(0.0, [1.0])

    def test_quarter_branch_is_continuity_limit(self):
        x = -1.3
        limit = eval_K_sigma(0.25, x)
        near_lo = eval_K_sigma(0.25 - 1e-7, x)
        near_hi = eval_K_sigma(0.25 + 1e-7, x)
        assert abs(near_lo - limit) < 1e-6
        assert abs(near_hi - limit) < 1e-6

    def test_positive_sigma_vanishes_right(self):
        assert eval_K_sigma(0.5, 2.0) == 0.0
        assert eval_K_sigma(0.1, 2.0) == 0.0

    @pytest.mark.parametrize("sigma", [0.01, 0.1, 0.2])
    @pytest.mark.parametrize("x", [-1399.5, -1400.5, -1500.0, -5000.0, -1e6])
    def test_sinh_branch_far_left(self, sigma, x):
        # 0 < sigma < 1/4 far left of 0: e^{x/2} underflows and sinh(m x / 2) overflows,
        # but the kernel is e^{x(1-m)/2} (1 - e^{m x}) / m, finite and often normal.
        # Reference: -2 e^{x/2} sinh(m x/2) / m in 60-digit decimal arithmetic
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            m = (1 - 4 * decimal.Decimal(sigma)).sqrt()
            half = decimal.Decimal(x) / 2
            exact = float(-(half.exp() * ((m * half).exp() - (-m * half).exp())) / m)
        got = eval_K_sigma(sigma, x)
        assert abs(got - exact) <= 1e-12 * abs(exact)

    def test_real_valued(self):
        for sigma in SIGMAS:
            for x in XS:
                assert type(eval_K_sigma(sigma, x)) is float

    @given(st.floats(min_value=-6.0, max_value=-0.05),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_negative_sigma_uniform_decay(self, sigma, x):
        # branch-wise exponential decay at the residue rates
        m = math.sqrt(1.0 - 4.0 * sigma)
        rate = (m + 1.0) / 2.0 if x < 0 else (m - 1.0) / 2.0
        val = abs(eval_K_sigma(sigma, x))
        bound = math.exp(-rate * abs(x)) / m
        assert val <= bound * (1 + 1e-12)


def quadpack(sigma, x):
    """K_sigma(x) by QUADPACK's QAWF on the cos/sin halves of the integral."""
    def re_g(eta):
        return (sigma - eta**2) / ((sigma - eta**2) ** 2 + eta**2)

    def im_g(eta):
        return -eta / ((sigma - eta**2) ** 2 + eta**2)

    vc, _ = integrate.quad(re_g, 0.0, np.inf, weight="cos", wvar=abs(x), epsabs=1e-12, limit=400)
    vs, _ = integrate.quad(im_g, 0.0, np.inf, weight="sin", wvar=abs(x), epsabs=1e-12, limit=400)
    return (vc + math.copysign(1.0, x) * vs) / math.pi


class TestKSigmaQuadrature:
    @given(st.one_of(st.floats(min_value=-6.0, max_value=-0.05),
                     st.floats(min_value=0.05, max_value=12.0)),
           st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, sigma, xs):
        quad = eval_K_sigma_quadrature(sigma, xs)
        for x, q in zip(xs, quad):
            assert abs(q - eval_K_sigma(sigma, x)) <= 1e-9

    @pytest.mark.parametrize("sigma", [-2.0, -0.3, 0.1, 0.7, 6.0])
    def test_matches_quadpack(self, sigma):
        # QUADPACK is a valid oracle away from small sigma and x = 0
        xs = [-7.5, -1.2, 0.4, 3.3]
        quad = eval_K_sigma_quadrature(sigma, xs)
        for x, q in zip(xs, quad):
            assert abs(q - quadpack(sigma, x)) <= 1e-9

    @pytest.mark.parametrize("sigma,xs", [
        # the width-sigma peak at eta = 0: QAWF returned -0.500 at x = 0 and 1 (closed form 0)
        (1e-6, [-1.0, 0.0, 1.0]),
        # head panels narrow with max |x|, so the check level resolves e^{-i x eta} too
        (1.0, [-100.0, 100.0]),
        # tiny |x| runs the s-panels down to s = 0; small |x| starts the tail rule far out
        (-0.5, [0.0, 5e-324, -1e-300, 1e-12, -1e-6, 1e-3]),
    ], ids=["small-sigma", "large-x", "near-zero-x"])
    def test_fixed_points_match_closed_form(self, sigma, xs):
        quad = eval_K_sigma_quadrature(sigma, xs)
        for x, q in zip(xs, quad):
            assert abs(q - eval_K_sigma(sigma, x)) <= 1e-9


class TestFourierSumBlocks:
    """Blocks of _CHUNK terms give the bits of one 2^20-term block over all x."""

    @pytest.mark.parametrize("terms", [1000, 40000], ids=["last-row-alone", "one-row-blocks"])
    def test_bits_of_one_block(self, monkeypatch, terms):
        # 2 blocks and one x more: the last x would make a one-row block, whose
        # product rounds differently; with 40000 terms every block would be one row
        rows = max(2, kernels._CHUNK // terms)
        assert (kernels._CHUNK // terms < 2) == (terms == 40000)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-20.0, 20.0, 2 * rows + 1)
        eta = np.sort(rng.uniform(0.0, 30.0, terms))
        weights = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        got = kernels._fourier_sum(xs, eta, weights)
        monkeypatch.setattr(kernels, "_CHUNK", 1 << 20)
        assert xs.size <= kernels._CHUNK // terms  # one block
        assert np.array_equal(got, kernels._fourier_sum(xs, eta, weights))

    @pytest.mark.parametrize("sigma", [-5.0, -1.0, -0.1, 0.1, 0.3, 0.5, 2.0, 10.0])
    def test_kernel_table_bits_of_one_block(self, monkeypatch, sigma):
        # the sigmas and x of configs/kernel_table.yaml
        xs = np.linspace(-20.0, 20.0, 200)
        got = eval_K_sigma_quadrature(sigma, xs)
        monkeypatch.setattr(kernels, "_CHUNK", 1 << 20)
        assert np.array_equal(got, eval_K_sigma_quadrature(sigma, xs))
