"""The buffered operator core against plain numpy expressions, bit for bit.

``apply_plan``, ``apply_BS``, ``apply_BS_adjoint`` and ``op_norm`` work in place
in one buffer.  The oracle below writes the same operators as plain expressions
with a fresh array per step, and numpy evaluates each product its own way.  numpy elides the temporary of a
commutative product of arrays of at least 256 KiB, so ``data * np.conj(mod)``
is evaluated as ``conj(mod) * data`` from that size up, and complex products
are not bitwise commutative.  The grids straddle that size: 16^3 is 64 KiB,
16 x 32^2 is exactly 256 KiB, 32^3 is 512 KiB and 64^3 is 4 MiB.
"""

import numpy as np
import pytest

from schrodlab.birman_schwinger import (
    FactorW,
    apply_BS,
    apply_BS_adjoint,
    build_W,
    gaussian_potential,
    op_norm,
)
from schrodlab.grid import Field, GridSpec, l2_norm
from schrodlab.multipliers import apply_plan, plan_S, plan_S_nu

# (pts_time, pts_space) with n = 2: 64 KiB, 256 KiB and 512 KiB of complex128
SIZES = [(16, 16), (16, 32), (32, 32)]
NU = 8.0


def grid(pts_time, pts_space):
    return GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                    pts_time=pts_time, pts_space=pts_space)


def random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return Field(spec, data)


def factors(spec):
    W = build_W(gaussian_potential(spec, amplitude=2.0, width=0.6))
    return W, FactorW(Field(spec, np.abs(W.field.data).astype(complex)))


# -- the oracle: plain expressions, one fresh array per step -----------------


def oracle_to_freq(plan, f):
    data = f.data if plan.modulation is None else f.data * plan.modulation
    return np.fft.fftn(data, norm="ortho")


def oracle_from_freq(plan, coeffs):
    data = np.fft.ifftn(coeffs, norm="ortho")
    if plan.modulation is not None:
        data = data * np.conj(plan.modulation)
    return data


def oracle_apply_plan(plan, f):
    return oracle_from_freq(plan, oracle_to_freq(plan, f) / plan.denom)


def oracle_apply_BS(v, W1, W2, plan):
    inner = Field(v.spec, W2.field.data * v.data)
    mid = oracle_apply_plan(plan, inner)
    return W1.field.data * mid


def oracle_apply_BS_adjoint(u, W1, W2, adjoint_plan):
    inner = Field(u.spec, np.conj(W1.field.data) * u.data)
    mid = oracle_apply_plan(adjoint_plan, inner)
    return np.conj(W2.field.data) * mid


def oracle_op_norm_estimates(W1, W2, plan, seed=0, tol=1e-3, max_iter=200):
    spec = W1.field.spec
    adj = plan.adjoint()
    estimates = []
    for s in (seed, seed + 1):
        v = random_field(spec, s)
        v = v * (1.0 / l2_norm(v))
        est = 0.0
        for _ in range(max_iter):
            av = Field(spec, oracle_apply_BS(v, W1, W2, plan))
            w = Field(spec, oracle_apply_BS_adjoint(av, W1, W2, adj))
            new = l2_norm(av)
            v = w * (1.0 / l2_norm(w))
            if est > 0.0 and abs(new - est) <= tol * est:
                est = new
                break
            est = new
        estimates.append(est)
    return estimates


def plans(spec):
    """Offset and non-offset plans, each with its adjoint."""
    base = {
        "S_offset": plan_S(spec),
        "S_plain": plan_S(spec, offset_xin=False),
        "S_nu_offset": plan_S_nu(spec, NU, offset_tau=True, offset_xin=True),
        "S_nu_plain": plan_S_nu(spec, NU, offset_tau=False),
    }
    return {**base, **{f"{k}_adjoint": p.adjoint() for k, p in base.items()}}


@pytest.mark.parametrize("pts", SIZES)
def test_apply_plan_bit_exact(pts):
    spec = grid(*pts)
    f = random_field(spec)
    for name, plan in plans(spec).items():
        if "plain" in name:
            assert plan.modulation is None and plan.demodulation is None
        else:
            assert plan.demodulation is not None
        got = apply_plan(plan, f).data
        assert np.array_equal(got, oracle_apply_plan(plan, f)), name


def test_apply_plan_into_its_input():
    spec = grid(32, 32)
    for name, plan in plans(spec).items():
        f = random_field(spec, 3)
        want = apply_plan(plan, f).data
        buf = f.data
        got = apply_plan(plan, f, out=f.data)
        assert got.data is buf, name
        assert np.array_equal(got.data, want), name


def test_transforms_keep_their_input():
    spec = grid(16, 32)
    plan = plan_S_nu(spec, NU, offset_tau=True, offset_xin=True)
    f = random_field(spec, 4)
    before = f.data.copy()
    coeffs = plan.to_freq(f)
    assert np.array_equal(f.data, before)
    assert np.array_equal(coeffs, oracle_to_freq(plan, f))
    kept = coeffs.copy()
    back = plan.from_freq(coeffs)
    assert np.array_equal(coeffs, kept)
    assert np.array_equal(back.data, oracle_from_freq(plan, coeffs))


@pytest.mark.parametrize("pts", SIZES + [(64, 64)])
def test_apply_BS_bit_exact(pts):
    spec = grid(*pts)
    W, absW = factors(spec)
    plan = plan_S_nu(spec, NU, offset_tau=True, offset_xin=True)
    v = random_field(spec, 1)
    want = apply_BS(v, W, absW, plan).data
    assert np.array_equal(want, oracle_apply_BS(v, W, absW, plan))
    adj = plan.adjoint()
    got = apply_BS_adjoint(v, W, absW, adj).data
    assert np.array_equal(got, oracle_apply_BS_adjoint(v, W, absW, adj))
    # into the input's own buffer
    assert np.array_equal(apply_BS(v, W, absW, plan, out=v.data).data, want)


@pytest.mark.parametrize("pts", SIZES)
def test_op_norm_estimates_bit_exact(pts):
    spec = grid(*pts)
    W, absW = factors(spec)
    plan = plan_S_nu(spec, NU, offset_tau=True, offset_xin=True)
    _, diag = op_norm(W, absW, plan, seed=5)
    assert diag["estimates"] == oracle_op_norm_estimates(W, absW, plan, seed=5)
