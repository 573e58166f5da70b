"""The buffered operator core against plain numpy expressions, bit for bit.

``apply_plan`` works in place in one buffer, and ``apply_BS``,
``apply_BS_adjoint`` and ``op_norm`` in place through one kernel on the time
rows where W is nonzero.  The oracles below write the same operators as plain
expressions with a fresh array per step, and numpy evaluates each product its
own way.  numpy elides the temporary of a commutative product of arrays of at
least 256 KiB, so ``data * np.conj(mod)`` is evaluated as ``conj(mod) * data``
from that size up, and complex products are not bitwise commutative.  The
grids straddle that size: 16^3 is 64 KiB, 16 x 32^2 is exactly 256 KiB, 32^3
is 512 KiB and 64^3 is 4 MiB.

``oracle_apply_BS`` and ``oracle_apply_BS_adjoint`` are the modulated operator
on the full grid, through ``apply_plan``'s expressions; ``modulated_op_norm``
is the power iteration on them.  ``oracle_hull_apply`` and ``oracle_op_norm``
are the kernel's modulation-free transforms on hull rows (built on
``oracle_divide_rows``), which ``apply_BS``, ``apply_BS_adjoint`` and
``op_norm`` match bit for bit and the modulated oracles up to rounding.
"""

import copy
import pathlib

import numpy as np
import pytest

from schrodlab import cli
from schrodlab.birman_schwinger import (
    apply_BS,
    apply_BS_adjoint,
    build_W,
    cusp_potential,
    gaussian_potential,
    op_norm,
    plan_BS,
)
from schrodlab.grid import Field, GridSpec, l2_norm
from schrodlab.multipliers import MultiplierPlan, apply_plan, plan_S, plan_S_nu

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


def magnitude(W):
    """|W| as a complex field, as the CGO solve builds it."""
    return Field(W.spec, np.abs(W.data).astype(complex))


def factors(spec):
    W = build_W(gaussian_potential(spec, amplitude=2.0, width=0.6))
    return W, magnitude(W)


# -- the oracle: plain expressions, one fresh array per step -----------------


def oracle_to_freq(plan, f):
    return np.fft.fftn(f.data * plan.modulation, norm="ortho")


def oracle_from_freq(plan, coeffs):
    data = np.fft.ifftn(coeffs, norm="ortho")
    # the modulation is a (t, x_n) table; conj of its full-grid view is a
    # full-grid temporary, which numpy elides from 256 KiB up
    return data * np.conj(np.broadcast_to(plan.modulation, data.shape))


def oracle_apply_plan(plan, f):
    return oracle_from_freq(plan, oracle_to_freq(plan, f) / plan.denom)


def plain_fft_apply_plan(plan, f):
    """apply_plan's values without modulation: those of a plan with no offsets."""
    return np.fft.ifftn(np.fft.fftn(f.data, norm="ortho") / plan.denom, norm="ortho")


def oracle_apply_BS(v, W1, W2, plan):
    inner = Field(v.spec, W2.data * v.data)
    mid = oracle_apply_plan(plan, inner)
    return W1.data * mid


def oracle_apply_BS_adjoint(u, W1, W2, adjoint_plan):
    inner = Field(u.spec, np.conj(W1.data) * u.data)
    mid = oracle_apply_plan(adjoint_plan, inner)
    return np.conj(W2.data) * mid


def modulated_op_norm(W1, W2, plan, seed=0, tol=1e-3, max_iter=200):
    """Estimates and steps of each start of the power iteration on apply_BS's A*A."""
    spec = W1.spec
    adj = plan.adjoint()
    estimates, steps = [], []
    for s in (seed, seed + 1):
        v = random_field(spec, s)
        v = v * (1.0 / l2_norm(v))
        est = 0.0
        for it in range(1, max_iter + 1):
            av = Field(spec, oracle_apply_BS(v, W1, W2, plan))
            w = Field(spec, oracle_apply_BS_adjoint(av, W1, W2, adj))
            new = l2_norm(av)
            v = w * (1.0 / l2_norm(w))
            if est > 0.0 and abs(new - est) <= tol * est:
                est = new
                break
            est = new
        estimates.append(est)
        steps.append(it)
    return estimates, steps


def oracle_hull(w):
    rows = [k for k in range(w.shape[0]) if np.any(w[k] != 0)]
    return slice(rows[0], rows[-1] + 1) if rows else slice(0, 0)


def oracle_divide_rows(x, denom, rows_in, rows_out):
    """Rows ``rows_out`` of ifftn(fftn(x) / denom), for x zero outside ``rows_in``."""
    space = tuple(range(1, x.ndim))
    y = np.zeros_like(x)
    y[rows_in] = np.fft.fftn(x[rows_in], axes=space, norm="ortho")
    coeffs = np.fft.fft(y, axis=0, norm="ortho") / denom
    back = np.fft.ifft(coeffs, axis=0, norm="ortho")
    return np.fft.ifftn(back[rows_out], axes=space, norm="ortho")


def oracle_hull_apply(v, w_out, w_in, plan):
    """M_{w_out} S M_{w_in} v for the S of ``plan``: m v in on w_in's hull, conj(m) out."""
    h_in, h_out = oracle_hull(w_in), oracle_hull(w_out)
    mv = v.data[h_in] * plan.modulation[h_in]
    x = np.zeros(v.spec.shape, complex)
    x[h_in] = w_in[h_in] * mv
    g = oracle_divide_rows(x, plan.denom, h_in, h_out)
    out = w_out[h_out] * g * np.conj(plan.modulation)[h_out]
    y = np.zeros(v.spec.shape, complex)
    y[h_out] = out
    return y


def oracle_op_norm(W1, W2, plan, seed=0, tol=1e-3, max_iter=200):
    """Estimates and steps of each start of op_norm's modulation-free loop on hull rows."""
    spec = W1.spec
    h1, h2 = oracle_hull(W1.data), oracle_hull(W2.data)
    w1, w2 = W1.data[h1], W2.data[h2]
    w1c, w2c = np.conj(w1), np.conj(w2)
    adj = plan.adjoint()
    estimates, steps = [], []
    for s in (seed, seed + 1):
        v = random_field(spec, s).data * plan.modulation
        u = (v * (1.0 / l2_norm(v)))[h2]
        est = 0.0
        for it in range(1, max_iter + 1):
            x = np.zeros(spec.shape, complex)
            x[h2] = w2 * u
            g = oracle_divide_rows(x, plan.denom, h2, h1)
            av = w1 * g
            new = l2_norm(av)
            y = np.zeros(spec.shape, complex)
            y[h1] = w1c * av
            g = oracle_divide_rows(y, adj.denom, h1, h2)
            w = w2c * g
            u = w * (1.0 / l2_norm(w))
            if est > 0.0 and abs(new - est) <= tol * est:
                est = new
                break
            est = new
        estimates.append(est)
        steps.append(it)
    return estimates, steps


def plans(spec):
    """Offset and non-offset plans, each with its adjoint."""
    base = {
        "S_offset": plan_S(spec),
        "S_plain": plan_S(spec, offset_xin=False),
        "S_nu_offset": plan_S_nu(spec, NU, offset_xin=True),
        "S_nu_plain": MultiplierPlan(spec, NU, 0.0, 0.0),
    }
    return {**base, **{f"{k}_adjoint": p.adjoint() for k, p in base.items()}}


@pytest.mark.parametrize("pts", SIZES)
def test_apply_plan_bit_exact(pts):
    spec = grid(*pts)
    f = random_field(spec)
    for name, plan in plans(spec).items():
        got = apply_plan(plan, f).data
        assert np.array_equal(got, oracle_apply_plan(plan, f)), name
        # a plan without offsets modulates by exactly 1
        assert np.array_equal(got, plain_fft_apply_plan(plan, f)) == ("plain" in name), name


def test_transforms_keep_their_input():
    spec = grid(16, 32)
    plan = plan_S_nu(spec, NU, offset_xin=True)
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
    W = gaussian_W(spec, window=(-1.0, 0.5))
    absW = magnitude(gaussian_W(spec, window=(-2.0, 2.5)))
    plan = plan_S_nu(spec, NU, offset_xin=True)
    v = random_field(spec, 1)
    got = apply_BS(v, W, absW, plan).data
    assert np.array_equal(got, oracle_hull_apply(v, W.data, absW.data, plan))
    adj = plan.adjoint()
    got = apply_BS_adjoint(v, W, absW, adj).data
    assert np.array_equal(got, oracle_hull_apply(v, np.conj(absW.data),
                                                 np.conj(W.data), adj))


@pytest.mark.parametrize("pts", SIZES)
def test_op_norm_estimates_bit_exact(pts):
    spec = grid(*pts)
    W, absW = factors(spec)
    plan = plan_S_nu(spec, NU, offset_xin=True)
    _, diag = op_norm(W, absW, plan, seed=5)
    estimates, steps = oracle_op_norm(W, absW, plan, seed=5)
    assert diag["estimates"] == estimates
    assert diag["iterations"] == max(steps)


def gaussian_W(spec, **kwargs):
    return build_W(gaussian_potential(spec, amplitude=2.0, width=0.6, **kwargs))


def sandwich(W, plan):
    return W, W, plan


CUBE = grid(32, 32)
HYPERCUBE = GridSpec(n=3, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
# (W1, W2, plan) of each case
MODULATED_CASES = {
    # the potential of configs/bs_sweep.yaml at its first and last nu
    "bs_sweep_nu4": lambda: sandwich(gaussian_W(CUBE), plan_BS(CUBE, 4.0)),
    "bs_sweep_nu64": lambda: sandwich(gaussian_W(CUBE), plan_BS(CUBE, 64.0)),
    "full_box_window": lambda: sandwich(gaussian_W(CUBE, window=(-np.pi, np.pi)),
                                        plan_BS(CUBE, NU)),
    "cusp": lambda: sandwich(build_W(cusp_potential(CUBE)), plan_BS(CUBE, NU)),
    "different_windows": lambda: (gaussian_W(CUBE, window=(-1.0, 0.5)),
                                  magnitude(gaussian_W(CUBE, window=(-2.0, 2.5))),
                                  plan_BS(CUBE, NU)),
    "no_offsets": lambda: sandwich(gaussian_W(CUBE), MultiplierPlan(CUBE, NU, 0.0, 0.0)),
    "n3_16^4": lambda: sandwich(gaussian_W(HYPERCUBE, pair=(2, 3)), plan_BS(HYPERCUBE, NU)),
}


@pytest.mark.parametrize("case", MODULATED_CASES)
def test_op_norm_matches_the_modulated_iteration(case):
    W1, W2, plan = MODULATED_CASES[case]()
    pts_time = plan.spec.pts_time
    hull_rows = [h.stop - h.start for h in (oracle_hull(W1.data),
                                            oracle_hull(W2.data))]
    if case == "full_box_window":
        assert hull_rows == [pts_time] * 2
    else:
        assert max(hull_rows) < pts_time
    v = random_field(plan.spec, 2)
    assert np.array_equal(apply_plan(plan, v).data,
                          plain_fft_apply_plan(plan, v)) == (case == "no_offsets")
    _, diag = op_norm(W1, W2, plan)
    estimates, steps = modulated_op_norm(W1, W2, plan)
    assert diag["estimates"] == pytest.approx(estimates, rel=1e-12, abs=0.0)
    assert diag["iterations"] == max(steps)
    assert diag["converged"] and diag["starts_agree"]


def test_op_norm_of_a_zero_potential():
    W = build_W(gaussian_potential(CUBE, amplitude=0.0))
    assert op_norm(W, W, plan_BS(CUBE, NU)) == (
        0.0, {"iterations": 1, "converged": True, "starts_agree": True, "estimates": [0.0, 0.0]})


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("case", MODULATED_CASES)
def test_apply_BS_matches_the_modulated_oracle(case):
    W1, W2, plan = MODULATED_CASES[case]()
    v = random_field(plan.spec, 2)
    got = apply_BS(v, W1, W2, plan).data
    assert relative_error(got, oracle_apply_BS(v, W1, W2, plan)) <= 1e-12
    adj = plan.adjoint()
    got = apply_BS_adjoint(v, W1, W2, adj).data
    assert relative_error(got, oracle_apply_BS_adjoint(v, W1, W2, adj)) <= 1e-12


def test_apply_BS_is_zero_outside_the_output_hull():
    W1, W2, plan = MODULATED_CASES["different_windows"]()
    h1, h2 = oracle_hull(W1.data), oracle_hull(W2.data)
    assert h1.stop - h1.start < h2.stop - h2.start < plan.spec.pts_time
    v = random_field(plan.spec, 3)
    for got, hull in ((apply_BS(v, W1, W2, plan).data, h1),
                      (apply_BS_adjoint(v, W1, W2, plan.adjoint()).data, h2)):
        assert np.all(got[:hull.start] == 0.0) and np.all(got[hull.stop:] == 0.0)
        assert np.all(np.any(got[hull] != 0.0, axis=(1, 2)))


def test_apply_BS_of_a_zero_potential():
    W = build_W(gaussian_potential(CUBE, amplitude=0.0))
    plan = plan_BS(CUBE, NU)
    v = random_field(CUBE, 4)
    assert np.array_equal(apply_BS(v, W, W, plan).data, np.zeros(CUBE.shape))
    assert np.array_equal(apply_BS_adjoint(v, W, W, plan.adjoint()).data, np.zeros(CUBE.shape))


def test_apply_BS_transforms_only_the_rows_of_W2(monkeypatch):
    # on the bs_sweep grid the window holds half the time rows; the modulated route
    # through apply_plan transforms all of them in space
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "bs_sweep.yaml"
    values = cli.read(cli.load_config(config), {**cli.COMMON, **cli.TABLES["bs-norm-sweep"]})
    V = cli.build_inputs(values)["V"]
    spec, W = V.field.spec, build_W(V)
    hull = oracle_hull(W.data)
    assert hull.stop - hull.start < spec.pts_time
    shapes, fftn = [], np.fft.fftn

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return fftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", recording)
    apply_BS(random_field(spec), W, magnitude(W), plan_BS(spec, values["nu_values"][0]))
    assert shapes == [(hull.stop - hull.start,) + (spec.pts_space,) * spec.n]


# -- the (t, x_n) modulation table against the full-grid one ------------------


def full_grid_modulation(plan):
    """exp(-1j * phase) of the summed offset phase on the whole grid, as plans built it before."""
    spec = plan.spec
    t = spec.t_axis().reshape((-1,) + (1,) * spec.n)
    x = spec.x_axis().reshape((1,) * spec.n + (-1,))
    phase = np.zeros(spec.shape)
    if plan.tau_offset != 0.0:
        phase = phase + plan.tau_offset * t
    if plan.xi_n_offset != 0.0:
        phase = phase + plan.xi_n_offset * x
    return np.exp(-1j * phase)


def with_full_grid_modulation(plan):
    full = copy.copy(plan)
    full.modulation = full_grid_modulation(plan)
    return full


# (n, pts_time, pts_space): 4 KiB and 512 KiB in n = 1, 64 KiB and 512 KiB in
# n = 2, 1 MiB in n = 3, either side of numpy's 256 KiB elision threshold
TABLE_GRIDS = [(1, 16, 16), (1, 128, 256), (2, 16, 16), (2, 32, 32), (3, 16, 16)]
TABLE_PLANS = {
    "tau_and_xi_n": lambda spec: plan_BS(spec, NU),
    "xi_n": lambda spec: plan_S(spec),
    "tau": lambda spec: plan_S(spec, offset_xin=False, offset_tau=True),
    "none": lambda spec: plan_S(spec, offset_xin=False),
}


@pytest.mark.parametrize("kind", TABLE_PLANS)
@pytest.mark.parametrize("dims", TABLE_GRIDS, ids=lambda d: "n%d_%dx%d" % d)
def test_modulation_table_gives_the_full_grid_bits(dims, kind):
    n, pts_time, pts_space = dims
    spec = GridSpec(n=n, box_time=np.pi, box_space=np.pi, pts_time=pts_time,
                    pts_space=pts_space)
    plan = TABLE_PLANS[kind](spec)
    assert plan.modulation.shape == (pts_time,) + (1,) * (n - 1) + (pts_space,)
    full = with_full_grid_modulation(plan)
    assert np.array_equal(np.broadcast_to(plan.modulation, spec.shape), full.modulation)
    f = random_field(spec, 6)
    assert np.array_equal(apply_plan(plan, f).data, apply_plan(full, f).data)
    W = gaussian_W(spec, pair=(2, n))
    absW = magnitude(W)
    assert np.array_equal(apply_BS(f, W, absW, plan).data, apply_BS(f, W, absW, full).data)
    assert op_norm(W, absW, plan) == op_norm(W, absW, full)
