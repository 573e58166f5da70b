"""Physical-solution simulator and the initial-to-final-state map.

The initial-value problem i d_t u = -Laplacian u + V u, u(0) = f, is
integrated with a Strang split-step scheme: half potential phase, exact
free spectral step, half potential phase, with the (possibly time
dependent) potential sampled at step midpoints.  Both sub-steps are
unitary for real V, so mass is conserved to rounding, and the scheme is
second order in the step size.  A stack of probes along a leading axis
is stepped in place by one step loop, its FFTs batched over chunks of
probes.  A stack of more than one chunk runs in two contiguous parts, on
both cores where two are available (:func:`schrodlab.parallel.run_two`):
every probe evolves on its own.  The cut falls on a chunk boundary, so
every FFT batch holds the same probes as on one thread, and the result is
bit-identical to one thread.

The module also verifies the bilinear integral identity

    i < (U_T^1 - U_T^2) f, g >  =  int_0^T int (V_1 - V_2) u_1 conj(v_2),

where u_1 evolves forward from f under V_1 and v_2 solves the final-value
problem v_2(T) = g under conj(V_2) (realized by running the same scheme
backward in time).  Both sides are computed by independent solves, so
their agreement is a genuine two-sided check.  A stack of trials (f, g)
is checked in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import logging

import numpy as np

from .birman_schwinger import Potential
from .grid import GridSpec
from .parallel import run_two

logger = logging.getLogger(__name__)

__all__ = [
    "Trajectory",
    "sample_potential",
    "evolve",
    "itf_map",
    "integral_identity_check",
]


#: Probes per FFT call of the step loop.  With the stack stepped in place,
#: one array (512 KiB for 8 probes at 64^2) is live per chunk.  On the 58
#: plane-wave probes of configs/reconstruct.yaml (128 steps at 64^2, 2 vCPUs,
#: 4 MiB of L2 each), five alternating rounds of five serial ``evolve`` calls
#: (one thread) gave medians of 1.06 s for chunks of 4, 1.01 s for 8, 0.99 s
#: for 16 and 1.01 s for all 58 at once; no size won every round (8 and 16
#: two each, 58 one).
CHUNK = 8


@dataclass
class Trajectory:
    """Evolved wave functions on the spatial lattice, one per probe.

    ``evolve`` of a single state gives arrays without a probe axis; of a
    stack of probes, arrays with the probe axis after the time axis.
    """

    spec: GridSpec
    times: np.ndarray  # (steps + 1,)
    slices: np.ndarray  # every step, (steps + 1,) + f.shape; or only the final, (1,) + f.shape
    mass: np.ndarray  # L2 norm of every probe at every step, (steps + 1,) + probe shape
    final: np.ndarray  # f.shape

    def mass_drift(self) -> float:
        """Largest relative deviation of the conserved L2 norm, over every probe."""
        return float(np.max(_drift(self.mass)))


def _drift(mass: np.ndarray) -> np.ndarray:
    """Largest relative deviation of the L2 norm over time, per probe."""
    dev = np.abs(mass - mass[0]).max(axis=0)
    return np.divide(dev, mass[0], out=np.zeros_like(dev), where=mass[0] != 0.0)


def _slice_weights(spec: GridSpec, t: float) -> tuple[int, int, float]:
    """Lattice time slices i0, i1 and the weight of i1 that interpolate time t, clamped."""
    pos = (t + spec.box_time) / spec.dt
    pos = min(max(pos, 0.0), float(spec.pts_time - 1))
    i0 = int(np.floor(pos))
    return i0, min(i0 + 1, spec.pts_time - 1), pos - i0


def sample_potential(V: Potential | None, t: float) -> np.ndarray | float:
    """Potential slice at time t, linearly interpolated on the lattice.

    Outside the lattice time range the nearest boundary slice is clamped;
    V = None means the free equation.
    """
    if V is None:
        return 0.0
    i0, i1, frac = _slice_weights(V.field.spec, t)
    return (1.0 - frac) * V.field.data[i0] + frac * V.field.data[i1]


def _freq_sq(spec: GridSpec) -> np.ndarray:
    return sum(c**2 for c in spec.spatial_mesh(frequency=True))


def _strang(V: Potential, u: np.ndarray, T: float, steps: int, t0: float,
            conjugate_potential: bool, free: np.ndarray):
    """Step the probe stack ``u`` (leading probe axis) in place; yield it at t0 and after each step.

    The one step loop of the module: ``evolve`` runs it over each part of
    a stack and the integral identity over a whole stack, which the caller
    owns and this overwrites.  Every yield is that same array, overwritten
    by the next step, so a consumer copies whatever it keeps.  ``free`` is
    the free spectral step exp(-i |xi|^2 T / steps).  The potential phase
    ``half`` of a step is built in two buffers allocated once and reused at
    every step, so a step allocates no field of its own; the FFTs run over
    ``CHUNK`` probes at a time.
    """
    spec = V.field.spec
    # with s given, fftn skips a np.take of the shape: about 20 us a call at 64^2
    lattice, axes = (spec.pts_space,) * spec.n, tuple(range(-spec.n, 0))
    dt = T / steps
    half = np.empty(lattice, dtype=complex)
    later = np.empty_like(half)
    yield u
    for k in range(steps):
        # exp(-1j * vmid * (dt / 2.0)), vmid = sample_potential(V, t) (conjugated if asked):
        # the same ufuncs in the same operand order
        i0, i1, frac = _slice_weights(spec, t0 + (k + 0.5) * dt)
        np.multiply(1.0 - frac, V.field.data[i0], out=half)
        np.add(half, np.multiply(frac, V.field.data[i1], out=later), out=half)
        if conjugate_potential:
            np.conj(half, out=half)
        np.multiply(-1j, half, out=half)
        np.exp(np.multiply(half, dt / 2.0, out=half), out=half)
        for lo in range(0, len(u), CHUNK):
            c = u[lo:lo + CHUNK]
            # The phases multiply one probe at a time: a product broadcast
            # over the chunk makes numpy's iterator allocate a buffer of up
            # to 8192 elements on every call.  Operand order as in half * u
            # and fftn(u) * free: complex products are not bitwise commutative.
            for p in c:
                np.multiply(half, p, out=p)
            np.fft.fftn(c, lattice, axes, out=c)
            for p in c:
                np.multiply(p, free, out=p)
            np.fft.ifftn(c, lattice, axes, out=c)
            for p in c:
                np.multiply(half, p, out=p)
        yield u


def _in_parts(run, count: int) -> None:
    """Call ``run(lo, hi)`` over the rows [0, count), in two contiguous parts past one ``CHUNK``.

    A stack of more than one chunk is cut at the chunk boundary
    ceil(chunks / 2) * CHUNK, and :func:`schrodlab.parallel.run_two` runs
    the two parts, on both cores where two are available.
    """
    chunks = -(-count // CHUNK)
    if chunks < 2:
        run(0, count)
        return
    cut = -(-chunks // 2) * CHUNK
    run_two(lambda: partial(run, 0, cut), lambda: partial(run, cut, count))


def evolve(
    V: Potential,
    f: np.ndarray,
    T: float,
    steps: int,
    t0: float = 0.0,
    conjugate_potential: bool = False,
    store: str = "all",
) -> Trajectory:
    """Strang split-step integration from t0 to t0 + T (T may be negative).

    ``f`` is one state on the spatial lattice or a stack of probes along a
    leading axis; it is copied once into the stack that the step loop
    advances in place, and left unchanged.  A stack of more than one
    ``CHUNK`` is stepped in two contiguous parts, on both cores where two
    are available, with the same result.  ``store="all"`` keeps every step,
    ``store="final"`` only the final states; the mass of every probe is
    recorded at every step either way.  ``conjugate_potential`` evolves
    under conj(V) instead, which is what the backward final-value solve of
    the integral identity needs.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if store not in ("all", "final"):
        raise ValueError(f"store must be 'all' or 'final', not {store!r}")
    if V is None:
        raise ValueError("evolve needs a Potential carrying the grid (use a zero potential for free evolution)")
    spec = V.field.spec
    f = np.asarray(f, dtype=complex)
    lattice = (spec.pts_space,) * spec.n
    if f.shape[-spec.n:] != lattice or f.ndim not in (spec.n, spec.n + 1):
        raise ValueError("initial state does not match the spatial lattice")
    probes = f.reshape((-1,) + lattice)  # a single state is the batch of one
    vol = spec.dx**spec.n
    dt = T / steps
    times = t0 + dt * np.arange(steps + 1)
    mass = np.empty((steps + 1, len(probes)))
    if store == "all":
        slices = np.empty((steps + 1,) + probes.shape, dtype=complex)
        final = slices[-1]
    else:
        final = np.empty_like(probes)
        slices = final[np.newaxis]
    final[...] = probes  # the working stack: it holds the final states once stepped
    free = np.exp(-1j * _freq_sq(spec) * dt)  # shared by both parts

    def step_rows(lo: int, hi: int) -> None:
        """Step the rows lo:hi of the stack, recording their mass and stored slices."""
        sq = np.empty(lattice)  # |u|^2 of one probe
        for k, u in enumerate(_strang(V, final[lo:hi], T, steps, t0, conjugate_potential, free)):
            for j, p in enumerate(u, lo):
                np.square(np.abs(p, out=sq), out=sq)
                mass[k, j] = np.sqrt(sq.sum() * vol)
            if store == "all" and k < steps:
                slices[k, lo:hi] = u

    _in_parts(step_rows, len(probes))
    drift = _drift(mass)
    worst = int(np.argmax(drift))
    if drift[worst] > 1e-8:
        logger.warning("mass drift %.2e at probe %d (complex potential or aliasing)",
                       drift[worst], worst)
    if f.ndim == spec.n:
        slices, mass, final = slices[:, 0], mass[:, 0], final[0]
    return Trajectory(spec, times, slices, mass, final)


def itf_map(V: Potential, probes: np.ndarray, T: float, steps: int = 256) -> np.ndarray:
    """Apply the initial-to-final-state map f -> u(T) to each probe.

    ``probes`` is a stack along a leading probe axis, passed as it is to
    one ``evolve`` call that stores no intermediate step (its working copy
    is the only copy).  Returns the final states along the same leading
    axis.
    """
    if len(probes) == 0:
        raise ValueError("itf_map wants at least one probe")
    return evolve(V, probes, T, steps, store="final").final


def _free_waves(ghat: np.ndarray, free_sq: np.ndarray, times, T: float, lattice, axes):
    """Yield the free final-value waves of every trial at each time, in one reused buffer."""
    phase = -1j * free_sq
    e = np.empty_like(phase)
    v = np.empty_like(ghat)
    for t in times:
        np.exp(np.multiply(phase, t - T, out=e), out=e)  # shared by every trial
        np.multiply(ghat, e, out=v)
        yield np.fft.ifftn(v, lattice, axes, out=v)


def _identity_sides(V1: Potential, V2: Potential | None, f: np.ndarray, g: np.ndarray,
                    T: float, steps: int) -> list[tuple[complex, complex]]:
    """(lhs, rhs) of the identity for each trial of the stacks f and g."""
    spec = V1.field.spec
    vol = spec.dx**spec.n
    lattice, axes = (spec.pts_space,) * spec.n, tuple(range(-spec.n, 0))
    times = T / steps * np.arange(steps + 1)
    if V2 is not None:
        u2_final = evolve(V2, f, T, steps, store="final").final
        # backward final-value solve for v2 under conj(V2), in increasing time
        v2s = evolve(V2, g, -T, steps, t0=T, conjugate_potential=True).slices[::-1]
    else:
        free_sq = _freq_sq(spec)
        u2_final = np.fft.ifftn(np.fft.fftn(f, lattice, axes) * np.exp(-1j * free_sq * T),
                                lattice, axes)
        v2s = _free_waves(np.fft.fftn(g, lattice, axes), free_sq, times, T, lattice, axes)

    trials = range(len(f))
    integrand = np.empty((len(f), steps + 1), dtype=complex)
    u1s = _strang(V1, f.copy(), T, steps, 0.0, False, np.exp(-1j * _freq_sq(spec) * (T / steps)))
    for k, (t, u1, v2) in enumerate(zip(times, u1s, v2s)):
        dv = sample_potential(V1, t) - sample_potential(V2, t)  # None samples as 0
        for j in trials:
            integrand[j, k] = (dv * u1[j] * np.conj(v2[j])).sum() * vol
    return [(1j * ((u1[j] - u2_final[j]) * np.conj(g[j])).sum() * vol,
             np.trapezoid(integrand[j], dx=T / steps)) for j in trials]


def integral_identity_check(
    V1: Potential,
    V2: Potential | None,
    f: np.ndarray,
    g: np.ndarray,
    T: float,
    steps: int = 256,
) -> list[dict]:
    """Residual of the bilinear identity, both sides independently solved.

    ``f`` and ``g`` are stacks of trials along a leading axis; the result
    holds one dict per trial.  The trapezoid integrand is summed as u_1 is
    stepped forward, so no forward trajectory is held.  With V_2 = None every trial's u_1 is
    stepped in one loop and the free v_2 of every trial is built at each
    time; otherwise the trials run one at a time, each holding its
    backward solve of v_2 as the one trajectory kept.

    Each dict holds lhs, rhs, residual = |lhs - rhs| and the normalized
    residual |lhs - rhs| / max(|lhs|, |rhs|).
    """
    spec = V1.field.spec
    lattice = (spec.pts_space,) * spec.n
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape or f.shape[1:] != lattice:
        raise ValueError("f and g must be matching stacks on the spatial lattice")
    if V2 is None:
        sides = _identity_sides(V1, None, f, g, T, steps)
    else:  # one trial at a time, so one backward trajectory is held
        sides = [s for j in range(len(f))
                 for s in _identity_sides(V1, V2, f[j:j + 1], g[j:j + 1], T, steps)]

    outs = []
    for lhs, rhs in sides:
        resid = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        out = {
            "lhs": complex(lhs),
            "rhs": complex(rhs),
            "residual": float(resid),
            "normalized_residual": float(resid / scale) if scale > 0.0 else 0.0,
            "steps": steps,
        }
        logger.info(
            "integral identity: lhs %s rhs %s normalized residual %.3e",
            out["lhs"], out["rhs"], out["normalized_residual"],
        )
        outs.append(out)
    return outs
