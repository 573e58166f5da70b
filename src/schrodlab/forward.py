"""Physical-solution simulator and the initial-to-final-state map.

The initial-value problem i d_t u = -Laplacian u + V u, u(0) = f, is
integrated with a Strang split-step scheme: half potential phase, exact
free spectral step, half potential phase, with the (possibly time
dependent) potential sampled at step midpoints.  Both sub-steps are
unitary for real V, so mass is conserved to rounding, and the scheme is
second order in the step size.

The module also verifies the bilinear integral identity

    i < (U_T^1 - U_T^2) f, g >  =  int_0^T int (V_1 - V_2) u_1 conj(v_2),

where u_1 evolves forward from f under V_1 and v_2 solves the final-value
problem v_2(T) = g under conj(V_2) (realized by running the same scheme
backward in time).  Both sides are computed by independent solves, so
their agreement is a genuine two-sided check.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging

import numpy as np

from .birman_schwinger import Potential
from .grid import GridSpec

logger = logging.getLogger(__name__)

__all__ = [
    "Trajectory",
    "sample_potential",
    "evolve",
    "itf_map",
    "integral_identity_check",
]


#: Probes per pass of the step loop.  On the 58 plane-wave probes of
#: configs/reconstruct.yaml (128 steps at 64^2, 2 vCPUs), chunks of 4 to 16
#: took 1.2-1.5 s against 2.0 s for the per-probe loop, and all 58 at once
#: (3.8 MB, more than the 2 MiB L2) 1.55 s; a chunk of 8 keeps the few live
#: arrays of a step (512 KiB each) inside L2.
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


def sample_potential(V: Potential | None, t: float) -> np.ndarray | float:
    """Potential slice at time t, linearly interpolated on the lattice.

    Outside the lattice time range the nearest boundary slice is clamped;
    V = None means the free equation.
    """
    if V is None:
        return 0.0
    spec = V.field.spec
    pos = (t + spec.box_time) / spec.dt
    pos = min(max(pos, 0.0), float(spec.pts_time - 1))
    i0 = int(np.floor(pos))
    frac = pos - i0
    i1 = min(i0 + 1, spec.pts_time - 1)
    return (1.0 - frac) * V.field.data[i0] + frac * V.field.data[i1]


def _freq_sq(spec: GridSpec) -> np.ndarray:
    return sum(c**2 for c in spec.spatial_mesh(frequency=True))


def _strang(V: Potential, u: np.ndarray, T: float, steps: int, t0: float,
            conjugate_potential: bool):
    """Yield the probes ``u`` (leading probe axis) at t0 and after each Strang step.

    The one step loop of the module: ``evolve`` runs it once per chunk of
    probes, and the integral identity streams its integrand from it.
    """
    spec = V.field.spec
    # with s given, fftn skips a np.take of the shape: about 20 us a call at 64^2
    lattice, axes = (spec.pts_space,) * spec.n, tuple(range(-spec.n, 0))
    dt = T / steps
    free = np.exp(-1j * _freq_sq(spec) * dt)
    yield u
    for k in range(steps):
        vmid = sample_potential(V, t0 + (k + 0.5) * dt)
        if conjugate_potential:
            vmid = np.conj(vmid)
        half = np.exp(-1j * vmid * (dt / 2.0))
        u = half * u
        u = np.fft.ifftn(np.fft.fftn(u, lattice, axes) * free, lattice, axes)
        u = half * u
        yield u


def evolve(
    V: Potential | None,
    f: np.ndarray,
    T: float,
    steps: int,
    t0: float = 0.0,
    conjugate_potential: bool = False,
    store: str = "all",
) -> Trajectory:
    """Strang split-step integration from t0 to t0 + T (T may be negative).

    ``f`` is one state on the spatial lattice or a stack of probes along a
    leading axis; the step loop runs once per chunk of ``CHUNK`` probes.
    ``store="all"`` keeps every step, ``store="final"`` only the final
    states; the mass of every probe is recorded at every step either way.
    ``conjugate_potential`` evolves under conj(V) instead, which is what
    the backward final-value solve of the integral identity needs.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if store not in ("all", "final"):
        raise ValueError(f"store must be 'all' or 'final', not {store!r}")
    spec = V.field.spec if V is not None else None
    if spec is None:
        raise ValueError("evolve needs a Potential carrying the grid (use a zero potential for free evolution)")
    f = np.asarray(f, dtype=complex)
    lattice = (spec.pts_space,) * spec.n
    if f.shape[-spec.n:] != lattice or f.ndim not in (spec.n, spec.n + 1):
        raise ValueError("initial state does not match the spatial lattice")
    probes = f.reshape((-1,) + lattice)  # a single state is the batch of one
    axes = tuple(range(1, spec.n + 1))
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
    for lo in range(0, len(probes), CHUNK):
        chunk = slice(lo, lo + CHUNK)
        for k, u in enumerate(_strang(V, probes[chunk], T, steps, t0, conjugate_potential)):
            mass[k, chunk] = np.sqrt((np.abs(u) ** 2).sum(axis=axes) * vol)
            if store == "all":
                slices[k, chunk] = u
        final[chunk] = u
    drift = _drift(mass)
    worst = int(np.argmax(drift))
    if drift[worst] > 1e-8:
        logger.warning("mass drift %.2e at probe %d (complex potential or aliasing)",
                       drift[worst], worst)
    if f.ndim == spec.n:
        slices, mass, final = slices[:, 0], mass[:, 0], final[0]
    return Trajectory(spec, times, slices, mass, final)


def itf_map(V: Potential, probes, T: float, steps: int = 256) -> np.ndarray:
    """Apply the initial-to-final-state map f -> u(T) to each probe.

    Returns the final states stacked along a leading probe axis, from one
    ``evolve`` call that stores no intermediate step.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("itf_map wants at least one probe")
    return evolve(V, np.stack(probes), T, steps, store="final").final


def integral_identity_check(
    V1: Potential,
    V2: Potential | None,
    f: np.ndarray,
    g: np.ndarray,
    T: float,
    steps: int = 256,
) -> dict:
    """Residual of the bilinear identity, both sides independently solved.

    The trapezoid integrand is summed as u_1 is stepped forward, so no
    forward trajectory is held; with V_2 = None the free v_2 is built at
    each time, and otherwise its backward solve is the one trajectory kept.

    Returns a dict with lhs, rhs, residual = |lhs - rhs| and the
    normalized residual |lhs - rhs| / max(|lhs|, |rhs|).
    """
    spec = V1.field.spec
    vol = spec.dx**spec.n
    f = np.asarray(f, dtype=complex)
    times = T / steps * np.arange(steps + 1)
    if V2 is not None:
        u2_final = evolve(V2, f, T, steps, store="final").final
        # backward final-value solve for v2 under conj(V2), in increasing time
        v2s = evolve(V2, g, -T, steps, t0=T, conjugate_potential=True).slices[::-1]
    else:
        free_sq = _freq_sq(spec)
        u2_final = np.fft.ifftn(np.fft.fftn(f) * np.exp(-1j * free_sq * T))
        ghat = np.fft.fftn(np.asarray(g, complex))
        v2s = (np.fft.ifftn(ghat * np.exp(-1j * free_sq * (t - T))) for t in times)

    integrand = np.empty(steps + 1, dtype=complex)
    u1s = _strang(V1, f[np.newaxis], T, steps, 0.0, False)
    for k, (t, u1, v2) in enumerate(zip(times, u1s, v2s)):
        dv = sample_potential(V1, t) - sample_potential(V2, t)  # None samples as 0
        integrand[k] = (dv * u1[0] * np.conj(v2)).sum() * vol
    rhs = np.trapezoid(integrand, dx=T / steps)
    lhs = 1j * ((u1[0] - u2_final) * np.conj(g)).sum() * vol

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
    return out
