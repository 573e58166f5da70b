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
import hashlib
import logging

import numpy as np

from .birman_schwinger import Potential
from .grid import GridSpec

logger = logging.getLogger(__name__)

__all__ = [
    "Trajectory",
    "ItfSample",
    "sample_potential",
    "evolve",
    "itf_map",
    "integral_identity_check",
]


@dataclass
class Trajectory:
    """Time slices of an evolved wave function on the spatial lattice."""

    spec: GridSpec
    times: np.ndarray
    slices: np.ndarray  # (steps + 1,) + spatial shape
    mass: np.ndarray  # L2 norms at each stored time

    @property
    def initial(self) -> np.ndarray:
        return self.slices[0]

    @property
    def final(self) -> np.ndarray:
        return self.slices[-1]

    def mass_drift(self) -> float:
        """Largest relative deviation of the conserved L2 norm."""
        if self.mass[0] == 0.0:
            return 0.0
        return float(np.abs(self.mass - self.mass[0]).max() / self.mass[0])


@dataclass
class ItfSample:
    """One application of the initial-to-final-state map."""

    probe: np.ndarray
    final: np.ndarray
    potential_hash: str
    T: float
    steps: int


def _potential_hash(V: Potential | None) -> str:
    if V is None:
        return "free"
    return hashlib.sha256(V.field.data.tobytes()).hexdigest()[:16]


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
    i0 = min(max(i0, 0), spec.pts_time - 1)
    i1 = min(i0 + 1, spec.pts_time - 1)
    return (1.0 - frac) * V.field.data[i0] + frac * V.field.data[i1]


def _freq_sq(spec: GridSpec) -> np.ndarray:
    return sum(c**2 for c in spec.spatial_mesh(frequency=True))


def evolve(
    V: Potential | None,
    f: np.ndarray,
    T: float,
    steps: int,
    t0: float = 0.0,
    conjugate_potential: bool = False,
) -> Trajectory:
    """Strang split-step integration from t0 to t0 + T (T may be negative).

    ``conjugate_potential`` evolves under conj(V) instead, which is what
    the backward final-value solve of the integral identity needs.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    spec = V.field.spec if V is not None else None
    if spec is None:
        raise ValueError("evolve needs a Potential carrying the grid (use a zero potential for free evolution)")
    u = np.asarray(f, dtype=complex).copy()
    if u.shape != (spec.pts_space,) * spec.n:
        raise ValueError("initial state does not match the spatial lattice")
    dt = T / steps
    vol = spec.dx**spec.n
    free = np.exp(-1j * _freq_sq(spec) * dt)
    times = t0 + dt * np.arange(steps + 1)
    slices = np.empty((steps + 1,) + u.shape, dtype=complex)
    mass = np.empty(steps + 1)
    slices[0] = u
    mass[0] = np.sqrt((np.abs(u) ** 2).sum() * vol)
    for k in range(steps):
        vmid = sample_potential(V, t0 + (k + 0.5) * dt)
        if conjugate_potential:
            vmid = np.conj(vmid)
        half = np.exp(-1j * vmid * (dt / 2.0))
        u = half * u
        u = np.fft.ifftn(np.fft.fftn(u) * free)
        u = half * u
        slices[k + 1] = u
        mass[k + 1] = np.sqrt((np.abs(u) ** 2).sum() * vol)
    traj = Trajectory(spec, times, slices, mass)
    drift = traj.mass_drift()
    if drift > 1e-8:
        logger.warning("mass drift %.2e (complex potential or aliasing)", drift)
    return traj


def itf_map(V: Potential, probes, T: float, steps: int = 256) -> list[ItfSample]:
    """Apply the initial-to-final-state map to each probe."""
    probes = list(probes)
    if not probes:
        raise ValueError("itf_map wants at least one probe")
    vh = _potential_hash(V)
    out = []
    for f in probes:
        traj = evolve(V, f, T, steps)
        out.append(ItfSample(np.asarray(f, complex), traj.final, vh, T, steps))
    return out


def integral_identity_check(
    V1: Potential,
    V2: Potential | None,
    f: np.ndarray,
    g: np.ndarray,
    T: float,
    steps: int = 256,
) -> dict:
    """Residual of the bilinear identity, both sides independently solved.

    Returns a dict with lhs, rhs, residual = |lhs - rhs| and the
    normalized residual |lhs - rhs| / max(|lhs|, |rhs|).
    """
    spec = V1.field.spec
    vol = spec.dx**spec.n
    u1 = evolve(V1, f, T, steps)
    if V2 is not None:
        u2_final = evolve(V2, f, T, steps).final
    else:
        free = np.exp(-1j * _freq_sq(spec) * T)
        u2_final = np.fft.ifftn(np.fft.fftn(np.asarray(f, complex)) * free)
    lhs = 1j * ((u1.final - u2_final) * np.conj(g)).sum() * vol

    # backward final-value solve for v2 under conj(V2)
    if V2 is not None:
        v2 = evolve(V2, g, -T, steps, t0=T, conjugate_potential=True)
        v2_slices = v2.slices[::-1]  # reorder to increasing time
    else:
        free_sq = _freq_sq(spec)
        ghat = np.fft.fftn(np.asarray(g, complex))
        ts = T / steps * np.arange(steps + 1)
        v2_slices = np.array(
            [np.fft.ifftn(ghat * np.exp(-1j * free_sq * (t - T))) for t in ts]
        )

    ts = u1.times
    integrand = np.empty(steps + 1, dtype=complex)
    for k, t in enumerate(ts):
        v1t = sample_potential(V1, t)
        v2t = sample_potential(V2, t) if V2 is not None else 0.0
        integrand[k] = ((v1t - v2t) * u1.slices[k] * np.conj(v2_slices[k])).sum() * vol
    dt = T / steps
    rhs = np.trapezoid(integrand, dx=dt)

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
