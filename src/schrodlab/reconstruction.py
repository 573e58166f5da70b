"""Born-approximation recovery of a potential from initial-to-final data.

Each Fourier coefficient of V is probed by a pair of plane waves: the
initial state e^{i eta.x} is evolved under V, paired against the free
final-value wave built from e^{i kappa.x}, and the bilinear identity
reduces (to first order in V) to the space-time Fourier transform of V at
(tau, xi) = (|eta|^2 - |kappa|^2, kappa - eta).  The time-window factor
int_0^T e^{-i tau t} dt is divided out analytically, and the retained
low-frequency box is inverted back to a potential estimate.

Two parametrizations are provided: the exact continuum one (eta and kappa
collinear with xi, any nu orthogonal to xi; exact rational arithmetic)
and the lattice one used by the sampler, eta = -floor(xi / 2)
componentwise, which keeps kappa - eta = xi and tau = |eta|^2 - |kappa|^2
exact in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import logging
import time

import numpy as np

from .birman_schwinger import Potential
from .forward import itf_map
from .grid import GridSpec

logger = logging.getLogger(__name__)

__all__ = [
    "FreqSample",
    "freq_parametrization",
    "lattice_parametrization",
    "born_sample",
    "reconstruct_potential",
]


@dataclass
class FreqSample:
    """One sampled space-time frequency of the potential."""

    tau: float
    xi: tuple
    eta: tuple
    kappa: tuple
    amplitude: complex
    born_ok: bool


def freq_parametrization(tau, xi, n: int):
    """Continuum probe frequencies for a target (tau, xi), xi != 0.

    Returns (nu, eta, kappa) with exact Fraction arithmetic:
    eta = -(1/2)(1 + tau/|xi|^2) xi, kappa = (1/2)(1 - tau/|xi|^2) xi,
    and nu a nonzero lattice vector orthogonal to xi.  The identities
    kappa - eta = xi and |eta|^2 - |kappa|^2 = tau hold exactly.
    """
    xi = tuple(Fraction(c) for c in xi)
    if len(xi) != n:
        raise ValueError("xi has wrong dimension")
    sq = sum(c * c for c in xi)
    if sq == 0:
        raise ValueError("xi = 0 has no parametrization (handled by continuity)")
    tau = Fraction(tau)
    eta = tuple(-Fraction(1, 2) * (1 + tau / sq) * c for c in xi)
    kappa = tuple(Fraction(1, 2) * (1 - tau / sq) * c for c in xi)
    # orthogonal direction: swap a nonzero coordinate against another slot
    j = next(k for k, c in enumerate(xi) if c != 0)
    m = (j + 1) % n
    nu = [Fraction(0)] * n
    nu[m] = xi[j]
    nu[j] = -xi[m]
    return tuple(nu), eta, kappa


def lattice_parametrization(xi, shift: int = 0):
    """Integer probe frequencies: eta = -floor(xi/2) - shift * e_j.

    ``shift`` moves eta along the dominant component of xi, changing tau
    by an integer amount while keeping kappa - eta = xi; used to sample
    several time frequencies of a time-dependent potential at fixed xi.
    """
    xi = tuple(int(c) for c in xi)
    eta = [-(c // 2) for c in xi]
    if shift != 0:
        if all(c == 0 for c in xi):
            raise ValueError("shift needs a nonzero xi direction")
        j = int(np.argmax(np.abs(xi)))
        eta[j] -= shift * (1 if xi[j] > 0 else -1)
    eta = tuple(eta)
    kappa = tuple(e + c for e, c in zip(eta, xi))
    tau = sum(e * e for e in eta) - sum(k * k for k in kappa)
    return tau, eta, kappa


def _plane_wave(spec: GridSpec, freq) -> np.ndarray:
    mesh = spec.spatial_mesh()
    phase = sum(float(f) * c for f, c in zip(freq, mesh))
    return np.exp(1j * phase)


def _window_factor(tau: float, T: float) -> complex:
    """int_0^T e^{-i tau t} dt, analytically."""
    if tau == 0:
        return complex(T)
    return (1.0 - np.exp(-1j * tau * T)) / (1j * tau)


def born_sample(
    V: Potential,
    xi,
    T: float,
    steps: int = 256,
    born_threshold: float = 0.5,
    u_final: np.ndarray | None = None,
) -> FreqSample:
    """Estimate the Fourier coefficient of V at the lattice target xi.

    The returned amplitude approximates the coefficient c_xi(tau) in
    V(t, x) = sum_xi c_xi(t) e^{i xi.x} averaged against the time window
    (up to the O(V^2) Born correction).  ``born_ok`` is False when
    ||V||_inf * T exceeds ``born_threshold``.  ``u_final`` is the probe's
    final state from ``itf_map``; when None the probe is evolved here.
    """
    spec = V.field.spec
    _, eta, kappa = lattice_parametrization(xi)
    # frequencies in physical units (lattice index * dxi)
    eta_f = tuple(e * spec.dxi for e in eta)
    kappa_f = tuple(k * spec.dxi for k in kappa)
    sq_eta = sum(f * f for f in eta_f)
    sq_kappa = sum(f * f for f in kappa_f)
    tau_f = sq_eta - sq_kappa

    f = _plane_wave(spec, eta_f)
    if u_final is None:
        u_final = itf_map(V, [f], T, steps)[0]
    free_final = f * np.exp(-1j * sq_eta * T)

    g = _plane_wave(spec, kappa_f)
    vol = spec.dx**spec.n
    lhs = 1j * ((u_final - free_final) * np.conj(g)).sum() * vol
    # pairing against v_2(t) = e^{i kappa.x - i |kappa|^2 (t - T)} leaves
    # e^{-i |kappa|^2 T} times the space-time transform of V at (tau, xi)
    win = _window_factor(tau_f, T)
    box = (2.0 * spec.box_space) ** spec.n
    amplitude = lhs * np.exp(1j * sq_kappa * T) / (win * box)

    vmax = float(np.abs(V.field.data).max())
    return FreqSample(
        tau=float(tau_f),
        xi=tuple(int(c) for c in xi),
        eta=eta,
        kappa=kappa,
        amplitude=complex(amplitude),
        born_ok=vmax * abs(T) <= born_threshold,
    )


def reconstruct_potential(
    V: Potential,
    freq_radius: float,
    T: float,
    steps: int = 256,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Recover the low-frequency part of a (time-averaged) potential.

    Samples every lattice frequency with |xi| <= freq_radius (in lattice
    index units), inverts the retained box, and, when ``reference`` (the
    true spatial potential on the lattice) is supplied, reports the
    relative l2 error of the frequency restriction.
    """
    t0 = time.time()
    spec = V.field.spec
    kmax = int(np.floor(freq_radius))
    targets = [
        tuple(k - kmax for k in idx)
        for idx in np.ndindex(*((2 * kmax + 1,) * spec.n))
        if sum((k - kmax) ** 2 for k in idx) <= freq_radius**2
    ]
    # each distinct probe e^{i eta.x} is evolved once, in one itf_map call
    etas = [lattice_parametrization(xi)[1] for xi in targets]
    row = {eta: k for k, eta in enumerate(dict.fromkeys(etas))}
    finals = itf_map(V, (_plane_wave(spec, [e * spec.dxi for e in eta]) for eta in row),
                     T, steps)
    samples = {xi: born_sample(V, xi, T, steps, u_final=finals[row[eta]])
               for xi, eta in zip(targets, etas)}
    coeffs = {xi: s.amplitude for xi, s in samples.items()}
    n_not_born = sum(not s.born_ok for s in samples.values())

    # assemble the band-limited estimate on the lattice
    est = np.zeros((spec.pts_space,) * spec.n, dtype=complex)
    mesh = spec.spatial_mesh()
    for xi, c in coeffs.items():
        phase = sum(k * spec.dxi * m for k, m in zip(xi, mesh))
        est += c * np.exp(1j * phase)

    report = {
        "n_samples": len(coeffs),
        "n_not_born": n_not_born,
        "freq_radius": freq_radius,
        "T": T,
        "steps": steps,
        "runtime": time.time() - t0,
    }
    if reference is not None:
        ref_hat = np.fft.fftn(reference, norm="ortho")
        est_hat = np.fft.fftn(est, norm="ortho")
        mask = np.zeros_like(ref_hat, dtype=bool)
        for xi in coeffs:
            mask[tuple(np.asarray(xi) % spec.pts_space)] = True
        num = np.sqrt((np.abs(est_hat - ref_hat)[mask] ** 2).sum())
        den = np.sqrt((np.abs(ref_hat)[mask] ** 2).sum())
        report["relative_l2_error"] = float(num / den) if den > 0 else 0.0
    logger.info("reconstruction: %d samples, %.2fs", len(coeffs), report["runtime"])
    return est, report
