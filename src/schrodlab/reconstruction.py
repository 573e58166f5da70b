"""Born-approximation recovery of a potential from initial-to-final data.

Each Fourier coefficient of V is probed by a pair of plane waves: the
initial state e^{i eta.x} is evolved under V, its scattered wave
u(T) - e^{-i |eta|^2 T} e^{i eta.x} is paired against e^{i kappa.x}, and
the bilinear identity reduces (to first order in V) to the space-time
Fourier transform of V at (tau, xi) = (|eta|^2 - |kappa|^2, kappa - eta).
The time-window factor int_0^T e^{-i tau t} dt is divided out
analytically.  On the lattice x_j = -L + j dx, e^{i k dxi x_j} is
(-1)^{sum k} e^{2 pi i k.j / N}, so one unnormalized FFT of a probe's
scattered wave holds its pairing with every kappa (bin kappa mod N, times
that sign), and one unnormalized inverse FFT of the signed coefficient box
is the estimate.

The probes are parametrized on the lattice: eta = -floor(xi / 2)
componentwise, which keeps kappa - eta = xi and tau = |eta|^2 - |kappa|^2
exact in integer arithmetic.
"""

from __future__ import annotations

import logging

import numpy as np

from .birman_schwinger import Potential
from .forward import itf_map
from .grid import GridSpec

logger = logging.getLogger(__name__)

# largest ||V||_inf * T at which a run's Born samples count as first order
_BORN_THRESHOLD = 0.5

__all__ = [
    "lattice_parametrization",
    "born_sample",
    "reconstruct_potential",
]


def lattice_parametrization(xi):
    """Integer probe frequencies (tau, eta, kappa) with eta = -floor(xi/2)."""
    xi = tuple(int(c) for c in xi)
    eta = tuple(-(c // 2) for c in xi)
    kappa = tuple(e + c for e, c in zip(eta, xi))
    tau = sum(e * e for e in eta) - sum(k * k for k in kappa)
    return tau, eta, kappa


def _sq(spec: GridSpec, freq) -> float:
    """|freq|^2 of a lattice frequency, in physical units (index * dxi)."""
    return sum(f * f for f in (k * spec.dxi for k in freq))


def _bin(spec: GridSpec, freq) -> tuple[tuple, int]:
    """The FFT bin of a lattice frequency and its sign (-1)^{sum freq}."""
    return tuple(k % spec.pts_space for k in freq), (-1) ** (sum(freq) % 2)


def _window_factor(tau: float, T: float) -> complex:
    """int_0^T e^{-i tau t} dt, analytically."""
    if tau == 0:
        return complex(T)
    return (1.0 - np.exp(-1j * tau * T)) / (1j * tau)


def born_sample(spec: GridSpec, xi, T: float, scattered_hat: np.ndarray) -> complex:
    """Estimate the Fourier coefficient of V at the lattice target xi.

    ``scattered_hat`` is the unnormalized FFT of the scattered wave
    u(T) - e^{-i |eta|^2 T} e^{i eta.x} of the target's probe eta.  The
    returned amplitude approximates the coefficient c_xi(tau) in
    V(t, x) = sum_xi c_xi(t) e^{i xi.x} averaged against the time window
    (up to the O(V^2) Born correction).
    """
    _, eta, kappa = lattice_parametrization(xi)
    sq_kappa = _sq(spec, kappa)
    tau_f = _sq(spec, eta) - sq_kappa
    index, sign = _bin(spec, kappa)
    lhs = 1j * (sign * scattered_hat[index]) * spec.dx**spec.n
    # pairing against v_2(t) = e^{i kappa.x - i |kappa|^2 (t - T)} leaves
    # e^{-i |kappa|^2 T} times the space-time transform of V at (tau, xi)
    win = _window_factor(tau_f, T)
    box = (2.0 * spec.box_space) ** spec.n
    return complex(lhs * np.exp(1j * sq_kappa * T) / (win * box))


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
    relative l2 error of the frequency restriction; that error is NaN
    when the reference vanishes on the sampled box.
    """
    spec = V.field.spec
    lattice, axes = (spec.pts_space,) * spec.n, tuple(range(1, spec.n + 1))
    kmax = int(np.floor(freq_radius))
    targets = [
        tuple(k - kmax for k in idx)
        for idx in np.ndindex(*((2 * kmax + 1,) * spec.n))
        if sum((k - kmax) ** 2 for k in idx) <= freq_radius**2
    ]
    # each distinct probe e^{i eta.x} is evolved once, in one itf_map call
    etas = [lattice_parametrization(xi)[1] for xi in targets]
    row = {eta: k for k, eta in enumerate(dict.fromkeys(etas))}
    probes = np.empty((len(row),) + lattice, dtype=complex)
    mesh = spec.spatial_mesh()
    for probe, eta in zip(probes, row):
        np.exp(1j * sum(e * spec.dxi * c for e, c in zip(eta, mesh)), out=probe)
    scattered = itf_map(V, probes, T, steps)
    # the scattered waves, and in place their spectra
    for probe, eta in zip(probes, row):
        np.multiply(probe, np.exp(-1j * _sq(spec, eta) * T), out=probe)
    scattered -= probes
    np.fft.fftn(scattered, lattice, axes, out=scattered)

    # the band-limited estimate: targets that alias onto one bin add up
    est = np.zeros(lattice, dtype=complex)
    sampled = np.zeros(lattice, dtype=bool)
    for xi, eta in zip(targets, etas):
        index, sign = _bin(spec, xi)
        est[index] += sign * born_sample(spec, xi, T, scattered[row[eta]])
        sampled[index] = True
    np.fft.ifftn(est, norm="forward", out=est)

    born_ok = float(np.abs(V.field.data).max()) * abs(T) <= _BORN_THRESHOLD
    report = {
        "n_samples": len(targets),
        "n_not_born": 0 if born_ok else len(targets),
        "freq_radius": freq_radius,
        "T": T,
        "steps": steps,
    }
    if reference is not None:
        ref_hat = np.fft.fftn(reference, norm="ortho")
        est_hat = np.fft.fftn(est, norm="ortho")
        num = np.sqrt((np.abs(est_hat - ref_hat)[sampled] ** 2).sum())
        den = np.sqrt((np.abs(ref_hat)[sampled] ** 2).sum())
        report["relative_l2_error"] = float(num / den) if den > 0 else float("nan")
    logger.info("reconstruction: %d samples", len(targets))
    return est, report
