"""Space-time lattice, fields, transforms, and norms.

The ambient domain R x R^n (n in {1, 2, 3}) is discretized as a periodic
truncated lattice: the time axis covers [-box_time, box_time) with pts_time
samples and each spatial axis covers [-box_space, box_space) with pts_space
samples.  All operators in this package act on the torus; experiment
configurations are expected to keep field mass away from the boundary (see
:func:`boundary_mass_fraction`).

Design notes
------------
* The discrete Fourier transform is unitary (norm="ortho"), so Plancherel
  holds without quadrature weights; weights enter only in the norm
  operations.
* Infinity exponents are computed as lattice maxima.
* Fields serialize to a small binary container (little-endian header plus
  interleaved re/im doubles).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
import math
from typing import Sequence

import numpy as np

from .symbols import as_exponent

__all__ = [
    "GridSpec",
    "Field",
    "transform",
    "mixed_norm",
    "hyperplane_norm",
    "l2_norm",
    "boundary_mass_fraction",
    "zero_field",
    "single_mode",
    "gaussian_packet",
    "random_band_limited",
    "save_field",
    "load_field",
    "field_to_bytes",
    "field_from_bytes",
]

_MAGIC = b"SLF1"

PHYSICAL = "physical"
FREQUENCY = "frequency"


@dataclass(frozen=True)
class GridSpec:
    """A truncated space-time lattice for R x R^n.

    Attributes
    ----------
    n:
        Spatial dimension, 1 to 3.
    box_time, box_space:
        Half-widths of the time window and of each spatial axis.
    pts_time, pts_space:
        Samples per axis; powers of two.
    max_points:
        Soft memory budget in total complex samples.  It bounds
        construction only, so it is not part of the grid's identity: two
        grids with the same lattice compare equal whatever their budgets.
    """

    n: int
    box_time: float
    box_space: float
    pts_time: int
    pts_space: int

    max_points: int = field(default=1 << 24, compare=False)

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1..3, got {self.n}")
        if self.box_time <= 0 or self.box_space <= 0:
            raise ValueError("box half-widths must be positive")
        for pts, name in ((self.pts_time, "pts_time"), (self.pts_space, "pts_space")):
            if pts < 8:
                raise ValueError(f"{name} must be >= 8, got {pts}")
            if pts & (pts - 1):
                raise ValueError(f"{name} must be a power of two, got {pts}")
        if self.total_points > self.max_points:
            raise ValueError(
                f"grid of {self.total_points} points exceeds budget {self.max_points}"
            )

    def as_dict(self) -> dict:
        """The lattice parameters as echoed in report ``grid`` blocks."""
        return {"n": self.n, "box_time": self.box_time, "box_space": self.box_space,
                "pts_time": self.pts_time, "pts_space": self.pts_space}

    # -- lattice geometry -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.pts_time,) + (self.pts_space,) * self.n

    @property
    def total_points(self) -> int:
        return self.pts_time * self.pts_space**self.n

    @property
    def dt(self) -> float:
        return 2.0 * self.box_time / self.pts_time

    @property
    def dx(self) -> float:
        return 2.0 * self.box_space / self.pts_space

    @property
    def cell_volume(self) -> float:
        """Space-time quadrature weight dt * dx^n."""
        return self.dt * self.dx**self.n

    def t_axis(self) -> np.ndarray:
        return -self.box_time + self.dt * np.arange(self.pts_time)

    def x_axis(self) -> np.ndarray:
        return -self.box_space + self.dx * np.arange(self.pts_space)

    def tau_axis(self, offset: float = 0.0) -> np.ndarray:
        """Angular time-frequencies on the dual lattice (+ optional offset)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.pts_time, d=self.dt) + offset

    def xi_axis(self, offset: float = 0.0) -> np.ndarray:
        """Angular space-frequencies along one axis (+ optional offset)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.pts_space, d=self.dx) + offset

    @property
    def dtau(self) -> float:
        return np.pi / self.box_time

    @property
    def dxi(self) -> float:
        return np.pi / self.box_space

    def meshgrid_freq(self, tau_offset: float = 0.0, xi_n_offset: float = 0.0):
        """Broadcastable (tau, xi_1, ..., xi_n) arrays on the dual lattice.

        The optional offsets shift the tau lattice and the last spatial
        frequency lattice by the given amounts (used by the multiplier plans
        to dodge characteristic sets).
        """
        axes = [self.tau_axis(tau_offset)]
        for j in range(self.n):
            off = xi_n_offset if j == self.n - 1 else 0.0
            axes.append(self.xi_axis(off))
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def spatial_mesh(self, frequency: bool = False):
        """Broadcastable (x_1, ..., x_n) arrays of one time slice.

        With ``frequency`` the arrays are (xi_1, ..., xi_n) instead, on
        the dual lattice without offset.
        """
        axis = self.xi_axis() if frequency else self.x_axis()
        return np.meshgrid(*([axis] * self.n), indexing="ij", sparse=True)


@dataclass
class Field:
    """A complex-valued sampled function on a :class:`GridSpec` lattice.

    ``rep`` records whether ``data`` holds physical samples or unitary-DFT
    coefficients; it flips only through :func:`transform`.
    """

    spec: GridSpec
    rep: str
    data: np.ndarray

    def __post_init__(self):
        if self.rep not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"rep must be physical|frequency, got {self.rep!r}")
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if self.data.shape != self.spec.shape:
            raise ValueError(
                f"data shape {self.data.shape} != grid shape {self.spec.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.spec, self.rep, self.data.copy())

    def __add__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.spec, self.rep, self.data + other.data)

    def __sub__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.spec, self.rep, self.data - other.data)

    def __mul__(self, scalar) -> "Field":
        return Field(self.spec, self.rep, self.data * scalar)

    __rmul__ = __mul__


def _check_compatible(a: Field, b: Field) -> None:
    if a.spec != b.spec:
        raise ValueError("field grids do not match")
    if a.rep != b.rep:
        raise ValueError(f"field representations differ: {a.rep} vs {b.rep}")


# ---------------------------------------------------------------------------
# transforms and norms
# ---------------------------------------------------------------------------


def transform(f: Field, direction: str = "forward") -> Field:
    """Unitary DFT between physical and frequency representations.

    ``forward`` maps physical -> frequency, ``inverse`` the other way; the
    round trip is the identity to rounding and Plancherel holds exactly up
    to rounding.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be forward|inverse, got {direction!r}")
    if np.isnan(f.data).any():
        raise ValueError("field contains NaN")
    if direction == "forward":
        if f.rep != PHYSICAL:
            raise ValueError("forward transform expects a physical-rep field")
        out = np.fft.fftn(f.data, norm="ortho")
        return Field(f.spec, FREQUENCY, out)
    if f.rep != FREQUENCY:
        raise ValueError("inverse transform expects a frequency-rep field")
    out = np.fft.ifftn(f.data, norm="ortho")
    return Field(f.spec, PHYSICAL, out)


def l2_norm(f: Field) -> float:
    """Plain (weight-free) two-norm of the samples."""
    return float(np.linalg.norm(f.data))


def mixed_norm(f: Field, q, r) -> float:
    """Quadrature approximation of the mixed norm L^q_t L^r_x.

    Infinity exponents are lattice maxima.  ``q``/``r`` may be ints, floats,
    Fractions, or infinity.
    """
    if f.rep != PHYSICAL:
        raise ValueError("mixed_norm expects a physical-rep field")
    if np.isnan(f.data).any():
        raise ValueError("field contains NaN")
    qv = float(as_exponent(q))
    rv = float(as_exponent(r))
    a = np.abs(f.data)
    spec = f.spec
    space_axes = tuple(range(1, spec.n + 1))
    if math.isinf(rv):
        slice_norms = a.max(axis=space_axes) if a.size else np.zeros(spec.pts_time)
    else:
        slice_norms = (a**rv).sum(axis=space_axes) * spec.dx**spec.n
        slice_norms = slice_norms ** (1.0 / rv)
    if math.isinf(qv):
        return float(slice_norms.max())
    return float(((slice_norms**qv).sum() * spec.dt) ** (1.0 / qv))


def hyperplane_norm(f: Field, axis: int, s: float) -> float:
    """L^2 norm over time x the hyperplane {x_axis = s} (axis-aligned).

    ``s`` is snapped to the nearest lattice plane.  For n = 1 the hyperplane
    is a point and the result is the time-line L^2 norm.
    """
    if f.rep != PHYSICAL:
        raise ValueError("hyperplane_norm expects a physical-rep field")
    spec = f.spec
    if not 0 <= axis < spec.n:
        raise ValueError(f"axis {axis} out of range for n={spec.n}")
    idx = int(round((s + spec.box_space) / spec.dx)) % spec.pts_space
    slab = np.take(f.data, idx, axis=1 + axis)
    weight = spec.dt * spec.dx ** (spec.n - 1)
    return float(np.sqrt((np.abs(slab) ** 2).sum() * weight))


def boundary_mass_fraction(f: Field, margin: float = 0.1) -> float:
    """Fraction of |f|^2 mass within ``margin`` of the spatial boundary.

    Used to check the periodic-truncation policy (mass near the boundary
    should stay below the configured tolerance).
    """
    if f.rep != PHYSICAL:
        raise ValueError("boundary_mass_fraction expects a physical-rep field")
    spec = f.spec
    x = spec.x_axis()
    interior = np.abs(x) <= (1.0 - margin) * spec.box_space
    mask = np.ones(spec.shape, dtype=bool)
    for j in range(spec.n):
        shape = [1] * (spec.n + 1)
        shape[1 + j] = spec.pts_space
        mask &= interior.reshape(shape)
    total = float((np.abs(f.data) ** 2).sum())
    if total == 0.0:
        return 0.0
    boundary = float((np.abs(f.data[~mask]) ** 2).sum())
    return boundary / total


# ---------------------------------------------------------------------------
# field factories
# ---------------------------------------------------------------------------


def zero_field(spec: GridSpec, rep: str = PHYSICAL) -> Field:
    return Field(spec, rep, np.zeros(spec.shape, dtype=np.complex128))


def single_mode(spec: GridSpec, k_time: int, k_space: Sequence[int]) -> Field:
    """The lattice plane wave e^{i(tau_k t + xi_k . x)} (physical rep).

    ``k_time`` and ``k_space`` are integer lattice indices; the realized
    frequencies are ``k * dtau`` and ``k * dxi``.
    """
    if len(k_space) != spec.n:
        raise ValueError("k_space length must equal n")
    t = spec.t_axis()
    phase = (spec.dtau * k_time) * t
    data = np.exp(1j * phase).reshape((-1,) + (1,) * spec.n)
    x = spec.x_axis()
    out = np.broadcast_to(data, spec.shape).copy()
    for j, k in enumerate(k_space):
        shape = [1] * (spec.n + 1)
        shape[1 + j] = spec.pts_space
        out = out * np.exp(1j * (spec.dxi * k) * x).reshape(shape)
    return Field(spec, PHYSICAL, out)


def gaussian_packet(
    spec: GridSpec,
    center_t: float = 0.0,
    center_x: Sequence[float] | float = 0.0,
    width_t: float = 1.0,
    width_x: float = 1.0,
    mod_tau: float = 0.0,
    mod_xi: Sequence[float] | float = 0.0,
    amplitude: complex = 1.0,
) -> Field:
    """A separable Gaussian wave packet with optional modulation."""
    if np.isscalar(center_x):
        center_x = [float(center_x)] * spec.n
    if np.isscalar(mod_xi):
        mod_xi = [float(mod_xi)] * spec.n
    t = spec.t_axis()
    env = np.exp(-((t - center_t) ** 2) / (2.0 * width_t**2) + 1j * mod_tau * t)
    out = env.reshape((-1,) + (1,) * spec.n).astype(np.complex128)
    out = np.broadcast_to(out, spec.shape).copy()
    x = spec.x_axis()
    for j in range(spec.n):
        shape = [1] * (spec.n + 1)
        shape[1 + j] = spec.pts_space
        fac = np.exp(
            -((x - center_x[j]) ** 2) / (2.0 * width_x**2) + 1j * mod_xi[j] * x
        )
        out = out * fac.reshape(shape)
    return Field(spec, PHYSICAL, amplitude * out)


def random_band_limited(
    spec: GridSpec,
    rng: np.random.Generator,
    band_time: int = 4,
    band_space: int = 4,
) -> Field:
    """Random field with DFT support in |k_t| <= band_time, |k_x| <= band_space.

    Coefficients are standard complex Gaussians.
    """
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    kt = np.fft.fftfreq(spec.pts_time) * spec.pts_time
    kx = np.fft.fftfreq(spec.pts_space) * spec.pts_space
    mask = (np.abs(kt) <= band_time).reshape((-1,) + (1,) * spec.n)
    mask = np.broadcast_to(mask, spec.shape).copy()
    for j in range(spec.n):
        shape = [1] * (spec.n + 1)
        shape[1 + j] = spec.pts_space
        mask &= (np.abs(kx) <= band_space).reshape(shape)
    m = int(mask.sum())
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    coeffs[mask] = vals
    return transform(Field(spec, FREQUENCY, coeffs), "inverse")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sBBIIddB")


def field_to_bytes(f: Field) -> bytes:
    spec = f.spec
    head = _HEADER.pack(
        _MAGIC,
        1,  # container version
        spec.n,
        spec.pts_time,
        spec.pts_space,
        spec.box_time,
        spec.box_space,
        0 if f.rep == PHYSICAL else 1,
    )
    payload = np.ascontiguousarray(f.data, dtype="<c16").tobytes()
    return head + payload


def field_from_bytes(buf: bytes) -> Field:
    magic, version, n, pts_time, pts_space, box_time, box_space, repflag = (
        _HEADER.unpack_from(buf)
    )
    if magic != _MAGIC:
        raise ValueError("not a field container (bad magic)")
    if version != 1:
        raise ValueError(f"unsupported container version {version}")
    spec = GridSpec(n, box_time, box_space, pts_time, pts_space)
    data = np.frombuffer(buf, dtype="<c16", offset=_HEADER.size)
    data = data.reshape(spec.shape).astype(np.complex128)
    return Field(spec, PHYSICAL if repflag == 0 else FREQUENCY, data)


def save_field(f: Field, path) -> None:
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(f))


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())
