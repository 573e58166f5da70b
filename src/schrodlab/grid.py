"""Space-time lattice, fields and norms.

The ambient domain R x R^n (n in {1, 2, 3}) is discretized as a periodic
truncated lattice: the time axis covers [-box_time, box_time) with pts_time
samples and each spatial axis covers [-box_space, box_space) with pts_space
samples.  All operators in this package act on the torus; experiment
configurations are expected to keep field mass away from the boundary (see
:func:`boundary_mass_fraction`).

Design notes
------------
* A field holds physical samples; the multiplier plans take its unitary
  DFT (norm="ortho"), so Plancherel holds without quadrature weights and
  weights enter only in the norm operations.
* Infinity exponents are computed as lattice maxima.
* Fields serialize to a small binary container (little-endian header plus
  interleaved re/im doubles).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
import math
from typing import Sequence

import numpy as np

from .symbols import as_exponent

__all__ = [
    "GridSpec",
    "Field",
    "mixed_norm",
    "hyperplane_norm",
    "l2_norm",
    "boundary_mass_fraction",
    "gaussian_packet",
    "random_band_limited",
    "save_field",
    "load_field",
    "field_to_bytes",
    "field_from_bytes",
]

_MAGIC = b"SLF1"
#: Memory budget of a GridSpec, in total complex samples.
_MAX_POINTS = 1 << 24


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
        Samples per axis; powers of two, at most ``_MAX_POINTS`` (2^24)
        samples in all.
    """

    n: int
    box_time: float
    box_space: float
    pts_time: int
    pts_space: int

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
        if self.total_points > _MAX_POINTS:
            raise ValueError(f"grid of {self.total_points} points exceeds budget {_MAX_POINTS}")

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

    def tau_axis(self) -> np.ndarray:
        """Angular time-frequencies on the dual lattice."""
        return 2.0 * np.pi * np.fft.fftfreq(self.pts_time, d=self.dt)

    def xi_axis(self) -> np.ndarray:
        """Angular space-frequencies along one axis."""
        return 2.0 * np.pi * np.fft.fftfreq(self.pts_space, d=self.dx)

    @property
    def dtau(self) -> float:
        return np.pi / self.box_time

    @property
    def dxi(self) -> float:
        return np.pi / self.box_space

    def spatial_mesh(self, frequency: bool = False):
        """Broadcastable (x_1, ..., x_n) arrays of one time slice.

        With ``frequency`` the arrays are (xi_1, ..., xi_n) instead, on
        the dual lattice.
        """
        axis = self.xi_axis() if frequency else self.x_axis()
        return np.meshgrid(*([axis] * self.n), indexing="ij", sparse=True)


@dataclass
class Field:
    """Physical samples of a complex-valued function on a :class:`GridSpec` lattice."""

    spec: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if self.data.shape != self.spec.shape:
            raise ValueError(
                f"data shape {self.data.shape} != grid shape {self.spec.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.spec, self.data.copy())

    def __add__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.spec, self.data + other.data)

    def __sub__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.spec, self.data - other.data)

    def __mul__(self, scalar) -> "Field":
        return Field(self.spec, self.data * scalar)

    __rmul__ = __mul__


def _check_compatible(a: Field, b: Field) -> None:
    if a.spec != b.spec:
        raise ValueError("field grids do not match")


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def l2_norm(f: Field | np.ndarray) -> float:
    """Plain (weight-free) two-norm of the samples of a field, or of a
    C-contiguous complex128 array such as a block of a field's time rows.

    The sum of squares runs in numpy's own einsum loop over the real view of
    the samples, never in BLAS, so it rounds the same whatever the BLAS
    thread count, and it leaves a second core free for a worker thread.
    """
    data = f.data if isinstance(f, Field) else f
    x = data.reshape(-1).view(np.float64)
    return math.sqrt(np.einsum("i,i->", x, x))


def mixed_norm(f: Field, q, r) -> float:
    """Quadrature approximation of the mixed norm L^q_t L^r_x.

    Infinity exponents are lattice maxima.  ``q``/``r`` may be ints, floats,
    Fractions, or infinity.
    """
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


def hyperplane_norm(f: Field) -> np.ndarray:
    """L^2 norms over time x the hyperplane {x_n = s}, one per lattice plane s.

    The planes are orthogonal to the last spatial axis.  For n = 1 each
    hyperplane is a point and each norm is a time-line L^2 norm.
    """
    spec = f.spec
    weight = spec.dt * spec.dx ** (spec.n - 1)
    flat = np.moveaxis(f.data, -1, 0).reshape(spec.pts_space, -1)
    return np.sqrt((np.abs(flat) ** 2).sum(axis=1) * weight)


def boundary_mass_fraction(f: Field, margin: float = 0.1) -> float:
    """Fraction of |f|^2 mass within ``margin`` of the spatial boundary.

    Used to check the periodic-truncation policy (mass near the boundary
    should stay below the configured tolerance).
    """
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


def gaussian_packet(
    spec: GridSpec,
    center_t: float = 0.0,
    center_x: Sequence[float] | float = 0.0,
    width_t: float = 1.0,
    width_x: float = 1.0,
    mod_tau: float = 0.0,
    mod_xi: Sequence[float] | float = 0.0,
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
    return Field(spec, out)


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
    return Field(spec, np.fft.ifftn(coeffs, norm="ortho"))


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
        0,  # representation flag: physical samples
    )
    payload = np.ascontiguousarray(f.data, dtype="<c16").tobytes()
    return head + payload


def field_from_bytes(buf: bytes) -> Field:
    magic, version, n, pts_time, pts_space, box_time, box_space, rep_flag = (
        _HEADER.unpack_from(buf)
    )
    if magic != _MAGIC:
        raise ValueError("not a field container (bad magic)")
    if version != 1:
        raise ValueError(f"unsupported container version {version}")
    if rep_flag != 0:
        raise ValueError(f"field container holds no physical samples (flag {rep_flag})")
    spec = GridSpec(n, box_time, box_space, pts_time, pts_space)
    data = np.frombuffer(buf, dtype="<c16", offset=_HEADER.size)
    data = data.reshape(spec.shape).astype(np.complex128)
    return Field(spec, data)


def save_field(f: Field, path) -> None:
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(f))


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())
