"""Lattice container, its unitary DFT, norms, and serialization."""

import io

import numpy as np
import pytest

from schrodlab.grid import (
    Field,
    GridSpec,
    boundary_mass_fraction,
    field_from_bytes,
    field_to_bytes,
    gaussian_packet,
    hyperplane_norm,
    l2_norm,
    load_field,
    mixed_norm,
    random_band_limited,
    save_field,
)
from schrodlab.multipliers import plan_S

SPEC1 = GridSpec(n=1, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)
SPEC2 = GridSpec(n=2, box_time=np.pi, box_space=np.pi, pts_time=16, pts_space=16)


def random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return Field(spec, data)


class TestGridSpec:
    def test_spacings(self):
        assert SPEC2.dt == 2 * np.pi / 16
        assert SPEC2.dtau == 1.0
        assert SPEC2.dxi == 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(n=1, box_time=1.0, box_space=1.0, pts_time=12, pts_space=16)

    def test_rejects_negative_box(self):
        with pytest.raises(ValueError):
            GridSpec(n=1, box_time=-1.0, box_space=1.0, pts_time=16, pts_space=16)

    def test_resource_cap(self):
        with pytest.raises(ValueError):
            GridSpec(n=3, box_time=1.0, box_space=1.0, pts_time=1024, pts_space=1024)

    def test_axes_cover_box(self):
        t = SPEC2.t_axis()
        assert t[0] == -np.pi
        assert t[-1] < np.pi


class TestTransforms:
    """The unitary DFT that the multiplier plans take of a field, on the unoffset lattice."""

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2])
    def test_plancherel(self, spec):
        f = random_field(spec, 3)
        coeffs = plan_S(spec, offset_xin=False).to_freq(f)
        assert np.linalg.norm(coeffs) == pytest.approx(l2_norm(f), rel=1e-12)

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2])
    def test_roundtrip(self, spec):
        f = random_field(spec, 4)
        plan = plan_S(spec, offset_xin=False)
        back = plan.from_freq(plan.to_freq(f))
        assert np.abs(back.data - f.data).max() < 1e-12


class TestNorms:
    def test_mixed_norm_2_2_is_weighted_l2(self):
        f = random_field(SPEC2, 5)
        weight = np.sqrt(SPEC2.dt * SPEC2.dx**2)
        assert mixed_norm(f, 2, 2) == pytest.approx(l2_norm(f) * weight, rel=1e-12)

    def test_mixed_norm_scaling(self):
        f = random_field(SPEC2, 6)
        assert mixed_norm(f * 3.0, 4, 3) == pytest.approx(3 * mixed_norm(f, 4, 3), rel=1e-12)

    def test_mixed_norm_infinite_exponent(self):
        f = random_field(SPEC1, 7)
        from schrodlab.symbols import INF

        val = mixed_norm(f, INF, INF)
        assert val == pytest.approx(np.abs(f.data).max())

    def test_holder_interpolation_bound(self):
        # ||f||_{2,2} <= ||f||_{inf,inf}^{1/2} ||f||_{1,1}^{1/2} on a
        # probability-normalized lattice is Cauchy-Schwarz; check the raw
        # inequality with measure weights
        f = random_field(SPEC1, 8)
        from schrodlab.symbols import INF

        l2 = mixed_norm(f, 2, 2)
        linf = mixed_norm(f, INF, INF)
        l1 = mixed_norm(f, 1, 1)
        assert l2**2 <= linf * l1 * (1 + 1e-12)

    def test_hyperplane_norm_fubini(self):
        # summing squared hyperplane norms over all lattice planes
        # recovers the full squared L2 norm
        f = random_field(SPEC2, 9)
        norms = hyperplane_norm(f)
        assert norms.shape == (SPEC2.pts_space,)
        total = (norms**2).sum() * SPEC2.dx
        assert total == pytest.approx(mixed_norm(f, 2, 2) ** 2, rel=1e-10)


class TestBoundaryMass:
    def test_centred_narrow_gaussian(self):
        f = gaussian_packet(SPEC2, 0.0, np.zeros(2), 0.5, 0.3)
        assert boundary_mass_fraction(f) < 1e-12

    def test_field_in_margin_strip(self):
        # support only where |x_1| > (1 - margin) * box_space
        strip = np.abs(SPEC2.x_axis()) > 0.9 * SPEC2.box_space
        data = np.broadcast_to(strip[None, :, None], SPEC2.shape).astype(complex)
        assert boundary_mass_fraction(Field(SPEC2, data), margin=0.1) == 1.0

    def test_zero_field(self):
        f = Field(SPEC2, np.zeros(SPEC2.shape))
        assert boundary_mass_fraction(f) == 0.0


class TestFactories:
    def test_gaussian_packet_centered(self):
        f = gaussian_packet(SPEC2, 0.0, np.zeros(2), 0.5, 0.5)
        peak = np.unravel_index(np.argmax(np.abs(f.data)), f.data.shape)
        assert peak == (8, 8, 8)

    def test_band_limited_support(self):
        rng = np.random.default_rng(0)
        f = random_band_limited(SPEC2, rng, band_time=3, band_space=3)
        coeffs = np.fft.fftn(f.data, norm="ortho")
        tau = SPEC2.tau_axis()
        out_band = np.abs(tau) > 3
        assert np.abs(coeffs[out_band]).max() < 1e-12


class TestSerialization:
    def test_roundtrip_bytes(self):
        f = random_field(SPEC2, 11)
        g = field_from_bytes(field_to_bytes(f))
        assert g.spec == f.spec
        assert np.array_equal(g.data, f.data)

    def test_bytes_deterministic(self):
        f = random_field(SPEC2, 12)
        assert field_to_bytes(f) == field_to_bytes(f)

    def test_file_roundtrip(self, tmp_path):
        f = random_field(SPEC1, 13)
        p = tmp_path / "f.slf"
        save_field(f, p)
        g = load_field(p)
        assert np.array_equal(g.data, f.data)

    def test_corrupt_magic_rejected(self):
        f = random_field(SPEC1, 14)
        buf = bytearray(field_to_bytes(f))
        buf[0] = 0
        with pytest.raises(ValueError):
            field_from_bytes(bytes(buf))

    def test_header_flags_physical_samples(self):
        # the last header byte is the representation flag: 0, physical samples
        buf = field_to_bytes(random_field(SPEC1, 15))
        assert buf[:4] == b"SLF1" and buf[4] == 1 and buf[30] == 0
        assert len(buf) == 31 + 16 * SPEC1.total_points

    @pytest.mark.parametrize("flag", [1, 255])
    def test_other_representation_flag_rejected(self, flag):
        # a container is input from outside the program: only physical samples are read
        buf = bytearray(field_to_bytes(random_field(SPEC1, 16)))
        buf[30] = flag
        with pytest.raises(ValueError, match="physical samples"):
            field_from_bytes(bytes(buf))
