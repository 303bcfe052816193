"""Grid, field, and operator tests for the spectral core."""

import struct

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow.errors import DriftflowError, FormatVersionMismatch
from driftflow.spectral import (
    Grid,
    SpectralField,
    curl,
    div,
    from_physical,
    grad,
    l2_norm,
    laplacian,
    leray_project,
    load_field,
    multiply,
    save_field,
    to_physical,
)

from conftest import band_of, full_lattice, half_of, random_field
from oracles import full_spectrum, true_product_coeffs

# the 2D and 3D grids of the property tests
GRIDS = [Grid(2, 16, 2.0 * np.pi), Grid(2, 24, 5.0), Grid(3, 8, 2.0 * np.pi), Grid(3, 12, 3.0)]
seeds = st.integers(min_value=0, max_value=2**32 - 1)
grids = st.sampled_from(GRIDS)
PROPERTY = settings(max_examples=25, deadline=None)


class TestGrid:
    def test_field_roundtrip(self, grid2d, rng):
        v = to_physical(random_field(grid2d, rng))
        f = from_physical(grid2d, v)
        back = to_physical(f)
        assert np.max(np.abs(back - v)) < 1e-12 * np.max(np.abs(v))

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            Grid(2, 33, 1.0)
        with pytest.raises(ValueError):
            Grid(2, 6, 1.0)
        with pytest.raises(ValueError):
            Grid(4, 16, 1.0)

    def test_zero_mode_exists_and_lattice_unique(self, grid2d):
        # every (k1, k2) of the stored band appears exactly once, the zero
        # mode at index 0, and every mode of the full lattice inside the 2/3
        # rule is stored either itself or by its partner -k
        m = grid2d.kcut
        kints = grid2d.kint.reshape(2, -1).T
        seen = set(map(tuple, kints))
        assert tuple(grid2d.kint[:, 0, 0]) == (0, 0)
        assert len(seen) == (2 * m + 1) * (m + 1) == grid2d.kmag.size
        for k in full_lattice(grid2d).reshape(2, -1).T.astype(int):
            if np.max(np.abs(k)) <= m:
                assert tuple(k) in seen or tuple(-k) in seen

    def test_wavenumber_scale(self):
        g = Grid(2, 16, 4.0 * np.pi)
        assert np.isclose(np.sort(np.unique(np.abs(g.kvec[0])))[1], 0.5)


class TestDerivatives:
    def test_laplacian_eigenfunction(self, grid2d):
        x = grid2d.coords()
        k = np.array([2.0, 1.0])
        f = from_physical(grid2d, np.cos(k[0] * x[0] + k[1] * x[1]))
        lf = to_physical(laplacian(f))
        expected = -np.sum(k**2) * np.cos(k[0] * x[0] + k[1] * x[1])
        assert np.max(np.abs(lf - expected)) < 1e-11

    def test_grad_div_consistency(self, grid2d, rng):
        h = random_field(grid2d, rng)
        gh = grad(h)
        lap = to_physical(div(gh))
        lap2 = to_physical(laplacian(h))
        assert np.max(np.abs(lap - lap2)) < 1e-12 * max(np.max(np.abs(lap2)), 1.0)


class TestLeray:
    def test_pure_gradient_has_no_solenoidal_part(self, grid2d, rng):
        h = random_field(grid2d, rng)
        p, q = leray_project(grad(h))
        assert l2_norm(p) < 1e-12 * max(l2_norm(q), 1.0)

    def test_divergence_free_passes_through(self, grid2d, rng):
        psi = random_field(grid2d, rng)
        w = SpectralField(grid2d, np.stack([
            -grad(psi).coeffs[1], grad(psi).coeffs[0],
        ]))
        p, q = leray_project(w)
        assert l2_norm(q) < 1e-12 * max(l2_norm(p), 1.0)

    def test_parseval_orthogonality(self, grid2d, rng):
        f = random_field(grid2d, rng, ncomp=2)
        p, q = leray_project(f)
        total = l2_norm(p) ** 2 + l2_norm(q) ** 2
        assert abs(total - l2_norm(f) ** 2) < 1e-12 * l2_norm(f) ** 2

    def test_projection_idempotent(self, grid2d, rng):
        f = random_field(grid2d, rng, ncomp=2)
        p, _ = leray_project(f)
        p2, q2 = leray_project(p)
        assert np.max(np.abs(p2.coeffs - p.coeffs)) < 1e-12
        assert l2_norm(q2) < 1e-12

    def test_divergence_of_solenoidal_part(self, grid3d, rng):
        f = random_field(grid3d, rng, ncomp=3)
        p, q = leray_project(f)
        assert l2_norm(div(p)) < 1e-12 * max(l2_norm(f), 1.0)
        assert np.max(np.abs((p + q).coeffs - f.coeffs)) < 1e-14

    def test_zero_mode_goes_to_solenoidal_part(self, grid2d, rng):
        f = random_field(grid2d, rng, ncomp=2)
        f.coeffs[:, 0, 0] = [0.3, -0.1]
        p, q = leray_project(f)
        assert np.allclose(p.coeffs[:, 0, 0], [0.3, -0.1])
        assert np.allclose(q.coeffs[:, 0, 0], 0.0)


class TestDealias:
    def test_already_dealiased_unchanged(self, grid2d, rng):
        # a band field reaches the inverse transform unchanged, padded with
        # zeros, and the forward transform's band cut returns it
        f = random_field(grid2d, rng)
        x = to_physical(f)
        assert np.array_equal(x, sfft.irfftn(half_of(grid2d, f.coeffs), s=grid2d.shape,
                                             norm="forward"))
        again = from_physical(grid2d, x)
        assert np.max(np.abs(again.coeffs - f.coeffs)) < 1e-13 * np.max(np.abs(f.coeffs))

    def test_noise_support_after_dealias(self, grid2d, rng):
        # the transform of noise keeps no mode beyond the 2/3-rule cutoff
        f = from_physical(grid2d, rng.standard_normal(grid2d.shape))
        assert np.max(np.abs(grid2d.kint)) <= grid2d.npts / 3
        full = full_spectrum(grid2d, f.coeffs)
        kint = full_lattice(grid2d)
        outside = (np.abs(kint[0]) > grid2d.npts / 3) | (np.abs(kint[1]) > grid2d.npts / 3)
        assert np.max(np.abs(full[outside])) == 0.0
        assert np.count_nonzero(f.coeffs) == f.coeffs.size

    def test_product_matches_true_convolution(self, rng):
        # quadratic products of resolved modes must be alias-free
        g = Grid(2, 16, 2.0 * np.pi)
        a = random_field(g, rng)
        b = random_field(g, rng)
        prod = multiply(a, b)
        exact = true_product_coeffs(g, a.coeffs, b.coeffs)
        assert np.max(np.abs(prod.coeffs - exact)) < 1e-13


class TestSnapshot(object):
    @PROPERTY
    @given(grid=grids, seed=seeds, vector=st.booleans())
    def test_roundtrip_bit_exact(self, tmp_path_factory, grid, seed, vector):
        f = random_field(grid, np.random.default_rng(seed), ncomp=grid.dim if vector else 1)
        path = tmp_path_factory.mktemp("snapshot") / "field.dfs"
        save_field(path, f)
        back = load_field(path)
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.grid.dim == grid.dim and back.grid.npts == grid.npts
        assert back.grid.length == grid.length

    def test_bad_magic_rejected(self, grid2d, rng, tmp_path):
        f = random_field(grid2d, rng)
        path = tmp_path / "field.dfs"
        save_field(path, f)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatVersionMismatch):
            load_field(path)

    def test_v2_roundtrip_bit_exact_3d(self, grid3d, rng, tmp_path):
        f = random_field(grid3d, rng, ncomp=3)
        path = tmp_path / "field.dfs"
        save_field(path, f)
        raw = path.read_bytes()
        assert struct.unpack("<I", raw[4:8])[0] == 2
        # the file holds the half spectrum: the band padded with zeros
        assert len(raw) == struct.calcsize("<4sIIIIId") + 16 * 3 * np.prod(grid3d.half_shape)
        back = load_field(path)
        assert back.coeffs.shape == (3,) + grid3d.spectral_shape
        assert np.array_equal(back.coeffs, f.coeffs)

    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_v1_full_spectrum_loads(self, grid2d, rng, tmp_path, ncomp):
        # a version-1 file holds the full Hermitian array, fftn(values) / N**d,
        # here of a band-limited field
        f = random_field(grid2d, rng, ncomp)
        values = to_physical(f)
        full = np.stack([full_spectrum(grid2d, c) for c in f.coeffs.reshape(
            (-1,) + grid2d.spectral_shape)]).reshape(f.coeffs.shape[:-2] + grid2d.shape)
        path = tmp_path / "v1.dfs"
        path.write_bytes(_v1_header(grid2d, ncomp) + full.astype("<c16").tobytes())
        back = load_field(path)
        assert back.coeffs.shape[-2:] == grid2d.spectral_shape
        assert np.array_equal(back.coeffs, f.coeffs)
        assert np.max(np.abs(to_physical(back) - values)) < 1e-12

    @pytest.mark.parametrize("vector", [False, True])
    def test_half_spectrum_file_roundtrips_bit_exact(self, grid3d, rng, tmp_path, vector):
        # a version-2 file as written when fields were stored by their whole
        # half spectrum: a band-limited field, zeros outside the band
        f = random_field(grid3d, rng, ncomp=3 if vector else 1)
        half = half_of(grid3d, f.coeffs)
        path = tmp_path / "half.dfs"
        raw = struct.pack("<4sIIIIId", b"DFS1", 2, 0x01020304, 3, grid3d.npts,
                          f.num_components, grid3d.length) + half.astype("<c16").tobytes()
        path.write_bytes(raw)
        back = load_field(path)
        assert np.array_equal(back.coeffs, band_of(grid3d, half))
        save_field(tmp_path / "again.dfs", back)
        assert (tmp_path / "again.dfs").read_bytes() == raw

    @pytest.mark.parametrize("version", [1, 2])
    def test_coefficient_outside_the_band_rejected(self, grid2d, tmp_path, version):
        shape = grid2d.shape if version == 1 else grid2d.half_shape
        c = np.zeros(shape, dtype="<c16")
        c[0, 0] = 1.0
        c[0, grid2d.kcut + 1] = 1e-300
        path = tmp_path / "outside.dfs"
        header = _v1_header(grid2d, 1)
        if version == 2:
            header = header[:4] + struct.pack("<I", 2) + header[8:]
        path.write_bytes(header + c.tobytes())
        with pytest.raises(FormatVersionMismatch, match="outside the retained band"):
            load_field(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("change", [-16, -1, 16])
    def test_wrong_payload_size_rejected(self, grid2d, rng, tmp_path, version, change):
        f = random_field(grid2d, rng)
        path = tmp_path / "field.dfs"
        if version == 2:
            save_field(path, f)
            raw = path.read_bytes()
        else:
            full = np.zeros(grid2d.shape, dtype="<c16")
            raw = _v1_header(grid2d, 1) + full.tobytes()
        raw = raw[:change] if change < 0 else raw + bytes(change)
        path.write_bytes(raw)
        with pytest.raises(FormatVersionMismatch):
            load_field(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "field.dfs"
        path.write_bytes(b"DFS1\x02\x00")
        with pytest.raises(DriftflowError):
            load_field(path)


def _v1_header(grid, ncomp):
    return struct.pack("<4sIIIIId", b"DFS1", 1, 0x01020304, grid.dim, grid.npts, ncomp,
                       grid.length)


# ---------------------------------------------------------------------------
# properties of the band layout, on 2D and 3D grids


def _rng_field(grid, seed, ncomp=1):
    return random_field(grid, np.random.default_rng(seed), ncomp)


class TestHalfSpectrumProperties:
    @PROPERTY
    @given(grid=grids, seed=seeds, ncomp=st.sampled_from([1, 2]))
    def test_transform_roundtrip(self, grid, seed, ncomp):
        # band-limited samples: the forward transform keeps only the band
        x = to_physical(_rng_field(grid, seed, ncomp))
        f = from_physical(grid, x)
        assert f.coeffs.shape[-grid.dim:] == grid.spectral_shape
        back = to_physical(f)
        assert back.dtype == np.float64 and back.shape == x.shape
        assert np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x))

    @PROPERTY
    @given(grid=grids, seed=seeds, ncomp=st.sampled_from([1, 2]))
    def test_l2_norm_equals_quadrature(self, grid, seed, ncomp):
        # band-limited samples load every stored plane of the band
        x = to_physical(_rng_field(grid, seed, ncomp))
        quad = np.sqrt(grid.cell_volume * np.sum(x**2))
        assert abs(l2_norm(from_physical(grid, x)) - quad) < 1e-12 * quad

    @PROPERTY
    @given(grid=grids, seed=seeds)
    def test_dealias_is_a_projection(self, grid, seed):
        # the forward transform cuts to the band; cutting again changes
        # nothing but roundoff
        x = np.random.default_rng(seed).standard_normal(grid.shape)
        once = from_physical(grid, x)
        twice = from_physical(grid, to_physical(once))
        assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-13 * np.max(np.abs(once.coeffs))

    @PROPERTY
    @given(grid=grids, seed=seeds, ncomp=st.sampled_from([1, 2]))
    def test_from_physical_is_the_band_of_rfftn(self, grid, seed, ncomp):
        shape = grid.shape if ncomp == 1 else (ncomp,) + grid.shape
        x = np.random.default_rng(seed).standard_normal(shape)
        full = sfft.rfftn(x, axes=tuple(range(-grid.dim, 0)), norm="forward")
        assert np.array_equal(from_physical(grid, x).coeffs, band_of(grid, full))

    @PROPERTY
    @given(grid=grids, seed=seeds)
    def test_scalar_after_vector_reads_a_fresh_padding(self, grid, seed):
        # to_physical reuses one zeroed buffer per grid and leading shape; a
        # scalar after a vector (and after a first scalar) is transformed as
        # from a freshly padded array, bit for bit
        rng = np.random.default_rng(seed)
        w = random_field(grid, rng, ncomp=grid.dim)
        f, g = random_field(grid, rng), random_field(grid, rng)
        axes = tuple(range(-grid.dim, 0))
        to_physical(w)
        to_physical(g)
        for field in (f, w):
            want = sfft.irfftn(half_of(grid, field.coeffs), s=grid.shape, axes=axes,
                               norm="forward")
            assert np.array_equal(to_physical(field), want)

    @PROPERTY
    @given(grid=grids, seed=seeds)
    def test_leray_split_idempotent_and_orthogonal(self, grid, seed):
        f = _rng_field(grid, seed, ncomp=grid.dim)
        p, q = leray_project(f)
        p2, q2 = leray_project(p)
        assert np.max(np.abs(p2.coeffs - p.coeffs)) < 1e-13
        assert l2_norm(q2) < 1e-13
        # weighted inner product <p, q> = sum_k w_k Re(p_k . conj(q_k))
        inner = np.sum(grid.parseval_weight * np.real(np.sum(p.coeffs * np.conj(q.coeffs),
                                                              axis=0)))
        assert abs(inner) < 1e-13 * l2_norm(f) ** 2 / grid.volume

    @PROPERTY
    @given(grid=grids, seed=seeds)
    def test_operator_outputs_are_real_fields(self, grid, seed):
        # every output is the band of its own real samples
        rng = np.random.default_rng(seed)
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        w = random_field(grid, rng, ncomp=grid.dim)
        outs = [laplacian(f), grad(f), div(w), curl(w), multiply(f, g), *leray_project(w)]
        for out in outs:
            again = from_physical(grid, to_physical(out))
            scale = max(np.max(np.abs(out.coeffs)), 1.0)
            assert np.max(np.abs(again.coeffs - out.coeffs)) < 1e-13 * scale


class TestCurl:
    def test_two_dimensional_rotation(self, grid2d):
        # v = (-sin y, sin x) has curl cos x + cos y
        x, y = grid2d.coords()
        v = from_physical(grid2d, np.stack([-np.sin(y), np.sin(x)]))
        w = to_physical(curl(v))
        assert w.shape == grid2d.shape
        assert np.max(np.abs(w - (np.cos(x) + np.cos(y)))) < 1e-12

    def test_three_dimensional_rotation(self, grid3d):
        # v = (sin z, sin x, sin y) has curl (cos y, cos z, cos x)
        x, y, z = grid3d.coords()
        v = from_physical(grid3d, np.stack([np.sin(z), np.sin(x), np.sin(y)]))
        w = to_physical(curl(v))
        assert np.max(np.abs(w - np.stack([np.cos(y), np.cos(z), np.cos(x)]))) < 1e-12

    def test_rejects_a_scalar(self, grid2d, rng):
        with pytest.raises(ValueError):
            curl(random_field(grid2d, rng))

    @PROPERTY
    @given(grid=st.sampled_from([g for g in GRIDS if g.dim == 3]), seed=seeds)
    def test_div_curl_vanishes_per_mode(self, grid, seed):
        f = _rng_field(grid, seed, ncomp=3)
        scale = np.max(np.abs(grid.kvec)) ** 2 * np.max(np.abs(f.coeffs))
        assert np.max(np.abs(div(curl(f)).coeffs)) <= 1e-14 * scale

    @PROPERTY
    @given(grid=grids, seed=seeds)
    def test_curl_grad_vanishes_per_mode(self, grid, seed):
        f = _rng_field(grid, seed)
        scale = np.max(np.abs(grid.kvec)) ** 2 * np.max(np.abs(f.coeffs))
        assert np.max(np.abs(curl(grad(f)).coeffs)) <= 1e-14 * scale


class TestGridLayout:
    def test_spectral_shapes(self):
        for grid in GRIDS:
            n, d, m = grid.npts, grid.dim, (grid.npts - 1) // 3
            band = (2 * m + 1,) * (d - 1) + (m + 1,)
            assert grid.spectral_shape == band
            assert grid.half_shape == (n,) * (d - 1) + (n // 2 + 1,)
            for arr in (grid.kmag, grid.k2, grid.dealias_keep):
                assert arr.shape == band
            assert grid.dealias_keep.all()
            assert (grid.kvec.shape == grid.ikvec.shape == grid.ehat.shape == grid.kint.shape
                    == (d,) + band)
            assert grid.parseval_weight.tolist() == [1.0] + [2.0] * m

    def test_field_of_full_lattice_shape_rejected(self, grid2d):
        with pytest.raises(ValueError):
            SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
