"""Grid, field, and operator tests for the spectral core."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow.errors import DriftflowError, FormatVersionMismatch, NegativePowerOfZeroMode
from driftflow.spectral import (
    Grid,
    SpectralField,
    apply_derivative,
    dealias,
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

from conftest import full_lattice, random_field
from oracles import true_product_coeffs

# the 2D and 3D grids of the property tests
GRIDS = [Grid(2, 16, 2.0 * np.pi), Grid(2, 24, 5.0), Grid(3, 8, 2.0 * np.pi), Grid(3, 12, 3.0)]
seeds = st.integers(min_value=0, max_value=2**32 - 1)
grids = st.sampled_from(GRIDS)
PROPERTY = settings(max_examples=25, deadline=None)


class TestGrid:
    def test_field_roundtrip(self, grid2d, rng):
        v = rng.standard_normal(grid2d.shape)
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
        # every (k1, k2) of the half lattice appears exactly once, and every
        # mode of the full lattice is stored either itself or by its partner -k
        n = grid2d.npts
        kints = grid2d.kint.reshape(2, -1).T
        seen = set(map(tuple, kints))
        assert (0, 0) in seen
        assert len(seen) == n * (n // 2 + 1)
        wrap = lambda k: tuple((np.asarray(k) + n // 2) % n - n // 2)
        for k in full_lattice(grid2d).reshape(2, -1).T.astype(int):
            assert wrap(k) in seen or wrap(-k) in seen

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

    def test_lambda_zero_is_identity_on_mean_free(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f.coeffs[0, 0] = 0.0
        out = apply_derivative(f, "lambda_s", s=0.0)
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-14

    def test_lambda_two_matches_minus_laplacian(self, grid2d, rng):
        f = random_field(grid2d, rng)
        a = apply_derivative(f, "lambda_s", s=2.0)
        b = laplacian(f)
        scale = np.max(np.abs(b.coeffs)) or 1.0
        assert np.max(np.abs(a.coeffs + b.coeffs)) < 1e-12 * scale

    def test_negative_power_rejects_mean(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f.coeffs[0, 0] = 1.0
        with pytest.raises(NegativePowerOfZeroMode):
            apply_derivative(f, "lambda_s", s=-1.0)

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
        f = random_field(grid2d, rng)
        again = dealias(f)
        assert np.array_equal(f.coeffs, again.coeffs)

    def test_noise_support_after_dealias(self, grid2d, rng):
        shape = grid2d.spectral_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = dealias(SpectralField(grid2d, c))
        kint = grid2d.kint
        outside = (np.abs(kint[0]) > grid2d.npts / 3) | (np.abs(kint[1]) > grid2d.npts / 3)
        assert np.max(np.abs(f.coeffs[outside])) == 0.0

    def test_product_matches_true_convolution(self, rng):
        # quadratic products of resolved modes must be alias-free
        g = Grid(2, 16, 2.0 * np.pi)
        a = random_field(g, rng)
        b = random_field(g, rng)
        prod = multiply(a, b)
        exact = true_product_coeffs(a.coeffs, b.coeffs)
        exact = exact * g.dealias_keep
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
        assert len(raw) == struct.calcsize("<4sIIIIId") + 16 * f.coeffs.size
        back = load_field(path)
        assert back.coeffs.shape == (3,) + grid3d.spectral_shape
        assert np.array_equal(back.coeffs, f.coeffs)

    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_v1_full_spectrum_loads(self, grid2d, rng, tmp_path, ncomp):
        # a version-1 file holds the full Hermitian array, fftn(values) / N**d
        shape = grid2d.shape if ncomp == 1 else (ncomp,) + grid2d.shape
        values = rng.standard_normal(shape)
        full = np.fft.fftn(values, axes=(-2, -1)) / grid2d.npts**2
        path = tmp_path / "v1.dfs"
        path.write_bytes(_v1_header(grid2d, ncomp) + full.astype("<c16").tobytes())
        back = load_field(path)
        assert back.coeffs.shape[-2:] == grid2d.spectral_shape
        assert np.max(np.abs(to_physical(back) - values)) < 1e-12

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
# properties of the half-spectrum layout, on 2D and 3D grids


def _rng_field(grid, seed, ncomp=1):
    return random_field(grid, np.random.default_rng(seed), ncomp)


class TestHalfSpectrumProperties:
    @PROPERTY
    @given(grid=grids, seed=seeds, ncomp=st.sampled_from([1, 2]))
    def test_transform_roundtrip(self, grid, seed, ncomp):
        shape = grid.shape if ncomp == 1 else (ncomp,) + grid.shape
        x = np.random.default_rng(seed).standard_normal(shape)
        f = from_physical(grid, x)
        assert f.coeffs.shape[-grid.dim:] == grid.spectral_shape
        back = to_physical(f)
        assert back.dtype == np.float64 and back.shape == x.shape
        assert np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x))

    @PROPERTY
    @given(grid=grids, seed=seeds, ncomp=st.sampled_from([1, 2]))
    def test_l2_norm_equals_quadrature(self, grid, seed, ncomp):
        # undealiased samples load every last-axis plane, the Nyquist included
        shape = grid.shape if ncomp == 1 else (ncomp,) + grid.shape
        x = np.random.default_rng(seed).standard_normal(shape)
        quad = np.sqrt(grid.cell_volume * np.sum(x**2))
        assert abs(l2_norm(from_physical(grid, x)) - quad) < 1e-12 * quad

    @PROPERTY
    @given(grid=grids, seed=seeds)
    def test_dealias_is_a_projection(self, grid, seed):
        x = np.random.default_rng(seed).standard_normal(grid.shape)
        once = dealias(from_physical(grid, x))
        assert np.array_equal(dealias(once).coeffs, once.coeffs)

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
        # every output is the half spectrum of its own real samples
        rng = np.random.default_rng(seed)
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        w = random_field(grid, rng, ncomp=grid.dim)
        outs = [laplacian(f), grad(f), div(w), multiply(f, g), dealias(f),
                apply_derivative(f, "lambda_s", s=1.5), *leray_project(w)]
        for out in outs:
            again = from_physical(grid, to_physical(out))
            scale = max(np.max(np.abs(out.coeffs)), 1.0)
            assert np.max(np.abs(again.coeffs - out.coeffs)) < 1e-13 * scale


class TestGridLayout:
    def test_spectral_shapes(self):
        for grid in GRIDS:
            n, d = grid.npts, grid.dim
            half = (n,) * (d - 1) + (n // 2 + 1,)
            assert grid.spectral_shape == half
            for arr in (grid.kmag, grid.k2, grid.dealias_keep):
                assert arr.shape == half
            assert grid.kvec.shape == grid.ehat.shape == grid.kint.shape == (d,) + half
            assert grid.parseval_weight.tolist() == [1.0] + [2.0] * (n // 2 - 1) + [1.0]

    def test_field_of_full_lattice_shape_rejected(self, grid2d):
        with pytest.raises(ValueError):
            SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
