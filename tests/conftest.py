import numpy as np
import pytest

from driftflow.spectral import Grid, SpectralField


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid2d():
    return Grid(2, 32, 2.0 * np.pi)


@pytest.fixture
def grid3d():
    return Grid(3, 16, 2.0 * np.pi)


def full_lattice(grid):
    """Integer wavenumbers of the full (N,)*d FFT lattice, shape (d,) + grid.shape."""
    k1 = np.fft.fftfreq(grid.npts, d=1.0 / grid.npts)
    return np.stack(np.meshgrid(*([k1] * grid.dim), indexing="ij"))


def band_index(grid):
    """Per-axis indices of the stored band |k_i| <= grid.kcut, 0 <= k_d, in a
    half or full spectrum, in the band's order: wavenumbers 0..m, -m..-1 on
    the leading axes and 0..m on the last."""
    n, m = grid.npts, grid.kcut
    return [np.r_[0 : m + 1, n - m : n]] * (grid.dim - 1) + [np.arange(m + 1)]


def band_of(grid, spectrum):
    """The stored band of a half or full spectrum, by fancy indexing."""
    return spectrum[(Ellipsis,) + np.ix_(*band_index(grid))]


def half_of(grid, band):
    """The half spectrum, shape (N,)*(d-1) + (N//2+1,), of band coefficients."""
    half_shape = (grid.npts,) * (grid.dim - 1) + (grid.npts // 2 + 1,)
    out = np.zeros(band.shape[: -grid.dim] + half_shape, dtype=np.complex128)
    out[(Ellipsis,) + np.ix_(*band_index(grid))] = band
    return out


def random_field(grid, rng, ncomp=1, band=None):
    """Random real field on the retained band; band optionally restricts |xi|.

    The coefficients are drawn on the full lattice, symmetrized there and cut
    to the stored band, so a seed names the same field as it did when fields
    were stored on the full lattice."""
    shape = grid.shape if ncomp == 1 else (ncomp,) + grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kint = full_lattice(grid)
    c = c * np.all(np.abs(kint) <= grid.kcut, axis=0)
    axes = tuple(range(-grid.dim, 0))
    rc = c
    for ax in axes:
        rc = np.roll(np.flip(rc, axis=ax), 1, axis=ax)
    c = 0.5 * (c + np.conj(rc))
    if band is not None:
        kmag = (2.0 * np.pi / grid.length) * np.sqrt(np.sum(kint**2, axis=0))
        c = c * ((kmag >= band[0]) & (kmag <= band[1]))
    f = SpectralField(grid, band_of(grid, c))
    idx = (0,) * grid.dim
    if ncomp == 1:
        f.coeffs[idx] = np.real(f.coeffs[idx])
    return f


def small_field(grid, rng, amplitude=0.05, ncomp=1, band=None):
    """Random field normalized to the given physical sup size."""
    from driftflow.spectral import to_physical

    f = random_field(grid, rng, ncomp, band)
    v = to_physical(f)
    sup = float(np.max(np.abs(v))) if ncomp == 1 else float(
        np.max(np.sqrt(np.sum(v**2, axis=0))))
    return f * (amplitude / max(sup, 1e-300))
