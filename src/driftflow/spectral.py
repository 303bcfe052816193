"""
Torus grids, real fields stored by their half spectrum, and the basic
Fourier-side operators.

A real field f is stored by the coefficients c_k of

    f(x) = sum_k c_k exp(i * (2*pi/L) * k . x),

normalized as ``coeffs = rfftn(values) / N**d``.  Because f is real,
``c_{-k} = conj(c_k)``, so only the half lattice with last index
0 <= k_d <= N/2 is stored: coefficient arrays have shape
``(N,)*(d-1) + (N//2+1,)`` (``Grid.spectral_shape``), vector components
first.  Hermitian symmetry holds by construction and the inverse transform
returns real samples.  On the last axis the Nyquist index N/2 carries the
wavenumber -N/2, as in the full FFT layout; the 2/3 rule zeroes it anyway.

Sums over the full lattice become weighted sums over the stored half: a
coefficient with last index 1 <= k_d <= N/2 - 1 stands for itself and its
conjugate partner, which is not stored, and so counts twice; the planes
k_d = 0 and k_d = N/2 hold both partners and count once.  This weight is
``Grid.parseval_weight``; every Parseval sum reads it, e.g.

    ||f||_{L2}^2 = L**d * sum(parseval_weight * |c|**2).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import FormatVersionMismatch, NegativePowerOfZeroMode

_SNAPSHOT_MAGIC = b"DFS1"
_SNAPSHOT_VERSION = 2
_HEADER = "<4sIIIIId"
_ENDIAN_TAG = 0x01020304


@dataclass(frozen=True)
class Grid:
    """
    Uniform periodic grid on the torus [0, L)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    npts : int
        Points per axis; even and at least 8.
    length : float
        Side length L of the torus.
    """

    dim: int
    npts: int
    length: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.npts < 8 or self.npts % 2 != 0:
            raise ValueError("npts must be even and >= 8")
        if not self.length > 0:
            raise ValueError("length must be positive")

        n = self.npts
        kint, kvec, k2, keep = _lattice(self, half=True)
        kmag = np.sqrt(k2)

        # Unit direction per mode; zero vector at the mean mode.
        with np.errstate(invalid="ignore", divide="ignore"):
            ehat = np.where(kmag > 0, kvec / np.where(kmag > 0, kmag, 1.0), 0.0)

        # Parseval weight per last-axis index (see the module docstring)
        weight = np.full(n // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        object.__setattr__(self, "kint", kint)
        object.__setattr__(self, "kvec", kvec)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", kmag)
        object.__setattr__(self, "ehat", ehat)
        object.__setattr__(self, "dealias_keep", keep)
        object.__setattr__(self, "kcut", (n - 1) // 3)
        object.__setattr__(self, "parseval_weight", weight)

    @property
    def shape(self):
        """Shape of the physical samples."""
        return (self.npts,) * self.dim

    @property
    def spectral_shape(self):
        """Shape of a scalar field's stored half spectrum."""
        return (self.npts,) * (self.dim - 1) + (self.npts // 2 + 1,)

    @property
    def dx(self):
        return self.length / self.npts

    @property
    def cell_volume(self):
        return self.dx**self.dim

    @property
    def volume(self):
        return self.length**self.dim

    def coords(self):
        """Physical coordinate arrays, shape (dim, N, ..., N)."""
        x1 = np.arange(self.npts) * self.dx
        return np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    def active_radii(self):
        """Sorted distinct nonzero |xi| values on the lattice."""
        r = np.unique(self.kmag)
        return r[r > 0]


def _lattice(grid: Grid, half: bool):
    """Integer wavenumbers, wavevectors, |xi|^2 and the dealias mask on the
    half lattice (last axis indices 0..N/2: wavenumbers 0..N/2-1 and the
    Nyquist -N/2) or on the full (N,)*d lattice."""
    n, d = grid.npts, grid.dim
    k1 = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # integer lattice per axis
    last = k1[: n // 2 + 1] if half else k1
    kint = np.stack(np.meshgrid(*([k1] * (d - 1) + [last]), indexing="ij"))
    kvec = (2.0 * np.pi / grid.length) * kint.astype(np.float64)
    # 2/3-rule mask, tightened to (N-1)//3 so that triple products of
    # retained modes cannot alias back onto the resolved band.
    keep = np.all(np.abs(kint) <= (n - 1) // 3, axis=0)
    return kint, kvec, np.sum(kvec**2, axis=0), keep


@dataclass
class SpectralField:
    """A real scalar or vector field stored by its Fourier coefficients."""

    grid: Grid
    coeffs: np.ndarray  # grid.spectral_shape (scalar) or (ncomp,) + grid.spectral_shape

    def __post_init__(self):
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)
        if self.coeffs.shape[-self.grid.dim:] != self.grid.spectral_shape:
            raise ValueError(f"coefficients of shape {self.coeffs.shape} do not end in "
                             f"the half spectrum {self.grid.spectral_shape}")

    @property
    def num_components(self) -> int:
        return 1 if self.coeffs.ndim == self.grid.dim else self.coeffs.shape[0]

    @property
    def is_vector(self) -> bool:
        return self.num_components > 1

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def component(self, i: int) -> "SpectralField":
        if not self.is_vector:
            raise ValueError("component() on a scalar field")
        return SpectralField(self.grid, self.coeffs[i])

    def zero_mode(self):
        idx = (0,) * self.grid.dim
        if self.is_vector:
            return self.coeffs[(slice(None),) + idx]
        return self.coeffs[idx]

    def __add__(self, other):
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)


@dataclass(frozen=True)
class PhysParams:
    """
    Physical parameters: friction time tau, Mach number eps, viscosities,
    and the pressure exponent gamma for P(n) = n**gamma / gamma.

    ``mu > 0`` and ``2*mu + lam > 0`` are required; P'(1) = 1 holds for every
    gamma by construction.
    """

    tau: float = 1.0
    eps: float = 1.0
    mu: float = 1.0
    lam: float = 0.0
    gamma: float = 3.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not (2.0 * self.mu + self.lam) > 0:
            raise ValueError("2*mu + lam must be positive")
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1")

    @property
    def nu(self) -> float:
        """Effective viscosity 2*mu + lam acting on potential velocity parts."""
        return 2.0 * self.mu + self.lam


# ---------------------------------------------------------------------------
# transforms


def from_physical(grid: Grid, values: np.ndarray) -> SpectralField:
    """Forward transform of real physical samples into a SpectralField."""
    values = np.asarray(values, dtype=np.float64)
    axes = tuple(range(-grid.dim, 0))
    return SpectralField(grid, sfft.rfftn(values, axes=axes, norm="forward"))


def to_physical(f: SpectralField) -> np.ndarray:
    """Inverse transform; returns real samples on the grid."""
    axes = tuple(range(-f.grid.dim, 0))
    return sfft.irfftn(f.coeffs, s=f.grid.shape, axes=axes, norm="forward")


# ---------------------------------------------------------------------------
# differential multipliers


def apply_derivative(f: SpectralField, op: str, s: float | None = None) -> SpectralField:
    """
    Apply a Fourier-multiplier operator.

    op = "grad"       scalar -> vector, multiplier i*xi
         "div"        vector -> scalar, multiplier i*xi .
         "laplacian"  multiplier -|xi|^2
         "lambda_s"   multiplier |xi|^s (zero mode mapped to 0); s < 0 requires
                      a mean-free field.
    """
    g = f.grid
    if op == "grad":
        if f.is_vector:
            raise ValueError("grad expects a scalar field")
        return SpectralField(g, 1j * g.kvec * f.coeffs[np.newaxis])
    if op == "div":
        if not f.is_vector:
            raise ValueError("div expects a vector field")
        return SpectralField(g, np.sum(1j * g.kvec * f.coeffs, axis=0))
    if op == "laplacian":
        return SpectralField(g, -g.k2 * f.coeffs)
    if op == "lambda_s":
        if s is None:
            raise ValueError("lambda_s requires the exponent s")
        if s < 0:
            z = np.max(np.abs(np.atleast_1d(f.zero_mode())))
            if z > 1e-13 * max(1.0, float(np.max(np.abs(f.coeffs)))):
                raise NegativePowerOfZeroMode(
                    f"zero mode magnitude {z:.3e} with negative power s={s}"
                )
        mult = np.zeros_like(g.kmag)
        nz = g.kmag > 0
        mult[nz] = g.kmag[nz] ** s
        return SpectralField(g, mult * f.coeffs)
    raise ValueError(f"unknown operator {op!r}")


def grad(f: SpectralField) -> SpectralField:
    return apply_derivative(f, "grad")


def div(f: SpectralField) -> SpectralField:
    return apply_derivative(f, "div")


def laplacian(f: SpectralField) -> SpectralField:
    return apply_derivative(f, "laplacian")


def grad_div(f: SpectralField) -> SpectralField:
    """Multiplier -xi (xi . ), i.e. grad(div(.)) for vector fields."""
    g = f.grid
    kdotf = np.sum(g.kvec * f.coeffs, axis=0)
    return SpectralField(g, -g.kvec * kdotf[np.newaxis])


def leray_project(f: SpectralField) -> tuple[SpectralField, SpectralField]:
    """
    Split a vector field into solenoidal and potential parts, f = p + q.

    p is divergence-free, q is curl-free (parallel to xi per mode); the zero
    mode is assigned wholly to p.
    """
    if not f.is_vector:
        raise ValueError("leray_project expects a vector field")
    g = f.grid
    edotf = np.sum(g.ehat * f.coeffs, axis=0)
    q = g.ehat * edotf[np.newaxis]
    return SpectralField(g, f.coeffs - q), SpectralField(g, q)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every coefficient with any |k_i| above the 2/3-rule cutoff."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_keep)


# ---------------------------------------------------------------------------
# norms and pointwise algebra


def parseval_sum(grid: Grid, coeffs: np.ndarray) -> float:
    """sum |c_k|^2 over the full lattice, from the stored half spectrum."""
    return float(np.sum(grid.parseval_weight * (coeffs.real**2 + coeffs.imag**2)))


def l2_norm(f: SpectralField) -> float:
    """L2((0,L)^d) norm, via Parseval."""
    return float(np.sqrt(f.grid.volume * parseval_sum(f.grid, f.coeffs)))


def lp_norm(f: SpectralField, p: float) -> float:
    """Lp norm on the torus by rectangle-rule quadrature (exact for band-limited)."""
    v = to_physical(f)
    if f.is_vector:
        mag = np.sqrt(np.sum(v**2, axis=0))
    else:
        mag = np.abs(v)
    if np.isinf(p):
        return float(np.max(mag))
    return float((f.grid.cell_volume * np.sum(mag**p)) ** (1.0 / p))


def linf_norm(f: SpectralField) -> float:
    return lp_norm(f, np.inf)


def mean(f: SpectralField):
    """Torus average, i.e. the zero Fourier mode."""
    return np.real(f.zero_mode())


def multiply(a: SpectralField, b: SpectralField, dealias_result: bool = True) -> SpectralField:
    """Pointwise product computed in physical space, then dealiased."""
    pa, pb = to_physical(a), to_physical(b)
    out = from_physical(a.grid, pa * pb)
    return dealias(out) if dealias_result else out


def pointwise(grid: Grid, values: np.ndarray, dealias_result: bool = True) -> SpectralField:
    """Wrap physical samples of a (composite) nonlinearity as a field."""
    out = from_physical(grid, values)
    return dealias(out) if dealias_result else out


# ---------------------------------------------------------------------------
# snapshot file format
#
# Little-endian layout:
#   bytes 0:4    magic  b"DFS1" (the tag of the file family, for every version)
#   u32          format version
#   u32          endianness tag 0x01020304
#   u32          dim
#   u32          npts
#   u32          num_components
#   f64          length
#   complex128[] coefficients, C order:
#                version 2: the half spectrum, shape
#                           (num_components,) + (npts,)*(dim-1) + (npts//2+1,)
#                version 1: the full Hermitian spectrum, shape
#                           (num_components,) + (npts,)*dim
#
# ``save_field`` writes version 2; ``load_field`` reads both, keeping the
# half of a version-1 array.  A payload of the wrong size is a format error.


def save_field(path, f: SpectralField) -> None:
    header = struct.pack(
        _HEADER,
        _SNAPSHOT_MAGIC,
        _SNAPSHOT_VERSION,
        _ENDIAN_TAG,
        f.grid.dim,
        f.grid.npts,
        f.num_components,
        f.grid.length,
    )
    flat = np.ascontiguousarray(f.coeffs, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flat.tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize(_HEADER))
        payload = fh.read()
    if len(header) != struct.calcsize(_HEADER):
        raise FormatVersionMismatch(f"truncated header: {len(header)} bytes")
    magic, version, endian, dim, npts, ncomp, length = struct.unpack(_HEADER, header)
    if magic != _SNAPSHOT_MAGIC or version not in (1, _SNAPSHOT_VERSION):
        raise FormatVersionMismatch(f"bad magic/version {magic!r}/{version}")
    if ncomp < 1 or dim not in (2, 3):
        raise FormatVersionMismatch(f"bad header: dim {dim}, {ncomp} components")
    if endian != _ENDIAN_TAG:
        raise FormatVersionMismatch("endianness tag mismatch")
    last = npts if version == 1 else npts // 2 + 1
    stored = (() if ncomp == 1 else (ncomp,)) + (npts,) * (dim - 1) + (last,)
    size = 16 * math.prod(stored)
    if len(payload) != size:
        raise FormatVersionMismatch(f"payload of {len(payload)} bytes, expected {size} "
                                    f"for version {version}")
    try:
        grid = Grid(dim, npts, length)
    except ValueError as exc:
        raise FormatVersionMismatch(f"bad grid in header: {exc}") from None
    data = np.frombuffer(payload, dtype="<c16").astype(np.complex128).reshape(stored)
    if version == 1:
        data = np.ascontiguousarray(data[..., : npts // 2 + 1])
    return SpectralField(grid, data)
