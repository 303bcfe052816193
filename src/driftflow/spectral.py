"""
Torus grids, real fields stored by their retained Fourier band, and the
basic Fourier-side operators.

A real field f is stored by the coefficients c_k of

    f(x) = sum_k c_k exp(i * (2*pi/L) * k . x),

normalized as ``coeffs = rfftn(values) / N**d`` and cut to the 2/3-rule
band |k_i| <= m = (N-1)//3 (Orszag's rule, tightened so that triple
products of retained modes cannot alias back onto the band).  Because f is
real, ``c_{-k} = conj(c_k)``, so only the half band with last index
0 <= k_d <= m is stored, in FFT order on every axis (wavenumbers
0..m, -m..-1 on the leading axes, 0..m on the last), so the zero mode sits
at index 0: coefficient arrays have shape ``(2m+1,)*(d-1) + (m+1,)``
(``Grid.spectral_shape``), vector components first.  Every state lives in
this band, so nothing outside it is stored or swept.

The transforms move between the band and the samples through the real-FFT
half spectrum, shape ``(N,)*(d-1) + (N//2+1,)``: ``to_physical`` copies the
band into a zeroed half-spectrum buffer, one per grid and leading shape and
reused, by 2^(d-1) slab copies before ``irfftn``; ``from_physical`` gathers
the band from ``rfftn`` with the same slabs.  So ``from_physical`` is the
projection onto the band that the 2/3 rule asks of every product.

Sums over the full lattice become weighted sums over the stored half: a
coefficient with last index 1 <= k_d <= m stands for itself and its
conjugate partner, which is not stored, and so counts twice; the plane
k_d = 0 holds both partners and counts once.  This weight is
``Grid.parseval_weight``; every Parseval sum reads it, e.g.

    ||f||_{L2}^2 = L**d * sum(parseval_weight * |c|**2).

Importing this module sets the C allocator to keep freed heap memory
(``_keep_freed_heap``): the band arrays are small enough that glibc would
otherwise hand them back to the system and fault them in again every step.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import FormatVersionMismatch

_SNAPSHOT_MAGIC = b"DFS1"
_SNAPSHOT_VERSION = 2
_HEADER = "<4sIIIIId"
_ENDIAN_TAG = 0x01020304

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep up to 1 GiB of freed heap and serve arrays below 32 MiB from it,
    where the C library has ``mallopt``.  With glibc's adaptive defaults
    the per-step temporaries of a 3D N=48 run are returned to the system and
    faulted in again on every step (README, "Numerical notes")."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_heap()


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
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError("length must be positive and finite")

        n, m = self.npts, (self.npts - 1) // 3
        kint, kvec, k2 = _lattice(self)
        kmag = np.sqrt(k2)

        # Unit direction per mode; zero vector at the mean mode.
        with np.errstate(invalid="ignore", divide="ignore"):
            ehat = np.where(kmag > 0, kvec / np.where(kmag > 0, kmag, 1.0), 0.0)

        # Parseval weight per last-axis index (see the module docstring)
        weight = np.full(m + 1, 2.0)
        weight[0] = 1.0
        # The band's slabs, as (band index, half-spectrum index): on each
        # leading axis the wavenumbers 0..m sit at indices 0..m of both, and
        # -m..-1 at band indices m+1..2m and half-spectrum indices N-m..N-1;
        # the last axis keeps 0..m.
        lead = ((slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, 2 * m + 1), slice(n - m, n)))
        slabs = []
        for pairs in itertools.product(lead, repeat=self.dim - 1):
            pairs += ((slice(0, m + 1), slice(0, m + 1)),)
            slabs.append(((Ellipsis,) + tuple(b for b, _ in pairs),
                          (Ellipsis,) + tuple(h for _, h in pairs)))
        object.__setattr__(self, "kint", kint)
        object.__setattr__(self, "kvec", kvec)
        object.__setattr__(self, "ikvec", 1j * kvec)  # the multiplier of grad, div and curl
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", kmag)
        object.__setattr__(self, "ehat", ehat)
        # Every stored mode is retained, so the 2/3-rule mask is all True;
        # perfbench/ still reads it (its data radius and the modes its
        # propagator check samples).
        object.__setattr__(self, "dealias_keep", np.ones(kmag.shape, dtype=bool))
        object.__setattr__(self, "kcut", m)
        object.__setattr__(self, "parseval_weight", weight)
        object.__setattr__(self, "_slabs", slabs)
        # to_physical's zeroed half-spectrum buffers, by leading shape
        object.__setattr__(self, "_buffers", {})

    @property
    def shape(self):
        """Shape of the physical samples."""
        return (self.npts,) * self.dim

    @property
    def spectral_shape(self):
        """Shape of a scalar field's stored band."""
        return (2 * self.kcut + 1,) * (self.dim - 1) + (self.kcut + 1,)

    @property
    def half_shape(self):
        """Shape of a scalar's real-FFT half spectrum, which the transforms use."""
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


def _lattice(grid: Grid):
    """Integer wavenumbers, wavevectors and |xi|^2 on the stored band (FFT
    order per axis)."""
    d, m = grid.dim, (grid.npts - 1) // 3
    band = np.r_[0 : m + 1, -m:0].astype(np.int64)
    axes = [band] * (d - 1) + [band[: m + 1]]
    kint = np.stack(np.meshgrid(*axes, indexing="ij"))
    kvec = (2.0 * np.pi / grid.length) * kint.astype(np.float64)
    return kint, kvec, np.sum(kvec**2, axis=0)


def _band_of(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    """The band of a half (or full) spectrum whose last d axes are in FFT
    order, gathered by the grid's slabs into a new array."""
    out = np.empty(spectrum.shape[: -grid.dim] + grid.spectral_shape, dtype=np.complex128)
    for band, half in grid._slabs:
        out[band] = spectrum[half]
    return out


def _pad(grid: Grid, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy band coefficients into the band slabs of a zeroed half spectrum."""
    for band, half in grid._slabs:
        out[half] = coeffs[band]
    return out


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
                             f"the band {self.grid.spectral_shape}")

    @property
    def num_components(self) -> int:
        return 1 if self.coeffs.ndim == self.grid.dim else self.coeffs.shape[0]

    @property
    def is_vector(self) -> bool:
        return self.num_components > 1

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

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

    Every parameter is finite, ``mu > 0`` and ``2*mu + lam > 0`` are
    required; P'(1) = 1 holds for every gamma by construction.
    """

    tau: float = 1.0
    eps: float = 1.0
    mu: float = 1.0
    lam: float = 0.0
    gamma: float = 3.0

    def __post_init__(self):
        for name in ("tau", "eps", "mu", "lam", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    """Forward transform of real physical samples, projected onto the band."""
    values = np.asarray(values, dtype=np.float64)
    axes = tuple(range(-grid.dim, 0))
    return SpectralField(grid, _band_of(grid, sfft.rfftn(values, axes=axes, norm="forward")))


def to_physical(f: SpectralField) -> np.ndarray:
    """Inverse transform; returns real samples on the grid.  The band is
    copied into the grid's zeroed half-spectrum buffer for this leading
    shape, which ``irfftn`` reads and does not overwrite."""
    g = f.grid
    lead = f.coeffs.shape[: -g.dim]
    buf = g._buffers.get(lead)
    if buf is None:
        buf = g._buffers[lead] = np.zeros(lead + g.half_shape, dtype=np.complex128)
    axes = tuple(range(-g.dim, 0))
    return sfft.irfftn(_pad(g, f.coeffs, buf), s=g.shape, axes=axes, norm="forward")


# ---------------------------------------------------------------------------
# differential multipliers


def dot(w: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """sum_i w_i vec_i per mode, for a per-mode vector w (xi, i xi or e = xi/|xi|)."""
    s = w[0] * vec[0]
    tmp = np.empty_like(s)
    for i in range(1, len(w)):
        s += np.multiply(w[i], vec[i], out=tmp)
    return s


def grad(f: SpectralField) -> SpectralField:
    """Scalar -> vector, multiplier i*xi."""
    if f.is_vector:
        raise ValueError("grad expects a scalar field")
    return SpectralField(f.grid, f.grid.ikvec * f.coeffs[np.newaxis])


def div(f: SpectralField) -> SpectralField:
    """Vector -> scalar, multiplier i*xi . (summed over components)."""
    if not f.is_vector:
        raise ValueError("div expects a vector field")
    return SpectralField(f.grid, dot(f.grid.ikvec, f.coeffs))


def curl(f: SpectralField) -> SpectralField:
    """i*xi x f in 3D; in 2D the scalar d1 f2 - d2 f1."""
    g = f.grid
    if f.num_components != g.dim:
        raise ValueError("curl expects a vector field of the grid's dimension")
    ik, c = g.ikvec, f.coeffs
    if g.dim == 2:
        return SpectralField(g, ik[0] * c[1] - ik[1] * c[0])
    return SpectralField(g, np.stack([ik[(i + 1) % 3] * c[(i + 2) % 3]
                                      - ik[(i + 2) % 3] * c[(i + 1) % 3]
                                      for i in range(3)]))


def laplacian(f: SpectralField) -> SpectralField:
    """Multiplier -|xi|^2."""
    return SpectralField(f.grid, -f.grid.k2 * f.coeffs)


def leray_project(f: SpectralField) -> tuple[SpectralField, SpectralField]:
    """
    Split a vector field into solenoidal and potential parts, f = p + q.

    p is divergence-free, q is curl-free (parallel to xi per mode); the zero
    mode is assigned wholly to p.
    """
    if not f.is_vector:
        raise ValueError("leray_project expects a vector field")
    g = f.grid
    edotf = dot(g.ehat, f.coeffs)
    q = g.ehat * edotf[np.newaxis]
    return SpectralField(g, f.coeffs - q), SpectralField(g, q)


# ---------------------------------------------------------------------------
# norms and pointwise algebra


def parseval_sum(grid: Grid, coeffs: np.ndarray) -> float:
    """sum |c_k|^2 over the full lattice, from the stored band."""
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


def multiply(a: SpectralField, b: SpectralField) -> SpectralField:
    """Pointwise product computed in physical space, projected onto the band."""
    return from_physical(a.grid, to_physical(a) * to_physical(b))


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
# ``save_field`` writes version 2, the band padded with zeros into the half
# spectrum.  ``load_field`` reads both versions and gathers the band; a
# non-finite coefficient, a nonzero one outside the band, or a payload of
# the wrong size is a format error, so no field is corrupted or truncated
# silently.


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
    half = np.zeros(f.coeffs.shape[: -f.grid.dim] + f.grid.half_shape, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_pad(f.grid, f.coeffs, half).tobytes())


def load_field(path) -> SpectralField:
    try:
        with open(path, "rb") as fh:
            header = fh.read(struct.calcsize(_HEADER))
            payload = fh.read()
    except OSError as exc:
        raise FormatVersionMismatch(f"cannot read snapshot {path}: {exc}") from None
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
    data = np.frombuffer(payload, dtype="<c16").reshape(stored)
    if not np.all(np.isfinite(data)):
        raise FormatVersionMismatch(f"non-finite coefficients in snapshot {path}")
    keep = np.abs(np.fft.fftfreq(npts, d=1.0 / npts)) <= grid.kcut
    inside = functools.reduce(np.logical_and.outer, [keep] * (dim - 1) + [keep[:last]])
    outside = np.count_nonzero(data[..., ~inside])
    if outside:
        raise FormatVersionMismatch(f"{outside} coefficients outside the retained band "
                                    f"|k_i| <= {grid.kcut} of N = {npts}")
    return SpectralField(grid, _band_of(grid, data))
