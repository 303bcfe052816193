"""
Discrete dyadic (Littlewood-Paley) decomposition and the Besov-type norms
built on it, including time-then-frequency (Chemin-Lerner) norms.

The dyadic family comes from a smooth radial non-increasing cutoff chi with
chi = 1 on r <= 3/4 and chi = 0 on r >= 4/3; the annular weight is
phi(r) = chi(r/2) - chi(r), supported in 3/4 <= r <= 8/3, and the family
{phi(2^-j r)} telescopes into an exact partition of unity on r > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InsufficientSamples, UnsupportedP
from .spectral import Grid, SpectralField, lp_norm, parseval_sum

_CHI_LO = 0.75
_CHI_HI = 4.0 / 3.0
_TABLE_SIZE = 4096

_SUPPORTED_P = (1.0, 2.0, 4.0, np.inf)


def _smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) bridge between."""
    t = np.asarray(t, dtype=np.float64)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.where(hi, 1.0, 0.0)
    tm = np.clip(t, 1e-300, 1.0)
    sa = np.exp(-1.0 / np.where(mid, tm, 1.0))
    sb = np.exp(-1.0 / np.where(mid, 1.0 - tm * mid, 1.0))
    with np.errstate(invalid="ignore"):
        bridge = sa / (sa + sb)
    out = np.where(mid, bridge, out)
    return out


def _build_chi_table():
    r = np.linspace(_CHI_LO, _CHI_HI, _TABLE_SIZE)
    vals = 1.0 - _smoothstep((r - _CHI_LO) / (_CHI_HI - _CHI_LO))
    # All derivatives of the bridge vanish at the endpoints.
    return CubicSpline(r, vals, bc_type=((1, 0.0), (1, 0.0)))


_CHI_SPLINE = _build_chi_table()


def chi(r):
    """Radial low-pass generator: 1 on r <= 3/4, 0 on r >= 4/3, smooth between."""
    r = np.asarray(r, dtype=np.float64)
    out = np.ones_like(r)
    out[r >= _CHI_HI] = 0.0
    mid = (r > _CHI_LO) & (r < _CHI_HI)
    if np.any(mid):
        out[mid] = np.clip(_CHI_SPLINE(r[mid]), 0.0, 1.0)
    return out


def phi(r):
    """Annular weight phi(r) = chi(r/2) - chi(r), supported in [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return chi(0.5 * r) - chi(r)


def block_j_range(r_min: float, r_max: float) -> tuple[int, int]:
    """Smallest j interval whose annuli cover radii in [r_min, r_max]."""
    j_min = math.floor(math.log2(3.0 * r_min / 8.0))
    j_max = math.ceil(math.log2(4.0 * r_max / 3.0))
    return j_min, j_max


@dataclass
class LPFamily:
    """
    The dyadic multiplier family bound to a grid.

    ``weights`` stacks every block weight phi(2^-j |xi|), j = j_min..j_max,
    on the grid's spectral lattice, shape (J,) + grid.spectral_shape; it is
    tabulated once and read by every norm evaluation.
    """

    grid: Grid
    j_min: int
    j_max: int
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scales = 2.0 ** self.j_values.reshape((-1,) + (1,) * self.grid.dim)
        self.weights = phi(self.grid.kmag / scales)
        # the squared rows, flat, for the p = 2 block norms
        self._squares = np.square(self.weights).reshape(len(scales), -1)

    @classmethod
    def for_grid(cls, grid: Grid) -> "LPFamily":
        """The family whose annuli cover the grid's radii, one block spare each side."""
        radii = grid.active_radii()
        j_min, j_max = block_j_range(float(radii[0]), float(radii[-1]))
        return cls(grid, j_min - 1, j_max + 1)

    @property
    def j_values(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def weight(self, j: int) -> np.ndarray:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(f"block index {j} outside family range [{self.j_min}, {self.j_max}]")
        return self.weights[j - self.j_min]

    def partition_residual(self) -> float:
        """max |sum_j phi(2^-j |xi|) - 1| over the grid's nonzero modes."""
        total = np.sum(self.weights, axis=0)
        return float(np.max(np.abs(total[self.grid.kmag > 0] - 1.0)))


_FAMILIES: dict[tuple, LPFamily] = {}


def family_for(grid: Grid) -> LPFamily:
    key = (grid.dim, grid.npts, grid.length)
    if key not in _FAMILIES:
        _FAMILIES[key] = LPFamily.for_grid(grid)
    return _FAMILIES[key]


@dataclass(frozen=True)
class BesovSpec:
    """Norm indices: regularity s, integrability p, summation exponent r."""

    s: float
    p: float = 2.0
    r: float = 1.0


@dataclass
class BlockTimeSeries:
    """Per-block Lp norm histories ||Delta_j u(t)||_{Lp} on a time grid."""

    times: np.ndarray        # (T,), strictly increasing
    j_values: np.ndarray     # (J,)
    values: np.ndarray       # (J, T), nonnegative
    p: float = 2.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("block norms must be nonnegative")


# ---------------------------------------------------------------------------
# block extraction and norms


def dyadic_block(f: SpectralField, j: int, family: LPFamily | None = None) -> SpectralField:
    """Frequency-localize f to the annulus |xi| ~ 2^j."""
    fam = family or family_for(f.grid)
    return SpectralField(f.grid, f.coeffs * fam.weight(j))


def block_lp_norm(f: SpectralField, j: int, p: float, family: LPFamily | None = None) -> float:
    fam = family or family_for(f.grid)
    if p == 2.0:
        return float(np.sqrt(f.grid.volume * parseval_sum(f.grid, fam.weight(j) * f.coeffs)))
    if p not in _SUPPORTED_P:
        raise UnsupportedP(f"p = {p} not in {{1, 2, 4, inf}}")
    return lp_norm(dyadic_block(f, j, fam), p)


def block_l2_spectrum(f: SpectralField, family: LPFamily | None = None) -> np.ndarray:
    """All block L2 norms at once: the squared weight table contracted
    against the Parseval-weighted |c|^2."""
    fam = family or family_for(f.grid)
    amp2 = f.coeffs.real**2 + f.coeffs.imag**2
    if f.is_vector:
        amp2 = np.sum(amp2, axis=0)
    amp2 *= f.grid.parseval_weight
    return np.sqrt(f.grid.volume * (fam._squares @ amp2.ravel()))


def block_lp_spectrum(f: SpectralField, p: float, family: LPFamily | None = None) -> np.ndarray:
    fam = family or family_for(f.grid)
    if p == 2.0:
        return block_l2_spectrum(f, fam)
    return np.array([block_lp_norm(f, j, p, fam) for j in fam.j_values])


# ---------------------------------------------------------------------------
# the weighted block sum and the low/high split


def dyadic_sum(b: np.ndarray, js: np.ndarray, s: float, r: float = 1.0):
    """l^r norm over axis 0 of 2^{js} b, for block values b of shape (J,)
    (a float) or (J, T) (one norm per column)."""
    b = np.asarray(b, dtype=np.float64)
    w = 2.0 ** (np.asarray(js) * s).reshape((-1,) + (1,) * (b.ndim - 1)) * b
    if np.isinf(r):
        return np.max(w, axis=0, initial=0.0)
    return np.sum(w**r, axis=0) ** (1.0 / r)


def _low_high(b: np.ndarray, js: np.ndarray, j0: int, s_low: float, s_high: float,
              r: float = 1.0):
    """The split every low/high norm uses: the low part sums j <= j0 at index
    s_low, the high part sums j >= j0 - 1 at index s_high (the blocks
    j0 - 1 and j0 count in both)."""
    low, high = js <= j0, js >= j0 - 1
    return dyadic_sum(b[low], js[low], s_low, r), dyadic_sum(b[high], js[high], s_high, r)


def besov_norm(
    f: SpectralField,
    spec: BesovSpec | None = None,
    family: LPFamily | None = None,
    *,
    s: float | None = None,
    p: float = 2.0,
    r: float = 1.0,
) -> float:
    """Homogeneous Besov norm: l^r over j of 2^{js} ||Delta_j f||_{Lp}."""
    if spec is None:
        spec = BesovSpec(s=float(s), p=p, r=r)
    if spec.p not in _SUPPORTED_P:
        raise UnsupportedP(f"p = {spec.p} not in {{1, 2, 4, inf}}")
    fam = family or family_for(f.grid)
    return float(dyadic_sum(block_lp_spectrum(f, spec.p, fam), fam.j_values, spec.s, spec.r))


def besov_weak_norm(f: SpectralField, s: float, family: LPFamily | None = None) -> float:
    """The r = infinity norm sup_j 2^{js} ||Delta_j f||_{L2}."""
    return besov_norm(f, BesovSpec(s=s, p=2.0, r=np.inf), family)


def split_low_high(
    f: SpectralField,
    s_low: float,
    s_high: float | None = None,
    j0: int = 0,
    p: float = 2.0,
    r: float = 1.0,
    family: LPFamily | None = None,
) -> tuple[float, float]:
    """
    Low/high parts of the Besov norm (the split of ``_low_high``), the high
    part at index s_high (default s_low).  An eps-threshold split uses
    j0 = floor(log2(1/eps)).
    """
    fam = family or family_for(f.grid)
    lo, hi = _low_high(block_lp_spectrum(f, p, fam), fam.j_values, j0, s_low,
                       s_low if s_high is None else s_high, r)
    return float(lo), float(hi)


def hybrid_norm(
    f: SpectralField,
    s: float,
    s_prime: float,
    j0: int = 0,
    family: LPFamily | None = None,
) -> float:
    """
    Norm of the intersection space (s < s') or the sum space (s > s'),
    reconstructed from the low/high split: low part at s, high part at s'.
    """
    lo, hi = split_low_high(f, s, s_prime, j0=j0, family=family)
    return lo + hi


# ---------------------------------------------------------------------------
# time-then-frequency norms


def _time_lr(values: np.ndarray, times: np.ndarray, rho: float) -> np.ndarray:
    """L^rho norm in time along the last axis (trapezoid quadrature)."""
    if rho not in (1.0, 2.0, np.inf):
        raise UnsupportedP(f"time exponent rho = {rho} not in {{1, 2, inf}}")
    if np.isinf(rho):
        return np.max(values, axis=-1)
    if values.shape[-1] < 2:
        raise InsufficientSamples("need at least two samples for rho < inf")
    return np.trapezoid(values**rho, times, axis=-1) ** (1.0 / rho)


def chemin_lerner_norm(series: BlockTimeSeries, rho: float, s: float, r: float = 1.0) -> float:
    """Time-then-frequency norm: per block the L^rho-in-time norm, then the
    weighted l^r sum over blocks."""
    return float(dyadic_sum(_time_lr(series.values, series.times, rho), series.j_values, s, r))


def chemin_lerner_low_high(
    series: BlockTimeSeries,
    rho: float,
    s_low: float,
    s_high: float,
    j0: int = 0,
    r: float = 1.0,
) -> tuple[float, float]:
    """The time-then-frequency norm split into its low and high parts."""
    lo, hi = _low_high(_time_lr(series.values, series.times, rho), series.j_values, j0,
                       s_low, s_high, r)
    return float(lo), float(hi)


def lebesgue_besov_time_norm(series: BlockTimeSeries, rho: float, s: float, r: float = 1.0) -> float:
    """Frequency-then-time ordering: instantaneous Besov norm, then L^rho in t."""
    inst = dyadic_sum(series.values, series.j_values, s, r)
    return float(_time_lr(inst, series.times, rho))


def hybrid_time_l1_norm(series: BlockTimeSeries, s: float, s_prime: float, j0: int = 0) -> float:
    """L1-in-time norm of the intersection/sum-space norm (low at s, high at s')."""
    lo, hi = _low_high(series.values, series.j_values, j0, s, s_prime)
    return float(_time_lr(lo + hi, series.times, 1.0))
