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
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InsufficientSamples, UnsupportedP
from .spectral import Grid, SpectralField, lp_norm

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

    Block weights phi(2^-j |xi|) are tabulated once per (grid, j) and reused
    by every norm evaluation.
    """

    grid: Grid
    j_min: int
    j_max: int

    def __post_init__(self):
        self._weights: dict[int, np.ndarray] = {}

    @classmethod
    def for_grid(cls, grid: Grid, pad: int = 1) -> "LPFamily":
        radii = grid.active_radii()
        j_min, j_max = block_j_range(float(radii[0]), float(radii[-1]))
        return cls(grid, j_min - pad, j_max + pad)

    @property
    def j_values(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def weight(self, j: int) -> np.ndarray:
        if j not in self._weights:
            self._weights[j] = phi(self.grid.kmag / 2.0**j)
        return self._weights[j]

    def partition_residual(self) -> float:
        """max |sum_j phi(2^-j r) - 1| over the grid's active radii."""
        r = self.grid.active_radii()
        total = np.zeros_like(r)
        for j in self.j_values:
            total += phi(r / 2.0**j)
        return float(np.max(np.abs(total - 1.0)))


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
    j_split: int | None = None  # optional low/high threshold


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
    if j < fam.j_min or j > fam.j_max:
        raise ValueError(f"block index {j} outside family range [{fam.j_min}, {fam.j_max}]")
    return SpectralField(f.grid, f.coeffs * fam.weight(j))


def block_lp_norm(f: SpectralField, j: int, p: float, family: LPFamily | None = None) -> float:
    fam = family or family_for(f.grid)
    if p == 2.0:
        w = fam.weight(j)
        return float(np.sqrt(f.grid.volume * np.sum((w * np.abs(f.coeffs)) ** 2)))
    if p not in _SUPPORTED_P:
        raise UnsupportedP(f"p = {p} not in {{1, 2, 4, inf}}")
    return lp_norm(dyadic_block(f, j, fam), p)


def block_l2_spectrum(f: SpectralField, family: LPFamily | None = None) -> np.ndarray:
    """All block L2 norms at once (vectorized over j)."""
    fam = family or family_for(f.grid)
    amp2 = np.abs(f.coeffs) ** 2
    if f.is_vector:
        amp2 = np.sum(amp2, axis=0)
    out = np.empty(len(fam.j_values))
    for i, j in enumerate(fam.j_values):
        out[i] = np.sqrt(f.grid.volume * np.sum(fam.weight(j) ** 2 * amp2))
    return out


def block_lp_spectrum(f: SpectralField, p: float, family: LPFamily | None = None) -> np.ndarray:
    fam = family or family_for(f.grid)
    if p == 2.0:
        return block_l2_spectrum(f, fam)
    return np.array([block_lp_norm(f, j, p, fam) for j in fam.j_values])


def _lr_sum(weighted: np.ndarray, r: float) -> float:
    if np.isinf(r):
        return float(np.max(weighted)) if weighted.size else 0.0
    return float(np.sum(weighted**r) ** (1.0 / r))


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
    b = block_lp_spectrum(f, spec.p, fam)
    w = 2.0 ** (fam.j_values * spec.s) * b
    return _lr_sum(w, spec.r)


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
    Low/high parts of the Besov norm: the low part sums j <= j0 at index
    s_low, the high part sums j >= j0 - 1 at index s_high (default s_low).
    An eps-threshold split uses j0 = floor(log2(1/eps)).
    """
    if s_high is None:
        s_high = s_low
    fam = family or family_for(f.grid)
    b = block_lp_spectrum(f, p, fam)
    js = fam.j_values
    low = js <= j0
    high = js >= j0 - 1
    lo = _lr_sum(2.0 ** (js[low] * s_low) * b[low], r)
    hi = _lr_sum(2.0 ** (js[high] * s_high) * b[high], r)
    return lo, hi


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


def threshold_from_eps(eps: float) -> int:
    """Dyadic split threshold with 2^j0 <= 1/eps."""
    return math.floor(math.log2(1.0 / eps))


# ---------------------------------------------------------------------------
# time-then-frequency norms


def _time_lr(values: np.ndarray, times: np.ndarray, rho: float) -> np.ndarray:
    """L^rho norm in time of each block history (trapezoid quadrature)."""
    if np.isinf(rho):
        return np.max(values, axis=1)
    if values.shape[1] < 2:
        raise InsufficientSamples("need at least two samples for rho < inf")
    return np.trapezoid(values**rho, times, axis=1) ** (1.0 / rho)


def chemin_lerner_norm(
    series: BlockTimeSeries,
    rho: float,
    s: float,
    r: float = 1.0,
    j_select: np.ndarray | None = None,
) -> float:
    """
    Time-then-frequency norm: per block the L^rho-in-time norm, then the
    weighted l^r sum over blocks.  ``j_select`` optionally restricts the block
    set (boolean mask over series.j_values) for low/high variants.
    """
    if rho not in (1.0, 2.0, np.inf):
        raise UnsupportedP(f"time exponent rho = {rho} not in {{1, 2, inf}}")
    tn = _time_lr(series.values, series.times, rho)
    js = series.j_values
    if j_select is not None:
        tn = tn[j_select]
        js = js[j_select]
    return _lr_sum(2.0 ** (js * s) * tn, r)


def chemin_lerner_low_high(
    series: BlockTimeSeries,
    rho: float,
    s_low: float,
    s_high: float,
    j0: int = 0,
    r: float = 1.0,
) -> tuple[float, float]:
    low = series.j_values <= j0
    high = series.j_values >= j0 - 1
    return (
        chemin_lerner_norm(series, rho, s_low, r, j_select=low),
        chemin_lerner_norm(series, rho, s_high, r, j_select=high),
    )


def lebesgue_besov_time_norm(series: BlockTimeSeries, rho: float, s: float, r: float = 1.0) -> float:
    """Frequency-then-time ordering: instantaneous Besov norm, then L^rho in t."""
    inst = np.array(
        [_lr_sum(2.0 ** (series.j_values * s) * series.values[:, i], r) for i in range(len(series.times))]
    )
    if np.isinf(rho):
        return float(np.max(inst))
    if len(series.times) < 2:
        raise InsufficientSamples("need at least two samples for rho < inf")
    return float(np.trapezoid(inst**rho, series.times) ** (1.0 / rho))


def hybrid_time_l1_norm(series: BlockTimeSeries, s: float, s_prime: float, j0: int = 0) -> float:
    """L1-in-time norm of the intersection/sum-space norm (low at s, high at s')."""
    js = series.j_values
    low = js <= j0
    high = js >= j0 - 1
    inst = np.zeros(len(series.times))
    for i in range(len(series.times)):
        b = series.values[:, i]
        inst[i] = _lr_sum(2.0 ** (js[low] * s) * b[low], 1.0) + _lr_sum(
            2.0 ** (js[high] * s_prime) * b[high], 1.0
        )
    if len(series.times) < 2:
        raise InsufficientSamples("need at least two samples")
    return float(np.trapezoid(inst, series.times))
