"""
Discrete dyadic (Littlewood-Paley) decomposition and the Besov-type norms
built on it, including time-then-frequency (Chemin-Lerner) norms.

The dyadic family comes from a smooth radial non-increasing cutoff chi with
chi = 1 on r <= 3/4 and chi = 0 on r >= 4/3; the annular weight is
phi(r) = chi(r/2) - chi(r), supported in 3/4 <= r <= 8/3, and the family
{phi(2^-j r)} telescopes into an exact partition of unity on r > 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSamples, UnsupportedP
from .spectral import Grid, SpectralField, lp_norm

_CHI_LO = 0.75
_CHI_HI = 4.0 / 3.0

_SUPPORTED_P = (1.0, 2.0, 4.0, np.inf)

# the low/high split of every hybrid and split norm: low blocks j <= J0,
# high blocks j >= J0 - 1
J0 = 0


def chi(r):
    """Radial low-pass generator: 1 on r <= 3/4, 0 on r >= 4/3, and between
    them the C-infinity bridge b/(a+b), a = exp(-1/t), b = exp(-1/(1-t)),
    t = (r - 3/4)/(4/3 - 3/4)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.where(r <= _CHI_LO, 1.0, 0.0)
    mid = (r > _CHI_LO) & (r < _CHI_HI)
    width = _CHI_HI - _CHI_LO
    a = np.exp(-width / (r[mid] - _CHI_LO))
    b = np.exp(-width / (_CHI_HI - r[mid]))
    out[mid] = b / (a + b)
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
    The dyadic multiplier family bound to a grid: the blocks j_min..j_max
    whose annuli cover the grid's radii, one block spare each side.

    ``weights`` stacks every block weight phi(2^-j |xi|), j = j_min..j_max,
    on the grid's spectral lattice, shape (J,) + grid.spectral_shape; it is
    tabulated once and read by every norm evaluation.
    """

    grid: Grid
    j_min: int = field(init=False)
    j_max: int = field(init=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        radii = self.grid.active_radii()
        j_min, j_max = block_j_range(float(radii[0]), float(radii[-1]))
        self.j_min, self.j_max = j_min - 1, j_max + 1
        scales = 2.0 ** self.j_values.reshape((-1,) + (1,) * self.grid.dim)
        self.weights = phi(self.grid.kmag / scales)
        # the squared rows, flat, for the p = 2 block norms
        self._squares = np.square(self.weights).reshape(len(scales), -1)

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


@functools.cache
def family_for(grid: Grid) -> LPFamily:
    """The one family of a grid, built on first use; equal grids share it."""
    return LPFamily(grid)


@dataclass
class BlockTimeSeries:
    """Per-block Lp norm histories ||Delta_j u(t)||_{Lp} on a time grid."""

    times: np.ndarray        # (T,), strictly increasing
    j_values: np.ndarray     # (J,)
    values: np.ndarray       # (J, T), nonnegative

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        # written so that a NaN fails them
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(self.values >= 0):
            raise ValueError("block norms must be nonnegative")


# ---------------------------------------------------------------------------
# block extraction and norms


def dyadic_block(f: SpectralField, j: int) -> SpectralField:
    """Frequency-localize f to the annulus |xi| ~ 2^j."""
    return SpectralField(f.grid, f.coeffs * family_for(f.grid).weight(j))


def block_lp_norm(f: SpectralField, j: int, p: float) -> float:
    """||Delta_j f||_{Lp} by quadrature of the block's samples."""
    if p not in _SUPPORTED_P:
        raise UnsupportedP(f"p = {p} not in {{1, 2, 4, inf}}")
    return lp_norm(dyadic_block(f, j), p)


def block_l2_spectrum(f: SpectralField) -> np.ndarray:
    """All block L2 norms at once: the squared weight table contracted
    against the Parseval-weighted |c|^2."""
    amp2 = f.coeffs.real**2 + f.coeffs.imag**2
    if f.is_vector:
        amp2 = np.sum(amp2, axis=0)
    amp2 *= f.grid.parseval_weight
    return np.sqrt(f.grid.volume * (family_for(f.grid)._squares @ amp2.ravel()))


def block_lp_spectrum(f: SpectralField, p: float) -> np.ndarray:
    if p == 2.0:
        return block_l2_spectrum(f)
    return np.array([block_lp_norm(f, j, p) for j in family_for(f.grid).j_values])


# ---------------------------------------------------------------------------
# the weighted block sum and the low/high split


def dyadic_sum(b: np.ndarray, js: np.ndarray, s: float, r: float = 1.0):
    """l^r norm over axis 0 of 2^{js} b, for block values b of shape (J,)
    (a float) or (J, T) (one norm per column); r >= 1, inf included."""
    if not r >= 1:
        raise UnsupportedP(f"summation exponent r = {r} is not >= 1")
    b = np.asarray(b, dtype=np.float64)
    w = 2.0 ** (np.asarray(js) * s).reshape((-1,) + (1,) * (b.ndim - 1)) * b
    if np.isinf(r):
        return np.max(w, axis=0, initial=0.0)
    return np.sum(w**r, axis=0) ** (1.0 / r)


def _low_high(b: np.ndarray, js: np.ndarray, s_low: float, s_high: float):
    """The split every low/high norm uses: the low part sums j <= J0 at index
    s_low, the high part sums j >= J0 - 1 at index s_high (the blocks
    J0 - 1 and J0 count in both)."""
    low, high = js <= J0, js >= J0 - 1
    return dyadic_sum(b[low], js[low], s_low), dyadic_sum(b[high], js[high], s_high)


def besov_norm(f: SpectralField, s: float, p: float = 2.0, r: float = 1.0) -> float:
    """Homogeneous Besov norm: l^r over j of 2^{js} ||Delta_j f||_{Lp}, for
    p in {1, 2, 4, inf} (``block_lp_norm`` checks it) and r >= 1 (r = inf
    gives sup_j)."""
    return float(dyadic_sum(block_lp_spectrum(f, p), family_for(f.grid).j_values, s, r))


def hybrid_norm(f: SpectralField, s: float, s_prime: float) -> float:
    """
    Norm of the intersection space (s < s') or the sum space (s > s'),
    reconstructed from the low/high split of ``_low_high``: the L2-based
    low part at s, the high part at s'.
    """
    lo, hi = _low_high(block_l2_spectrum(f), family_for(f.grid).j_values, s, s_prime)
    return float(lo) + float(hi)


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


def chemin_lerner_norm(series: BlockTimeSeries, rho: float, s: float) -> float:
    """Time-then-frequency norm: per block the L^rho-in-time norm, then the
    weighted l^1 sum over blocks."""
    return float(dyadic_sum(_time_lr(series.values, series.times, rho), series.j_values, s))


def hybrid_time_l1_norm(series: BlockTimeSeries, s: float, s_prime: float) -> float:
    """L1-in-time norm of the intersection/sum-space norm (low at s, high at s')."""
    lo, hi = _low_high(series.values, series.j_values, s, s_prime)
    return float(_time_lr(lo + hi, series.times, 1.0))
