"""
Seeded initial-data families for the simulation studies.

All fields are band-limited (inside the dealiasing cutoff) and reproducible
from (recipe, seed).  Two textures are
provided: random-phase annulus fields with a prescribed low-frequency
spectral slope, and spatially localized bump-modulated fields for the
acoustic-dispersion studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectral import (Grid, SpectralField, _band_of, from_physical, grad, leray_project,
                       linf_norm, to_physical)
from .systems import StateDF, StateEulerNS, StateTNS, system_spec

# height of the density bump that ``coupled_euler_ns_data`` scales by tau
COUPLED_BUMP_HEIGHT = 1e-5


@dataclass(frozen=True)
class DataRecipe:
    """Knobs for the default data families; amplitudes are sup-norm sizes."""

    amplitude: float = 0.05          # velocity / gas-perturbation scale
    rho_amplitude: float = 0.05      # dispersed-phase density scale
    rho_floor: float = 1e-4          # strictly positive background for rho;
    # must dominate the dealiasing ripple that long advection generates
    seed: int = 0
    prepared: str = "ill"            # "ill": u0 != v0, "well": u0 = v0
    k_band: tuple[float, float] = (0.5, 3.0)     # active |xi| band for velocities
    mismatch_band: tuple[float, float] = (0.0, 1.0)  # low-frequency u0 - v0 band
    sigma1: float | None = None      # optional low-frequency spectral slope
    localized: bool = False          # bump-modulated data (dispersion studies)
    bump_width: float | None = None

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a nonnegative int, not {seed!r}")
        if self.prepared not in ("ill", "well"):
            raise ValueError(f"prepared must be 'ill' or 'well', not {self.prepared!r}")
        lo, hi = self.k_band
        if not (math.isfinite(hi) and 0 <= lo <= hi):
            raise ValueError(f"k_band must be finite with 0 <= lo <= hi, not {(lo, hi)!r}")
        # euler_ns_state raises the mismatch band's upper end to at least
        # 1.5 max(lo, 2pi/L), so hi <= lo is allowed
        lo, hi = self.mismatch_band
        if not (math.isfinite(lo) and math.isfinite(hi) and lo >= 0):
            raise ValueError(f"mismatch_band must be finite with lo >= 0, not {(lo, hi)!r}")
        if self.bump_width is not None and not (math.isfinite(self.bump_width)
                                                and self.bump_width > 0):
            raise ValueError(f"bump_width must be positive and finite, not {self.bump_width!r}")


def random_scalar(
    grid: Grid,
    rng: np.random.Generator,
    amplitude: float,
    k_band: tuple[float, float] = (0.5, 3.0),
    sigma1: float | None = None,
) -> SpectralField:
    """
    Zero-mean random-phase scalar with coefficients supported on
    k_band[0] <= |xi| <= k_band[1].

    With ``sigma1`` given, coefficient magnitudes follow
    |c| ~ |xi|^(-sigma1 - d/2), which makes the weak dyadic norm at index
    sigma1 roughly flat across blocks.  A band that holds no nonzero mode
    of the grid is a ConfigError.
    """
    # The coefficients are drawn on the full lattice, so that a (recipe,
    # seed) keeps the field it has always named; the draw and its partner
    # at -k are then cut to the stored band, where they are shaped and made
    # Hermitian.
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    partner = c
    for ax in range(grid.dim):
        partner = np.roll(np.flip(partner, axis=ax), 1, axis=ax)
    kmag = grid.kmag
    band = (kmag >= k_band[0]) & (kmag <= k_band[1])
    if not np.any(band & (kmag > 0)):
        raise ConfigError(f"no nonzero mode of the grid (|xi| <= {np.max(kmag):.4g}) "
                          f"lies in the band {tuple(k_band)}")
    w = band.astype(np.float64)
    if sigma1 is not None:
        expo = -sigma1 - grid.dim / 2.0
        w *= np.where(kmag > 0, kmag, 1.0) ** expo
    c = _band_of(grid, c) * w
    partner = _band_of(grid, partner) * w
    f = SpectralField(grid, 0.5 * (c + np.conj(partner)))
    idx = (0,) * grid.dim
    f.coeffs[idx] = 0.0
    sup = linf_norm(f)
    if sup > 0:
        f = f * (amplitude / sup)
    return f


def random_vector(
    grid: Grid,
    rng: np.random.Generator,
    amplitude: float,
    k_band: tuple[float, float] = (0.5, 3.0),
    sigma1: float | None = None,
    solenoidal: bool = False,
) -> SpectralField:
    comps = [random_scalar(grid, rng, 1.0, k_band, sigma1).coeffs for _ in range(grid.dim)]
    f = SpectralField(grid, np.stack(comps))
    if solenoidal:
        f, _ = leray_project(f)
    sup = linf_norm(f)
    if sup > 0:
        f = f * (amplitude / sup)
    return f


def bump_scalar(grid: Grid, center, width: float, amplitude: float = 1.0) -> SpectralField:
    """Periodic Gaussian bump (nearest-image distance) of the given positive
    finite width, cut to the band; ValueError for any other width."""
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"bump width must be positive and finite, not {width!r}")
    L = grid.length
    x = grid.coords()
    r2 = np.zeros(grid.shape)
    for i in range(grid.dim):
        dxi = np.abs(x[i] - center[i])
        dxi = np.minimum(dxi, L - dxi)
        r2 += dxi**2
    return from_physical(grid, amplitude * np.exp(-r2 / width**2))


def positive_density(grid: Grid, rng: np.random.Generator, amplitude: float, floor: float) -> SpectralField:
    """Strictly positive bump mixture with a small uniform floor."""
    L = grid.length
    total = np.full(grid.shape, floor)
    ncenters = 2
    # widths stay well above the dealiasing scale so the truncated Gaussian
    # tail cannot undercut the positivity floor
    w_min = max(L / 8.0, 7.0 * grid.dx)
    for _ in range(ncenters):
        center = rng.uniform(0.2 * L, 0.8 * L, size=grid.dim)
        w = rng.uniform(w_min, 1.5 * w_min)
        b = bump_scalar(grid, center, w, amplitude / ncenters)
        total = total + to_physical(b)
    f = from_physical(grid, total)
    # the band cut's ripple must not push the density below zero
    m = float(np.min(to_physical(f)))
    if m < floor * 0.5:
        idx = (0,) * grid.dim
        f.coeffs[idx] += floor * 0.5 - m
    return f


def _gas_and_dispersed(grid: Grid, recipe: DataRecipe, rng: np.random.Generator):
    """(rho, a, v) drawn from ``rng``.  With ``recipe.localized`` the gas
    perturbation and the potential velocity part are bump-localized, so that
    sound waves can spread before they wrap around the torus (the low-Mach
    studies)."""
    if not recipe.localized:
        rho = positive_density(grid, rng, recipe.rho_amplitude, recipe.rho_floor)
        a = random_scalar(grid, rng, recipe.amplitude, recipe.k_band, recipe.sigma1)
        v = random_vector(grid, rng, recipe.amplitude, recipe.k_band, recipe.sigma1)
        return rho, a, v
    L = grid.length
    w = L / 14.0 if recipe.bump_width is None else recipe.bump_width
    c1 = (0.5 * L,) * grid.dim
    a = bump_scalar(grid, c1, w, recipe.amplitude)
    q = grad(bump_scalar(grid, c1, 1.3 * w, 1.0))
    q = q * (recipe.amplitude / max(linf_norm(q), 1e-300))
    v = q + random_vector(grid, rng, 0.3 * recipe.amplitude, recipe.k_band, solenoidal=True)
    rho = positive_density(grid, rng, recipe.rho_amplitude, recipe.rho_floor)
    return rho, a, v


def euler_ns_state(grid: Grid, recipe: DataRecipe) -> StateEulerNS:
    """Two-phase data; ill-prepared by default (order-one velocity mismatch
    concentrated at large scales, nonzero divergence)."""
    rng = np.random.default_rng(recipe.seed)
    rho, a, v = _gas_and_dispersed(grid, recipe, rng)
    if recipe.prepared == "well":
        return StateEulerNS(rho, v.copy(), a, v).validate()
    lo, hi = recipe.mismatch_band
    band = (lo, max(hi, 1.5 * max(lo, 2.0 * np.pi / grid.length)))
    if recipe.localized:
        # independent of eps but modest, so the friction transient stays
        # subordinate to the slaved mismatch
        mismatch = random_vector(grid, np.random.default_rng(recipe.seed + 1),
                                 0.3 * recipe.amplitude, band)
    else:
        mismatch = random_vector(grid, rng, recipe.amplitude, band, recipe.sigma1)
    return StateEulerNS(rho, v + mismatch, a, v).validate()


def df_state(grid: Grid, recipe: DataRecipe) -> StateDF:
    return StateDF(*_gas_and_dispersed(grid, recipe, np.random.default_rng(recipe.seed))).validate()


def tns_state(grid: Grid, recipe: DataRecipe) -> StateTNS:
    rng = np.random.default_rng(recipe.seed)
    varrho = positive_density(grid, rng, recipe.rho_amplitude, recipe.rho_floor)
    w = random_vector(grid, rng, recipe.amplitude, recipe.k_band, solenoidal=True)
    return StateTNS(varrho, w).validate()


_BUILDERS = {StateEulerNS: euler_ns_state, StateDF: df_state, StateTNS: tns_state}


def initial_state(system: str, grid: Grid, recipe: DataRecipe):
    """Data for a registered system, by the family of its state class."""
    return _BUILDERS[system_spec(system).state_cls](grid, recipe)


def coupled_euler_ns_data(df0: StateDF, tau: float) -> StateEulerNS:
    """
    Relaxation-coupled two-phase data built from drift-flux data: the
    dispersed density gains a tau-sized positive bump, the dispersed velocity
    is the low-pass of v at radius 1/sqrt(tau), and (a, v) are shared.

    With v carrying a critical-norm-flat spectrum, the initial two-system
    distance scales like sqrt(tau); the bump height COUPLED_BUMP_HEIGHT is
    kept small so the tau-linear density offset never dominates that scaling.
    """
    g = df0.grid
    bump = bump_scalar(g, (g.length / 2.0,) * g.dim, g.length / 10.0, COUPLED_BUMP_HEIGHT)
    rho = SpectralField(g, df0.rho.coeffs + tau * bump.coeffs)
    u = SpectralField(g, df0.v.coeffs * (g.kmag <= 1.0 / np.sqrt(tau)))
    return StateEulerNS(rho, u, df0.a.copy(), df0.v.copy()).validate()
