"""
Seeded initial-data families for the simulation studies.

All fields are band-limited (inside the dealiasing cutoff) and reproducible
from (recipe, seed).  Two textures are
provided: random-phase annulus fields with a prescribed low-frequency
spectral slope, and spatially localized bump-modulated fields for the
acoustic-dispersion studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (Grid, SpectralField, _band_of, _lattice, from_physical, leray_project,
                       to_physical)
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


def _hermitian_part(c: np.ndarray) -> np.ndarray:
    """(c_k + conj(c_{-k}))/2 on the full lattice."""
    rc = c
    for ax in range(c.ndim):
        rc = np.roll(np.flip(rc, axis=ax), 1, axis=ax)
    return 0.5 * (c + np.conj(rc))


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
    sigma1 roughly flat across blocks.
    """
    # The random coefficients are drawn, shaped and symmetrized on the full
    # lattice, so that a (recipe, seed) keeps the field it has always named;
    # the Hermitian result is then cut to the stored band.
    shape = grid.shape
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    c = (re + 1j * im).astype(np.complex128)
    kint, _, k2 = _lattice(grid, full=True)
    keep = np.all(np.abs(kint) <= grid.kcut, axis=0)
    kmag = np.sqrt(k2)
    mask = (kmag >= k_band[0]) & (kmag <= k_band[1])
    c *= mask
    if sigma1 is not None:
        expo = -sigma1 - grid.dim / 2.0
        with np.errstate(divide="ignore"):
            prof = np.where(kmag > 0, kmag, 1.0) ** expo
        c *= prof
    c = _hermitian_part(c * keep)
    f = SpectralField(grid, _band_of(grid, c))
    idx = (0,) * grid.dim
    f.coeffs[idx] = 0.0
    sup = float(np.max(np.abs(to_physical(f))))
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
    sup = float(np.max(np.sqrt(np.sum(to_physical(f) ** 2, axis=0))))
    if sup > 0:
        f = f * (amplitude / sup)
    return f


def bump_scalar(grid: Grid, center=None, width: float | None = None, amplitude: float = 1.0) -> SpectralField:
    """Periodic Gaussian bump (nearest-image distance), cut to the band."""
    L = grid.length
    width = width or L / 12.0
    if center is None:
        center = (L / 2.0,) * grid.dim
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
        f = SpectralField(f.grid, f.coeffs)
        idx = (0,) * grid.dim
        f.coeffs[idx] += floor * 0.5 - m
    return f


def euler_ns_state(grid: Grid, recipe: DataRecipe) -> StateEulerNS:
    """Two-phase data; ill-prepared by default (order-one velocity mismatch
    concentrated at large scales, nonzero divergence)."""
    rng = np.random.default_rng(recipe.seed)
    rho = positive_density(grid, rng, recipe.rho_amplitude, recipe.rho_floor)
    a = random_scalar(grid, rng, recipe.amplitude, recipe.k_band, recipe.sigma1)
    v = random_vector(grid, rng, recipe.amplitude, recipe.k_band, recipe.sigma1)
    if recipe.prepared == "well":
        u = v.copy()
    else:
        lo, hi = recipe.mismatch_band
        hi = max(hi, 1.5 * max(lo, 2.0 * np.pi / grid.length))
        mismatch = random_vector(grid, rng, recipe.amplitude, (lo, hi), recipe.sigma1)
        u = v + mismatch
    return StateEulerNS(rho, u, a, v).validate()


def df_state(grid: Grid, recipe: DataRecipe) -> StateDF:
    rng = np.random.default_rng(recipe.seed)
    rho = positive_density(grid, rng, recipe.rho_amplitude, recipe.rho_floor)
    a = random_scalar(grid, rng, recipe.amplitude, recipe.k_band, recipe.sigma1)
    v = random_vector(grid, rng, recipe.amplitude, recipe.k_band, recipe.sigma1)
    return StateDF(rho, a, v).validate()


def tns_state(grid: Grid, recipe: DataRecipe) -> StateTNS:
    rng = np.random.default_rng(recipe.seed)
    varrho = positive_density(grid, rng, recipe.rho_amplitude, recipe.rho_floor)
    w = random_vector(grid, rng, recipe.amplitude, recipe.k_band, solenoidal=True)
    return StateTNS(varrho, w)


def localized_df_state(grid: Grid, recipe: DataRecipe) -> StateDF:
    """
    Bump-localized acoustic data for the low-Mach studies: the gas
    perturbation and the potential velocity part are spatially concentrated
    so that sound waves can spread before they wrap around the torus.
    """
    rng = np.random.default_rng(recipe.seed)
    L = grid.length
    w = recipe.bump_width or L / 14.0
    c1 = (0.5 * L,) * grid.dim
    a = bump_scalar(grid, c1, w, recipe.amplitude)
    pot = bump_scalar(grid, c1, 1.3 * w, 1.0)
    from .spectral import grad as _grad

    q = _grad(pot)
    sup = float(np.max(np.sqrt(np.sum(to_physical(q) ** 2, axis=0))))
    q = q * (recipe.amplitude / max(sup, 1e-300))
    background = random_vector(grid, rng, 0.3 * recipe.amplitude, recipe.k_band, solenoidal=True)
    v = q + background
    rho = positive_density(grid, rng, recipe.rho_amplitude, recipe.rho_floor)
    return StateDF(rho, a, v).validate()


def localized_euler_ns_state(grid: Grid, recipe: DataRecipe) -> StateEulerNS:
    base = localized_df_state(grid, recipe)
    rng = np.random.default_rng(recipe.seed + 1)
    if recipe.prepared == "well":
        u = base.v.copy()
    else:
        # ill-prepared (mismatch independent of eps) but modest, so the
        # friction transient stays subordinate to the slaved mismatch
        lo, hi = recipe.mismatch_band
        hi = max(hi, 1.5 * max(lo, 2.0 * np.pi / grid.length))
        u = base.v + random_vector(grid, rng, 0.3 * recipe.amplitude, (lo, hi))
    return StateEulerNS(base.rho, u, base.a, base.v).validate()


def initial_state(system: str, grid: Grid, recipe: DataRecipe):
    """Data for a registered system, by the family of its state class;
    ``recipe.localized`` selects the bump-localized texture."""
    cls = system_spec(system).state_cls
    if cls is StateTNS:
        return tns_state(grid, recipe)
    if cls is StateDF:
        return localized_df_state(grid, recipe) if recipe.localized else df_state(grid, recipe)
    if recipe.localized:
        return localized_euler_ns_state(grid, recipe)
    return euler_ns_state(grid, recipe)


def lowpass_vector(f: SpectralField, radius: float) -> SpectralField:
    """Sharp low-pass at |xi| <= radius (used by the limit-coupled data)."""
    keep = f.grid.kmag <= radius
    return SpectralField(f.grid, f.coeffs * keep)


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
    bump = bump_scalar(g, None, g.length / 10.0, COUPLED_BUMP_HEIGHT)
    rho = SpectralField(g, df0.rho.coeffs + tau * bump.coeffs)
    u = lowpass_vector(df0.v, 1.0 / np.sqrt(tau))
    return StateEulerNS(rho, u, df0.a.copy(), df0.v.copy()).validate()
