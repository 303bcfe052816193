"""
Independent reference computations used by the tests: a hand-rolled
scaled-and-squared matrix exponential, exact linear convolution of centered
spectra, the linear part of the two-phase rhs, the drift-flux momentum rate
in both forms, and small helpers that avoid the production code paths.
"""

import numpy as np
from scipy.signal import fftconvolve

from driftflow.spectral import SpectralField, div, grad, grad_div, laplacian, pointwise, to_physical
from driftflow.systems import StateDF, StateEulerNS, rhs_df


def expm_scaled_squared(mat: np.ndarray, order: int = 16) -> np.ndarray:
    """Taylor-series matrix exponential with scaling and squaring."""
    mat = np.asarray(mat, dtype=np.complex128)
    norm = np.linalg.norm(mat, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    a = mat / 2.0**s
    out = np.eye(mat.shape[0], dtype=np.complex128)
    term = np.eye(mat.shape[0], dtype=np.complex128)
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def centered_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Reorder fft-layout coefficients so index N//2 is the zero mode."""
    d = coeffs.ndim
    return np.fft.fftshift(coeffs, axes=tuple(range(d)))


def uncentered_spectrum(centered: np.ndarray) -> np.ndarray:
    d = centered.ndim
    return np.fft.ifftshift(centered, axes=tuple(range(d)))


def full_spectrum(half: np.ndarray) -> np.ndarray:
    """
    The full (n,)*d coefficient array of a real field from its stored half
    spectrum (last axis of length n//2 + 1), by c_{-k} = conj(c_k).
    """
    n = half.shape[0]
    d = half.ndim
    full = np.zeros((n,) * d, dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    # last indices 1 .. n/2-1 mirrored to n-1 .. n/2+1, the other axes to -k
    mirror = np.conj(half[..., 1 : n // 2])
    for ax in range(d - 1):
        mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
    full[..., n // 2 + 1 :] = mirror[..., ::-1]
    return full


def true_product_coeffs(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """
    Exact (non-circular) convolution of two half-spectrum coefficient arrays,
    truncated back to the original lattice and returned as a half spectrum.
    This is the alias-free product.
    """
    n = ca.shape[0]
    a = centered_spectrum(full_spectrum(ca))
    b = centered_spectrum(full_spectrum(cb))
    full = fftconvolve(a, b, mode="full")
    # full index m holds frequency m - n; keep frequencies -n/2 .. n/2 - 1
    lo = n // 2
    sl = tuple(slice(lo, lo + n) for _ in range(ca.ndim))
    return uncentered_spectrum(full[sl])[..., : n // 2 + 1]


def trapz_time_l2(times, values):
    return np.sqrt(np.trapezoid(np.asarray(values) ** 2, times))


def _visc(v: SpectralField, mu: float, lam: float) -> SpectralField:
    return mu * laplacian(v) + (mu + lam) * grad_div(v)


def linear_rhs_euler_ns(state: StateEulerNS, params) -> StateEulerNS:
    """The constant-coefficient part of the euler_ns rhs alone (drag,
    acoustics, viscosity)."""
    g = state.grid
    zero = SpectralField(g, np.zeros_like(state.rho.coeffs))
    du = SpectralField(g, -(state.u.coeffs - state.v.coeffs) / params.tau)
    da = -1.0 * div(state.v)
    dv = SpectralField(g, -grad(state.a).coeffs + _visc(state.v, params.mu, params.lam).coeffs)
    return StateEulerNS(zero, du, da, dv)


def momentum_rhs_df_conservative(state: StateDF, params) -> SpectralField:
    """d/dt((rho+n)v) of the df system in conservative form."""
    g = state.grid
    rho_ph = to_physical(state.rho)
    a_ph = to_physical(state.a)
    v_ph = to_physical(state.v)
    mix = rho_ph + 1.0 + a_ph
    out = np.zeros((g.dim,) + g.spectral_shape, dtype=np.complex128)
    for i in range(g.dim):
        row = pointwise(g, mix * v_ph[i] * v_ph)  # row i of (rho+n) v x v
        out[i] = -div(row).coeffs
    press = pointwise(g, (1.0 + a_ph) ** params.gamma / params.gamma)
    out -= grad(press).coeffs
    out += _visc(state.v, params.mu, params.lam).coeffs
    return SpectralField(g, out)


def momentum_rhs_df_nonconservative(state: StateDF, params) -> SpectralField:
    """d/dt((rho+n)v) rebuilt from ``rhs_df``'s non-conservative evaluation."""
    g = state.grid
    d = rhs_df(state, params)
    rho_ph = to_physical(state.rho)
    a_ph = to_physical(state.a)
    v_ph = to_physical(state.v)
    mix = rho_ph + 1.0 + a_ph
    dmix_ph = to_physical(d.rho) + to_physical(d.a)
    dv_ph = to_physical(d.v)
    return pointwise(g, mix * dv_ph + dmix_ph * v_ph)
