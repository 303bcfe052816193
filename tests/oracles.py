"""
Independent reference computations used by the tests: a hand-rolled
scaled-and-squared matrix exponential, exact linear convolution of centered
spectra, the linear part of the two-phase rhs, the drift-flux momentum rate
in both forms, the advective form of (v.grad)v, the drift-flux limit
measurements from stored checkpoints, the frequency-then-time
Lebesgue-Besov norm, and small helpers that avoid the production code
paths.

The last section keeps the plain forms of the stepper's hot loops, one
numpy expression per term: the propagator applied through the split into
parallel and perpendicular parts, the three rhs families, and the
continuum quadrature block by block.  The production code computes the
same arithmetic in fewer array passes; the tests compare the two.
"""

import numpy as np
from scipy.signal import fftconvolve

from conftest import band_of, half_of

from driftflow import linear
from driftflow.besov import dyadic_sum, phi as lp_phi
from driftflow.errors import InsufficientSamples, QuadratureNotConverged
from driftflow.initial_data import coupled_euler_ns_data, df_state
from driftflow.integrate import CheckpointObserver, Scheme, integrate
from driftflow.spectral import (
    PhysParams,
    SpectralField,
    curl,
    div,
    from_physical,
    grad,
    laplacian,
    leray_project,
    to_physical,
)
from driftflow.studies import _error_norms
from driftflow.systems import (
    StateDF,
    StateEulerNS,
    StateTNS,
    _gas_density,
    _mixture,
    rhs_df,
    system_spec,
)


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


def full_spectrum(grid, band: np.ndarray) -> np.ndarray:
    """
    The full (n,)*d coefficient array of a real field from its stored band,
    padded into the half spectrum (last axis of length n//2 + 1) and
    completed by c_{-k} = conj(c_k).
    """
    half = half_of(grid, band)
    n, d = grid.npts, grid.dim
    full = np.zeros((n,) * d, dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    # last indices 1 .. n/2-1 mirrored to n-1 .. n/2+1, the other axes to -k
    mirror = np.conj(half[..., 1 : n // 2])
    for ax in range(d - 1):
        mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
    full[..., n // 2 + 1 :] = mirror[..., ::-1]
    return full


def true_product_coeffs(grid, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """
    Exact (non-circular) convolution of two band coefficient arrays,
    truncated back to the original lattice and returned on the band.  This
    is the alias-free product.
    """
    n = grid.npts
    a = centered_spectrum(full_spectrum(grid, ca))
    b = centered_spectrum(full_spectrum(grid, cb))
    full = fftconvolve(a, b, mode="full")
    # full index m holds frequency m - n; keep frequencies -n/2 .. n/2 - 1
    lo = n // 2
    sl = tuple(slice(lo, lo + n) for _ in range(grid.dim))
    return band_of(grid, uncentered_spectrum(full[sl]))


def trapz_time_l2(times, values):
    return np.sqrt(np.trapezoid(np.asarray(values) ** 2, times))


def lebesgue_besov_time_norm(series, rho: float, s: float, r: float = 1.0) -> float:
    """The frequency-then-time ordering that the Chemin-Lerner norms are
    compared against: the Besov norm at each sample time, then its L^rho
    norm in time (trapezoid quadrature, rho < inf)."""
    inst = dyadic_sum(series.values, series.j_values, s, r)
    return float(np.trapezoid(inst**rho, series.times) ** (1.0 / rho))


def _visc(v: SpectralField, mu: float, lam: float) -> SpectralField:
    """mu lap v + (mu+lam) grad div v; grad div has the multiplier -xi (xi . )."""
    g = v.grid
    grad_div = -g.kvec * np.sum(g.kvec * v.coeffs, axis=0)[np.newaxis]
    return mu * laplacian(v) + SpectralField(g, (mu + lam) * grad_div)


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
        row = from_physical(g, mix * v_ph[i] * v_ph)  # row i of (rho+n) v x v
        out[i] = -div(row).coeffs
    press = from_physical(g, (1.0 + a_ph) ** params.gamma / params.gamma)
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
    return from_physical(g, mix * dv_ph + dmix_ph * v_ph)


def advection_advective(vel: SpectralField) -> SpectralField:
    """-(v.grad)v in the advective form, sum_j v_j d_j v_i per component,
    on the retained band."""
    g = vel.grid
    v_ph = to_physical(vel)
    out = np.zeros((g.dim,) + g.shape)
    for i in range(g.dim):
        out[i] = -np.sum(v_ph * to_physical(grad(SpectralField(g, vel.coeffs[i]))), axis=0)
    return from_physical(g, out)


def df_limit_checkpointed(tau_list, grid, recipe, T, dt, sample_dt, mu=1.0, lam=0.0):
    """The drift-flux limit measurements from checkpoints of every run, each
    two-phase checkpoint matched to the reference state at its time."""
    d2 = grid.dim / 2.0
    df0 = df_state(grid, recipe)
    ref = integrate(df0, T, Scheme(dt=dt), PhysParams(tau=1.0, mu=mu, lam=lam), "df",
                    [CheckpointObserver()], sample_dt)
    meas = {"sup_error": [], "l1_velocity": [], "sup_density": [],
            "sup_mixed_velocity": [], "t_at_max": []}
    for tau in tau_list:
        traj = integrate(coupled_euler_ns_data(df0, tau), T, Scheme(dt=dt),
                         PhysParams(tau=tau, mu=mu, lam=lam), "euler_ns",
                         [CheckpointObserver()], sample_dt)
        ens_by_t = {round(t, 9): s for t, s in traj.checkpoints}
        sup_rho_n, sup_v, t_at_max, l1_vals, ts = 0.0, 0.0, 0.0, [], []
        for t_ref, df_t in ref.checkpoints:
            if round(t_ref, 9) not in ens_by_t:
                raise InsufficientSamples(f"no two-phase sample at t = {t_ref:g}")
            rn, vv, duv = _error_norms(ens_by_t[round(t_ref, 9)], df_t, d2)
            if rn + vv > sup_rho_n + sup_v:
                t_at_max = t_ref
            sup_rho_n, sup_v = max(sup_rho_n, rn), max(sup_v, vv)
            ts.append(t_ref)
            l1_vals.append(duv)
        meas["t_at_max"].append(t_at_max)
        meas["sup_density"].append(sup_rho_n)
        meas["sup_mixed_velocity"].append(sup_v)
        meas["sup_error"].append(sup_rho_n + sup_v)
        meas["l1_velocity"].append(float(np.trapezoid(l1_vals, ts)))
    return meas


# ---------------------------------------------------------------------------
# plain forms of the hot loops


def _split_parallel(grid, vec):
    s = np.sum(grid.ehat * vec, axis=0)
    return s, vec - grid.ehat * s[np.newaxis]


def _with(state, **new):
    return type(state)(**{k: new[k] if k in new else f.copy()
                          for k, f in state.fields().items()})


def apply_propagator_split(tab, state):
    """One exact linear step: both velocities split into their parts along
    and across e = xi/|xi|, each part advanced by its block, then rebuilt."""
    g = tab.grid
    spec = system_spec(tab.system)
    if spec.c is None:
        return _with(state, w=SpectralField(g, tab.p11 * state.w.coeffs))
    sv, vperp = _split_parallel(g, state.v.coeffs)
    a = state.a.coeffs
    new = {
        "a": SpectralField(g, tab.g11 * a + tab.g12 * sv),
        "v": SpectralField(g, g.ehat * (tab.g21 * a + tab.g22 * sv)[np.newaxis]
                           + tab.p11 * vperp),
    }
    if spec.has_drag:
        su, uperp = _split_parallel(g, state.u.coeffs)
        su_new = tab.g00 * su + tab.g01 * a + tab.g02 * sv
        uperp_new = tab.p00 * uperp + tab.p01 * vperp
        new["u"] = SpectralField(g, g.ehat * su_new[np.newaxis] + uperp_new)
    return _with(state, **new)


def _lamb(vel_ph, vel):
    w = to_physical(curl(vel))
    out = np.empty_like(vel_ph)
    if vel.grid.dim == 2:
        out[0] = vel_ph[1] * w
        out[1] = vel_ph[0] * -w
        return out
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[i] = vel_ph[j] * w[k] - vel_ph[k] * w[j]
    return out


def _advection_ref(vel, vel_ph, rest_ph=None, gradient=True):
    g = vel.grid
    phys = _lamb(vel_ph, vel)
    if rest_ph is not None:
        phys += rest_ph
    out = from_physical(g, phys).coeffs
    if gradient:
        energy = from_physical(g, 0.5 * np.einsum("i...,i...->...", vel_ph, vel_ph)).coeffs
        for i in range(g.dim):
            out[i] -= g.ikvec[i] * energy
    return SpectralField(g, out)


def _div_flux_ref(grid, dens_ph, vel_ph):
    return div(from_physical(grid, dens_ph[np.newaxis] * vel_ph))


def pressure_slope_ratio(x, gamma):
    """(P'(1+x) - 1)/x with the series branch for |x| < 1e-8 selected by
    boolean indexing."""
    out = np.empty_like(x)
    small = np.abs(x) < 1e-8
    out[small] = (gamma - 1.0) + 0.5 * (gamma - 1.0) * (gamma - 2.0) * x[small]
    xb = x[~small]
    out[~small] = ((1.0 + xb) ** (gamma - 1.0) - 1.0) / xb
    return out


def rhs_euler_ns_scaled_ref(state, eps, tau, params, include_linear=True):
    g = state.grid
    mu, lam, gamma = params.mu, params.lam, params.gamma
    kappa = 1.0 / (eps * tau)
    rho_ph = to_physical(state.rho)
    u_ph = to_physical(state.u)
    v_ph = to_physical(state.v)
    a_ph = to_physical(state.a)
    m_ph = _gas_density(a_ph, eps)
    drho = -1.0 * _div_flux_ref(g, rho_ph, u_ph)
    du = _advection_ref(state.u, u_ph)
    da = -1.0 * _div_flux_ref(g, a_ph, v_ph)
    grad_a_ph = to_physical(grad(state.a))
    visc_v = _visc(state.v, mu, lam)
    visc_ph = to_physical(visc_v)
    pr = a_ph * pressure_slope_ratio(eps * a_ph, gamma)
    drag_v = rho_ph * (u_ph - v_ph) / (tau * m_ph)
    dv = _advection_ref(
        state.v, v_ph,
        -((pr - a_ph) / m_ph) * grad_a_ph + (1.0 / m_ph - 1.0) * visc_ph + drag_v)
    if include_linear:
        du = SpectralField(g, du.coeffs - kappa * (state.u.coeffs - state.v.coeffs))
        da = da - (1.0 / eps) * div(state.v)
        dv = SpectralField(g, dv.coeffs - grad(state.a).coeffs / eps + visc_v.coeffs)
    return StateEulerNS(drho, du, da, dv)


def rhs_df_scaled_ref(state, eps, params, include_linear=True):
    g = state.grid
    mu, lam, gamma = params.mu, params.lam, params.gamma
    rho_ph = to_physical(state.rho)
    a_ph = to_physical(state.a)
    v_ph = to_physical(state.v)
    m_ph = _mixture(rho_ph, a_ph, eps)
    drho = -1.0 * _div_flux_ref(g, rho_ph, v_ph)
    da = -1.0 * _div_flux_ref(g, a_ph, v_ph)
    grad_a_ph = to_physical(grad(state.a))
    visc_v = _visc(state.v, mu, lam)
    visc_ph = to_physical(visc_v)
    pr = a_ph * pressure_slope_ratio(eps * a_ph, gamma)
    dv = _advection_ref(
        state.v, v_ph, -((pr - rho_ph - a_ph) / m_ph) * grad_a_ph + (1.0 / m_ph - 1.0) * visc_ph)
    if include_linear:
        da = da - (1.0 / eps) * div(state.v)
        dv = SpectralField(g, dv.coeffs - grad(state.a).coeffs / eps + visc_v.coeffs)
    return StateDF(drho, da, dv)


def rhs_tns_ref(state, params, include_linear=True):
    g = state.grid
    w_ph = to_physical(state.w)
    dvarrho = -1.0 * _div_flux_ref(g, to_physical(state.varrho), w_ph)
    dw, _ = leray_project(_advection_ref(state.w, w_ph, gradient=False))
    if include_linear:
        dw = SpectralField(g, dw.coeffs + params.mu * laplacian(state.w).coeffs)
    return StateTNS(dvarrho, dw)


def continuum_block_l2_loop(init, t, d, tau, mu, lam, js):
    """``linear.continuum_block_l2`` one block at a time: each annulus has
    its own integrand call at every Gauss level until it converges."""
    kappa = 1.0 / tau
    nu = 2.0 * mu + lam
    pref = (2.0 * np.pi if d == 2 else 4.0 * np.pi) / (2.0 * np.pi) ** d

    def integrand(r):
        gc = linear.green_compressible(r, kappa, nu, 1.0, t)
        gi = linear.green_incompressible(r, kappa, mu, t)
        a0, psi0, Psi0 = init.a0(r), init.psi0(r), init.Psi0(r)
        phi0, Phi0 = init.phi0(r), init.Phi0(r)
        phi_t = gc["uu"] * phi0 + gc["ua"] * a0 + gc["uv"] * psi0
        a_t = gc["aa"] * a0 + gc["av"] * psi0
        psi_t = gc["va"] * a0 + gc["vv"] * psi0
        Phi_t = gi["uu"] * Phi0 + gi["uv"] * Psi0
        Psi_t = gi["vv"] * Psi0
        u2 = np.abs(phi_t) ** 2 + np.abs(Phi_t) ** 2
        a2 = np.abs(a_t) ** 2
        v2 = np.abs(psi_t) ** 2 + np.abs(Psi_t) ** 2
        rel2 = np.abs(phi_t - psi_t) ** 2 + np.abs(Phi_t - Psi_t) ** 2
        return np.stack([u2, a2, v2, rel2]) * r ** (d - 1)

    out = np.zeros((4, len(js)))
    for col, j in enumerate(js):
        lo = max(0.75 * 2.0**j, linear.R_LO)
        hi = min(8.0 / 3.0 * 2.0**j, linear.R_HI)
        if lo >= hi:
            continue
        prev = None
        for n in (64, 128, 256, 512, 1024, 2048):
            x, w = linear._gauss(n)
            r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            val = 0.5 * (hi - lo) * (integrand(r) * lp_phi(r / 2.0**j) ** 2) @ w
            if prev is not None:
                scale = max(float(np.max(np.abs(val))), 1e-300)
                if float(np.max(np.abs(val - prev))) <= linear.QUAD_RTOL * scale:
                    prev = val
                    break
            prev = val
        else:
            raise QuadratureNotConverged(f"block j={j} at t={t}")
        out[:, col] = np.sqrt(np.maximum(pref * prev.real, 0.0))
    return {"u": out[0], "a": out[1], "v": out[2], "rel": out[3]}
