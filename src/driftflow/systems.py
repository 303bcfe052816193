"""
States, right-hand sides and the system table.

The five flow variants are scalings of three rhs families:

  euler_ns          pressureless phase (rho, u) drag-coupled to a viscous
                    compressible phase (n = 1 + a, v)
  df                one-velocity two-phase drift-flux system (rho, a, v)
  tns               passive density transported by incompressible flow
  euler_ns_scaled   Mach-scaled variant with drag rate 1/(eps*tau)
  df_scaled         Mach-scaled drift-flux variant

``euler_ns`` and ``df`` are their Mach-scaled forms at eps = 1; ``SYSTEMS``
maps each name to its state class, its nonlinear rhs, its linear symbol and
the parameters those two read.

Velocity equations are advanced in non-conservative form; transport
equations in divergence form, so their zero Fourier mode is exactly
invariant.  The pressure law is P(n) = n^gamma / gamma, hence P'(1) = 1 and
the pressure coefficients

    g(a) = 1 - (1+a)^(gamma-2),    f(a) = -a / (1+a)

are closed-form.  Composite nonlinearities are evaluated pointwise on the
physical grid and transformed once; the forward transform projects them
onto the retained 2/3-rule band.  Advection of a velocity
takes the rotational form (v.grad)v = grad(|v|^2/2) - v x curl v, whose
gradient term is added per mode (``_advection``).

In the two-phase family the pressure coefficient depends on the gas alone,
so the nonlinear pressure term is a gradient, g(a) grad a = -grad G(a)
(scaled: G(a) = [((1+eps a)^(gamma-1) - 1)/(gamma-1) - eps a]/eps^2, the
enthalpy beyond its linear part).  G joins |v|^2/2 before that term's
forward transform, so grad a is never taken to the grid.  The drift-flux
coefficient also depends on rho and keeps the form coef * grad a; its slope
(P'(1+x) - 1)/x = (gamma-1)(1 + x q(x)) reads the same q = G/a^2.  The rhs
are assembled in arrays they allocate themselves, each operation in the
order of the plain expression of its term, so the result is that
expression's to the bit, and each physical array is released after its
last use.

Every rhs takes ``include_linear``: with False it returns only the part
complementary to the constant-coefficient symbol that an exponential
integrator treats exactly (drag, acoustics, viscosity).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMixture, NonFiniteField, StepRejected, VacuumGas
from .spectral import (
    Grid,
    PhysParams,
    SpectralField,
    curl,
    div,
    dot,
    from_physical,
    grad,
    l2_norm,
    laplacian,
    leray_project,
    to_physical,
)

N_MIN = 0.1          # admissibility floor for the gas density 1 + eps*a
MIX_FLOOR = 0.05     # admissibility floor for the mixture density
RHO_NEG_TOL = 1e-10  # absolute floor of the rho >= 0 truncation tolerance
RHO_NEG_REL = 1e-5   # relative part: dealiasing ripple scales with sup|rho|


# ---------------------------------------------------------------------------
# states


class _State:
    """Field access shared by the state dataclasses, in declaration order.

    ``validate(eps)`` checks the invariants of the state for the Mach number
    ``eps`` of the system it is advanced by; a NaN or infinite coefficient in
    any field fails it."""

    def fields(self) -> dict[str, SpectralField]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @property
    def grid(self) -> Grid:
        return getattr(self, dataclasses.fields(self)[0].name).grid

    def copy(self):
        return type(self)(*[f.copy() for f in self.fields().values()])

    def _require_finite(self):
        for name, f in self.fields().items():
            if not np.all(np.isfinite(f.coeffs)):
                raise NonFiniteField(f"field {name} holds non-finite coefficients")


@dataclass
class StateEulerNS(_State):
    rho: SpectralField
    u: SpectralField
    a: SpectralField
    v: SpectralField

    def validate(self, eps: float = 1.0):
        self._require_finite()
        _gas_density(to_physical(self.a), eps)
        rho_ph = to_physical(self.rho)
        tol = max(RHO_NEG_TOL, RHO_NEG_REL * float(np.max(np.abs(rho_ph))))
        if not float(np.min(rho_ph)) >= -tol:
            raise VacuumGas(f"min(rho) = {np.min(rho_ph):.4g} < -{tol:g}")
        return self


@dataclass
class StateDF(_State):
    rho: SpectralField
    a: SpectralField
    v: SpectralField

    def validate(self, eps: float = 1.0):
        self._require_finite()
        _mixture(to_physical(self.rho), to_physical(self.a), eps)
        return self


@dataclass
class StateTNS(_State):
    varrho: SpectralField
    w: SpectralField

    def validate(self, eps: float = 1.0):
        self._require_finite()
        d = div(self.w)
        if l2_norm(d) > 1e-10 * max(1.0, l2_norm(self.w)):
            raise StepRejected("transport velocity is not divergence-free")
        return self


# ---------------------------------------------------------------------------
# helpers


def _lamb(vel_ph: np.ndarray, vel: SpectralField, out: np.ndarray) -> np.ndarray:
    """Add the samples of vel x curl(vel) to ``out``; in 2D curl(vel) is the
    scalar w and vel x w = (v2 w, -v1 w)."""
    w = to_physical(curl(vel))
    tmp = np.empty_like(vel_ph[0])
    if vel.grid.dim == 2:
        out[0] += np.multiply(vel_ph[1], w, out=tmp)
        out[1] -= np.multiply(vel_ph[0], w, out=tmp)
        return out
    tmp2 = np.empty_like(tmp)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(vel_ph[j], w[k], out=tmp)
        tmp -= np.multiply(vel_ph[k], w[j], out=tmp2)
        out[i] += tmp
    return out


def _advection(vel: SpectralField, vel_ph: np.ndarray, rest_ph: np.ndarray | None = None,
               potential_ph: np.ndarray | None = None, gradient: bool = True) -> SpectralField:
    """
    -(vel.grad)vel + rest - grad(potential), on the retained band, in the
    rotational form

        -(v.grad)v = v x curl v - grad(|v|^2/2):

    the samples of v x curl v are added into ``rest_ph`` (which is
    overwritten) and share its transform, and the gradient of
    |v|^2/2 + potential, one transform, is subtracted per mode.
    ``gradient=False`` leaves it out, for a caller whose Leray projection
    removes it anyway.
    """
    g = vel.grid
    phys = _lamb(vel_ph, vel, np.zeros_like(vel_ph) if rest_ph is None else rest_ph)
    out = from_physical(g, phys).coeffs
    del phys
    if gradient:
        energy = 0.5 * np.einsum("i...,i...->...", vel_ph, vel_ph)
        if potential_ph is not None:
            energy += potential_ph
        energy = from_physical(g, energy).coeffs
        tmp = np.empty_like(energy)
        for i in range(g.dim):
            out[i] -= np.multiply(g.ikvec[i], energy, out=tmp)
    return SpectralField(g, out)


def _transport(grid: Grid, dens_ph: np.ndarray, vel_ph: np.ndarray) -> SpectralField:
    """-div(dens * vel), on the retained band, in divergence form: exact zero mean."""
    out = dot(grid.ikvec, from_physical(grid, np.multiply(dens_ph, vel_ph)).coeffs)
    return SpectralField(grid, np.negative(out, out=out))


def _gas_density(a_ph: np.ndarray, eps: float) -> np.ndarray:
    """The gas density 1 + eps*a, rejected at or below the N_MIN floor."""
    n_ph = 1.0 + eps * a_ph
    if not float(np.min(n_ph)) > N_MIN:
        raise VacuumGas(f"min(1 + eps a) = {np.min(n_ph):.4g} <= {N_MIN}")
    return n_ph


def _mixture(rho_ph: np.ndarray, a_ph: np.ndarray, eps: float) -> np.ndarray:
    """The mixture density 1 + eps*(rho + a), rejected at or below MIX_FLOOR."""
    mix = 1.0 + eps * (rho_ph + a_ph)
    if not float(np.min(mix)) > MIX_FLOOR:
        raise DegenerateMixture(f"min(1 + eps(rho+a)) = {np.min(mix):.4g} <= {MIX_FLOOR}")
    return mix


def _visc(v: SpectralField, mu: float, lam: float) -> SpectralField:
    """mu lap v + (mu+lam) grad div v = -mu |xi|^2 v - (mu+lam) xi (xi.v) per mode."""
    g = v.grid
    kdot = dot(g.kvec, v.coeffs)
    out = np.multiply(g.k2, v.coeffs)
    out *= -mu
    tmp = np.empty_like(kdot)
    for i in range(g.dim):
        np.multiply(g.kvec[i], kdot, out=tmp)
        tmp *= -(mu + lam)
        out[i] += tmp
    return SpectralField(g, out)


ENTHALPY_SERIES = 0.1   # |x| below which _enthalpy_excess_ratio sums its series
ENTHALPY_TERMS = 16     # terms of that series at most


def _enthalpy_excess_ratio(x: np.ndarray, gamma: float) -> np.ndarray:
    """
    q(x) = [((1+x)^(gamma-1) - 1)/(gamma-1) - x]/x^2, completed with
    (gamma-2)/2 at x = 0, so that G(a) = a^2 q(eps a): its binomial series
    where |x| < ENTHALPY_SERIES, the closed form (through expm1 and log1p)
    elsewhere.  When gamma - 1 is a whole number the series ends and is q
    itself, so it serves everywhere; at gamma = 3, q = 1/2.
    """
    g1 = gamma - 1.0
    # c_k = binom(gamma-1, k+2)/(gamma-1), up to the first that vanishes
    coeffs = [0.5 * (g1 - 1.0)]
    while coeffs[-1] != 0.0 and len(coeffs) < ENTHALPY_TERMS:
        k = len(coeffs) - 1
        coeffs.append(coeffs[-1] * (g1 - k - 2.0) / (k + 3.0))
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out *= x
        out += c
    if coeffs[-1] != 0.0:
        far = ~(np.abs(x) < ENTHALPY_SERIES)
        xf = x[far]
        out[far] = (np.expm1(g1 * np.log1p(xf)) / g1 - xf) / xf**2
    return out


def _viscous_rest(v: SpectralField, m_ph: np.ndarray, params: PhysParams):
    """(1/m - 1) visc on the grid, and visc = mu lap v + (mu+lam) grad div v."""
    visc_v = _visc(v, params.mu, params.lam)
    rest = to_physical(visc_v)
    weight = np.divide(1.0, m_ph)
    weight -= 1.0
    rest *= weight
    return rest, visc_v


# ---------------------------------------------------------------------------
# two-phase family: euler_ns, euler_ns_scaled


def rhs_euler_ns_scaled(
    state: StateEulerNS, eps: float, params: PhysParams, include_linear: bool = True
) -> StateEulerNS:
    """
    Mach-scaled drag-coupled system with friction rate kappa = 1/(eps*tau)
    (tau = params.tau) and sound speed 1/eps; the combined-limit regime uses
    tau = eps.  With the gas density n = 1 + eps*a:

    d/dt rho = -div(rho u)
    d/dt u   = -u.grad u - kappa (u - v)
    d/dt a   = -(1/eps) div v - div(a v)
    d/dt v   = -v.grad v - (P'(n)/(eps n)) grad a
               + (mu lap v + (mu+lam) grad div v)/n + rho (u - v)/(tau n)
    """
    g, tau = state.grid, params.tau
    rho_ph = to_physical(state.rho)
    u_ph = to_physical(state.u)
    v_ph = to_physical(state.v)
    a_ph = to_physical(state.a)
    m_ph = _gas_density(a_ph, eps)

    drho = _transport(g, rho_ph, u_ph)
    du = _advection(state.u, u_ph)
    da = _transport(g, a_ph, v_ph)

    # rest of dv/dt: (1/m - 1) visc + rho (u - v)/(tau m); the pressure
    # term -((pr - a)/m) grad a is -grad G(a), with G = a^2 q(eps a)
    enthalpy = _enthalpy_excess_ratio(eps * a_ph, params.gamma)
    enthalpy *= a_ph
    enthalpy *= a_ph
    del a_ph
    rest, visc_v = _viscous_rest(state.v, m_ph, params)
    drag = np.subtract(u_ph, v_ph)
    del u_ph
    drag *= rho_ph
    del rho_ph
    m_ph *= tau
    drag /= m_ph
    del m_ph
    rest += drag
    del drag
    dv = _advection(state.v, v_ph, rest, enthalpy)

    if include_linear:
        du = SpectralField(g, du.coeffs - (1.0 / (eps * tau)) * (state.u.coeffs - state.v.coeffs))
        da = da - (1.0 / eps) * div(state.v)
        dv = SpectralField(g, dv.coeffs - grad(state.a).coeffs / eps + visc_v.coeffs)
    return StateEulerNS(drho, du, da, dv)


def rhs_euler_ns(state: StateEulerNS, params: PhysParams, include_linear: bool = True) -> StateEulerNS:
    """
    The unscaled system, ``rhs_euler_ns_scaled`` at eps = 1:

    d/dt rho = -div(rho u)
    d/dt u   = -u.grad u - (1/tau)(u - v)
    d/dt a   = -div v - div(a v)
    d/dt v   = -v.grad v - grad a + mu lap v + (mu+lam) grad div v
               + (1/tau) rho (u - v) + g(a) grad a
               + f(a)(mu lap v + (mu+lam) grad div v) + (1/tau) f(a) rho (u-v)
    """
    return rhs_euler_ns_scaled(state, 1.0, params, include_linear)


# ---------------------------------------------------------------------------
# drift-flux family: df, df_scaled


def rhs_df_scaled(state: StateDF, eps: float, params: PhysParams, include_linear: bool = True) -> StateDF:
    """
    Mach-scaled drift-flux system.  The stiff pressure gradient enters only
    through the linear acoustic part (1/eps) grad a; the remaining pressure
    contribution is the O(1) pointwise coefficient
    (a*(P'(1+eps a)-1)/(eps a) - rho - a) / (1 + eps(rho+a)).
    """
    g = state.grid
    rho_ph = to_physical(state.rho)
    a_ph = to_physical(state.a)
    v_ph = to_physical(state.v)
    m_ph = _mixture(rho_ph, a_ph, eps)

    drho = _transport(g, rho_ph, v_ph)
    da = _transport(g, a_ph, v_ph)

    # rest of dv/dt: (1/m - 1) visc - ((pr - rho - a)/m) grad a
    # pr = a (P'(1+x) - 1)/x = a (gamma-1)(1 + x q(x)) at x = eps a
    rest, visc_v = _viscous_rest(state.v, m_ph, params)
    x = eps * a_ph
    coef = _enthalpy_excess_ratio(x, params.gamma)
    coef *= x
    del x
    coef += 1.0
    coef *= params.gamma - 1.0
    coef *= a_ph
    coef -= rho_ph
    np.subtract(a_ph, coef, out=coef)
    coef /= m_ph
    del rho_ph, a_ph, m_ph
    press = to_physical(grad(state.a))
    press *= coef
    del coef
    rest += press
    del press
    dv = _advection(state.v, v_ph, rest)

    if include_linear:
        da = da - (1.0 / eps) * div(state.v)
        dv = SpectralField(g, dv.coeffs - grad(state.a).coeffs / eps + visc_v.coeffs)
    return StateDF(drho, da, dv)


def rhs_df(state: StateDF, params: PhysParams, include_linear: bool = True) -> StateDF:
    """
    The unscaled system, ``rhs_df_scaled`` at eps = 1:

    d/dt rho = -div(rho v)
    d/dt a   = -div v - div(a v)
    d/dt v   = -v.grad v - (P'(1+a)/(rho+1+a)) grad a
               + (mu lap v + (mu+lam) grad div v)/(rho+1+a)
    """
    return rhs_df_scaled(state, 1.0, params, include_linear)


# ---------------------------------------------------------------------------
# transport family: tns


def rhs_tns(state: StateTNS, params: PhysParams, include_linear: bool = True) -> StateTNS:
    """
    d/dt varrho = -div(varrho w)
    d/dt w      = P(-w.grad w) + mu lap w      (P the solenoidal projector)
    """
    g = state.grid
    w_ph = to_physical(state.w)
    dvarrho = _transport(g, to_physical(state.varrho), w_ph)
    # the Leray projection removes the rotational form's gradient part
    dw, _ = leray_project(_advection(state.w, w_ph, gradient=False))
    if include_linear:
        dw = SpectralField(g, dw.coeffs + params.mu * laplacian(state.w).coeffs)
    return StateTNS(dvarrho, dw)


# ---------------------------------------------------------------------------
# the system table
#
# Each entry stores the split an exponential integrator works with: the
# nonlinear rhs, taken explicitly, and the constant-coefficient symbol that
# is applied exactly per mode.  The symbol is the drag rate kappa and the
# sound speed c, both functions of the parameters; the viscosities come from
# the parameters directly.  The entries call the rhs by their module-global
# names at call time, so a rebinding of those names (a profiler's wrapper)
# reaches every caller.


def _unit_mach(params: PhysParams) -> float:
    return 1.0


def _mach(params: PhysParams) -> float:
    return params.eps


@dataclass(frozen=True)
class SystemSpec:
    """One flow variant: state class, nonlinear rhs, linear symbol, and the
    ``PhysParams`` fields that the rhs and the symbol read."""

    state_cls: type
    rhs: Callable                 # rhs(state, params): the nonlinear part alone
    kappa: Callable | None        # drag rate kappa(params); None without drag
    c: Callable | None            # sound speed c(params); None for incompressible flow
    reads: frozenset              # names of the PhysParams fields read
    mach: Callable = _unit_mach   # Mach number eps(params) that state_cls.validate takes

    @property
    def has_drag(self) -> bool:
        return self.kappa is not None


def _two_phase(mach: Callable, reads: frozenset) -> SystemSpec:
    return SystemSpec(
        StateEulerNS,
        lambda state, params: rhs_euler_ns_scaled(state, mach(params), params,
                                                  include_linear=False),
        kappa=lambda params: 1.0 / (mach(params) * params.tau),
        c=lambda params: 1.0 / mach(params),
        reads=reads,
        mach=mach,
    )


def _drift_flux(mach: Callable, reads: frozenset) -> SystemSpec:
    return SystemSpec(
        StateDF,
        lambda state, params: rhs_df_scaled(state, mach(params), params, include_linear=False),
        kappa=None,
        c=lambda params: 1.0 / mach(params),
        reads=reads,
        mach=mach,
    )


SYSTEMS: dict[str, SystemSpec] = {
    "euler_ns": _two_phase(_unit_mach, frozenset({"tau", "mu", "lam", "gamma"})),
    "df": _drift_flux(_unit_mach, frozenset({"mu", "lam", "gamma"})),
    "tns": SystemSpec(
        StateTNS, lambda state, params: rhs_tns(state, params, include_linear=False),
        kappa=None, c=None, reads=frozenset({"mu"})),
    "euler_ns_scaled": _two_phase(_mach, frozenset({"tau", "eps", "mu", "lam", "gamma"})),
    "df_scaled": _drift_flux(_mach, frozenset({"eps", "mu", "lam", "gamma"})),
}


def system_spec(name: str) -> SystemSpec:
    """The registry entry of a system; ValueError for an unknown name."""
    try:
        return SYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; one of {', '.join(SYSTEMS)}") from None


# ---------------------------------------------------------------------------
# derived quantities


def effective_mixed_velocity(state: StateEulerNS) -> SpectralField:
    """
    Density-weighted velocity combining the two phases into one unknown:
    (rho u + n v)/(rho + n) = v + w (u - v), n = 1 + a, w = rho/(rho + n),
    with the product w (u - v) projected onto the band.
    """
    g = state.grid
    rho_ph = to_physical(state.rho)
    w = rho_ph / _mixture(rho_ph, to_physical(state.a), 1.0)
    del rho_ph
    slip = to_physical(state.u - state.v)
    slip *= w
    return SpectralField(g, state.v.coeffs + from_physical(g, slip).coeffs)


def relative_velocity_residual(state: StateEulerNS, params: PhysParams) -> float:
    """
    Relative L2 mismatch between d/dt(u - v) computed from the two phase
    equations and from the damped relative-velocity equation; an algebraic
    identity of the implementation, expected at roundoff level.
    """
    g = state.grid
    d = rhs_euler_ns(state, params)
    lhs = SpectralField(g, d.u.coeffs - d.v.coeffs)

    tau, mu, lam, gamma = params.tau, params.mu, params.lam, params.gamma
    u_ph = to_physical(state.u)
    v_ph = to_physical(state.v)
    a_ph = to_physical(state.a)
    rho_ph = to_physical(state.rho)
    n_ph = 1.0 + a_ph
    fa = -a_ph / n_ph
    # g(a) grad a = -grad G(a), the enthalpy form the rhs takes
    enthalpy = from_physical(g, a_ph**2 * _enthalpy_excess_ratio(a_ph, gamma))
    visc_ph = to_physical(_visc(state.v, mu, lam))
    rel_ph = u_ph - v_ph
    f1_ph = fa * visc_ph
    f2_ph = fa * rho_ph * rel_ph / tau
    rhs_f = (_advection(state.u, u_ph, -(rho_ph / tau) * rel_ph - f1_ph - f2_ph)
             - _advection(state.v, v_ph))
    out = SpectralField(
        g,
        -(state.u.coeffs - state.v.coeffs) / tau
        + grad(state.a).coeffs
        - _visc(state.v, mu, lam).coeffs
        + grad(enthalpy).coeffs
        + rhs_f.coeffs,
    )
    scale = max(l2_norm(lhs), l2_norm(out), 1e-300)
    return l2_norm(lhs - out) / scale


def total_momentum_rate(state: StateEulerNS, params: PhysParams) -> float:
    """
    |d/dt integral(rho u + n v)| implied by the rhs, using only pointwise
    products of band-limited fields so the drag cancellation is exact.
    """
    g = state.grid
    d = rhs_euler_ns(state, params)
    rho_ph = to_physical(state.rho)
    n_ph = 1.0 + to_physical(state.a)
    u_ph = to_physical(state.u)
    v_ph = to_physical(state.v)
    du_ph = to_physical(d.u)
    dv_ph = to_physical(d.v)
    drho_ph = to_physical(d.rho)
    da_ph = to_physical(d.a)
    rate = (rho_ph * du_ph + drho_ph * u_ph + n_ph * dv_ph + da_ph * v_ph)
    per_comp = np.sum(rate, axis=tuple(range(1, rate.ndim))) * g.cell_volume
    return float(np.max(np.abs(per_comp)))
