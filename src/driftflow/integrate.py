"""
Time stepping with the stiff constant-coefficient part (drag, acoustics,
viscosity) applied exactly per Fourier mode and the remaining nonlinearity
treated explicitly.

Per mode, both velocities are split along the wavevector direction and its
orthogonal complement.  The potential components together with the gas
density follow the 3x3 drag-acoustic solution operator; the solenoidal
components follow the 2x2 drag-heat operator; the dispersed density has no
linear part.  Because the drag sits inside the exponential, the time step is
set by advection alone and never by the friction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .besov import BlockTimeSeries, block_lp_spectrum, family_for
from .errors import Diverged, DriftflowError, StepRejected
from .linear import green_acoustic, green_compressible, green_incompressible
from .spectral import Grid, PhysParams, SpectralField, parseval_sum, to_physical
from .systems import system_spec

# the guard in ``integrate`` stops a run whose amplitude grows by this factor
DIVERGENCE_FACTOR = 1e3
# ``integrate`` validates the state every this many steps, and at the end
VALIDATE_EVERY = 25
# cap on the advective CFL estimate of the step
DT_MAX = 0.1


@dataclass(frozen=True)
class Scheme:
    """The exponential midpoint step (exp_rk2): the linear symbol applied
    exactly per mode, the nonlinearity at the start and the midpoint.

    ``dt`` is the step, or None for ``cfl_safety`` times the advective CFL
    limit (capped at ``DT_MAX``).  ``linear_only`` drops the nonlinearity,
    which makes every step exact."""

    dt: float | None = None
    cfl_safety: float = 0.4
    linear_only: bool = False

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")


# ---------------------------------------------------------------------------
# state algebra


def nonlinear_rhs(system: str, state, params: PhysParams):
    """The explicit part of a registered system's rhs."""
    return system_spec(system).rhs(state, params)


def _rebuild(state, coeff_list):
    g = state.grid
    return type(state)(*[SpectralField(g, c) for c in coeff_list])


def _with(state, **new):
    """A state with the given fields replaced and copies of the others."""
    return type(state)(**{k: new[k] if k in new else f.copy()
                          for k, f in state.fields().items()})


def state_lincomb(a: float, x, b: float = 0.0, y=None):
    """a*x + b*y on all fields of a state."""
    xs = x.fields().values()
    if y is None:
        return _rebuild(x, [a * f.coeffs for f in xs])
    ys = y.fields().values()
    return _rebuild(x, [a * fx.coeffs + b * fy.coeffs for fx, fy in zip(xs, ys)])


# ---------------------------------------------------------------------------
# exponential mode tables


@dataclass
class ModePropagatorTable:
    """Per-mode exact solution operator of the linear symbol over one step."""

    system: str
    grid: Grid
    dt: float
    # 3x3 on (e.u, a, e.v) for drag systems; 2x2 on (a, e.v) otherwise
    g00: np.ndarray | None = None
    g01: np.ndarray | None = None
    g02: np.ndarray | None = None
    g11: np.ndarray | None = None
    g12: np.ndarray | None = None
    g21: np.ndarray | None = None
    g22: np.ndarray | None = None
    # solenoidal parts: drag 2x2 (p00, p01, p11) or plain heat (p11)
    p00: np.ndarray | None = None
    p01: np.ndarray | None = None
    p11: np.ndarray | None = None


def precompute_mode_propagators(
    grid: Grid, params: PhysParams, dt: float, system: str = "euler_ns"
) -> ModePropagatorTable:
    """Assemble the exact one-step solution operator for every lattice mode.

    The entries depend on |xi| alone, so the Green's functions are evaluated
    once per distinct radius and scattered back onto the lattice."""
    spec = system_spec(system)
    nu, mu = params.nu, params.mu
    tab = ModePropagatorTable(system=system, grid=grid, dt=dt)
    if spec.c is None:  # incompressible transport: heat flow alone
        tab.p11 = np.exp(-mu * grid.k2 * dt)
        return tab

    xi, inverse = np.unique(grid.kmag.ravel(), return_inverse=True)
    shape = grid.kmag.shape

    def on_lattice(values):
        return values[inverse].reshape(shape)

    c = spec.c(params)
    if spec.has_drag:
        kappa = spec.kappa(params)
        g = green_compressible(xi, kappa, nu, c, dt)
        tab.g00 = on_lattice(g["uu"])
        tab.g01 = on_lattice(-1j * g["ua"])
        tab.g02 = on_lattice(g["uv"])
        gi = green_incompressible(xi, kappa, mu, dt)
        tab.p00 = on_lattice(gi["uu"])
        tab.p01 = on_lattice(gi["uv"])
        tab.p11 = on_lattice(gi["vv"])
    else:
        g = green_acoustic(xi, nu, c, dt)
        tab.p11 = np.exp(-mu * grid.k2 * dt)
    # (a, s_v) with s_v = e.v_hat; the i-factors of the potential variables
    # turn the real acoustic entries into +-i couplings
    tab.g11 = on_lattice(g["aa"])
    tab.g12 = on_lattice(1j * g["av"])
    tab.g21 = on_lattice(-1j * g["va"])
    tab.g22 = on_lattice(g["vv"])
    return tab


def _split_parallel(grid: Grid, vec: np.ndarray):
    s = np.sum(grid.ehat * vec, axis=0)
    perp = vec - grid.ehat * s[np.newaxis]
    return s, perp


def apply_propagator(tab: ModePropagatorTable, state):
    """One exact linear step; pure per-mode arithmetic, no transforms."""
    g = tab.grid
    spec = system_spec(tab.system)
    if spec.c is None:  # incompressible transport: heat flow of w alone
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


# ---------------------------------------------------------------------------
# implicit resolvent (I - alpha*L)^{-1}: no stepper uses it; perfbench/probe.py
# wraps ``apply_resolvent`` by name, so both stay until the probe drops it


@dataclass
class ResolventTable:
    """(I - alpha*L)^{-1} per mode, in the same layout as the propagator."""

    system: str
    grid: Grid
    alpha: float
    params: PhysParams


def apply_resolvent(tab: ResolventTable, state):
    g = tab.grid
    alpha = tab.alpha
    params = tab.params
    spec = system_spec(tab.system)
    heat = 1.0 + alpha * params.mu * g.k2
    if spec.c is None:
        return _with(state, w=SpectralField(g, state.w.coeffs / heat))

    # acoustic block: solve  a + i*alpha*c*xi*sv = b_a ;
    #                        sv*(1 + alpha*nu*xi^2) + i*alpha*c*xi*a = b_sv
    c = spec.c(params)
    kmag = g.kmag
    det = 1.0 + alpha * params.nu * g.k2 + alpha**2 * c**2 * g.k2
    sv, vperp = _split_parallel(g, state.v.coeffs)
    a = state.a.coeffs
    sv_new = (sv - 1j * alpha * c * kmag * a) / det
    vperp_new = vperp / heat
    new = {
        "a": SpectralField(g, a - 1j * alpha * c * kmag * sv_new),
        "v": SpectralField(g, g.ehat * sv_new[np.newaxis] + vperp_new),
    }
    if spec.has_drag:
        kappa = spec.kappa(params)
        su, uperp = _split_parallel(g, state.u.coeffs)
        su_new = (su + alpha * kappa * sv_new) / (1.0 + alpha * kappa)
        uperp_new = (uperp + alpha * kappa * vperp_new) / (1.0 + alpha * kappa)
        new["u"] = SpectralField(g, g.ehat * su_new[np.newaxis] + uperp_new)
    return _with(state, **new)


# ---------------------------------------------------------------------------
# steppers


class Stepper:
    """The exponential midpoint step of one system at a fixed dt."""

    def __init__(self, system: str, grid: Grid, params: PhysParams, scheme: Scheme, dt: float):
        self.system = system
        self.grid = grid
        self.params = params
        self.scheme = scheme
        self.dt = dt
        self.e_half = precompute_mode_propagators(grid, params, 0.5 * dt, system)

    def _nl(self, state):
        if self.scheme.linear_only:
            return state_lincomb(0.0, state)
        return nonlinear_rhs(self.system, state, self.params)

    def step(self, state):
        dt = self.dt
        mid = apply_propagator(self.e_half, state_lincomb(1.0, state, 0.5 * dt, self._nl(state)))
        k2 = self._nl(mid)
        half = apply_propagator(self.e_half, state)
        return apply_propagator(self.e_half, state_lincomb(1.0, half, dt, k2))


# ---------------------------------------------------------------------------
# observers


class ScalarObserver:
    kind = "scalar"

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self.fn = fn

    def sample(self, state, t):
        return float(self.fn(state, t))


class BlockObserver:
    """Per-block Lp norms of a derived field; feeds the time-then-frequency norms."""

    kind = "blocks"

    def __init__(self, name: str, selector: Callable, p: float = 2.0):
        self.name = name
        self.selector = selector
        self.p = p

    def sample(self, state, t):
        f = self.selector(state)
        return block_lp_spectrum(f, self.p, family_for(f.grid))


class FieldObserver:
    """Stores full coefficient arrays of a derived field (time integrals)."""

    kind = "fields"

    def __init__(self, name: str, selector: Callable):
        self.name = name
        self.selector = selector

    def sample(self, state, t):
        return self.selector(state).coeffs.copy()


class CheckpointObserver:
    kind = "checkpoint"

    def __init__(self, name: str = "checkpoints"):
        self.name = name

    def sample(self, state, t):
        return state.copy()


@dataclass
class Trajectory:
    times: np.ndarray
    scalars: dict
    blocks: dict     # name -> BlockTimeSeries
    fields: dict     # name -> list of coeff arrays
    checkpoints: list
    meta: dict


# ---------------------------------------------------------------------------
# driver


def estimate_dt(state, scheme: Scheme) -> float:
    sup = 1e-12
    for f in state.fields().values():
        if f.is_vector:
            sup = max(sup, float(np.max(np.sqrt(np.sum(to_physical(f) ** 2, axis=0)))))
    dt = scheme.cfl_safety * state.grid.dx / sup
    return min(dt, DT_MAX)


def _amplitude(state) -> float:
    """Largest coefficient 2-norm over the fields; NaN if any field holds one."""
    return float(np.sqrt(np.max([parseval_sum(f.grid, f.coeffs)
                                 for f in state.fields().values()])))


def integrate(
    state0,
    T: float,
    scheme: Scheme,
    params: PhysParams,
    system: str = "euler_ns",
    observers: Sequence = (),
    sample_dt: float | None = None,
) -> Trajectory:
    """
    Advance ``state0`` to time T, sampling the observers along the way.

    The run steps on the grid of n = ceil(T/dt) equal steps.  When the drag
    rate is stiff relative to that step, an initial ramp splits the first
    steps into substeps proportional to the friction time to resolve the
    relaxation layer (and samples every substep so time quadratures see it);
    after the ramp the step times are those of a run without it.  Stability
    itself never requires the ramp since the drag is integrated exactly.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    grid = state0.grid
    dt_main = scheme.dt if scheme.dt is not None else estimate_dt(state0, scheme)
    dt_main = min(dt_main, T) if T > 0 else dt_main

    spec = system_spec(system)
    eps = spec.mach(params)
    kappa = spec.kappa(params) if spec.has_drag else None
    n_main = max(1, int(np.ceil(T / dt_main))) if T > 0 else 0
    dt = T / n_main if n_main else dt_main
    n_ramp = 0
    phases = []  # (first step, end step, substeps per step, sample every substep)
    if n_main and kappa is not None and 1.0 / kappa < 0.5 * dt_main:
        n_ramp = int(np.ceil(min(24.0 / kappa, 0.25 * T) / dt))
        phases.append((0, n_ramp, int(np.ceil(dt * 6.0 * kappa)), True))
    if n_main > n_ramp:
        phases.append((n_ramp, n_main, 1, False))

    if sample_dt is None:
        sample_dt = max(dt_main, T / 2000.0) if T > 0 else 1.0

    times = [0.0]
    samples = {o.name: [] for o in observers}

    def take_sample(state, t):
        for o in observers:
            samples[o.name].append(o.sample(state, t))

    state = state0.copy()
    take_sample(state, 0.0)
    amp_limit = DIVERGENCE_FACTOR * max(_amplitude(state), 1e-300)
    masses0 = {k: f.zero_mode().copy() for k, f in state.fields().items() if not f.is_vector}

    def guard(state, t):
        # written so that a NaN amplitude fails it
        if not _amplitude(state) <= amp_limit:
            raise Diverged(f"amplitude non-finite or grown by more than "
                           f"{DIVERGENCE_FACTOR:g} at t = {t:.4g}")
        try:
            state.validate(eps)
        except Exception as exc:
            raise StepRejected(str(exc)) from exc

    steps_done = 0
    next_sample = sample_dt
    for first, end, sub, dense in phases:
        stepper = Stepper(system, grid, params, scheme, dt / sub)
        nsteps = (end - first) * sub
        for i in range(nsteps):
            try:
                state = stepper.step(state)
            except DriftflowError as exc:
                # an rhs floor that trips on a non-finite state reports the
                # divergence the guard would have reported
                if np.isfinite(_amplitude(state)):
                    raise
                raise Diverged(f"amplitude non-finite at t = {(first + i / sub) * dt:.4g}") from exc
            t = (first + (i + 1) / sub) * dt
            steps_done += 1
            if steps_done % VALIDATE_EVERY == 0:
                guard(state, t)
            at_end = end == n_main and i == nsteps - 1
            if dense or t >= next_sample - 1e-12 or at_end:
                if abs(t - times[-1]) > 1e-12:
                    times.append(t)
                    take_sample(state, t)
                while next_sample <= t + 1e-12:
                    next_sample += sample_dt
    if steps_done % VALIDATE_EVERY != 0:
        guard(state, times[-1])

    drift = 0.0
    for k, z0 in masses0.items():
        z1 = state.fields()[k].zero_mode()
        drift = max(drift, abs(z1 - z0) / max(abs(z0), 1e-30))
    meta = {
        "system": system,
        "dt_main": dt_main,
        "t_ramp": n_ramp * dt,
        "steps": steps_done,
        "mass_drift": float(np.real(drift)),
        "final_state": state,
    }
    fam = family_for(grid)
    by_kind = {kind: [o for o in observers if o.kind == kind]
               for kind in ("scalar", "blocks", "fields", "checkpoint")}
    return Trajectory(
        times=np.array(times),
        scalars={o.name: np.array(samples[o.name]) for o in by_kind["scalar"]},
        blocks={o.name: BlockTimeSeries(np.array(times), fam.j_values,
                                        np.array(samples[o.name]).T, p=o.p)
                for o in by_kind["blocks"]},
        fields={o.name: samples[o.name] for o in by_kind["fields"]},
        checkpoints=[(t, s) for o in by_kind["checkpoint"] for t, s in zip(times, samples[o.name])],
        meta=meta,
    )
