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


@dataclass(frozen=True)
class Scheme:
    """Time-stepping configuration."""

    kind: str = "exp_rk2"      # exp_euler | exp_rk2 | imex_bdf2
    dt: float | None = None    # None: advective CFL estimate
    cfl_safety: float = 0.4
    dt_max: float = 0.1
    linear_only: bool = False  # drop the nonlinearity (exactness checks)
    ramp: bool = True          # refine dt through the initial drag layer

    def __post_init__(self):
        if self.kind not in ("exp_euler", "exp_rk2", "imex_bdf2"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
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
# implicit resolvent for the IMEX scheme


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
    """Bundles the tables and nonlinearity for a fixed (system, dt)."""

    def __init__(self, system: str, grid: Grid, params: PhysParams, scheme: Scheme, dt: float):
        self.system = system
        self.grid = grid
        self.params = params
        self.scheme = scheme
        self.dt = dt
        if scheme.kind == "exp_euler":
            self.e_full = precompute_mode_propagators(grid, params, dt, system)
        else:
            self.e_half = precompute_mode_propagators(grid, params, 0.5 * dt, system)
        # imex_bdf2 only: its implicit solve and its two-step history
        self.resolvent = ResolventTable(system, grid, 2.0 * dt / 3.0, params)
        self._prev = None
        self._prev_nl = None

    def _nl(self, state):
        if self.scheme.linear_only:
            return state_lincomb(0.0, state)
        return nonlinear_rhs(self.system, state, self.params)

    def _midpoint(self, state, k1):
        """Exponential midpoint step, given the nonlinearity k1 at ``state``."""
        dt = self.dt
        mid = apply_propagator(self.e_half, state_lincomb(1.0, state, 0.5 * dt, k1))
        k2 = self._nl(mid)
        half = apply_propagator(self.e_half, state)
        return apply_propagator(self.e_half, state_lincomb(1.0, half, dt, k2))

    def step(self, state):
        dt = self.dt
        if self.scheme.kind == "exp_euler":
            k1 = self._nl(state)
            return apply_propagator(self.e_full, state_lincomb(1.0, state, dt, k1))
        if self.scheme.kind == "exp_rk2":
            return self._midpoint(state, self._nl(state))
        # imex_bdf2 with an exponential midpoint start step
        nl_n = self._nl(state)
        if self._prev is None:
            new = self._midpoint(state, nl_n)
        else:
            lhs = state_lincomb(4.0 / 3.0, state, -1.0 / 3.0, self._prev)
            force = state_lincomb(2.0, nl_n, -1.0, self._prev_nl)
            new = apply_resolvent(self.resolvent, state_lincomb(1.0, lhs, 2.0 * dt / 3.0, force))
        self._prev = state
        self._prev_nl = nl_n
        return new


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
    return min(dt, scheme.dt_max)


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
    validate_every: int = 25,
    divergence_factor: float = 1e3,
) -> Trajectory:
    """
    Advance ``state0`` to time T, sampling the observers along the way.

    When the drag rate is stiff relative to the main step, an initial ramp
    phase with dt proportional to the friction time resolves the relaxation
    layer (and is sampled every step so time quadratures see it); stability
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
    phases = []
    t_ramp = 0.0
    if T > 0 and scheme.ramp and kappa is not None and 1.0 / kappa < 0.5 * dt_main:
        t_ramp = min(24.0 / kappa, 0.25 * T)
        n_ramp = max(1, int(np.ceil(t_ramp / (1.0 / (6.0 * kappa)))))
        phases.append((t_ramp, n_ramp, True))
    if T > t_ramp:
        n_main = max(1, int(np.ceil((T - t_ramp) / dt_main)))
        phases.append((T - t_ramp, n_main, False))

    if sample_dt is None:
        sample_dt = max(dt_main, T / 2000.0) if T > 0 else 1.0

    times = [0.0]
    samples = {o.name: [] for o in observers}

    def take_sample(state, t):
        for o in observers:
            samples[o.name].append(o.sample(state, t))

    state = state0.copy()
    take_sample(state, 0.0)
    amp_limit = divergence_factor * max(_amplitude(state), 1e-300)
    masses0 = {k: f.zero_mode().copy() for k, f in state.fields().items() if not f.is_vector}

    def guard(state, t):
        # written so that a NaN amplitude fails it
        if not _amplitude(state) <= amp_limit:
            raise Diverged(f"amplitude non-finite or grown by more than "
                           f"{divergence_factor:g} at t = {t:.4g}")
        try:
            state.validate(eps)
        except Exception as exc:
            raise StepRejected(str(exc)) from exc

    t0 = 0.0
    steps_done = 0
    next_sample = sample_dt
    for span, nsteps, dense in phases:
        dt = span / nsteps
        stepper = Stepper(system, grid, params, scheme, dt)
        for i in range(nsteps):
            try:
                state = stepper.step(state)
            except DriftflowError as exc:
                # an rhs floor that trips on a non-finite state reports the
                # divergence the guard would have reported
                if np.isfinite(_amplitude(state)):
                    raise
                raise Diverged(f"amplitude non-finite at t = {t0 + i * dt:.4g}") from exc
            t = t0 + (i + 1) * dt
            steps_done += 1
            if steps_done % validate_every == 0:
                guard(state, t)
            at_end = (i == nsteps - 1) and (t0 + span >= T - 1e-12)
            if dense or t >= next_sample - 1e-12 or at_end:
                if abs(t - times[-1]) > 1e-12:
                    times.append(t)
                    take_sample(state, t)
                while next_sample <= t + 1e-12:
                    next_sample += sample_dt
        t0 += span
    if steps_done % validate_every != 0:
        guard(state, times[-1])

    drift = 0.0
    for k, z0 in masses0.items():
        z1 = state.fields()[k].zero_mode()
        drift = max(drift, abs(z1 - z0) / max(abs(z0), 1e-30))
    meta = {
        "system": system,
        "dt_main": dt_main,
        "t_ramp": t_ramp,
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
