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
from .systems import _dot, system_spec

# the guard in ``integrate`` stops a run whose amplitude grows by this factor
DIVERGENCE_FACTOR = 1e3
# ``integrate`` validates the state every this many steps, and at the end
VALIDATE_EVERY = 25
# the step estimated without a given dt: CFL_SAFETY times the advective
# CFL limit, capped at DT_MAX
CFL_SAFETY = 0.4
DT_MAX = 0.1


@dataclass(frozen=True)
class Scheme:
    """The exponential midpoint step (exp_rk2): the linear symbol applied
    exactly per mode, the nonlinearity at the start and the midpoint.

    ``dt`` is the step, or None for the CFL estimate (``estimate_dt``)."""

    dt: float | None = None

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")


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


def state_axpy(x, b: float, y):
    """x + b*y on all fields of a state, with one temporary per field."""
    out = [b * f.coeffs for f in y.fields().values()]
    for c, fx in zip(out, x.fields().values()):
        c += fx.coeffs
    return _rebuild(x, out)


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


def _recombine(grid: Grid, along: np.ndarray, tmp: np.ndarray, *terms) -> np.ndarray:
    """e*along + the sum of diag*vec over the (diag, vec) terms, per
    component; ``tmp`` is scratch of a scalar's shape."""
    out = np.empty((grid.dim,) + along.shape, dtype=np.complex128)
    for i in range(grid.dim):
        np.multiply(grid.ehat[i], along, out=out[i])
        for diag, vec in terms:
            out[i] += np.multiply(diag, vec[i], out=tmp)
    return out


def apply_propagator(tab: ModePropagatorTable, state):
    """One exact linear step; pure per-mode arithmetic, no transforms.  Each
    velocity is projected once on e = xi/|xi| and rebuilt in one pass, the
    solenoidal block acting on the whole vector (README, "Numerical notes"):

        v' = p11 v + e (g21 a + (g22 - p11) e.v),
        u' = p00 u + p01 v + e (g01 a + (g00 - p00) e.u + (g02 - p01) e.v).
    """
    g = tab.grid
    spec = system_spec(tab.system)
    if spec.c is None:  # incompressible transport: heat flow of w alone
        return _with(state, w=SpectralField(g, tab.p11 * state.w.coeffs))

    a, v = state.a.coeffs, state.v.coeffs
    sv = _dot(g.ehat, v)
    tmp = np.empty_like(sv)
    a_new = tab.g11 * a
    a_new += np.multiply(tab.g12, sv, out=tmp)
    along = tab.g22 - tab.p11
    along *= sv
    along += np.multiply(tab.g21, a, out=tmp)
    new = {"a": SpectralField(g, a_new),
           "v": SpectralField(g, _recombine(g, along, tmp, (tab.p11, v)))}
    if spec.has_drag:
        u = state.u.coeffs
        along = tab.g00 - tab.p00
        along *= _dot(g.ehat, u)
        along += np.multiply(tab.g01, a, out=tmp)
        np.subtract(tab.g02, tab.p01, out=tmp)
        along += np.multiply(tmp, sv, out=tmp)
        new["u"] = SpectralField(g, _recombine(g, along, tmp, (tab.p00, u), (tab.p01, v)))
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
    det = 1.0 + alpha * params.nu * g.k2 + alpha**2 * c**2 * g.k2
    v = state.v.coeffs
    sv = _dot(g.ehat, v)
    a = state.a.coeffs
    sv_new = (sv - 1j * alpha * c * g.kmag * a) / det
    # v' = e sv' + v_perp/heat
    v_new = _recombine(g, sv_new - sv / heat, np.empty_like(sv), (1.0 / heat, v))
    new = {"a": SpectralField(g, a - 1j * alpha * c * g.kmag * sv_new),
           "v": SpectralField(g, v_new)}
    if spec.has_drag:
        # both parts of u relax to those of v': u' = (u + alpha kappa v')/(1 + alpha kappa)
        ak = alpha * spec.kappa(params)
        new["u"] = SpectralField(g, (state.u.coeffs + ak * v_new) / (1.0 + ak))
    return _with(state, **new)


# ---------------------------------------------------------------------------
# steppers


class Stepper:
    """The exponential midpoint step of one system at a fixed dt."""

    def __init__(self, system: str, grid: Grid, params: PhysParams, dt: float):
        self.system = system
        self.grid = grid
        self.params = params
        self.dt = dt
        self.e_half = precompute_mode_propagators(grid, params, 0.5 * dt, system)

    def step(self, state):
        dt = self.dt
        # the first rhs is a temporary: a name holding it through the second
        # rhs would add one full state to the peak memory
        mid = apply_propagator(self.e_half, state_axpy(
            state, 0.5 * dt, nonlinear_rhs(self.system, state, self.params)))
        k2 = nonlinear_rhs(self.system, mid, self.params)
        half = apply_propagator(self.e_half, state)
        return apply_propagator(self.e_half, state_axpy(half, dt, k2))


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
        return block_lp_spectrum(f, self.p)


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


def estimate_dt(state) -> float:
    sup = 1e-12
    for f in state.fields().values():
        if f.is_vector:
            sup = max(sup, float(np.max(np.sqrt(np.sum(to_physical(f) ** 2, axis=0)))))
    dt = CFL_SAFETY * state.grid.dx / sup
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
    rate kappa is stiff relative to that step, an initial ramp resolves the
    relaxation layer: substeps of about 1/(6 kappa) up to t = 24/kappa (at
    most T/4), then one step onto the next grid point, sampling each of
    them so time quadratures see the layer.  After the ramp the step times
    are those of a run without it.  Stability itself never requires the
    ramp since the drag is integrated exactly.
    """
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and nonnegative, not {T}")
    grid = state0.grid
    dt_main = scheme.dt if scheme.dt is not None else estimate_dt(state0)
    dt_main = min(dt_main, T) if T > 0 else dt_main

    spec = system_spec(system)
    eps = spec.mach(params)
    kappa = spec.kappa(params) if spec.has_drag else None
    n_main = max(1, int(np.ceil(T / dt_main))) if T > 0 else 0
    dt = T / n_main if n_main else dt_main
    n_ramp = 0
    phases = []  # (step, end times of the steps, sample every step)
    if n_main and kappa is not None and 1.0 / kappa < 0.5 * dt_main:
        # substeps of about 1/(6 kappa) across the layer t_layer, then one
        # step onto the ramp-free grid point n_ramp*dt
        t_layer = min(24.0 / kappa, 0.25 * T)
        n_ramp = int(np.ceil(t_layer / dt))
        t_join = n_ramp * dt
        if t_join - t_layer <= 1e-9 * dt:
            t_layer = t_join
        m = int(np.ceil(t_layer * 6.0 * kappa))
        h = t_layer / m
        phases.append((h, h * np.arange(1, m + 1), True))
        if t_layer < t_join:
            phases.append((t_join - t_layer, np.array([t_join]), True))
    if n_main > n_ramp:
        phases.append((dt, dt * np.arange(n_ramp + 1, n_main + 1), False))

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
    n_steps = sum(len(step_times) for _, step_times, _ in phases)
    next_sample = sample_dt
    for h, step_times, dense in phases:
        stepper = Stepper(system, grid, params, h)
        for t in step_times:
            t = float(t)
            try:
                state = stepper.step(state)
            except DriftflowError as exc:
                # an rhs floor that trips on a non-finite state reports the
                # divergence the guard would have reported
                if np.isfinite(_amplitude(state)):
                    raise
                raise Diverged(f"amplitude non-finite at t = {t - h:.4g}") from exc
            steps_done += 1
            if steps_done % VALIDATE_EVERY == 0:
                guard(state, t)
            if dense or t >= next_sample - 1e-12 or steps_done == n_steps:
                if abs(t - times[-1]) > 1e-12:
                    times.append(t)
                    take_sample(state, t)
                while next_sample <= t + 1e-12:
                    next_sample += sample_dt
    if steps_done == 0 or steps_done % VALIDATE_EVERY != 0:
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
