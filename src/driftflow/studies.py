"""
Parameter-sweep studies: relaxation rate of the velocity mismatch, the
drift-flux limit error, large-time decay exponents, and low-Mach acoustic
convergence.  Each study runs trajectories, reduces them to norms with the
dyadic machinery, and fits log-log slopes.  A study called with its defaults
is the acceptance battery's run of it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linear
from .besov import (
    besov_norm,
    chemin_lerner_low_high,
    chemin_lerner_norm,
    dyadic_sum,
    hybrid_norm,
    hybrid_time_l1_norm,
    split_low_high,
)
from .errors import InsufficientSamples, NonPositiveData, WindowTooShort
from .initial_data import DataRecipe, coupled_euler_ns_data, df_state, euler_ns_state, initial_state
from .integrate import (
    BlockObserver,
    CheckpointObserver,
    FieldObserver,
    ScalarObserver,
    Scheme,
    Trajectory,
    integrate,
)
from .spectral import Grid, PhysParams, SpectralField, div, leray_project, multiply
from .systems import StateDF, StateEulerNS, effective_mixed_velocity, system_spec


# ---------------------------------------------------------------------------
# log-log fitting


@dataclass
class RateFit:
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    points: list

    def __str__(self):
        return f"slope {self.slope:+.4f} (se {self.stderr:.4f}, r2 {self.r_squared:.4f})"


def _least_squares(x: np.ndarray, y: np.ndarray) -> RateFit:
    """Ordinary least squares of y on x; needs >= 3 points and two distinct x."""
    n = len(x)
    if n < 3:
        raise NonPositiveData("need at least 3 points")
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    if not sxx > 0:
        raise NonPositiveData("need at least two distinct x values")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    return RateFit(slope, intercept, stderr, min(r2, 1.0), list(zip(x.tolist(), y.tolist())))


def rate_fit(xs, ys) -> RateFit:
    """Ordinary least squares of log(y) on log(x); needs >= 3 positive pairs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    # written so that a NaN fails it
    if not (np.all(xs > 0) and np.all(ys > 0)):
        raise NonPositiveData("log-log fit requires positive data")
    return _least_squares(np.log(xs), np.log(ys))


def exp_rate_fit(times, values) -> RateFit:
    """Least squares of log(value) on time; ``slope`` is the decay rate
    (sign flipped, positive when the data decays)."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(values > 0):
        raise NonPositiveData("exponential fit requires positive data")
    fit = _least_squares(np.asarray(times, dtype=np.float64), np.log(values))
    return dataclasses.replace(fit, slope=-fit.slope)


def fit_decay_exponent(times, values, t_window=None) -> RateFit:
    """Fit values ~ (1+t)^(-beta); returns beta in ``slope`` (sign flipped)."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if t_window is not None:
        keep = (times >= t_window[0]) & (times <= t_window[1])
        times, values = times[keep], values[keep]
    if len(times) < 8:
        raise WindowTooShort(f"only {len(times)} samples in the fit window")
    fit = rate_fit(1.0 + times, values)
    return dataclasses.replace(fit, slope=-fit.slope)


# ---------------------------------------------------------------------------
# study result container


@dataclass
class StudyResult:
    name: str
    parameter_name: str
    parameters: list
    measurements: dict      # name -> list aligned with parameters
    fits: dict              # name -> RateFit
    flags: list = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)

    def table(self):
        cols = [self.parameter_name] + sorted(self.measurements)
        rows = []
        for i, p in enumerate(self.parameters):
            rows.append([p] + [self.measurements[k][i] for k in sorted(self.measurements)])
        return cols, rows


# ---------------------------------------------------------------------------
# relaxation study


def relaxation_study(
    tau_list=(0.2, 0.1, 0.05, 0.025),
    grid: Grid | None = None,
    recipe: DataRecipe | None = None,
    T: float = 40.0,
    dt: float = 0.05,
    sample_dt: float = 0.1,
) -> StudyResult:
    """
    Integrate the two-phase system for each friction time with identical
    ill-prepared data and fit the decay of the velocity-mismatch norms:
    the L1-in-time d/2 norm plus the square-mean (d/2-1) norm against
    sqrt(tau), and the L1-in-time hybrid (d/2 + d/2-1) norm against tau.
    """
    grid = grid or Grid(2, 64, 16.0 * np.pi)
    recipe = recipe or DataRecipe(seed=7)
    d2 = grid.dim / 2.0
    state0 = euler_ns_state(grid, recipe)
    meas = {"sqrt_family": [], "tau_family": [], "l1_high": [], "l2_mean": []}
    for tau in tau_list:
        obs = [BlockObserver("rel", lambda s: s.u - s.v)]
        # dt tied to tau keeps the slaved-mismatch stepping error o(tau),
        # so the fitted slopes are free of a time-discretization floor
        dt_tau = min(dt, tau)
        traj = integrate(state0.copy(), T, Scheme(dt=dt_tau), PhysParams(tau=tau), "euler_ns",
                         obs, min(sample_dt, 2.0 * dt_tau))
        series = traj.blocks["rel"]
        l1_high = chemin_lerner_norm(series, 1.0, d2)          # L1 in time of the d/2 norm
        l2_mean = chemin_lerner_norm(series, 2.0, d2 - 1.0)    # square-mean of the (d/2-1) norm
        hybrid = hybrid_time_l1_norm(series, d2, d2 - 1.0)     # L1 in time of the sum-space norm
        meas["l1_high"].append(l1_high)
        meas["l2_mean"].append(l2_mean)
        meas["sqrt_family"].append(l1_high + l2_mean)
        meas["tau_family"].append(hybrid)
    fits = {
        "sqrt_family": rate_fit(tau_list, meas["sqrt_family"]),
        "tau_family": rate_fit(tau_list, meas["tau_family"]),
    }
    return StudyResult("relaxation", "tau", list(tau_list), meas, fits,
                       details={"T": T, "grid": (grid.dim, grid.npts, grid.length)})


# ---------------------------------------------------------------------------
# drift-flux limit study


def _error_norms(ens: StateEulerNS, df: StateDF, d2: float):
    """Distance norms between a two-phase state and a drift-flux state."""
    drho = ens.rho - df.rho
    dn = ens.a - df.a
    V = effective_mixed_velocity(ens)
    dV = V - df.v
    rho_norm = hybrid_norm(drho, d2 - 2.0, d2 - 1.0)
    n_norm = hybrid_norm(dn, d2 - 2.0, d2 - 1.0)
    v_norm = besov_norm(dV, s=d2 - 2.0)
    du = besov_norm(ens.u - df.v, s=d2)
    dv = besov_norm(ens.v - df.v, s=d2)
    return rho_norm + n_norm, v_norm, du + dv


def df_limit_study(
    tau_list=(0.2, 0.1, 0.05),
    grid: Grid | None = None,
    recipe: DataRecipe | None = None,
    T: float = 20.0,
    dt: float = 0.05,
    sample_dt: float = 0.5,
) -> StudyResult:
    """
    One drift-flux reference run against relaxation-coupled two-phase runs
    per tau; measures the sup-in-time density/velocity error norms and the
    L1-in-time velocity alignment, and fits their tau-slopes.

    The reference run keeps its states at the sample times.  Each two-phase
    run keeps none: a scalar observer measures its distance to the stored
    reference state at each reference time it reaches, so one run's memory
    is its current state.  A reference time that no two-phase sample
    reaches raises ``InsufficientSamples``.
    """
    # the box is sized so the 1/sqrt(tau) low-pass radius stays inside the
    # dealiased band for every tau in the sweep
    grid = grid or Grid(3, 48, 2.0 * np.pi)
    if recipe is None:
        # flat critical-norm spectrum up to the lattice edge, so the
        # low-pass velocity coupling injects a sqrt(tau)-sized mismatch
        r_max = float(np.max(grid.kmag)) * 0.98
        recipe = DataRecipe(seed=11, sigma1=grid.dim / 2.0 - 1.0,
                            k_band=(2.0 * np.pi / grid.length, r_max))
    d2 = grid.dim / 2.0
    flags = [] if grid.dim == 3 else ["beyond-theorem: dimension below 3"]
    df0 = df_state(grid, recipe)
    ref = integrate(df0, T, Scheme(dt=dt), PhysParams(tau=1.0), "df",
                    [CheckpointObserver()], sample_dt)
    ref_by_t = {round(t, 9): s for t, s in ref.checkpoints}

    meas = {"sup_error": [], "l1_velocity": [], "sup_density": [], "sup_mixed_velocity": []}
    for tau in tau_list:
        norms = {}  # reference time -> the three distance norms there

        def distance(state, t, norms=norms):
            key = round(t, 9)
            if key not in ref_by_t:  # a ramp substep between reference times
                return np.nan
            norms[key] = _error_norms(state, ref_by_t[key], d2)
            return norms[key][0] + norms[key][1]

        integrate(coupled_euler_ns_data(df0, tau), T, Scheme(dt=dt), PhysParams(tau=tau),
                  "euler_ns", [ScalarObserver("distance", distance)], sample_dt)
        sup_rho_n, sup_v, l1_vals, ts = 0.0, 0.0, [], []
        t_at_max = 0.0
        for t_ref, _ in ref.checkpoints:
            key = round(t_ref, 9)
            if key not in norms:
                raise InsufficientSamples(f"tau = {tau:g}: no two-phase sample at the "
                                          f"reference time t = {t_ref:g}")
            rn, vv, duv = norms[key]
            if rn + vv > sup_rho_n + sup_v:
                t_at_max = t_ref
            sup_rho_n = max(sup_rho_n, rn)
            sup_v = max(sup_v, vv)
            ts.append(t_ref)
            l1_vals.append(duv)
        meas.setdefault("t_at_max", []).append(t_at_max)
        meas["sup_density"].append(sup_rho_n)
        meas["sup_mixed_velocity"].append(sup_v)
        meas["sup_error"].append(sup_rho_n + sup_v)
        meas["l1_velocity"].append(float(np.trapezoid(l1_vals, ts)))
    fits = {
        "sup_error": rate_fit(tau_list, meas["sup_error"]),
        "l1_velocity": rate_fit(tau_list, meas["l1_velocity"]),
    }
    monotone = all(
        meas["sup_error"][i] >= meas["sup_error"][i + 1] - 1e-14
        for i in range(len(tau_list) - 1)
    ) if sorted(tau_list, reverse=True) == list(tau_list) else None
    return StudyResult("df_limit", "tau", list(tau_list), meas, fits, flags,
                       details={"T": T, "monotone": monotone,
                                "grid": (grid.dim, grid.npts, grid.length)})


# ---------------------------------------------------------------------------
# decay study


def linear_decay_tier(
    sigma1: float,
    sigmas,
    d: int = 2,
    tau: float = 0.1,
    n_t: int = 40,
) -> dict:
    """
    Continuum-frequency decay exponents of the linear evolution for
    power-law data with a nonvanishing density profile at frequency zero
    (the class that saturates the two-sided decay bounds).
    """
    init = linear.RadialInit(a0=linear.power_law_profile(-sigma1 - d / 2.0))
    ts = np.geomspace(10.0, 1000.0, n_t)
    out = {}
    for sigma in sigmas:
        uav, rel = [], []
        for t in ts:
            n = linear.continuum_linear_norms(init, sigma, sigma1, t, d, tau)
            uav.append(n["uav_B_21"])
            rel.append(n[f"rel_B{sigma}_21"])
        beta = 0.5 * (sigma - sigma1)
        fit_uav = fit_decay_exponent(ts, uav)
        fit_rel = fit_decay_exponent(ts, rel)
        comp = np.array(uav) * (1.0 + ts) ** beta
        out[sigma] = {
            "exponent_state": fit_uav,
            "exponent_relative": fit_rel,
            "target": beta,
            "sandwich_ratio": float(np.max(comp) / np.min(comp)),
        }
    return out


def _mass_flux(state: StateEulerNS) -> SpectralField:
    """div(rho u) with the dealiased product, exactly the rhs's -d(rho)/dt."""
    return div(multiply(state.rho, state.u))


def decay_study(
    sigma1: float = -1.0,
    grid: Grid | None = None,
    recipe: DataRecipe | None = None,
    T: float = 25.0,
    dt: float = 0.05,
) -> StudyResult:
    """
    Nonlinear decay measurement on the torus over the pre-saturation window,
    plus the drift of the dispersed density toward its terminal profile.
    Exponents are compared against (sigma - sigma1)/2 with the finite-box
    caveat flagged.
    """
    grid = grid or Grid(2, 128, 32.0 * np.pi)
    d2 = grid.dim / 2.0
    sigma, tau, window = d2, 0.2, (5.0, 25.0)
    # the band tops out at 0.5 so the exponential death of mid-band blocks is
    # over before the fit window opens and the window sits in the
    # self-similar regime of the low-frequency reservoir
    recipe = recipe or DataRecipe(
        amplitude=0.04, rho_amplitude=0.04, seed=3,
        k_band=(2.0 * np.pi / grid.length, 0.5), sigma1=sigma1,
        mismatch_band=(2.0 * np.pi / grid.length, 0.4),
    )
    params = PhysParams(tau=tau, mu=0.65, lam=0.7)
    state0 = euler_ns_state(grid, recipe)

    obs = [
        BlockObserver("uv", lambda s: SpectralField(s.grid, np.concatenate(
            (s.u.coeffs, s.v.coeffs), axis=0))),
        BlockObserver("rel", lambda s: s.u - s.v),
        BlockObserver("a", lambda s: s.a),
        FieldObserver("div_rho_u", _mass_flux),
    ]
    # stacking u and v as one 2d-component field gives the summed L2 blocks
    traj = integrate(state0, T, Scheme(dt=dt), params, "euler_ns", obs, sample_dt=0.25)

    ts = traj.times
    uv, rel = traj.blocks["uv"], traj.blocks["rel"]
    uv_norm = dyadic_sum(uv.values, uv.j_values, sigma)
    rel_norm = dyadic_sum(rel.values, rel.j_values, sigma)
    fit_uv = fit_decay_exponent(ts, uv_norm, window)
    fit_rel = fit_decay_exponent(ts, rel_norm, window)

    # distance to the terminal density profile: || int_t^T div(rho u) ds ||,
    # the trapezoid increments summed backwards from the final time
    flux = traj.fields["div_rho_u"]
    tails = np.empty((len(flux) - 1,) + flux[0].shape, dtype=flux[0].dtype)
    for i, seg in enumerate(tails):
        np.add(flux[i + 1], flux[i], out=seg)
    tails *= 0.5 * np.diff(ts).reshape((-1,) + (1,) * grid.dim)
    np.cumsum(tails[::-1], axis=0, out=tails[::-1])
    tail_norms = np.array([besov_norm(SpectralField(grid, seg), s=0.0) for seg in tails] + [0.0])
    in_win = (ts >= window[0]) & (ts <= window[1])
    tail_monotone = bool(np.all(np.diff(tail_norms[in_win]) <= 1e-12))

    meas = {
        "state_norm": uv_norm.tolist(),
        "relative_norm": rel_norm.tolist(),
        "profile_distance": tail_norms.tolist(),
    }
    fits = {"state_exponent": fit_uv, "relative_exponent": fit_rel}
    flags = ["finite-box window: exponents measured on the pre-saturation interval only"]
    details = {
        "sigma": sigma, "sigma1": sigma1, "target": 0.5 * (sigma - sigma1),
        "window": window, "profile_distance_monotone": tail_monotone,
        "enhancement": fit_rel.slope - fit_uv.slope,
    }
    # terminal-profile approach rate; its clean scaling needs d >= 3, so in
    # two dimensions it is reported under a beyond-theorem flag
    pd = tail_norms[in_win]
    if np.all(pd[:-1] > 0):
        fits["profile_exponent"] = fit_decay_exponent(ts[in_win][:-1], pd[:-1])
        if grid.dim == 2:
            flags.append("beyond-theorem: terminal-profile rate outside its dimension range")
    tier = linear_decay_tier(sigma1, [sigma], d=grid.dim, tau=tau, n_t=20)[sigma]
    details["linear_tier"] = {
        "exponent": tier["exponent_state"].slope,
        "relative_exponent": tier["exponent_relative"].slope,
        "target": tier["target"],
        "sandwich_ratio": tier["sandwich_ratio"],
    }
    return StudyResult("decay", "t", ts.tolist(), meas, fits, flags, details)


# ---------------------------------------------------------------------------
# low-Mach study


def incompressible_study(
    eps_list=(0.4, 0.2, 0.1, 0.05),
    system: str = "df_scaled",
    grid: Grid | None = None,
    recipe: DataRecipe | None = None,
    T: float = 20.0,
    dt_cap: float = 0.02,
) -> StudyResult:
    """
    Mach-number sweep: the square-mean-in-time p-based norm of the gas
    perturbation and the potential velocity part is fitted against eps.
    For the drag-coupled variant (friction tied to eps), the L1-in-time
    velocity-mismatch norm is fitted as well.
    """
    grid = grid or Grid(2, 64, 16.0 * np.pi)
    d = grid.dim
    d2 = d / 2.0
    p = 4.0
    s_p = (d + 1.0) / p - 0.5 if d >= 3 else 5.0 / (2.0 * p) - 0.25
    free_space_slope = 0.5 - 1.0 / p if d >= 3 else 0.25 - 0.5 / p
    # tight pulses and moderate damping: sound spreads before it wraps, and
    # the decohered remnant dies inside the measurement window
    recipe = recipe or DataRecipe(amplitude=0.04, rho_amplitude=0.03, seed=5, localized=True,
                                  bump_width=grid.length / 24.0)
    flags = []
    if d == 2:
        flags.append("two-dimensional exponent family")

    drag = system_spec(system).has_drag
    state0 = initial_state(system, grid, recipe)
    meas = {"acoustic_norm": [], **({"relative_norm": []} if drag else {})}
    for eps in eps_list:
        params = PhysParams(tau=eps, eps=eps, mu=0.3, lam=-0.1)
        obs = [
            BlockObserver("a_p", lambda s: s.a, p=p),
            BlockObserver("qv_p", lambda s: leray_project(s.v)[1], p=p),
        ]
        if drag:
            obs.append(BlockObserver("rel", lambda s: s.u - s.v))
        dt = min(dt_cap, eps / 4.0)
        sample_dt = min(2.0 * dt_cap, eps / 8.0)
        traj = integrate(state0, T, Scheme(dt=dt), params, system, obs, sample_dt)
        na = chemin_lerner_norm(traj.blocks["a_p"], 2.0, s_p)
        nq = chemin_lerner_norm(traj.blocks["qv_p"], 2.0, s_p)
        meas["acoustic_norm"].append(na + nq)
        if drag:
            meas["relative_norm"].append(chemin_lerner_norm(traj.blocks["rel"], 1.0, d2))
    fits = {k: rate_fit(eps_list, vals) for k, vals in meas.items()}
    return StudyResult(
        "incompressible", "eps", list(eps_list), meas, fits, flags,
        details={"p": p, "besov_index": s_p, "free_space_slope": free_space_slope, "T": T,
                 "grid": (grid.dim, grid.npts, grid.length)},
    )


# ---------------------------------------------------------------------------
# diagnostic norm bundles


def initial_energy_bundle(state: StateEulerNS, params: PhysParams, sigma1: float | None = None) -> dict:
    """
    The initial-data functionals: the core bundle
    ||u0||_{d/2-1} + tau ||u0||_{d/2+1} + ||a0||_{d/2-1 ^ d/2} + ||v0||_{d/2-1},
    and, when sigma1 is given, its low-frequency weak-norm extension.
    """
    d2 = state.grid.dim / 2.0
    tau = params.tau
    u_low = besov_norm(state.u, s=d2 - 1.0)
    u_high = tau * besov_norm(state.u, s=d2 + 1.0)
    a_hybrid = hybrid_norm(state.a, d2 - 1.0, d2)
    v_low = besov_norm(state.v, s=d2 - 1.0)
    out = {"X0": u_low + u_high + a_hybrid + v_low}
    if sigma1 is not None:
        low = sum(split_low_high(f, sigma1, r=np.inf)[0]
                  for f in (state.rho, state.u, state.a, state.v))
        out["Y0"] = low + hybrid_norm(state.rho, d2 - 1.0, d2) + a_hybrid + u_low + v_low + u_high
    return out


def dissipation_bundle(traj: Trajectory, params: PhysParams) -> dict:
    """
    Time-integrated dissipation functional from recorded block histories:
    L1-in-time smoothing norms of u, a (split), v, plus the weighted
    velocity-mismatch norms with their 1/sqrt(tau) and 1/tau factors.

    Requires block observers named u, a, v, rel.
    """
    tau = params.tau
    for name in ("u", "a", "v", "rel"):
        if name not in traj.blocks:
            raise KeyError(f"dissipation bundle needs a block observer named {name!r}")
    d2 = traj.meta["final_state"].grid.dim / 2.0
    u, a, v, rel = (traj.blocks[k] for k in ("u", "a", "v", "rel"))
    a_low, a_high = chemin_lerner_low_high(a, 1.0, d2 + 1.0, d2)
    rel_low, rel_high = chemin_lerner_low_high(rel, 1.0, d2, d2 - 1.0)
    parts = {
        "u_smoothing": chemin_lerner_norm(u, 1.0, d2 + 1.0),
        "a_low": a_low,
        "a_high": a_high,
        "v_smoothing": chemin_lerner_norm(v, 1.0, d2 + 1.0),
        "rel_sqrt_tau": chemin_lerner_norm(rel, 2.0, d2 - 1.0) / np.sqrt(tau),
        "rel_tau": (rel_low + rel_high) / tau,
    }
    return {"D": float(sum(parts.values())), **parts}
