"""
The desk-scale acceptance battery: nine verdicts covering the exact linear
theory, the fitted singular-limit rates, decay exponents, and the structural
conservation identities.  Each criterion is a check returning ``(ok,
details)`` under a ``_criterion(title, budget)`` decorator, which times it
and returns a CriterionResult that passes only if the check holds within
the wall-time budget.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import studies
from .besov import family_for
from .initial_data import DataRecipe, euler_ns_state
from .integrate import ScalarObserver, Scheme, Stepper, integrate
from .linear import (
    RadialInit,
    acoustic_eigenvalues,
    compressible_matrix,
    continuum_block_l2,
    green_compressible,
    green_incompressible,
    incompressible_matrix,
    propagator,
)
from .spectral import Grid, PhysParams, SpectralField, parseval_sum
from .studies import exp_rate_fit, rate_fit
from .systems import relative_velocity_residual, total_momentum_rate

# the linear oracle compares ORACLE_SAMPLES random modes, drawn from
# ORACLE_SEED, against a Taylor exponential of order TAYLOR_ORDER
ORACLE_SAMPLES = 200
ORACLE_SEED = 100
TAYLOR_ORDER = 16


@dataclass
class CriterionResult:
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}  ({self.elapsed:.1f}s / budget {self.budget:.0f}s)"


def _criterion(title: str, budget: float):
    """Make a check returning ``(ok, details)`` a criterion: the wrapped call
    is timed and passes only if ``ok`` holds within ``budget`` seconds."""

    def wrap(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            ok, details = check(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            return CriterionResult(title, bool(ok) and elapsed < budget, elapsed, budget,
                                   details)

        run.title = title
        return run

    return wrap


def _expm_taylor(mat):
    mat = np.asarray(mat, dtype=np.complex128)
    norm = np.linalg.norm(mat, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    a = mat / 2.0**s
    out = np.eye(mat.shape[0], dtype=np.complex128)
    term = np.eye(mat.shape[0], dtype=np.complex128)
    for k in range(1, TAYLOR_ORDER + 1):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@_criterion("linear oracle equivalence", 5.0)
def criterion_linear_oracle():
    """Closed-form propagator and eigenvalues against dense numerics."""
    rng = np.random.default_rng(ORACLE_SEED)
    worst_prop, worst_eig = 0.0, 0.0
    for _ in range(ORACLE_SAMPLES):
        xi = rng.uniform(0.0, 8.0)
        tau = rng.uniform(0.01, 1.0)
        mu = rng.uniform(0.1, 2.0)
        lam = rng.uniform(-2.0 * mu + 0.1, 2.0)
        t = rng.uniform(0.0, 5.0)
        nu = 2 * mu + lam
        g3, g2 = propagator(xi, tau, mu, lam, t)
        r3 = _expm_taylor(compressible_matrix(xi, 1.0 / tau, nu) * t)
        r2 = _expm_taylor(incompressible_matrix(xi, 1.0 / tau, mu) * t)
        worst_prop = max(worst_prop, float(np.max(np.abs(g3 - r3.real))),
                         float(np.max(np.abs(g2 - r2.real))))
        got = np.sort_complex([-1.0 / tau, *acoustic_eigenvalues(xi, nu)])
        ref = np.sort_complex(np.linalg.eigvals(compressible_matrix(xi, 1.0 / tau, nu)))
        worst_eig = max(worst_eig, float(np.max(np.abs(got - ref))))
    return worst_prop < 1e-10 and worst_eig < 1e-12, {
        "max_propagator_error": worst_prop, "max_eigenvalue_error": worst_eig,
        "samples": ORACLE_SAMPLES}


@_criterion("frequency-localized kernel shapes", 30.0)
def criterion_frequency_shapes():
    """
    Low-frequency blocks of the linear flow decay like exp(-c 4^j t) with a
    positive rate scaling as 4^j; the high-frequency velocity-mismatch kernel
    is bounded by C tau exp(-R t) with positive fitted R, uniformly in tau.
    """
    ones = lambda r: np.ones_like(r)
    init = RadialInit(a0=ones, psi0=ones, Psi0=ones, phi0=ones, Phi0=ones)
    details: dict = {"low": {}, "high": {}}
    ok = True

    js = np.array([-5, -4, -3])
    rates = []
    for j in js:
        ts = np.linspace(0.3, 3.0, 24) / 4.0 ** float(j)
        vals = []
        for t in ts:
            b = continuum_block_l2(init, t, d=2, tau=0.1, mu=1.0, lam=-1.0,
                                   js=np.array([j]))
            vals.append(b["u"][0] + b["a"][0] + b["v"][0])
        fit = exp_rate_fit(ts, np.array(vals))
        rate, r2 = fit.slope, fit.r_squared
        rates.append(rate)
        ok &= rate > 0 and r2 > 0.99
        details["low"][f"j_{int(j)}"] = {"rate": rate, "r2": r2}
    scale_fit = rate_fit(4.0 ** js.astype(float), rates)
    details["low"]["scaling_slope"] = scale_fit.slope  # 1.0 means exp(-c 4^j t)
    ok &= 0.8 < scale_fit.slope < 1.2

    radii = np.geomspace(2.5, 16.0, 60)
    for tau in (0.2, 0.1, 0.02):
        kappa = 1.0 / tau
        ts = np.linspace(1.0, 6.0, 20)
        ms = []
        for t in ts:
            gc = green_compressible(radii, kappa, 1.0, 1.0, t)
            gi = green_incompressible(radii, kappa, 1.0, t)
            ku = np.abs(gc["uu"])                        # phi0 slot
            ka = np.abs(gc["ua"] - gc["va"]) * radii     # a0 slot, derivative-weighted
            kv = np.abs(gc["uv"] - gc["vv"])             # psi0 slot
            kI = np.abs(gi["uu"])
            kP = np.abs(gi["uv"] - gi["vv"])
            ms.append(float(np.max([ku.max(), ka.max(), kv.max(), kI.max(), kP.max()])) / tau)
        fit = exp_rate_fit(ts, np.array(ms))
        rate, r2 = fit.slope, fit.r_squared
        ok &= rate > 0 and r2 > 0.99
        details["high"][f"tau_{tau}"] = {"R": rate, "r2": r2, "C": float(np.exp(fit.intercept))}
    cs = [details["high"][f"tau_{tau}"]["C"] for tau in (0.2, 0.1, 0.02)]
    details["high"]["prefactor_spread"] = max(cs) / min(cs)
    ok &= max(cs) / min(cs) < 5.0
    return ok, details


@_criterion("two-sided algebraic decay", 120.0)
def criterion_decay_sandwich():
    """Two-sided algebraic decay of the linear flow at continuum frequencies."""
    cases = [(2, -1.0, 0.0), (2, -1.0, 1.0), (3, -1.5, 0.5)]
    details = {}
    ok = True
    for d, sigma1, sigma in cases:
        r = studies.linear_decay_tier(sigma1, sigma, d=d, tau=0.1)
        target = r["target"]
        got = r["exponent_state"].slope
        ok &= abs(got - target) <= 0.05
        ok &= r["sandwich_ratio"] < 25.0
        details[f"d{d}_s1_{sigma1}_s_{sigma}"] = {
            "exponent": got, "target": target, "sandwich_ratio": r["sandwich_ratio"],
        }
    return ok, details


@_criterion("relaxation rate sweep", 900.0)
def criterion_relaxation_rates():
    """Velocity-mismatch norms against the friction time over a sweep."""
    res = studies.relaxation_study()
    s_sqrt = res.fits["sqrt_family"].slope
    s_tau = res.fits["tau_family"].slope
    ok = 0.40 <= s_sqrt <= 0.65 and 0.85 <= s_tau <= 1.15
    return ok, {"sqrt_slope": s_sqrt, "tau_slope": s_tau,
                "sqrt_values": res.measurements["sqrt_family"],
                "tau_values": res.measurements["tau_family"]}


@_criterion("drift-flux limit error", 1800.0)
def criterion_df_limit():
    """Two-phase to drift-flux distance against the friction time."""
    res = studies.df_limit_study()
    slope = res.fits["sup_error"].slope
    ok = 0.40 <= slope <= 0.70 and bool(res.details["monotone"])
    return ok, {"slope": slope, "monotone": res.details["monotone"],
                "sup_errors": res.measurements["sup_error"],
                "l1_velocity_slope": res.fits["l1_velocity"].slope}


@_criterion("nonlinear decay window", 1200.0)
def criterion_nonlinear_decay():
    """Finite-box decay window: state exponent, mismatch enhancement, and the
    monotone approach of the dispersed density to its terminal profile."""
    res = studies.decay_study()
    target = res.details["target"]
    e_state = res.fits["state_exponent"].slope
    e_rel = res.fits["relative_exponent"].slope
    ok = abs(e_state - target) <= 0.15
    ok &= (e_rel - e_state) >= 0.30
    ok &= bool(res.details["profile_distance_monotone"])
    return ok, {"state_exponent": e_state, "target": target,
                "relative_exponent": e_rel,
                "enhancement": e_rel - e_state,
                "profile_monotone": res.details["profile_distance_monotone"],
                "flags": res.flags}


@_criterion("low-Mach rate sweep", 1200.0)
def criterion_incompressible():
    """Low-Mach acoustic norms against eps, plus the drag-coupled variant."""
    res_df = studies.incompressible_study(system="df_scaled")
    s_ac = res_df.fits["acoustic_norm"].slope
    res_ens = studies.incompressible_study(system="euler_ns_scaled")
    s_rel = res_ens.fits["relative_norm"].slope
    ok = 0.05 <= s_ac <= 0.22 and 0.85 <= s_rel <= 1.15
    return ok, {"acoustic_slope": s_ac, "relative_slope": s_rel,
                "acoustic_values": res_df.measurements["acoustic_norm"],
                "relative_values": res_ens.measurements["relative_norm"],
                "free_space_slope": res_df.details["free_space_slope"]}


@_criterion("conservation and structure", 120.0)
def criterion_conservation():
    """Mass, momentum, mismatch identity, equilibrium, partition of unity."""
    grid = Grid(2, 48, 8.0 * np.pi)
    par = PhysParams(tau=0.15, mu=1.0, lam=0.0)
    details = {}
    ok = True

    # mass drift and the momentum rate implied by the rhs along a trajectory
    st = euler_ns_state(grid, DataRecipe(seed=21, amplitude=0.05))
    rate = ScalarObserver("momentum_rate", lambda s, t: total_momentum_rate(s, par))
    traj = integrate(st, 10.0, Scheme(dt=0.05), par, "euler_ns", [rate], sample_dt=2.0)
    details["mass_drift"] = traj.meta["mass_drift"]
    ok &= traj.meta["mass_drift"] < 1e-10
    mom = float(np.max(traj.scalars["momentum_rate"]))
    details["momentum_rate_run"] = mom
    ok &= mom < 1e-9

    # the relative-velocity identity on random states
    worst_resid = 0.0
    for seed in range(50):
        rs = euler_ns_state(grid, DataRecipe(seed=1000 + seed, amplitude=0.05))
        worst_resid = max(worst_resid, relative_velocity_residual(rs, par))
    details["relative_velocity_residual"] = worst_resid
    ok &= worst_resid < 1e-9

    # equilibrium fixed over 10^3 steps
    from .systems import StateEulerNS

    z = lambda: SpectralField(grid, np.zeros(grid.spectral_shape, dtype=np.complex128))
    zv = lambda: SpectralField(grid, np.zeros((grid.dim,) + grid.spectral_shape,
                                              dtype=np.complex128))
    rho = z(); rho.coeffs[0, 0] = 0.4
    eq = StateEulerNS(rho, zv(), z(), zv())
    stepper = Stepper("euler_ns", grid, par, 0.05)
    x = eq
    for _ in range(1000):
        x = stepper.step(x)
    drift = max(float(np.max(np.abs(a.coeffs - b.coeffs)))
                for a, b in zip(x.fields().values(), eq.fields().values()))
    details["equilibrium_drift"] = drift
    ok &= drift < 1e-14

    resid = family_for(grid).partition_residual()
    details["partition_residual"] = resid
    ok &= resid < 1e-10
    return ok, details


@_criterion("temporal self-convergence", 300.0)
def criterion_self_convergence():
    """Observed temporal order of the midpoint exponential scheme."""
    grid = Grid(2, 48, 8.0 * np.pi)
    par = PhysParams(tau=0.05, mu=1.0, lam=0.0)
    st = euler_ns_state(grid, DataRecipe(seed=31, amplitude=0.08))
    T = 0.8
    finals = []
    for dt in (0.01, 0.005, 0.0025):
        stepper = Stepper("euler_ns", grid, par, dt)
        x = st
        for _ in range(round(T / dt)):
            x = stepper.step(x)
        finals.append(x)

    def dist(a, b):
        return max(float(np.sqrt(parseval_sum(grid, fa.coeffs - fb.coeffs)))
                   for fa, fb in zip(a.fields().values(), b.fields().values()))

    e1, e2 = dist(finals[0], finals[1]), dist(finals[1], finals[2])
    order = float(np.log2(e1 / e2))
    return 1.8 <= order <= 2.3, {"order": order, "errors": [e1, e2]}


ALL_CRITERIA = [
    ("linear_oracle", criterion_linear_oracle),
    ("frequency_shapes", criterion_frequency_shapes),
    ("decay_sandwich", criterion_decay_sandwich),
    ("relaxation_rates", criterion_relaxation_rates),
    ("df_limit", criterion_df_limit),
    ("nonlinear_decay", criterion_nonlinear_decay),
    ("incompressible", criterion_incompressible),
    ("conservation", criterion_conservation),
    ("self_convergence", criterion_self_convergence),
]


def run_suite(names=None):
    """Run the acceptance battery (all criteria by default, else those named,
    in table order), printing each verdict line."""
    selected = ALL_CRITERIA if not names else [(n, f) for n, f in ALL_CRITERIA if n in names]
    results = []
    for name, fn in selected:
        res = fn()
        results.append((name, res))
        print(res.line())
    return results
