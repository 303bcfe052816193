"""Exponential integrator and trajectory tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from driftflow import systems
from driftflow.errors import Diverged, StepRejected
from driftflow.initial_data import DataRecipe, euler_ns_state, initial_state
from driftflow.integrate import (
    VALIDATE_EVERY,
    BlockObserver,
    ResolventTable,
    ScalarObserver,
    Scheme,
    Stepper,
    apply_propagator,
    apply_resolvent,
    integrate,
    precompute_mode_propagators,
)
from driftflow.linear import green_acoustic, green_compressible, green_incompressible, propagator
from driftflow.spectral import Grid, PhysParams, SpectralField, from_physical, l2_norm, to_physical
from driftflow.systems import SYSTEMS, StateEulerNS, StateTNS, system_spec

from oracles import apply_propagator_split, linear_rhs_euler_ns

GRID = Grid(2, 32, 4.0 * np.pi)
PAR = PhysParams(tau=0.2, mu=1.0, lam=-0.5)


def state_distance(a, b):
    return max(l2_norm(fa - fb) for fa, fb in zip(a.fields().values(), b.fields().values()))


def state_bytes(state):
    return {k: f.coeffs.tobytes() for k, f in state.fields().items()}


def zero_state(grid=GRID, rho_bar=0.3):
    z = lambda: SpectralField(grid, np.zeros(grid.spectral_shape, dtype=np.complex128))
    zv = lambda: SpectralField(grid, np.zeros((grid.dim,) + grid.spectral_shape,
                                              dtype=np.complex128))
    rho = z()
    rho.coeffs[(0,) * grid.dim] = rho_bar
    return StateEulerNS(rho, zv(), z(), zv())


class TestPropagatorTable:
    def test_zero_step_is_identity(self, rng):
        tab = precompute_mode_propagators(GRID, PAR, 0.0, "euler_ns")
        st = euler_ns_state(GRID, DataRecipe(seed=2, amplitude=0.05))
        out = apply_propagator(tab, st)
        assert state_distance(out, st) < 1e-13

    def test_table_matches_scalar_propagator(self):
        dt = 0.37
        tab = precompute_mode_propagators(GRID, PAR, dt, "euler_ns")
        idx = (3, 5)
        xi = GRID.kmag[idx]
        g3, g2 = propagator(xi, PAR.tau, PAR.mu, PAR.lam, dt)
        assert abs(tab.g11[idx] - g3[1, 1]) < 1e-12
        assert abs(tab.g12[idx] - 1j * g3[1, 2]) < 1e-12
        assert abs(tab.g21[idx] + 1j * g3[2, 1]) < 1e-12
        assert abs(tab.g00[idx] - g3[0, 0]) < 1e-12
        assert abs(tab.g01[idx] + 1j * g3[0, 1]) < 1e-12
        assert abs(tab.p01[idx] - g2[0, 1]) < 1e-12

    @pytest.mark.parametrize("system", ["euler_ns", "df_scaled"])
    def test_table_equals_per_mode_green_functions(self, system):
        # evaluated once per distinct radius, the entries equal those of a
        # per-mode evaluation over the whole lattice
        grid = Grid(3, 12, 3.0)
        par = PhysParams(tau=0.05, eps=0.3, mu=0.7, lam=0.1)
        tab = precompute_mode_propagators(grid, par, 0.1, system)
        spec = system_spec(system)
        xi, c = grid.kmag.ravel(), spec.c(par)
        if spec.has_drag:
            g = green_compressible(xi, spec.kappa(par), par.nu, c, 0.1)
            gi = green_incompressible(xi, spec.kappa(par), par.mu, 0.1)
            want = {"g00": g["uu"], "g01": -1j * g["ua"], "g02": g["uv"],
                    "p00": gi["uu"], "p01": gi["uv"], "p11": gi["vv"]}
        else:
            g = green_acoustic(xi, par.nu, c, 0.1)
            want = {"p11": np.exp(-par.mu * grid.k2 * 0.1)}
        want.update(g11=g["aa"], g12=1j * g["av"], g21=-1j * g["va"], g22=g["vv"])
        for key, w in want.items():
            got = getattr(tab, key)
            assert got.shape == grid.kmag.shape
            assert np.max(np.abs(got - w.reshape(grid.kmag.shape))) <= 1e-15, key

    @settings(max_examples=25, deadline=None)
    @given(system=strategies.sampled_from(["euler_ns", "df_scaled", "tns"]),
           dt=strategies.floats(1e-3, 2.0), tau=strategies.floats(1e-3, 2.0))
    def test_half_steps_compose(self, system, dt, tau):
        par = PhysParams(tau=tau, eps=0.5, mu=1.0, lam=-0.5)
        state = initial_state(system, GRID, DataRecipe(seed=3, amplitude=0.04))
        half = precompute_mode_propagators(GRID, par, 0.5 * dt, system)
        full = precompute_mode_propagators(GRID, par, dt, system)
        two = apply_propagator(half, apply_propagator(half, state))
        one = apply_propagator(full, state)
        assert state_distance(two, one) < 1e-10


    @settings(max_examples=30, deadline=None)
    @given(system=strategies.sampled_from(list(SYSTEMS)),
           grid=strategies.sampled_from([GRID, Grid(3, 12, 3.0)]),
           dt=strategies.floats(1e-3, 2.0), eps=strategies.sampled_from([1.0, 0.3]),
           seed=strategies.integers(0, 2**16))
    def test_combined_apply_equals_split_form(self, system, grid, dt, eps, seed):
        par = PhysParams(tau=0.2, eps=eps, mu=0.7, lam=0.1)
        state = initial_state(system, grid, DataRecipe(seed=seed, amplitude=0.04))
        tab = precompute_mode_propagators(grid, par, dt, system)
        before = state_bytes(state)
        table = {k: v.tobytes() for k, v in vars(tab).items() if isinstance(v, np.ndarray)}
        got, want = apply_propagator(tab, state), apply_propagator_split(tab, state)
        for name, w in want.fields().items():
            scale = max(float(np.max(np.abs(w.coeffs))), 1e-300)
            assert np.max(np.abs(got.fields()[name].coeffs - w.coeffs)) <= 1e-14 * scale, name
        assert state_bytes(state) == before
        assert table == {k: v.tobytes() for k, v in vars(tab).items()
                         if isinstance(v, np.ndarray)}

    @pytest.mark.parametrize("grid", [GRID, Grid(3, 12, 3.0)])
    def test_resolvent_inverts_the_linear_symbol(self, grid):
        # x = (I - alpha L)^{-1} b solves x - alpha L x = b
        alpha = 0.37
        b = euler_ns_state(grid, DataRecipe(seed=4, amplitude=0.05))
        before = state_bytes(b)
        x = apply_resolvent(ResolventTable("euler_ns", grid, alpha, PAR), b)
        lx = linear_rhs_euler_ns(x, PAR)
        for name, fb in b.fields().items():
            back = x.fields()[name].coeffs - alpha * lx.fields()[name].coeffs
            assert np.max(np.abs(back - fb.coeffs)) <= 1e-14 * np.max(np.abs(fb.coeffs)), name
        assert state_bytes(b) == before


class TestStep:
    def test_equilibrium_fixed_through_thousand_steps(self):
        st = zero_state()
        stepper = Stepper("euler_ns", GRID, PAR, 0.05)
        x = st
        for _ in range(1000):
            x = stepper.step(x)
        assert state_distance(x, st) < 1e-14

    def test_linear_regime_follows_green_function(self):
        recipe = DataRecipe(seed=4, amplitude=1e-6, rho_amplitude=0.0, rho_floor=0.0)
        st = euler_ns_state(GRID, recipe)
        dt = 0.2
        stepper = Stepper("euler_ns", GRID, PAR, dt)
        one = stepper.step(st)
        tab = precompute_mode_propagators(GRID, PAR, dt, "euler_ns")
        lin = apply_propagator(tab, st)
        assert state_distance(one, lin) < 1e-10

    def test_propagator_table_semigroup(self):
        # the T/(2n) table applied 2n times (the linear part of n steps) is the T table
        st = euler_ns_state(GRID, DataRecipe(seed=5, amplitude=0.05))
        T, n = 2.0, 4
        tab = precompute_mode_propagators(GRID, PAR, T / (2 * n), "euler_ns")
        x = st
        for _ in range(2 * n):
            x = apply_propagator(tab, x)
        exact = apply_propagator(precompute_mode_propagators(GRID, PAR, T, "euler_ns"), st)
        assert state_distance(x, exact) < 1e-10

    def test_self_convergence_order_two(self):
        st = euler_ns_state(GRID, DataRecipe(seed=6, amplitude=0.08))
        par = PhysParams(tau=0.5, mu=1.0, lam=0.0)
        T = 0.8
        results = []
        for dt in (0.04, 0.02, 0.01):
            stepper = Stepper("euler_ns", GRID, par, dt)
            x = st
            for _ in range(round(T / dt)):
                x = stepper.step(x)
            results.append(x)
        e1 = state_distance(results[0], results[1])
        e2 = state_distance(results[1], results[2])
        order = np.log2(e1 / e2)
        assert 1.8 < order < 2.3


class TestIntegrate:
    def test_equals_a_hand_stepper_loop(self):
        # the temporal self-convergence criterion's run at its coarsest step:
        # T/dt is whole and the drag is not stiff, so these are the same steps
        grid = Grid(2, 48, 8.0 * np.pi)
        par = PhysParams(tau=0.05, mu=1.0, lam=0.0)
        st = euler_ns_state(grid, DataRecipe(seed=31, amplitude=0.08))
        stepper = Stepper("euler_ns", grid, par, 0.01)
        x = st
        for _ in range(80):
            x = stepper.step(x)
        traj = integrate(st, 0.8, Scheme(dt=0.01), par, "euler_ns")
        assert traj.meta["steps"] == 80 and traj.meta["t_ramp"] == 0.0
        final = traj.meta["final_state"]
        for name, f in x.fields().items():
            assert np.array_equal(final.fields()[name].coeffs, f.coeffs), name

    def test_zero_horizon_single_sample(self):
        st = euler_ns_state(GRID, DataRecipe(seed=7))
        traj = integrate(st, 0.0, Scheme(), PAR, "euler_ns",
                         [ScalarObserver("one", lambda s, t: 1.0)])
        assert len(traj.times) == 1 and traj.times[0] == 0.0

    def test_taylor_green_heat_decay(self):
        k0n = 2
        k0 = 2.0 * np.pi / GRID.length * k0n
        x = GRID.coords()
        w_ph = np.stack([
            np.sin(k0 * x[0]) * np.cos(k0 * x[1]),
            -np.cos(k0 * x[0]) * np.sin(k0 * x[1]),
        ]) * 0.3
        z = SpectralField(GRID, np.zeros(GRID.spectral_shape, dtype=np.complex128))
        st = StateTNS(z, from_physical(GRID, w_ph))
        par = PhysParams(mu=0.4)
        T = 1.5
        traj = integrate(st, T, Scheme(dt=0.01), par, "tns")
        final = traj.meta["final_state"]
        decay = np.exp(-2.0 * par.mu * k0**2 * T)
        expected = SpectralField(GRID, st.w.coeffs * decay)
        assert l2_norm(final.w - expected) < 1e-6 * l2_norm(st.w)

    def test_mass_exactly_conserved(self):
        st = euler_ns_state(GRID, DataRecipe(seed=8, amplitude=0.06))
        traj = integrate(st, 3.0, Scheme(dt=0.05), PAR, "euler_ns")
        assert traj.meta["mass_drift"] < 1e-13

    def test_stiff_friction_runs_at_advective_step(self):
        par = PhysParams(tau=1e-3, mu=1.0, lam=0.0)
        st = euler_ns_state(GRID, DataRecipe(seed=9, amplitude=0.05))
        traj = integrate(st, 1.0, Scheme(dt=0.05), par, "euler_ns")
        final = traj.meta["final_state"]
        rel = l2_norm(final.u - final.v)
        assert np.isfinite(rel)
        assert rel < 0.1 * l2_norm(final.v)  # velocities aligned by the drag
        assert traj.meta["t_ramp"] > 0  # the relaxation layer was refined

    @pytest.mark.parametrize("tau", [0.02, 0.01, 0.001])
    def test_ramp_keeps_the_ramp_free_sample_times(self, tau):
        # tau < dt/2 ramps; every sample time of a ramp-free run must recur
        grid = Grid(2, 16, 2.0 * np.pi)
        par = PhysParams(tau=tau, mu=1.0, lam=0.0)
        st = euler_ns_state(grid, DataRecipe(seed=1))
        ramped = integrate(st, 2.0, Scheme(dt=0.05), par, "euler_ns", sample_dt=0.5)
        assert ramped.meta["t_ramp"] > 0
        assert {0.0, 0.5, 1.0, 1.5, 2.0} <= set(np.round(ramped.times, 9))

    def test_ramp_substeps_only_the_layer(self):
        # the layer 24/kappa = 0.024 takes 145 substeps, then one step joins
        # the grid at t = 0.05; substepping the whole first step took 340
        grid = Grid(2, 16, 2.0 * np.pi)
        par = PhysParams(tau=0.001, mu=1.0, lam=0.0)
        st = euler_ns_state(grid, DataRecipe(seed=1))
        ramped = integrate(st, 2.0, Scheme(dt=0.05), par, "euler_ns", sample_dt=0.5)
        assert ramped.meta["steps"] < 200
        assert ramped.meta["t_ramp"] == 0.05
        assert 0.05 in set(np.round(ramped.times, 9))

    def test_block_observer_records_series(self):
        st = euler_ns_state(GRID, DataRecipe(seed=10, amplitude=0.05))
        traj = integrate(st, 0.5, Scheme(dt=0.05), PAR, "euler_ns",
                         [BlockObserver("rel", lambda s: s.u - s.v)], sample_dt=0.1)
        series = traj.blocks["rel"]
        assert series.values.shape[1] == len(traj.times)
        assert np.all(series.values >= 0)

    def test_divergence_guard_raises(self):
        # valid data, weak damping, and a step far beyond the advective limit
        par = PhysParams(tau=0.2, mu=0.02, lam=0.0)
        st = euler_ns_state(GRID, DataRecipe(seed=11, amplitude=0.5))
        with pytest.raises((Diverged, StepRejected)):
            integrate(st, 200.0, Scheme(dt=3.0), par, "euler_ns")

    def test_nan_coefficient_raises_diverged(self):
        # fewer steps than VALIDATE_EVERY: only the final-state guard runs
        st = euler_ns_state(GRID, DataRecipe(seed=1))
        st.v.coeffs[0, 1, 2] = np.nan
        with pytest.raises(Diverged):
            integrate(st, 10 * 0.05, Scheme(dt=0.05), PAR, "euler_ns")

    def test_nan_coefficient_raises_diverged_without_a_step(self):
        st = euler_ns_state(GRID, DataRecipe(seed=1))
        st.v.coeffs[0, 1, 2] = np.nan
        with pytest.raises(Diverged):
            integrate(st, 0.0, Scheme(dt=0.05), PAR, "euler_ns")

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_horizon_must_be_finite_and_nonnegative(self, T):
        st = euler_ns_state(GRID, DataRecipe(seed=1))
        with pytest.raises(ValueError):
            integrate(st, T, Scheme(dt=0.05), PAR, "euler_ns")

    @pytest.mark.parametrize("sample_dt", [np.nan, np.inf, 0.0, -0.1])
    def test_sample_spacing_must_be_finite_and_positive(self, sample_dt):
        st = euler_ns_state(GRID, DataRecipe(seed=1))
        with pytest.raises(ValueError):
            integrate(st, 1.0, Scheme(dt=0.05), PAR, "euler_ns", sample_dt=sample_dt)

    def test_reproducible_trajectories(self):
        st1 = euler_ns_state(GRID, DataRecipe(seed=12, amplitude=0.05))
        st2 = euler_ns_state(GRID, DataRecipe(seed=12, amplitude=0.05))
        obs = lambda: [ScalarObserver("e", lambda s, t: l2_norm(s.v))]
        t1 = integrate(st1, 1.0, Scheme(dt=0.05), PAR, "euler_ns", obs())
        t2 = integrate(st2, 1.0, Scheme(dt=0.05), PAR, "euler_ns", obs())
        assert np.array_equal(t1.scalars["e"], t2.scalars["e"])


def test_scaled_run_uses_the_scaled_gas_density_floor():
    # 1 + a = -0.5 but 1 + eps*a = 0.85: admissible for the scaled system
    grid = Grid(2, 32, 8.0 * np.pi)
    par = PhysParams(tau=0.1, eps=0.1, mu=1.0, lam=0.0)
    st = zero_state(grid, rho_bar=0.3)
    st.a.coeffs[0, 0] = -1.5
    traj = integrate(st, 0.5, Scheme(dt=0.05), par, "euler_ns_scaled")
    # the drag ramp's substeps make the guard run inside the run, not only at its end
    assert traj.meta["steps"] > VALIDATE_EVERY
    final = traj.meta["final_state"]
    assert np.allclose(to_physical(final.a), -1.5, atol=1e-12)


class TestOneRhsPerStep:
    """The stepper predicts each step's start derivative after a phase's first
    step, so a run makes one rhs evaluation per step plus one per phase."""

    def test_other_state_restarts_bit_for_bit(self):
        st = euler_ns_state(GRID, DataRecipe(seed=13, amplitude=0.06))
        other = euler_ns_state(GRID, DataRecipe(seed=14, amplitude=0.06))
        used = Stepper("euler_ns", GRID, PAR, 0.05)
        x = st
        for _ in range(3):
            x = used.step(x)
        # a fresh state, and an equal copy of the state the stepper returned
        for start in (other, x.copy()):
            got = used.step(start)
            want = Stepper("euler_ns", GRID, PAR, 0.05).step(start)
            assert state_bytes(got) == state_bytes(want)

    def test_error_no_larger_than_the_midpoint_step(self):
        # the self-convergence setup on 2D N=32, against a dt = 0.001 run
        grid = Grid(2, 32, 8.0 * np.pi)
        par = PhysParams(tau=0.05, mu=1.0, lam=0.0)
        st = euler_ns_state(grid, DataRecipe(seed=31, amplitude=0.08))
        fine = integrate(st, 0.8, Scheme(dt=0.001), par, "euler_ns").meta["final_state"]
        got = integrate(st, 0.8, Scheme(dt=0.05), par, "euler_ns").meta["final_state"]
        err = max(l2_norm(a - b) for a, b in zip(got.fields().values(), fine.fields().values()))
        # 2.5908e-4: the two-evaluation midpoint step (k1 = N(u_n) on every
        # step) on this setup, against its own dt = 0.001 run; this stepper
        # gave 2.4729e-4
        assert err <= 2.5908e-4

    def test_predicted_steps_differ_from_the_midpoint_step_at_fourth_order(self):
        # the second step (2 k2_0 - k1_0) and the third (1.5 k2_1 - 0.5 k2_0)
        # against a midpoint step from the same state; the observed orders are
        # 3.73 and 3.62 here, and a predictor that is off by O(dt) gives 2.6-2.7
        st = euler_ns_state(GRID, DataRecipe(seed=6, amplitude=0.08))
        gaps = []
        for dt in (0.0125, 0.00625):
            stepper = Stepper("euler_ns", GRID, PAR, dt)
            x = [st]
            for _ in range(3):
                x.append(stepper.step(x[-1]))
            gaps.append([state_distance(x[n + 1], Stepper("euler_ns", GRID, PAR, dt).step(x[n]))
                         for n in (1, 2)])
        assert np.all(np.log2(np.divide(*gaps)) > 3.3)

    @pytest.mark.parametrize("tau, phases", [(0.2, 1), (0.001, 3)])
    def test_rhs_calls_are_steps_plus_phases(self, tau, phases, monkeypatch):
        # tau = 0.001 runs the drag-ramp substeps, the join step and the main grid
        calls = []
        rhs = systems.rhs_euler_ns_scaled

        def counted(*args, **kwargs):
            calls.append(1)
            return rhs(*args, **kwargs)

        monkeypatch.setattr(systems, "rhs_euler_ns_scaled", counted)
        grid = Grid(2, 16, 2.0 * np.pi)
        st = euler_ns_state(grid, DataRecipe(seed=1))
        traj = integrate(st, 0.5, Scheme(dt=0.05), PhysParams(tau=tau, mu=1.0, lam=0.0),
                         "euler_ns")
        assert (traj.meta["t_ramp"] > 0) == (phases == 3)
        assert len(calls) == traj.meta["steps"] + phases
