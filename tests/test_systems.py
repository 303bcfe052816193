"""Right-hand-side structure tests for the five flow variants."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from driftflow.errors import DegenerateMixture, NonFiniteField, VacuumGas
from driftflow.initial_data import DataRecipe, df_state, euler_ns_state, initial_state, tns_state
from driftflow.spectral import (
    Grid,
    PhysParams,
    SpectralField,
    div,
    from_physical,
    grad,
    l2_norm,
    laplacian,
    leray_project,
    multiply,
    to_physical,
)
from driftflow.systems import (
    MIX_FLOOR,
    N_MIN,
    StateDF,
    StateEulerNS,
    StateTNS,
    effective_mixed_velocity,
    relative_velocity_residual,
    rhs_df,
    rhs_df_scaled,
    rhs_euler_ns,
    rhs_euler_ns_scaled,
    rhs_tns,
    total_momentum_rate,
    _advection,
    _enthalpy_excess_ratio,
    _gas_density,
    _mixture,
    _pressure_slope_ratio,
)

from conftest import random_field, small_field
from oracles import (
    advection_advective,
    enthalpy_excess_ratio,
    linear_rhs_euler_ns,
    momentum_rhs_df_conservative,
    momentum_rhs_df_nonconservative,
    pressure_slope_ratio,
    rhs_df_scaled_ref,
    rhs_euler_ns_scaled_enthalpy_ref,
    rhs_euler_ns_scaled_ref,
    rhs_tns_ref,
)

GRID = Grid(2, 32, 4.0 * np.pi)
PAR = PhysParams(tau=0.3, mu=0.7, lam=-0.2, gamma=3.0)


def smooth_state(seed=0, amplitude=0.05, grid=GRID):
    return euler_ns_state(grid, DataRecipe(amplitude=amplitude, rho_amplitude=amplitude,
                                           seed=seed, k_band=(0.4, 1.6)))


def zero_scalar(grid):
    return SpectralField(grid, np.zeros(grid.spectral_shape, dtype=np.complex128))


def zero_vector(grid):
    return SpectralField(grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128))


def equilibrium(rho_bar=0.4, grid=GRID):
    rho = zero_scalar(grid)
    rho.coeffs[(0,) * grid.dim] = rho_bar
    return StateEulerNS(rho, zero_vector(grid), zero_scalar(grid), zero_vector(grid))


def state_norm(st):
    return max(l2_norm(f) for f in st.fields().values())


class TestRotationalForm:
    GRIDS = [Grid(2, 16, 2.0 * np.pi), Grid(2, 24, 5.0), Grid(3, 8, 2.0 * np.pi),
             Grid(3, 12, 3.0)]

    @settings(max_examples=25, deadline=None)
    @given(grid=strategies.sampled_from(GRIDS), seed=strategies.integers(0, 2**32 - 1))
    def test_equals_the_advective_form(self, grid, seed):
        # the fields are band-limited, so both forms are alias-free on the
        # retained band and equal there
        vel = random_field(grid, np.random.default_rng(seed), ncomp=grid.dim)
        oracle = advection_advective(vel)
        scale = np.max(np.abs(oracle.coeffs))
        rot = _advection(vel, to_physical(vel))
        assert np.max(np.abs(rot.coeffs - oracle.coeffs)) <= 1e-12 * scale
        # without its gradient term it has the same solenoidal part
        sol = leray_project(_advection(vel, to_physical(vel), gradient=False))[0]
        assert np.max(np.abs(sol.coeffs - leray_project(oracle)[0].coeffs)) <= 1e-12 * scale


class TestEulerNS:
    def test_equilibrium_is_fixed_point(self):
        d = rhs_euler_ns(equilibrium(), PAR)
        assert state_norm(d) < 1e-14

    def test_aligned_velocities_kill_drag(self, rng):
        st = smooth_state(3)
        st = StateEulerNS(st.rho, st.v.copy(), st.a, st.v)
        d = rhs_euler_ns(st, PAR)
        # the drag-free evaluation at enormous tau must agree on every field
        d_free = rhs_euler_ns(st, PhysParams(tau=1e12, mu=PAR.mu, lam=PAR.lam, gamma=PAR.gamma))
        for k in ("rho", "u", "a", "v"):
            num = l2_norm(d.fields()[k] - d_free.fields()[k])
            assert num < 1e-11 * max(state_norm(d), 1e-6)

    def test_rhs_linearizes_to_symbol(self):
        # halving the amplitude quarters the nonlinear residual
        resid = []
        for delta in (2e-3, 1e-3):
            st = smooth_state(5, amplitude=delta)
            st = StateEulerNS(st.rho * (delta / 0.05 / (delta / 0.05)), st.u, st.a, st.v)
            full = rhs_euler_ns(st, PAR)
            lin = linear_rhs_euler_ns(st, PAR)
            diff = max(
                l2_norm(full.u - lin.u), l2_norm(full.a - lin.a), l2_norm(full.v - lin.v)
            )
            resid.append(diff)
        ratio = resid[0] / resid[1]
        assert 3.5 < ratio < 4.5

    def test_split_rhs_consistency(self, rng):
        st = smooth_state(7)
        full = rhs_euler_ns(st, PAR)
        nl = rhs_euler_ns(st, PAR, include_linear=False)
        lin = linear_rhs_euler_ns(st, PAR)
        for k in ("rho", "u", "a", "v"):
            diff = l2_norm(full.fields()[k] - (nl.fields()[k] + lin.fields()[k]))
            assert diff < 1e-12 * max(1.0, l2_norm(full.fields()[k]))

    def test_mass_rate_is_exactly_zero(self):
        st = smooth_state(9)
        d = rhs_euler_ns(st, PAR)
        assert abs(np.real(d.rho.zero_mode())) < 1e-17
        assert abs(np.real(d.a.zero_mode())) < 1e-17

    def test_total_momentum_rate_vanishes(self):
        st = smooth_state(11)
        assert total_momentum_rate(st, PAR) < 1e-12

    def test_relative_velocity_identity(self):
        st = smooth_state(13)
        assert relative_velocity_residual(st, PAR) < 1e-9

    def test_relative_velocity_identity_at_equilibrium(self):
        assert relative_velocity_residual(equilibrium(), PAR) == 0.0

    def test_relative_velocity_identity_off_gamma_3(self):
        # the independent formula takes the pressure term in the rhs's
        # enthalpy form, so the identity stays at roundoff where the
        # coefficient form differs from it by aliasing
        par = PhysParams(tau=PAR.tau, mu=PAR.mu, lam=PAR.lam, gamma=1.4)
        assert relative_velocity_residual(smooth_state(13), par) < 1e-13
        assert relative_velocity_residual(smooth_state(13, amplitude=0.2), par) < 1e-13

    @pytest.mark.parametrize("grid, count", [(Grid(2, 16, 2.0 * np.pi), 20),
                                             (Grid(3, 12, 2.0 * np.pi), 31)])
    def test_scalar_transforms_per_rhs(self, monkeypatch, grid, count):
        # a transform of a d-component field counts as d scalar transforms;
        # the enthalpy form takes no grad a to the grid
        spectral = sys.modules["driftflow.spectral"]
        state = smooth_state(3, grid=grid)
        seen = []

        def counted(fn):
            def wrapper(x, *args, **kwargs):
                seen.append(int(np.prod(x.shape[: -grid.dim])))
                return fn(x, *args, **kwargs)
            return wrapper

        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(spectral.sfft, name, counted(getattr(spectral.sfft, name)))
        rhs_euler_ns(state, PAR, include_linear=False)
        assert sum(seen) == count


class TestDriftFlux:
    def test_equilibrium(self):
        st = StateDF(equilibrium().rho, zero_scalar(GRID), zero_vector(GRID))
        d = rhs_df(st, PAR)
        assert state_norm(d) < 1e-14

    def test_vanishing_dispersed_phase_is_single_phase_flow(self, rng):
        base = df_state(GRID, DataRecipe(amplitude=0.04, seed=1, k_band=(0.4, 1.6)))
        st = StateDF(zero_scalar(GRID), base.a, base.v)
        d = rhs_df(st, PAR)
        # independent single-phase assembly
        a_ph = to_physical(st.a)
        v_ph = to_physical(st.v)
        visc = PAR.mu * laplacian(st.v).coeffs + (PAR.mu + PAR.lam) * (
            grad(div(st.v)).coeffs
        )
        adv = np.zeros_like(v_ph)
        for i in range(GRID.dim):
            adv[i] = np.sum(v_ph * to_physical(grad(SpectralField(GRID, st.v.coeffs[i]))), axis=0)
        pcoef = (1.0 + a_ph) ** (PAR.gamma - 2.0)
        dv_ref = from_physical(GRID, -adv - (pcoef - 1.0) * to_physical(grad(st.a))
                           + (1.0 / (1.0 + a_ph) - 1.0) * to_physical(
                               SpectralField(GRID, visc)))
        dv_ref = SpectralField(GRID, dv_ref.coeffs - grad(st.a).coeffs + visc)
        assert l2_norm(d.v - dv_ref) < 1e-11 * max(1.0, l2_norm(d.v))

    def test_conservative_momentum_crosscheck(self):
        # needs enough spectral headroom that the 1/(rho+n) tail is negligible
        grid = Grid(2, 64, 4.0 * np.pi)
        st = df_state(grid, DataRecipe(amplitude=0.02, rho_amplitude=0.02,
                                       seed=2, k_band=(0.4, 1.2)))
        cons = momentum_rhs_df_conservative(st, PAR)
        noncons = momentum_rhs_df_nonconservative(st, PAR)
        rel = l2_norm(cons - noncons) / max(l2_norm(cons), 1e-30)
        assert rel < 1e-8

    def test_degenerate_mixture_rejected(self):
        rho = from_physical(GRID, -0.97 * np.ones(GRID.shape))
        st = StateDF(rho, zero_scalar(GRID), zero_vector(GRID))
        with pytest.raises(DegenerateMixture):
            rhs_df(st, PAR)


class TestTNS:
    def test_frozen_density_without_flow(self, rng):
        varrho = random_field(GRID, rng)
        st = StateTNS(varrho, zero_vector(GRID))
        d = rhs_tns(st, PAR)
        assert state_norm(d) < 1e-14

    def test_taylor_green_projection_vanishes(self):
        x = GRID.coords()
        k0 = 2.0 * np.pi / GRID.length * 2
        w_ph = np.stack([
            np.sin(k0 * x[0]) * np.cos(k0 * x[1]),
            -np.cos(k0 * x[0]) * np.sin(k0 * x[1]),
        ])
        w = from_physical(GRID, w_ph)
        st = StateTNS(zero_scalar(GRID), w)
        d = rhs_tns(st, PAR, include_linear=False)
        # the cellular-vortex advection term is a pure gradient
        assert l2_norm(d.w) < 1e-12 * l2_norm(w)

    def test_energy_identity_at_rhs_level(self, rng):
        st = tns_state(GRID, DataRecipe(amplitude=0.1, seed=4, k_band=(0.4, 2.0)))
        d = rhs_tns(st, PAR)
        w_ph = to_physical(st.w)
        dw_ph = to_physical(d.w)
        dE = np.sum(w_ph * dw_ph) * GRID.cell_volume
        grad_sq = 0.0
        for i in range(GRID.dim):
            gw = to_physical(grad(SpectralField(GRID, st.w.coeffs[i])))
            grad_sq += np.sum(gw**2) * GRID.cell_volume
        assert abs(dE + PAR.mu * grad_sq) < 1e-8 * max(abs(dE), 1.0)

    def test_density_mean_conserved(self, rng):
        st = tns_state(GRID, DataRecipe(amplitude=0.1, seed=5))
        d = rhs_tns(st, PAR)
        assert abs(np.real(d.varrho.zero_mode())) < 1e-17


class TestScaledSystems:
    def test_unit_parameters_match_unscaled_df(self):
        st = df_state(GRID, DataRecipe(amplitude=0.04, seed=6, k_band=(0.4, 1.6)))
        a = rhs_df_scaled(st, 1.0, PAR)
        b = rhs_df(st, PAR)
        for k in ("rho", "a", "v"):
            assert l2_norm(a.fields()[k] - b.fields()[k]) < 1e-12

    def test_unit_parameters_match_unscaled_euler_ns(self):
        st = smooth_state(8)
        a = rhs_euler_ns_scaled(st, 1.0, PAR)
        b = rhs_euler_ns(st, PAR)
        for k in ("rho", "u", "a", "v"):
            assert l2_norm(a.fields()[k] - b.fields()[k]) < 1e-12

    def test_unit_parameters_share_gas_density_floor(self):
        st = smooth_state(8)
        for level, raises in ((N_MIN - 1e-3, True), (N_MIN + 1e-3, False)):
            a = from_physical(GRID, (level - 1.0) * np.ones(GRID.shape))
            low = StateEulerNS(st.rho, st.u, a, st.v)
            for rhs in (lambda s: rhs_euler_ns(s, PAR),
                        lambda s: rhs_euler_ns_scaled(s, 1.0, PAR)):
                if raises:
                    with pytest.raises(VacuumGas):
                        rhs(low)
                else:
                    rhs(low)

    def test_rescaling_transform_commutes_with_rhs(self):
        # (rho, n-1, v)(t, x) = eps*(scaled fields)(eps^2 t, eps x): the rhs of
        # the scaled system is eps^{-3} times the transformed unscaled rhs
        eps = 0.5
        mu_bar, lam_bar = 0.8, -0.3
        par_unscaled = PhysParams(tau=1.0, mu=mu_bar, lam=lam_bar, gamma=3.0)
        par_scaled = PhysParams(tau=1.0, eps=eps, mu=mu_bar, lam=lam_bar, gamma=3.0)
        st = df_state(GRID, DataRecipe(amplitude=0.03, rho_amplitude=0.03, seed=9,
                                       k_band=(0.6, 1.8)))
        d_unscaled = rhs_df(st, par_unscaled)

        shrunk = Grid(GRID.dim, GRID.npts, eps * GRID.length)
        scaled_state = StateDF(*[SpectralField(shrunk, f.coeffs / eps)
                                 for f in (st.rho, st.a, st.v)])
        d_scaled = rhs_df_scaled(scaled_state, eps, par_scaled)
        for k in ("rho", "a", "v"):
            want = d_unscaled.fields()[k].coeffs / eps**3
            got = d_scaled.fields()[k].coeffs
            assert np.max(np.abs(got - want)) < 1e-11 * max(np.max(np.abs(want)), 1e-12)

    def test_quiescent_gas_reduces_to_incompressible_transport(self):
        base = tns_state(GRID, DataRecipe(amplitude=0.05, seed=10, k_band=(0.4, 1.6)))
        st = StateDF(zero_scalar(GRID), zero_scalar(GRID), base.w)
        d = rhs_df_scaled(st, 0.25, PAR)
        assert l2_norm(d.a) < 1e-13  # div-free velocity produces no gas response
        dw_tns = rhs_tns(StateTNS(zero_scalar(GRID), base.w), PAR)
        sol, _ = leray_project(d.v)
        assert l2_norm(sol - dw_tns.w) < 1e-11 * max(l2_norm(dw_tns.w), 1e-12)


class TestMixedVelocity:
    def test_aligned_velocities(self):
        st = smooth_state(12)
        st = StateEulerNS(st.rho, st.v.copy(), st.a, st.v)
        V = effective_mixed_velocity(st)
        assert l2_norm(V - st.v) < 1e-12

    def test_no_dispersed_phase(self):
        st = smooth_state(14)
        st = StateEulerNS(zero_scalar(GRID), st.u, st.a, st.v)
        V = effective_mixed_velocity(st)
        assert l2_norm(V - st.v) < 1e-12

    def test_equal_densities_average(self, rng):
        a = small_field(GRID, rng, 0.05)
        a.coeffs[0, 0] = 0.0
        n_ph = 1.0 + to_physical(a)
        rho = from_physical(GRID, n_ph)
        u = small_field(GRID, rng, 0.05, ncomp=2)
        v = small_field(GRID, rng, 0.05, ncomp=2)
        st = StateEulerNS(rho, u, a, v)
        V = effective_mixed_velocity(st)
        avg = 0.5 * (u + v)
        assert l2_norm(V - avg) < 1e-11

    def test_identity_linking_v_and_mismatch(self):
        st = smooth_state(16)
        V = effective_mixed_velocity(st)
        rho_ph = to_physical(st.rho)
        mix = rho_ph + 1.0 + to_physical(st.a)
        expected = from_physical(GRID, (rho_ph / mix) * (to_physical(st.u) - to_physical(st.v)))
        assert l2_norm((V - st.v) - expected) < 1e-12


class TestValidateGuards:
    def test_nan_coefficient_fails_validate(self):
        st = euler_ns_state(Grid(2, 32, 8.0 * np.pi), DataRecipe(seed=1))
        st.v.coeffs[0, 1, 2] = np.nan
        with pytest.raises(NonFiniteField):
            st.validate()

    @pytest.mark.parametrize("name", ["rho", "a", "v"])
    def test_nan_in_any_df_field_fails_validate(self, name):
        st = df_state(GRID, DataRecipe(seed=2))
        st.fields()[name].coeffs[(0,) * st.fields()[name].coeffs.ndim] = np.inf
        with pytest.raises(NonFiniteField):
            st.validate()

    def test_nan_in_tns_field_fails_validate(self):
        st = tns_state(GRID, DataRecipe(seed=3))
        st.varrho.coeffs[1, 1] = np.nan
        with pytest.raises(NonFiniteField):
            st.validate()

    def test_floors_fail_on_nan_samples(self):
        nan = np.full(GRID.shape, np.nan)
        with pytest.raises(VacuumGas):
            _gas_density(nan, 1.0)
        with pytest.raises(DegenerateMixture):
            _mixture(nan, nan, 1.0)

    def test_validate_reads_the_mach_number(self):
        # 1 + a < 0, but 1 + eps*a = 0.85 is admissible for eps = 0.1
        a = from_physical(GRID, -1.5 * np.ones(GRID.shape))
        st = StateEulerNS(from_physical(GRID, 0.3 * np.ones(GRID.shape)), zero_vector(GRID),
                          a, zero_vector(GRID))
        with pytest.raises(VacuumGas):
            st.validate()
        assert st.validate(eps=0.1) is st
        df = StateDF(from_physical(GRID, 0.3 * np.ones(GRID.shape)), a, zero_vector(GRID))
        with pytest.raises(DegenerateMixture):
            df.validate()
        assert df.validate(eps=0.1) is df

    def test_df_validate_shares_the_rhs_mixture_floor(self):
        # mixture 1 + rho + a just above and just below MIX_FLOOR
        for level, raises in ((MIX_FLOOR - 1e-3, True), (MIX_FLOOR + 1e-3, False)):
            rho = from_physical(GRID, (level - 1.0) * np.ones(GRID.shape))
            st = StateDF(rho, zero_scalar(GRID), zero_vector(GRID))
            for check in (lambda s: s.validate(), lambda s: rhs_df(s, PAR)):
                if raises:
                    with pytest.raises(DegenerateMixture):
                        check(st)
                else:
                    check(st)


class TestPlainForms:
    """Each rhs family against its plain one-expression-per-term form in
    tests/oracles.py, and the inputs left as they were."""

    GRIDS = [Grid(2, 16, 2.0 * np.pi), Grid(2, 24, 5.0), Grid(3, 12, 3.0)]

    @settings(max_examples=30, deadline=None)
    @given(grid=strategies.sampled_from(GRIDS), seed=strategies.integers(0, 2**16),
           eps=strategies.sampled_from([1.0, 0.1]), gamma=strategies.sampled_from([3.0, 1.4]),
           linear=strategies.booleans())
    def test_rhs_equals_plain_form(self, grid, seed, eps, gamma, linear):
        par = PhysParams(tau=0.3, eps=eps, mu=0.7, lam=-0.2, gamma=gamma)
        recipe = DataRecipe(seed=seed, amplitude=0.05, rho_amplitude=0.05, k_band=(0.4, 4.0))
        cases = {
            "euler_ns": (lambda s: rhs_euler_ns_scaled(s, eps, par, linear),
                         lambda s: rhs_euler_ns_scaled_enthalpy_ref(s, eps, 0.3, par, linear)),
            "df": (lambda s: rhs_df_scaled(s, eps, par, linear),
                   lambda s: rhs_df_scaled_ref(s, eps, par, linear)),
            "tns": (lambda s: rhs_tns(s, par, linear), lambda s: rhs_tns_ref(s, par, linear)),
        }
        for system, (rhs, ref) in cases.items():
            state = initial_state(system, grid, recipe)
            before = {k: f.coeffs.tobytes() for k, f in state.fields().items()}
            got, want = rhs(state), ref(state)
            for name, w in want.fields().items():
                scale = max(float(np.max(np.abs(w.coeffs))), 1e-300)
                err = float(np.max(np.abs(got.fields()[name].coeffs - w.coeffs)))
                assert err <= 1e-13 * scale, (system, name, err / scale)
            assert {k: f.coeffs.tobytes() for k, f in state.fields().items()} == before

    @settings(max_examples=30, deadline=None)
    @given(grid=strategies.sampled_from(GRIDS), seed=strategies.integers(0, 2**16),
           eps=strategies.sampled_from([1.0, 0.1]))
    def test_enthalpy_form_is_the_coefficient_form_at_gamma_3(self, grid, seed, eps):
        # at gamma = 3 the coefficient is a itself, and the band of
        # (N-1)//3 modes makes both a grad a and a^2/2 alias-free
        par = PhysParams(tau=0.3, eps=eps, mu=0.7, lam=-0.2, gamma=3.0)
        recipe = DataRecipe(seed=seed, amplitude=0.05, rho_amplitude=0.05, k_band=(0.4, 4.0))
        state = euler_ns_state(grid, recipe)
        got = rhs_euler_ns_scaled(state, eps, par, include_linear=False).v.coeffs
        want = rhs_euler_ns_scaled_ref(state, eps, 0.3, par, include_linear=False).v.coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("gamma", [3.0, 1.4, 2.0, 4.0, 2.5])
    def test_enthalpy_excess_ratio_branches(self, gamma):
        # the series below |x| = 0.1 (everywhere when it ends), the closed
        # form from there on; both against the plain form, and q at 0
        x = np.array([0.0, 1e-9, -1e-6, 0.0999, -0.0999, 0.1, -0.1, 0.1001, 0.5, -0.85])
        got = _enthalpy_excess_ratio(x, gamma)
        np.testing.assert_allclose(got, enthalpy_excess_ratio(x, gamma), rtol=1e-14, atol=0)
        assert got[0] == 0.5 * (gamma - 2.0)
        # the two branches meet at the switch
        np.testing.assert_allclose(got[3:5], got[5:7], rtol=1e-3)
        big = x[-2:]
        closed = (((1.0 + big) ** (gamma - 1.0) - 1.0) / (gamma - 1.0) - big) / big**2
        np.testing.assert_allclose(got[-2:], closed, rtol=1e-13)

    @pytest.mark.parametrize("gamma", [3.0, 1.4, 2.0])
    def test_pressure_slope_ratio_branches(self, gamma):
        # the series below |x| = 1e-8, the quotient from there on
        x = np.array([0.0, 9.9e-9, -9.9e-9, 1e-8, -1e-8, 1.01e-8, -1.01e-8, 0.3, -0.4, np.nan])
        got = _pressure_slope_ratio(x, gamma)
        np.testing.assert_array_equal(got, pressure_slope_ratio(x, gamma))
        assert got[0] == gamma - 1.0
        assert np.isnan(got[-1])
        # the two branches meet at the switch
        assert abs(got[1] - got[5]) <= 1e-7 and abs(got[2] - got[6]) <= 1e-7
        big = x[7:9]
        np.testing.assert_allclose(got[7:9], ((1.0 + big) ** (gamma - 1.0) - 1.0) / big,
                                   rtol=1e-15)
