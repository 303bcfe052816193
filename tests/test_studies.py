"""Fit machinery, norm bundles, and small-scale study smoke tests."""

import numpy as np
import pytest

from driftflow.errors import NonPositiveData, WindowTooShort
from driftflow.initial_data import DataRecipe, euler_ns_state
from driftflow.integrate import BlockObserver, Scheme, integrate
from driftflow.spectral import Grid, PhysParams, l2_norm, to_physical
from driftflow.studies import (
    StudyResult,
    dissipation_bundle,
    exp_rate_fit,
    fit_decay_exponent,
    initial_energy_bundle,
    _mass_flux,
    rate_fit,
    relaxation_study,
)


class TestRateFit:
    def test_exact_square_root(self):
        x = np.array([0.2, 0.1, 0.05, 0.025])
        fit = rate_fit(x, np.sqrt(x))
        assert abs(fit.slope - 0.5) < 1e-12
        assert fit.stderr < 1e-12
        assert abs(fit.r_squared - 1.0) < 1e-12

    def test_constant_has_zero_slope(self):
        fit = rate_fit([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert fit.slope == 0.0

    def test_noisy_linear_within_error_bars(self, rng):
        x = np.geomspace(0.01, 1.0, 12)
        y = x * np.exp(0.01 * rng.standard_normal(12))
        fit = rate_fit(x, y)
        assert abs(fit.slope - 1.0) < 3.0 * max(fit.stderr, 1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(NonPositiveData):
            rate_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(NonPositiveData):
            rate_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])

    def test_exp_rate_fit(self):
        t = np.linspace(0.0, 5.0, 20)
        fit = exp_rate_fit(t, 3.0 * np.exp(-1.7 * t))
        assert abs(fit.slope - 1.7) < 1e-10

    def test_decay_exponent_window(self):
        t = np.linspace(0.0, 30.0, 200)
        vals = (1.0 + t) ** -1.25
        fit = fit_decay_exponent(t, vals, (5.0, 25.0))
        assert abs(fit.slope - 1.25) < 1e-10
        with pytest.raises(WindowTooShort):
            fit_decay_exponent(t, vals, (29.9, 30.0))


class TestBundles:
    GRID = Grid(2, 32, 8.0 * np.pi)
    PAR = PhysParams(tau=0.2, mu=1.0, lam=0.0)

    def _state(self, amp=0.05, seed=17):
        return euler_ns_state(self.GRID, DataRecipe(amplitude=amp, rho_amplitude=amp, seed=seed))

    def test_zero_state_bundle_vanishes(self):
        st = self._state()
        zero = type(st)(*[f * 0.0 for f in st.fields().values()])
        b = initial_energy_bundle(zero, self.PAR, sigma1=-1.0)
        assert b["X0"] == 0.0 and b["Y0"] == 0.0

    def test_bundle_scales_linearly(self):
        st1 = self._state()
        st2 = type(st1)(*[f * 2.0 for f in st1.fields().values()])
        b1 = initial_energy_bundle(st1, self.PAR)
        b2 = initial_energy_bundle(st2, self.PAR)
        assert abs(b2["X0"] - 2.0 * b1["X0"]) < 1e-10 * b2["X0"]

    def test_dissipation_bundle_entries(self):
        st = self._state()
        obs = [
            BlockObserver("u", lambda s: s.u),
            BlockObserver("a", lambda s: s.a),
            BlockObserver("v", lambda s: s.v),
            BlockObserver("rel", lambda s: s.u - s.v),
        ]
        traj = integrate(st, 2.0, Scheme(dt=0.05), self.PAR, "euler_ns", obs, sample_dt=0.05)
        d = dissipation_bundle(traj, self.PAR)
        assert d["D"] > 0
        assert all(np.isfinite(v) and v >= 0 for v in d.values())
        parts = (d["u_smoothing"] + d["a_low"] + d["a_high"] + d["v_smoothing"]
                 + d["rel_sqrt_tau"] + d["rel_tau"])
        assert abs(parts - d["D"]) < 1e-10 * d["D"]


class TestStudySmoke:
    def test_relaxation_small_scale(self):
        grid = Grid(2, 24, 8.0 * np.pi)
        res = relaxation_study([0.4, 0.2, 0.1], grid=grid, T=4.0, dt=0.05, sample_dt=0.1)
        assert isinstance(res, StudyResult)
        assert res.fits["sqrt_family"].slope > 0.2
        assert res.fits["tau_family"].slope > 0.5
        vals = res.measurements["sqrt_family"]
        assert vals[0] > vals[-1]  # mismatch norms shrink with the friction time

    def test_study_table_shape(self):
        grid = Grid(2, 24, 8.0 * np.pi)
        res = relaxation_study([0.4, 0.2, 0.1], grid=grid, T=2.0, dt=0.05, sample_dt=0.1)
        cols, rows = res.table()
        assert cols[0] == "tau"
        assert len(rows) == 3
        assert len(rows[0]) == len(cols)


def test_heat_benchmark_exponent():
    from driftflow.studies import heat_benchmark_exponent

    fit = heat_benchmark_exponent(d=2, sigma=0.0)
    assert abs(fit.slope - 0.5) < 0.03


def test_decay_flux_is_a_real_field():
    # the dealiased flux has empty Nyquist planes: its coefficient norm is
    # the physical quadrature of its samples
    grid = Grid(2, 32, 8.0 * np.pi)
    flux = _mass_flux(euler_ns_state(grid, DataRecipe(seed=3)))
    quad = np.sqrt(grid.cell_volume * np.sum(to_physical(flux) ** 2))
    assert abs(l2_norm(flux) - quad) < 1e-12 * quad
