"""Fit machinery and small-scale study smoke tests."""

import numpy as np
import pytest

from driftflow import linear, studies
from driftflow.errors import ConfigError, InsufficientSamples, NonPositiveData, WindowTooShort
from driftflow.initial_data import DataRecipe
from driftflow.integrate import CheckpointObserver, integrate
from driftflow.besov import besov_norm, chi
from driftflow.spectral import Grid, SpectralField
from driftflow.studies import (
    StudyResult,
    exp_rate_fit,
    fit_decay_exponent,
    df_limit_study,
    rate_fit,
    relaxation_study,
)

from oracles import df_limit_checkpointed


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
        with pytest.raises(NonPositiveData):  # no spread in x
            rate_fit([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("fit,xs,ys", [
        (rate_fit, [1.0, 2.0, 3.0], [1.0, np.nan, 3.0]),
        (exp_rate_fit, [0.0, 1.0, 2.0], [1.0, np.nan, 0.5]),
    ], ids=["rate", "exp"])
    def test_nan_data_rejected(self, fit, xs, ys):
        with pytest.raises(NonPositiveData):
            fit(xs, ys)

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


class TestDriftFluxLimitStudy:
    GRID = Grid(2, 16, 2.0 * np.pi)
    RECIPE = DataRecipe(seed=11, sigma1=0.0, k_band=(1.0, 4.5))
    # tau = 0.01 < dt/2 ramps: its dense layer samples fall between reference times
    RUN = dict(grid=GRID, recipe=RECIPE, T=0.5, dt=0.05, sample_dt=0.1)
    TAUS = [0.2, 0.05, 0.01]

    def test_measurements_equal_the_checkpoint_oracle(self):
        res = df_limit_study(self.TAUS, **self.RUN)
        oracle = df_limit_checkpointed(self.TAUS, **self.RUN)
        assert res.measurements == oracle
        # the study JSON writes details, the CSV the measurements
        for key in ("t_at_max_density", "t_at_max_mixed_velocity"):
            assert res.details[key] == res.measurements[key]

    def test_two_phase_runs_keep_no_checkpoints(self, monkeypatch):
        seen = []

        def spy(state0, T, scheme, params, system, observers, sample_dt):
            seen.append((system, [type(o) for o in observers]))
            return integrate(state0, T, scheme, params, system, observers, sample_dt)

        monkeypatch.setattr(studies, "integrate", spy)
        df_limit_study(self.TAUS, **self.RUN)
        assert [system for system, _ in seen] == ["df"] + ["euler_ns"] * len(self.TAUS)
        assert all(CheckpointObserver not in kinds for _, kinds in seen[1:])

    def test_unreached_reference_time_raises(self, monkeypatch):
        # two-phase runs sampled at twice the cadence miss every other reference time
        def sparse(state0, T, scheme, params, system, observers, sample_dt):
            if system == "euler_ns":
                sample_dt = 2.0 * sample_dt
            return integrate(state0, T, scheme, params, system, observers, sample_dt)

        monkeypatch.setattr(studies, "integrate", sparse)
        with pytest.raises(InsufficientSamples):
            df_limit_study(self.TAUS, **self.RUN)


def test_heat_benchmark_exponent():
    # pure solenoidal heat channel: the index-0 norm of data merely bounded
    # in the weak norm at index -d/2 decays like t^{-d/4}, here d = 2
    init = linear.RadialInit(Psi0=chi)
    ts = np.geomspace(10.0, 1000.0, 40)
    vals = [linear.continuum_linear_norms(init, 0.0, t, 2, tau=0.1)["v"] for t in ts]
    fit = fit_decay_exponent(ts, vals)
    assert abs(fit.slope - 0.5) < 0.03


def test_decay_study_runs_on_every_box_its_band_fits():
    # at L = 4.5pi the study's mismatch band (2pi/L, 0.4) has hi < lo and is
    # widened; below L = 4pi its velocity band holds no mode
    res = studies.decay_study(grid=Grid(2, 16, 4.5 * np.pi), T=10.0)
    assert np.all(np.isfinite(res.measurements["profile_distance"]))
    with pytest.raises(ConfigError, match="holds no mode"):
        studies.decay_study(grid=Grid(2, 16, 3.9 * np.pi), T=10.0)


def test_decay_profile_distance_is_the_distance_to_the_final_density():
    # rho(t) - rho(T) is exactly int_t^T div(rho u) ds, the rhs's mass flux
    grid = Grid(2, 32, 8.0 * np.pi)
    runs = []

    def kept(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(studies, "integrate", kept)
        res = studies.decay_study(grid=grid, T=10.0)
    dist = res.measurements["profile_distance"]
    assert dist[-1] == 0.0
    (traj,) = runs
    rho_T = traj.meta["final_state"].rho
    assert len(dist) == len(traj.times) == len(traj.fields["rho"])
    for d, rho in zip(dist, traj.fields["rho"]):
        assert d == besov_norm(SpectralField(grid, rho) - rho_T, s=0.0)
    # the linear tier is taken at the run's viscosities
    tier = studies.linear_decay_tier(-1.0, 1.0, d=2, tau=0.2, n_t=20, mu=0.65, lam=0.7)
    assert res.details["linear_tier"]["exponent"] == tier["exponent_state"].slope
