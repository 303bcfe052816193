"""The public names of the ``driftflow`` package, the parameters of each
public callable and of the studies, pinned: adding or removing one is a
deliberate change, listed in CHANGES.md together with an edit here."""

import inspect
import types

import driftflow
from driftflow import studies

PUBLIC_NAMES = [
    "BlockObserver", "BlockTimeSeries", "CheckpointObserver", "FieldObserver",
    "Grid", "LPFamily", "PhysParams", "RadialInit", "RateFit", "SYSTEMS", "ScalarObserver",
    "Scheme", "SpectralField", "StateDF", "StateEulerNS", "StateTNS", "Stepper",
    "StudyResult", "SystemSpec", "Trajectory", "besov_norm", "chemin_lerner_norm",
    "continuum_linear_norms", "curl", "decay_study", "df_limit_study", "div",
    "dyadic_block", "dyadic_sum", "effective_mixed_velocity", "family_for",
    "from_physical", "grad", "hybrid_norm", "incompressible_study", "integrate", "laplacian",
    "leray_project", "load_field", "precompute_mode_propagators", "propagator", "rate_fit",
    "relative_velocity_residual", "relaxation_study", "rhs_df",
    "rhs_df_scaled", "rhs_euler_ns", "rhs_euler_ns_scaled", "rhs_tns", "save_field",
    "to_physical",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # else has been imported
    names = sorted(name for name, val in vars(driftflow).items()
                   if not name.startswith("_") and not isinstance(val, types.ModuleType))
    assert names == PUBLIC_NAMES


STUDY_PARAMETERS = {
    "relaxation_study": ["tau_list", "grid", "recipe", "T", "dt", "sample_dt"],
    "df_limit_study": ["tau_list", "grid", "recipe", "T", "dt", "sample_dt"],
    "decay_study": ["sigma1", "grid", "recipe", "T", "dt"],
    "incompressible_study": ["eps_list", "system", "grid", "recipe", "T", "dt_cap"],
    "linear_decay_tier": ["sigma1", "sigma", "d", "tau", "n_t", "mu", "lam"],
}


def test_study_parameters_are_pinned():
    for name, expected in STUDY_PARAMETERS.items():
        assert list(inspect.signature(getattr(studies, name)).parameters) == expected, name


PUBLIC_PARAMETERS = {
    "BlockObserver": ["name", "selector", "p"],
    "BlockTimeSeries": ["times", "j_values", "values"],
    "CheckpointObserver": ["name"],
    "FieldObserver": ["name", "selector"],
    "Grid": ["dim", "npts", "length"],
    "LPFamily": ["grid"],
    "PhysParams": ["tau", "eps", "mu", "lam", "gamma"],
    "RadialInit": ["a0", "psi0", "Psi0", "phi0", "Phi0"],
    "RateFit": ["slope", "intercept", "stderr", "r_squared", "points"],
    "ScalarObserver": ["name", "fn"],
    "Scheme": ["dt"],
    "SpectralField": ["grid", "coeffs"],
    "StateDF": ["rho", "a", "v"],
    "StateEulerNS": ["rho", "u", "a", "v"],
    "StateTNS": ["varrho", "w"],
    "Stepper": ["system", "grid", "params", "dt"],
    "StudyResult": ["name", "parameter_name", "parameters", "measurements", "fits", "flags",
                    "details"],
    "SystemSpec": ["state_cls", "rhs", "kappa", "c", "mach"],
    "Trajectory": ["times", "scalars", "blocks", "fields", "checkpoints", "meta"],
    "besov_norm": ["f", "s", "p", "r"],
    "chemin_lerner_norm": ["series", "rho", "s"],
    "continuum_linear_norms": ["init", "sigma", "t", "d", "tau", "mu", "lam"],
    "curl": ["f"],
    "decay_study": ["sigma1", "grid", "recipe", "T", "dt"],
    "df_limit_study": ["tau_list", "grid", "recipe", "T", "dt", "sample_dt"],
    "div": ["f"],
    "dyadic_block": ["f", "j"],
    "dyadic_sum": ["b", "js", "s", "r"],
    "effective_mixed_velocity": ["state"],
    "family_for": ["grid"],
    "from_physical": ["grid", "values"],
    "grad": ["f"],
    "hybrid_norm": ["f", "s", "s_prime"],
    "incompressible_study": ["eps_list", "system", "grid", "recipe", "T", "dt_cap"],
    "integrate": ["state0", "T", "scheme", "params", "system", "observers", "sample_dt"],
    "laplacian": ["f"],
    "leray_project": ["f"],
    "load_field": ["path"],
    "precompute_mode_propagators": ["grid", "params", "dt", "system"],
    "propagator": ["xi", "tau", "mu", "lam", "t"],
    "rate_fit": ["xs", "ys"],
    "relative_velocity_residual": ["state", "params"],
    "relaxation_study": ["tau_list", "grid", "recipe", "T", "dt", "sample_dt"],
    "rhs_df": ["state", "params", "include_linear"],
    "rhs_df_scaled": ["state", "eps", "params", "include_linear"],
    "rhs_euler_ns": ["state", "params", "include_linear"],
    "rhs_euler_ns_scaled": ["state", "eps", "params", "include_linear"],
    "rhs_tns": ["state", "params", "include_linear"],
    "save_field": ["path", "f"],
    "to_physical": ["f"],
}


def test_public_parameters_are_pinned():
    callables = {name: val for name, val in vars(driftflow).items()
                 if name in PUBLIC_NAMES and callable(val)}
    assert sorted(callables) == sorted(PUBLIC_PARAMETERS)
    for name, fn in callables.items():
        assert list(inspect.signature(fn).parameters) == PUBLIC_PARAMETERS[name], name
