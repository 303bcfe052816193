"""The public names of the ``driftflow`` package and the parameters of its
studies, pinned: adding or removing one is a deliberate change, listed in
CHANGES.md together with an edit here."""

import inspect
import types

import driftflow
from driftflow import studies

PUBLIC_NAMES = [
    "BlockObserver", "BlockTimeSeries", "CheckpointObserver", "EigenSet", "FieldObserver",
    "Grid", "LPFamily", "PhysParams", "RadialInit", "RateFit", "SYSTEMS", "ScalarObserver",
    "Scheme", "SpectralField", "StateDF", "StateEulerNS", "StateTNS", "Stepper",
    "StudyResult", "SystemSpec", "Trajectory", "besov_norm", "chemin_lerner_norm",
    "continuum_linear_norms", "curl", "dealias", "decay_study", "df_limit_study", "div",
    "dyadic_block", "dyadic_sum", "effective_mixed_velocity", "eigenvalues", "family_for",
    "from_physical", "grad", "hybrid_norm", "incompressible_study", "integrate", "laplacian",
    "leray_project", "load_field", "precompute_mode_propagators", "propagator", "rate_fit",
    "relative_velocity_kernel", "relative_velocity_residual", "relaxation_study", "rhs_df",
    "rhs_df_scaled", "rhs_euler_ns", "rhs_euler_ns_scaled", "rhs_tns", "save_field",
    "split_low_high", "to_physical",
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
    "linear_decay_tier": ["sigma1", "sigmas", "d", "tau", "n_t"],
}


def test_study_parameters_are_pinned():
    for name, expected in STUDY_PARAMETERS.items():
        assert list(inspect.signature(getattr(studies, name)).parameters) == expected, name
