"""
driftflow: pseudo-spectral simulation and rate verification for drag-coupled
two-phase flows, their one-velocity drift-flux limit, and the low-Mach limit.
"""

__version__ = "0.1.0"

from .spectral import (
    Grid,
    PhysParams,
    SpectralField,
    curl,
    div,
    from_physical,
    grad,
    laplacian,
    leray_project,
    load_field,
    save_field,
    to_physical,
)
from .besov import (
    BlockTimeSeries,
    LPFamily,
    besov_norm,
    chemin_lerner_norm,
    dyadic_block,
    dyadic_sum,
    family_for,
    hybrid_norm,
)
from .linear import RadialInit, continuum_linear_norms, propagator
from .systems import (
    StateDF,
    StateEulerNS,
    StateTNS,
    SYSTEMS,
    SystemSpec,
    effective_mixed_velocity,
    relative_velocity_residual,
    rhs_df,
    rhs_df_scaled,
    rhs_euler_ns,
    rhs_euler_ns_scaled,
    rhs_tns,
)
from .integrate import (
    BlockObserver,
    CheckpointObserver,
    FieldObserver,
    ScalarObserver,
    Scheme,
    Stepper,
    Trajectory,
    integrate,
    precompute_mode_propagators,
)
from .studies import (
    RateFit,
    StudyResult,
    decay_study,
    df_limit_study,
    incompressible_study,
    rate_fit,
    relaxation_study,
)
