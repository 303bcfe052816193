"""
Desk-scale acceptance battery.

Each test runs one criterion at its pinned tolerances and prints a one-line
verdict.  The slow sweeps (relaxation, drift-flux limit, decay window,
low-Mach) dominate the suite runtime.  Every test here carries the
``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the fast tier.
"""

import pytest

from driftflow import acceptance

pytestmark = pytest.mark.acceptance


def _run(fn):
    res = fn()
    print()
    print(res.line())
    for key, val in res.details.items():
        print(f"    {key}: {val}")
    assert res.passed, f"{res.name} failed: {res.details}"
    return res


def test_linear_oracle_equivalence():
    _run(acceptance.criterion_linear_oracle)


def test_frequency_localized_kernel_shapes():
    _run(acceptance.criterion_frequency_shapes)


def test_two_sided_algebraic_decay():
    _run(acceptance.criterion_decay_sandwich)


def test_relaxation_rate_sweep():
    _run(acceptance.criterion_relaxation_rates)


def test_drift_flux_limit_error():
    _run(acceptance.criterion_df_limit)


def test_nonlinear_decay_window():
    _run(acceptance.criterion_nonlinear_decay)


def test_low_mach_rate_sweep():
    _run(acceptance.criterion_incompressible)


def test_conservation_and_structure():
    _run(acceptance.criterion_conservation)


def test_temporal_self_convergence():
    _run(acceptance.criterion_self_convergence)
