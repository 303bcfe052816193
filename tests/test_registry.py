"""The system table: every registered variant runs through every layer."""

from dataclasses import replace

import numpy as np
import pytest

from driftflow.cli import build_parser
from driftflow.config import RunConfig
from driftflow.initial_data import DataRecipe, initial_state
from driftflow.integrate import Stepper
from driftflow.spectral import Grid, PhysParams
from driftflow.systems import SYSTEMS

GRID = Grid(2, 16, 4.0 * np.pi)
PAR = PhysParams(tau=0.2, eps=0.5, mu=0.5, lam=0.0)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_cli_and_config_accept(name):
    args = build_parser().parse_args(["simulate", "--system", name])
    assert args.system == name
    RunConfig(system=name).validate()


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_steps_conserve_transported_scalars(name):
    state0 = initial_state(name, GRID, DataRecipe(seed=3, amplitude=0.04, k_band=(0.5, 1.5)))
    assert isinstance(state0, SYSTEMS[name].state_cls)
    stepper = Stepper(name, GRID, PAR, 0.05)
    state = state0
    for _ in range(2):
        state = stepper.step(state)
    for key, f0 in state0.fields().items():
        f1 = state.fields()[key]
        assert np.all(np.isfinite(f1.coeffs))
        if not f0.is_vector:
            z0, z1 = f0.zero_mode(), f1.zero_mode()
            assert abs(z1 - z0) <= 1e-13 * max(1.0, abs(z0))


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_reads_names_the_parameters_a_step_depends_on(name):
    # a step changes with each parameter the entry reads and with no other
    state0 = initial_state(name, GRID, DataRecipe(seed=3, amplitude=0.04, k_band=(0.5, 1.5)))
    coeffs = lambda s: [f.coeffs.tobytes() for f in s.fields().values()]
    base = coeffs(Stepper(name, GRID, PAR, 0.05).step(state0))
    changed = {"tau": 0.3, "eps": 0.7, "mu": 0.6, "lam": 0.1, "gamma": 2.0}
    moved = {key for key, value in changed.items()
             if coeffs(Stepper(name, GRID, replace(PAR, **{key: value}), 0.05).step(state0)) != base}
    assert moved == SYSTEMS[name].reads
