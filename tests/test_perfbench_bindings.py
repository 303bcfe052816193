"""The traced benchmark (perfbench/) wraps package functions by name; these
bindings must exist and be the ones the hot loops call, so a renamed or
deleted one, or a path that goes round a traced name, fails here and not
only in ``perfbench/run.py --trace 1``."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from driftflow.besov import chi
from driftflow.initial_data import DataRecipe, initial_state
from driftflow.spectral import Grid, PhysParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def probe_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("probe")


def test_probe_installs_traces_and_restores(probe_module):
    # importlib, because the package attribute ``driftflow.integrate`` is the
    # function of that name, not the module
    integ = importlib.import_module("driftflow.integrate")
    originals = {name: getattr(integ, name)
                 for name in ("integrate", "apply_propagator", "apply_resolvent")}
    step = integ.Stepper.step

    probe = probe_module.Probe()
    try:
        probe.install()
        probe.enable_tracing()
        assert integ.apply_propagator is not originals["apply_propagator"]
    finally:
        probe.remove()
    assert all(getattr(integ, name) is fn for name, fn in originals.items())
    assert integ.Stepper.step is step


def test_hot_loops_call_the_traced_names(probe_module):
    # one step of each rhs family and one continuum quadrature, traced: each
    # layer the benchmark times must see calls
    integ = importlib.import_module("driftflow.integrate")
    linear = importlib.import_module("driftflow.linear")
    grid = Grid(2, 16, 2.0 * np.pi)
    par = PhysParams(tau=0.2, mu=0.7, lam=0.1)
    probe = probe_module.Probe()
    try:
        probe.enable_tracing()
        for system in ("euler_ns", "df", "tns"):
            state = initial_state(system, grid, DataRecipe(seed=1, amplitude=0.04))
            integ.Stepper(system, grid, par, 0.05).step(state)
        init = linear.RadialInit(a0=chi)
        linear.continuum_block_l2(init, 1.0, 2, 0.2, 1.0, -1.0, np.arange(-3, 1))
    finally:
        probe.remove()
    for key in ("integrate.propagator_apply", "systems.rhs", "linear.green",
                "linear.continuum"):
        assert probe.calls(key) > 0, key
    assert probe.calls("integrate.propagator_apply") == 3 * 3
    assert probe.calls("systems.rhs") == 3 * 2


@pytest.mark.parametrize("system", ["euler_ns", "df", "tns"])
def test_table_and_mask_share_the_lattice_of_kmag(system):
    # the probe samples table entries and |xi| by one flat index into
    # grid.kmag, filtered by grid.dealias_keep; all of them must be one shape
    integ = importlib.import_module("driftflow.integrate")
    grid = Grid(3, 16, 2.0 * np.pi)
    tab = integ.precompute_mode_propagators(grid, PhysParams(tau=0.2), 0.05, system)
    arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert grid.dealias_keep.shape == grid.kmag.shape
    assert all(a.shape == grid.kmag.shape for a in arrays)


def _driftflow_imports():
    """(file, module, name) of each ``from driftflow... import name`` in the
    benchmark's scripts, at any depth, and (file, module, None) of each
    ``import driftflow...``."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "driftflow":
                out += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "driftflow"]
    return out


def _resolves(module, name) -> bool:
    """Whether ``from module import name`` finds an attribute or a submodule."""
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_resolve():
    imports = _driftflow_imports()
    assert {f for f, _, _ in imports} >= {"checks.py", "reference.py", "run.py", "selftest.py",
                                          "workloads.py"}
    assert [imp for imp in imports if not _resolves(imp[1], imp[2])] == []
