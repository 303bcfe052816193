"""The traced benchmark (perfbench/) wraps package functions by name; these
bindings must exist, so a renamed or deleted one fails here and not only in
``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_probe_installs_traces_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probe_module = importlib.import_module("probe")
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
