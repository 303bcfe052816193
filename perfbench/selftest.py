"""
Shows that each correctness check of the benchmark can fail: every check
is run once on a good input, where it must pass, and once on a broken one,
where it must fail.

    python3 perfbench/selftest.py

Broken inputs: a state with one NaN coefficient in v (run through
``integrate``), a moved zero mode, a perturbed block norm (p=4 and p=2), a
slope outside its band, a reported slope that the data do not give, a
non-monotone sweep and a perturbed propagator entry.  Exits 1 if any check
does not behave.  Runs in a few seconds on a 2D N=32 grid.
"""

import dataclasses
import sys

import numpy as np

from run import import_program


def main() -> int:
    import_program()
    import checks
    from probe import Probe

    from driftflow import studies
    from driftflow.besov import block_l2_spectrum, block_lp_spectrum, family_for
    from driftflow.initial_data import DataRecipe, euler_ns_state
    from driftflow.integrate import Scheme
    from driftflow.spectral import Grid, PhysParams, to_physical

    grid = Grid(2, 32, 8.0 * np.pi)
    params = PhysParams(tau=0.1)
    good = euler_ns_state(grid, DataRecipe(seed=1))
    bad = good.copy()
    bad.v.coeffs[0, 1, 2] = np.nan

    probe = Probe(keep_fields_of=0, keep_names=("a",)).install()
    try:
        for state in (good, bad):    # through the binding the studies use
            studies.integrate(state, 10 * 0.05, Scheme(dt=0.05), params, "euler_ns")
    finally:
        probe.remove()
    rec_good, rec_bad = probe.trajectories
    moved = dataclasses.replace(rec_good, scalar_zero_modes={
        k: (z0, z1 + 1e-8) for k, (z0, z1) in rec_good.scalar_zero_modes.items()})

    js = family_for(grid).j_values
    a = good.a
    p4 = block_lp_spectrum(a, 4.0)
    p2 = block_l2_spectrum(a)
    p4_want = checks.block_norms_numpy(to_physical(a), 2, grid.length, js, 4.0)
    p2_want = checks.block_norms_numpy(to_physical(a), 2, grid.length, js, 2.0)
    k = int(np.argmax(p4))

    def bumped(x):
        y = x.copy()
        y[k] *= 1.0 + 1e-6
        return y

    taus = [0.2, 0.1, 0.05]
    table = probe.tables[0]
    broken_table = dataclasses.replace(
        table, entries={**table.entries, "g12": table.entries["g12"] + 1e-8})

    cases = [
        ("finite and conserved", checks.check_trajectory(rec_good),
         checks.check_trajectory(rec_bad)),
        ("zero modes conserved", checks.check_trajectory(rec_good),
         checks.check_trajectory(moved)),
        ("p=4 block norms vs numpy.fft", checks.check_block_norms("p4", p4, p4_want),
         checks.check_block_norms("p4", bumped(p4), p4_want)),
        ("p=2 block norms vs quadrature", checks.check_block_norms("p2", p2, p2_want),
         checks.check_block_norms("p2", bumped(p2), p2_want)),
        ("slope inside band", checks.check_slope("s", taus, [t**0.55 for t in taus], 0.55,
                                                 (0.40, 0.70)),
         checks.check_slope("s", taus, [t**0.75 for t in taus], 0.75, (0.40, 0.70))),
        ("reported slope matches data",
         checks.check_slope("s", taus, [t**0.55 for t in taus], 0.55, (0.40, 0.70)),
         checks.check_slope("s", taus, [t**0.55 for t in taus], 0.60, (0.40, 0.70))),
        ("monotone sweep", checks.check_decreasing("e", [3.0, 2.0, 1.0]),
         checks.check_decreasing("e", [3.0, 1.0, 2.0])),
        ("propagator entries vs expm", checks.check_table(table),
         checks.check_table(broken_table)),
    ]
    ok = True
    for name, on_good, on_bad in cases:
        behaves = not on_good and bool(on_bad)
        ok &= behaves
        print(f"[{'ok' if behaves else 'BROKEN'}] {name}: good input -> "
              f"{on_good or 'pass'}; broken input -> {on_bad or 'pass'}")
    nan_final = [key for key, fin in rec_bad.finite.items() if key.startswith("final") and not fin]
    print(f"note: integrate returned normally from NaN data; non-finite final fields: {nan_final}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
