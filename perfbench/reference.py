"""
Transforms per nonlinear rhs, a reference figure quoted in README.md:

    python3 perfbench/reference.py

evaluates one nonlinear rhs (the part an exponential step evaluates) of
every system on 2D N=64 and 3D N=48 under the benchmark's transform
wrappers.  It prints the transform calls and the scalar transforms they
amount to, each as forward / inverse; a call on a vector field is d scalar
transforms.
"""

import sys

from run import import_program

SYSTEMS = ("euler_ns", "euler_ns_scaled", "df", "df_scaled", "tns")


def main() -> int:
    import_program()
    import numpy as np

    from probe import Probe

    from driftflow.initial_data import DataRecipe, df_state, euler_ns_state, tns_state
    from driftflow.integrate import nonlinear_rhs
    from driftflow.spectral import Grid, PhysParams

    make = {"euler_ns": euler_ns_state, "euler_ns_scaled": euler_ns_state,
            "df": df_state, "df_scaled": df_state, "tns": tns_state}
    params = PhysParams(tau=0.1, eps=0.5)
    print("grid       system            calls fwd/inv   scalar transforms fwd/inv")
    for grid in (Grid(2, 64, 16.0 * np.pi), Grid(3, 48, 2.0 * np.pi)):
        for system in SYSTEMS:
            state = make[system](grid, DataRecipe(seed=1, amplitude=0.02))
            probe = Probe().install()
            probe.enable_tracing()
            try:
                nonlinear_rhs(system, state, params)
            finally:
                probe.remove()
            (fc, fp), (ic, ip) = probe.fft_by_direction["forward"], probe.fft_by_direction["inverse"]
            size = grid.npts**grid.dim
            print(f"{grid.dim}D N={grid.npts:<4d} {system:<17s} {fc:5d} / {ic:<5d}"
                  f"   {fp // size:5d} / {ip // size}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
