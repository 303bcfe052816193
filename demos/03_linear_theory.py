"""
The exact per-mode linear theory: eigenvalues, solution operators, the
damped velocity mismatch, and two-sided algebraic decay at continuum
frequencies.

Run:  python3 demos/03_linear_theory.py
"""

import numpy as np

from driftflow import propagator
from driftflow.linear import (RadialInit, acoustic_eigenvalues, continuum_linear_norms,
                              power_law_profile)
from driftflow.studies import fit_decay_exponent

# Eigenvalue branches: a complex acoustic pair below the collision frequency
# nu*|xi| = 2c, two real branches above it, and the drag rate -1/tau twice.
for xi in (0.5, 2.0, 5.0):
    l2, l3 = acoustic_eigenvalues(xi, nu=1.0)
    kind = "complex pair" if l2.imag != 0 else "real pair"
    print(f"|xi|={xi}: acoustic eigenvalues {complex(l2):.4g}, {complex(l3):.4g} ({kind})")

# The solution operator is exact for any step; two half steps compose to one.
g3a, _ = propagator(1.3, 0.2, 1.0, 0.0, 0.4)
g3b, _ = propagator(1.3, 0.2, 1.0, 0.0, 0.8)
print("semigroup residual:", np.max(np.abs(g3a @ g3a - g3b)))

# The velocity mismatch responds with a drag-rate transient plus
# friction-time-suppressed wave terms: its coefficients on the initial data
# are the phi-row minus the psi-row of the propagator.
for t in (0.0, 0.5, 2.0):
    g3, _ = propagator(0.8, 0.1, 1.0, 0.0, t)
    k3 = g3[0] - g3[2]
    print(f"t={t}: mismatch kernel on (phi0, a0, psi0) = {np.round(k3, 6)}")

# Algebraic decay of the continuum-frequency norms: power-law data with a
# nonvanishing density profile near frequency zero decays at the rate set by
# the regularity gap; upper and lower envelopes share it.
init = RadialInit(a0=power_law_profile(0.0))
ts = np.geomspace(10.0, 1000.0, 25)
norms = [continuum_linear_norms(init, sigma=0.5, t=t, d=2, tau=0.1)["uav"] for t in ts]
fit = fit_decay_exponent(ts, norms)
print(f"fitted decay exponent: {fit.slope:.4f}  (regularity gap /2 = 0.75)")
comp = np.array(norms) * (1 + ts) ** 0.75
print(f"upper/lower envelope ratio over the window: {comp.max() / comp.min():.3f}")
