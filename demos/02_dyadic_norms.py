"""
Dyadic frequency decomposition and the norms built on it.

Shows the partition of unity, block localization, the summed/weak norm pair,
and a time-then-frequency norm of a decaying field.

Run:  python3 demos/02_dyadic_norms.py
"""

import numpy as np

from driftflow import Grid, SpectralField, besov_norm, dealias, family_for, from_physical
from driftflow.besov import BlockTimeSeries, block_l2_spectrum, chemin_lerner_norm
from driftflow.spectral import l2_norm

grid = Grid(dim=2, npts=64, length=16.0 * np.pi)
fam = family_for(grid)
print("block range:", fam.j_min, "..", fam.j_max)
print("partition-of-unity residual:", fam.partition_residual())

# A single Fourier mode sits in at most two neighbouring blocks, and its
# weights add to one.  Only the half spectrum is stored: the coefficient at
# k = (4, 3) also stands for its conjugate partner at -k, so this field is
# cos(k . x).
c = np.zeros(grid.spectral_shape, dtype=np.complex128)
c[4, 3] = 0.5
f = SpectralField(grid, c)
blocks = block_l2_spectrum(f)
active = {int(j): float(b) for j, b in zip(fam.j_values, blocks) if b > 1e-14}
print("mode radius:", float(grid.kmag[4, 3]), "-> active blocks:", active)
print("sum of blocks:", sum(active.values()), " plain norm:", l2_norm(f))

# Weak (r = inf, the sup over blocks) versus summed (r = 1) norms.
rng = np.random.default_rng(1)
g = dealias(from_physical(grid, rng.standard_normal(grid.shape)))
g.coeffs[0, 0] = 0.0
for s in (-0.5, 0.0, 1.0):
    print(f"s={s:+.1f}: summed {besov_norm(g, s):10.4f}"
          f"  weak {besov_norm(g, s, r=np.inf):10.4f}")

# Time-then-frequency bookkeeping: an exponentially decaying field has an
# L1-in-time norm equal to the initial norm times (1 - e^{-T}).
ts = np.linspace(0.0, 8.0, 2001)
base = block_l2_spectrum(g)
series = BlockTimeSeries(ts, fam.j_values, np.outer(base, np.exp(-ts)))
val = chemin_lerner_norm(series, rho=1.0, s=0.0)
print("L1-in-time norm:", val, " expected:",
      besov_norm(g, 0.0) * (1 - np.exp(-8.0)))
