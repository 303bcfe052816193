"""
Tour of the spectral toolbox: grids, derivatives, the solenoidal/potential
split, and alias-free products.

Run:  python3 demos/01_spectral_toolbox.py
"""

import numpy as np

from driftflow import Grid, from_physical, to_physical, grad, div, laplacian, leray_project
from driftflow.spectral import l2_norm, multiply

grid = Grid(dim=2, npts=64, length=2.0 * np.pi)
x = grid.coords()

# A smooth test function and its exact Laplacian.
f = from_physical(grid, np.sin(3 * x[0]) * np.cos(2 * x[1]))
lf = to_physical(laplacian(f))
exact = -13.0 * np.sin(3 * x[0]) * np.cos(2 * x[1])
print("Laplacian max error:", np.max(np.abs(lf - exact)))

# Helmholtz split: gradients are purely potential, rotations purely solenoidal.
h = from_physical(grid, np.cos(x[0] + 2 * x[1]))
p, q = leray_project(grad(h))
print("solenoidal part of a gradient:", l2_norm(p))
print("divergence of the solenoidal projection is zero:",
      l2_norm(div(leray_project(grad(h))[0])))

# Energy splits exactly between the two parts.  Fields are stored on the
# 2/3-rule band only, so the transform of noise is already cut to it.
rng = np.random.default_rng(0)
w = from_physical(grid, rng.standard_normal((2,) + grid.shape))
print("stored band:", w.coeffs.shape[1:], "of the half spectrum", grid.half_shape)
p, q = leray_project(w)
print("Pythagoras residual:", l2_norm(w) ** 2 - l2_norm(p) ** 2 - l2_norm(q) ** 2)

# Products are evaluated pointwise and transformed back onto the band; a
# product of two band-limited fields keeps no energy beyond the 2/3 cutoff.
a = from_physical(grid, np.cos(20 * x[0]))
prod = multiply(a, a)  # would alias at wavenumber 40 on a 64-point grid
kmax_active = np.max(np.abs(grid.kint[0])[np.abs(prod.coeffs) > 1e-14]) if np.any(
    np.abs(prod.coeffs) > 1e-14) else 0
print("highest surviving mode of the product:", kmax_active, "(cutoff", grid.kcut, ")")
