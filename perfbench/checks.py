"""
Correctness checks for the benchmark's sweeps.  Each returns a list of
failure messages (empty when the check passes) and takes plain data, so
``selftest.py`` can feed it broken inputs.

Every check takes an independent path to the quantity it checks: slopes are
refitted with ``numpy.polyfit``, block norms are recomputed with
``numpy.fft`` and by physical-space quadrature, propagator entries are
rebuilt with ``scipy.linalg.expm``.  NaN never passes: comparisons are
written so that a NaN operand fails them.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

CONSERVATION_TOL = 1e-10   # zero modes of the transported scalars
BLOCK_RTOL = 1e-9          # block norms, relative to the largest block
TABLE_ATOL = 1e-10         # propagator entries (all of size <= 1)
SLOPE_AGREE = 1e-9         # refitted slope against the study's own fit


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) on log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def check_band(name: str, value: float, lo: float, hi: float) -> list[str]:
    if lo <= value <= hi:
        return []
    return [f"{name} = {value:.6g} outside [{lo}, {hi}]"]


def check_slope(name: str, xs, ys, reported: float, band: tuple[float, float]) -> list[str]:
    """Refit the slope of a sweep's measurements; it must agree with the
    study's reported fit and fall inside the acceptance band."""
    slope = loglog_slope(xs, ys)
    out = check_band(f"{name} slope", slope, *band)
    if not abs(slope - reported) <= SLOPE_AGREE:
        out.append(f"{name}: refitted slope {slope:.12g} != reported {reported:.12g}")
    return out


def check_decreasing(name: str, values, atol: float = 0.0) -> list[str]:
    """values[i+1] <= values[i] + atol for every i."""
    v = np.asarray(values, float)
    if np.all(v[1:] <= v[:-1] + atol):
        return []
    return [f"{name} not monotone: {v.tolist()}"]


def check_trajectory(rec, label: str = "") -> list[str]:
    """Every field finite at both ends; zero modes of the transported scalars
    unchanged, read from the initial and final coefficients."""
    out = [f"{label}{k} has non-finite coefficients ({rec.system})"
           for k, ok in rec.finite.items() if not ok]
    for name, (z0, z1) in rec.scalar_zero_modes.items():
        drift = abs(z1 - z0)
        if not drift <= CONSERVATION_TOL * max(1.0, abs(z0)):
            out.append(f"{label}zero mode of {name} moved by {drift:.3g} ({rec.system})")
    return out


def block_norms_numpy(samples: np.ndarray, dim: int, length: float, j_values,
                      p: float) -> np.ndarray:
    """Block Lp norms of a field given by its physical samples on the periodic
    box [0, length)^dim (a vector field has its components first).  The blocks
    are cut with numpy.fft on numpy's own wavenumber lattice, and the norms
    taken by rectangle-rule quadrature, so neither the program's transforms
    nor its coefficient layout are used.  For p = 2 this is the
    physical-space counterpart of the program's Parseval sum."""
    from driftflow.besov import phi

    n = samples.shape[-1]
    axes = tuple(range(-dim, 0))
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    kmag = np.sqrt(sum(k**2 for k in np.meshgrid(*([k1] * dim), indexing="ij")))
    spectrum = np.fft.fftn(samples, axes=axes)
    cell = (length / n) ** dim
    out = []
    for j in j_values:
        v = np.fft.ifftn(spectrum * phi(kmag / 2.0**j), axes=axes).real
        mag = np.sqrt(np.sum(v**2, axis=0)) if samples.ndim > dim else np.abs(v)
        out.append((cell * np.sum(mag**p)) ** (1.0 / p))
    return np.array(out)


def check_block_norms(name: str, got, want) -> list[str]:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: {got.shape[0]} blocks recorded, {want.shape[0]} expected"]
    err = np.abs(got - want)
    scale = float(np.max(want))
    if np.all(err <= BLOCK_RTOL * scale) and scale > 0:
        return []
    return [f"{name}: block norms differ by {float(np.max(err)):.3g} (largest block {scale:.3g})"]


def _symbol(system: str, params):
    """(kappa, c) of the linear generator: drag rate and sound speed."""
    scaled = system.endswith("_scaled")
    c = 1.0 / params.eps if scaled else 1.0
    if system == "euler_ns":
        return 1.0 / params.tau, c
    if system == "euler_ns_scaled":
        return 1.0 / (params.eps * params.tau), c
    return 0.0, c


def expected_table_entries(system: str, params, dt: float, xi: float) -> dict:
    """Table entries at one mode from the dense exponentials of the generators
    in ``driftflow.linear`` (the table stores the potential couplings with
    their factors of i)."""
    from driftflow.linear import compressible_matrix, incompressible_matrix

    kappa, c = _symbol(system, params)
    g = expm(compressible_matrix(xi, kappa, params.nu, c) * dt)
    h = expm(incompressible_matrix(xi, kappa, params.mu) * dt)
    if system == "tns":
        return {"p11": h[1, 1]}
    out = {"g11": g[1, 1], "g12": 1j * g[1, 2], "g21": -1j * g[2, 1], "g22": g[2, 2],
           "p11": h[1, 1]}
    if kappa > 0:
        out.update({"g00": g[0, 0], "g01": -1j * g[0, 1], "g02": g[0, 2],
                    "p00": h[0, 0], "p01": h[0, 1]})
    return out


def check_table(rec) -> list[str]:
    out = []
    for i, xi in enumerate(rec.xi):
        want = expected_table_entries(rec.system, rec.params, rec.dt, float(xi))
        if set(want) != set(rec.entries):
            return [f"{rec.system} table holds {sorted(rec.entries)}, expected {sorted(want)}"]
        for key, w in want.items():
            err = abs(rec.entries[key][i] - w)
            if not err <= TABLE_ATOL:
                out.append(f"{rec.system} table {key} at |xi| = {xi:.4g}: off by {err:.3g}")
    return out
