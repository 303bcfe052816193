"""
Exact linear theory of the drag-coupled two-phase system, per frequency.

After a Hodge split of both velocities, the linearized dynamics at a mode of
magnitude xi decouple into

  * a 3x3 compressible block acting on (phi, a, psi), where phi and psi are
    the potential parts of the two velocities and a the gas density
    perturbation:

        d/dt (phi, a, psi) = A (phi, a, psi),
        A = [[-kappa, 0,      kappa   ],
             [ 0,     0,     -c*xi    ],
             [ 0,     c*xi,  -nu*xi^2 ]]

  * a 2x2 incompressible block on the solenoidal parts (Phi, Psi):

        B = [[-kappa, kappa], [0, -mu*xi^2]]

with drag rate kappa (1/tau unscaled, 1/(eps*tau) scaled), acoustic speed c
(1 unscaled, 1/eps scaled), and effective viscosities nu = 2*mu + lam on the
potential part, mu on the solenoidal part.

The solution operators are assembled in closed form from the eigenvalues

    lambda_1 = lambda_4 = -kappa,
    lambda_{2,3} = (-nu*xi^2 +- sqrt(nu^2*xi^4 - 4*c^2*xi^2)) / 2,
    lambda_5 = -mu*xi^2,

using cancellation-free phi1-type differences, with a dense matrix
exponential fallback near the eigenvalue-collision and drag-resonance
surfaces where the printed formulas have removable singularities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from scipy.linalg import expm
from scipy.special import roots_legendre

from .besov import block_j_range, chi, dyadic_sum, phi as lp_phi
from .errors import QuadratureNotConverged

_DEG_RELGAP = 1e-6      # closed form requires |lambda2-lambda3| > 1e-6 * xi^2
_DEG_RESONANCE = 1e-6   # ... and |1 + lambda/kappa| > 1e-6

# the continuum norms integrate over radii R_LO <= |xi| <= R_HI, each block
# to a relative tolerance QUAD_RTOL
R_LO, R_HI = 1e-4, 64.0
QUAD_RTOL = 1e-6


# ---------------------------------------------------------------------------
# scalar kernels, vectorized and cancellation-free


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, complex-safe, series near 0."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs = z[small]
    acc = np.zeros_like(zs)
    # sum_{n>=0} z^n/(n+1)!  evaluated by Horner
    for n in range(18, 0, -1):
        acc = (acc + 1.0) * zs / (n + 1)
    out[small] = acc + 1.0
    zl = z[~small]
    out[~small] = (np.exp(zl) - 1.0) / zl
    return out


def _exp_diff(l2: np.ndarray, l3: np.ndarray | float, t: float) -> np.ndarray:
    """(exp(l2*t) - exp(l3*t)) / (l2 - l3), stable as l2 -> l3.  ``l3`` keeps
    its dtype, so a real one (the drag rate -kappa) takes the real exponential."""
    l2 = np.asarray(l2, dtype=np.complex128)
    l3 = np.broadcast_to(l3, l2.shape)
    z = (l2 - l3) * t
    out = np.empty_like(l2)
    small = np.abs(z) < 0.5
    out[small] = t * np.exp(l3[small] * t) * _phi1(z[small])
    big = ~small
    out[big] = (np.exp(l2[big] * t) - np.exp(l3[big] * t)) / (l2[big] - l3[big])
    return out


def acoustic_eigenvalues(xi, nu: float, c: float = 1.0):
    """Roots of z^2 + nu*xi^2 z + c^2 xi^2 (the 2x2 acoustic sub-block)."""
    xi = np.asarray(xi, dtype=np.float64)
    disc = (nu * xi**2) ** 2 - 4.0 * (c * xi) ** 2
    root = np.sqrt(disc.astype(np.complex128))
    l2 = 0.5 * (-nu * xi**2 + root)
    l3 = 0.5 * (-nu * xi**2 - root)
    return l2, l3


def compressible_matrix(xi, kappa: float, nu: float, c: float = 1.0) -> np.ndarray:
    """The 3x3 generator acting on (phi, a, psi)."""
    return np.array(
        [
            [-kappa, 0.0, kappa],
            [0.0, 0.0, -c * xi],
            [0.0, c * xi, -nu * xi**2],
        ]
    )


def incompressible_matrix(xi, kappa: float, mu: float) -> np.ndarray:
    """The 2x2 generator acting on (Phi, Psi)."""
    return np.array([[-kappa, kappa], [0.0, -mu * xi**2]])


# ---------------------------------------------------------------------------
# Green's function entries, vectorized over xi


def _acoustic_entries(xi: np.ndarray, l2: np.ndarray, l3: np.ndarray, c: float,
                      t: float) -> dict[str, np.ndarray]:
    """The entries of ``green_acoustic`` from the acoustic eigenvalues l2, l3."""
    d = _exp_diff(l2, l3, t)                       # (e^{l2 t}-e^{l3 t})/(l2-l3)
    e3 = np.exp(l3 * t)
    return {"aa": e3 - l3 * d, "av": -c * xi * d, "va": c * xi * d, "vv": e3 + l2 * d}


def green_acoustic(xi, nu: float, c: float, t: float) -> dict[str, np.ndarray]:
    """Entries of the exponential of the 2x2 acoustic block on (a, psi):
    keys aa, av, va, vv, as arrays over xi."""
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    return _acoustic_entries(xi, *acoustic_eigenvalues(xi, nu, c), c, t)


def green_compressible(xi, kappa: float, nu: float, c: float, t: float) -> dict[str, np.ndarray]:
    """
    Entries of exp(t*A) on (phi, a, psi), as arrays over xi.

    Keys: uu, ua, uv (phi row), aa, av, va, vv.  Modes failing the degeneracy
    guards are recomputed with a dense matrix exponential.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    l2, l3 = acoustic_eigenvalues(xi, nu, c)
    out = _acoustic_entries(xi, l2, l3, c, t)
    ekt = np.exp(-kappa * t)

    p2 = _exp_diff(l2, -kappa, t)                  # (e^{l2 t}-e^{-k t})/(k+l2)
    p3 = _exp_diff(l3, -kappa, t)
    gap = l2 - l3
    guard = np.abs(gap) > _DEG_RELGAP * np.maximum(xi**2, 1e-300)
    guard &= np.abs(1.0 + l2 / kappa) > _DEG_RESONANCE
    guard &= np.abs(1.0 + l3 / kappa) > _DEG_RESONANCE
    safe_gap = np.where(guard, gap, 1.0)
    ua = c * xi * kappa * (p2 - p3) / safe_gap
    uv = kappa * (l2 * p2 - l3 * p3) / safe_gap
    uu = np.full_like(ua, ekt)

    if not np.all(guard):
        bad = np.nonzero(~guard)[0]
        for i in bad:
            g = expm(compressible_matrix(xi[i], kappa, nu, c) * t)
            uu[i], ua[i], uv[i] = g[0, 0], g[0, 1], g[0, 2]
            out["aa"][i], out["av"][i] = g[1, 1], g[1, 2]
            out["va"][i], out["vv"][i] = g[2, 1], g[2, 2]

    out.update(uu=uu, ua=ua, uv=uv)
    return out


def green_incompressible(xi, kappa: float, mu: float, t: float) -> dict[str, np.ndarray]:
    """Entries of exp(t*B) on (Phi, Psi): keys uu, uv, vv."""
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    l5 = -mu * xi**2
    uv = kappa * _exp_diff(l5, -kappa, t)
    return {
        "uu": np.full(xi.shape, np.exp(-kappa * t), dtype=np.complex128),
        "uv": uv,
        "vv": np.exp(l5 * t).astype(np.complex128),
    }


def propagator(xi: float, tau: float, mu: float, lam: float, t: float):
    """
    Exact solution operators (3x3 on (phi,a,psi), 2x2 on (Phi,Psi)) at time t
    for the unscaled system (kappa = 1/tau, c = 1).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    kappa = 1.0 / tau
    nu = 2.0 * mu + lam
    gc = green_compressible(np.array([xi]), kappa, nu, 1.0, t)
    gi = green_incompressible(np.array([xi]), kappa, mu, t)
    g3 = np.array(
        [
            [gc["uu"][0], gc["ua"][0], gc["uv"][0]],
            [0.0, gc["aa"][0], gc["av"][0]],
            [0.0, gc["va"][0], gc["vv"][0]],
        ]
    )
    g2 = np.array([[gi["uu"][0], gi["uv"][0]], [0.0, gi["vv"][0]]])
    return g3.real.astype(np.float64), g2.real.astype(np.float64)


# ---------------------------------------------------------------------------
# continuum-frequency norms of the linear evolution


@dataclass
class RadialInit:
    """
    Radial initial spectral profiles for the linear problem: the density
    perturbation a0, the potential/solenoidal parts (phi0, psi0) and
    (Phi0, Psi0) of the two velocities.  Each entry maps |xi| -> amplitude.
    """

    a0: Callable = dc_field(default=lambda r: np.zeros_like(r))
    psi0: Callable = dc_field(default=lambda r: np.zeros_like(r))
    Psi0: Callable = dc_field(default=lambda r: np.zeros_like(r))
    phi0: Callable = dc_field(default=lambda r: np.zeros_like(r))
    Phi0: Callable = dc_field(default=lambda r: np.zeros_like(r))


@functools.cache
def _gauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return roots_legendre(n)


def continuum_block_l2(
    init: RadialInit,
    t: float,
    d: int,
    tau: float,
    mu: float,
    lam: float,
    js: np.ndarray,
) -> dict[str, np.ndarray]:
    """
    Per-block L2 norms over continuous frequency of the linear solution at
    time t, for the components u, a, v and the relative velocity u - v.

    Each dyadic annulus, clipped to [R_LO, R_HI], is integrated with
    Gauss-Legendre nodes, doubled until the result is stable to QUAD_RTOL
    (QuadratureNotConverged otherwise).
    At each level one integrand call covers the nodes of every annulus that
    has not yet converged.
    """
    kappa = 1.0 / tau
    nu = 2.0 * mu + lam
    area = 2.0 * np.pi if d == 2 else 4.0 * np.pi  # of the unit sphere in R^d
    pref = area / (2.0 * np.pi) ** d

    def integrand(r):
        gc = green_compressible(r, kappa, nu, 1.0, t)
        gi = green_incompressible(r, kappa, mu, t)
        a0, psi0, Psi0 = init.a0(r), init.psi0(r), init.Psi0(r)
        phi0, Phi0 = init.phi0(r), init.Phi0(r)
        phi_t = gc["uu"] * phi0 + gc["ua"] * a0 + gc["uv"] * psi0
        a_t = gc["aa"] * a0 + gc["av"] * psi0
        psi_t = gc["va"] * a0 + gc["vv"] * psi0
        Phi_t = gi["uu"] * Phi0 + gi["uv"] * Psi0
        Psi_t = gi["vv"] * Psi0
        u2 = np.abs(phi_t) ** 2 + np.abs(Phi_t) ** 2
        a2 = np.abs(a_t) ** 2
        v2 = np.abs(psi_t) ** 2 + np.abs(Psi_t) ** 2
        rel2 = np.abs(phi_t - psi_t) ** 2 + np.abs(Phi_t - Psi_t) ** 2
        return np.stack([u2, a2, v2, rel2]) * r ** (d - 1)

    todo = []  # the open annuli: column, bounds and 2^j
    for col, j in enumerate(js):
        lo, hi = max(0.75 * 2.0**j, R_LO), min(8.0 / 3.0 * 2.0**j, R_HI)
        if lo < hi:
            todo.append((col, lo, hi, 2.0**j))
    prev = {}
    out = np.zeros((4, len(js)))
    for n in (64, 128, 256, 512, 1024, 2048):
        if not todo:
            break
        x, w = _gauss(n)
        r = np.concatenate([0.5 * (hi - lo) * x + 0.5 * (hi + lo) for _, lo, hi, _ in todo])
        scale = np.repeat([s for *_, s in todo], n)
        vals = (integrand(r) * lp_phi(r / scale) ** 2).reshape(4, len(todo), n)
        still = []
        for b, (col, lo, hi, s) in enumerate(todo):
            val = 0.5 * (hi - lo) * vals[:, b] @ w
            if col in prev:
                tol = QUAD_RTOL * max(float(np.max(np.abs(val))), 1e-300)
                if float(np.max(np.abs(val - prev[col]))) <= tol:
                    out[:, col] = np.sqrt(np.maximum(pref * val.real, 0.0))
                    continue
            prev[col] = val
            still.append((col, lo, hi, s))
        todo = still
    if todo:
        raise QuadratureNotConverged(f"block j={js[todo[0][0]]} at t={t}")
    return {"u": out[0], "a": out[1], "v": out[2], "rel": out[3]}


def continuum_linear_norms(
    init: RadialInit,
    sigma: float,
    t: float,
    d: int,
    tau: float,
    mu: float = 1.0,
    lam: float = -1.0,
) -> dict[str, float]:
    """
    The summed (r=1) Besov norms at index sigma over continuous frequency of
    the linear solution: keys u, a, v, rel (u - v) and uav (u + a + v).
    """
    j_min, j_max = block_j_range(R_LO, R_HI)
    js = np.arange(j_min, j_max + 1)
    blocks = continuum_block_l2(init, t, d, tau, mu, lam, js)
    out = {name: float(dyadic_sum(b, js, sigma)) for name, b in blocks.items()}
    out["uav"] = out["u"] + out["a"] + out["v"]
    return out


def power_law_profile(exponent: float):
    """r -> r^exponent * chi(r); the low-frequency power-law class."""

    def f(r):
        r = np.asarray(r, dtype=np.float64)
        with np.errstate(divide="ignore"):
            p = np.where(r > 0, r ** exponent, 0.0 if exponent > 0 else 1.0)
        return p * chi(r)

    return f
