"""Per-mode propagator and continuum decay tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from driftflow.besov import block_j_range, chi, dyadic_sum
from driftflow.errors import QuadratureNotConverged
from driftflow.linear import (
    R_HI,
    R_LO,
    RadialInit,
    _exp_diff,
    acoustic_eigenvalues,
    compressible_matrix,
    continuum_block_l2,
    continuum_linear_norms,
    green_compressible,
    incompressible_matrix,
    power_law_profile,
    propagator,
)
from driftflow.studies import fit_decay_exponent

from oracles import continuum_block_l2_loop, expm_scaled_squared


def random_samples(rng, n=40):
    xi = rng.uniform(0.0, 8.0, n)
    tau = rng.uniform(0.02, 1.0, n)
    mu = rng.uniform(0.2, 2.0, n)
    lam = np.array([rng.uniform(-2.0 * m + 0.1, 2.0) for m in mu])
    t = rng.uniform(0.0, 5.0, n)
    return zip(xi, tau, mu, lam, t)


PROPERTY = settings(max_examples=200, deadline=None)
xis = st.floats(min_value=1e-3, max_value=50.0)
nus = st.floats(min_value=0.05, max_value=5.0)
cs = st.floats(min_value=0.1, max_value=20.0)
kappas = st.floats(min_value=0.1, max_value=100.0)
times = st.floats(min_value=0.01, max_value=2.0)
parts = st.floats(min_value=-10.0, max_value=10.0)
angles = st.floats(min_value=0.0, max_value=2.0 * np.pi)


def scale(xi, nu, c):
    """The size of the acoustic eigenvalues: nu*xi^2 + c*xi."""
    return nu * xi**2 + c * xi


class TestExpDiff:
    """``_exp_diff``, (exp(l2 t) - exp(l3 t))/(l2 - l3): a series in
    z = (l2 - l3) t for |z| < 0.5 and the quotient above.  It serves the
    acoustic pair (complex l3) and the drag pairs (real l3 = -kappa)."""

    @PROPERTY
    @given(re=parts, im=parts, t=times, theta=angles)
    def test_branches_agree_across_the_switch(self, re, im, t, theta):
        l3 = complex(re, im)
        # |z| just below 0.5 (series) and just above (quotient)
        l2 = l3 + np.array([1.0 - 1e-9, 1.0 + 1e-9]) * 0.5 * np.exp(1j * theta) / t
        assert abs((l2[0] - l3) * t) < 0.5 <= abs((l2[1] - l3) * t)
        got = _exp_diff(l2, np.full(2, l3), t)
        quotient = (np.exp(l2 * t) - np.exp(l3 * t)) / (l2 - l3)
        size = abs(t * np.exp(l3 * t))
        assert np.all(np.abs(got - quotient) <= 1e-12 * size)
        assert abs(got[1] - got[0]) <= 1e-8 * size

    @PROPERTY
    @given(re=parts, im=parts, t=times, theta=angles)
    def test_limit_at_a_double_root(self, re, im, t, theta):
        l3 = complex(re, im)
        limit = t * np.exp(l3 * t)
        for size in (1e-3, 1e-6, 1e-9, 0.0):
            z = size * np.exp(1j * theta)
            got = _exp_diff(np.array([l3 + z / t]), np.array([l3]), t)[0]
            assert abs(got - limit) <= (size + 1e-15) * abs(limit)

    @PROPERTY
    @given(xi=xis, nu=nus, c=cs, kappa=kappas, t=times)
    def test_real_drag_rate_gives_its_complex_cast(self, xi, nu, c, kappa, t):
        # the drag pairs of green_compressible and green_incompressible
        l2 = np.concatenate([*acoustic_eigenvalues(np.array([xi]), nu, c),
                             [-0.5 * nu * xi**2 + 0j]])
        got = _exp_diff(l2, -kappa, t)
        cast = _exp_diff(l2, np.full(l2.shape, complex(-kappa)), t)
        assert np.all(np.abs(got - cast) <= 1e-15 * np.abs(cast))


class TestEigenvalues:
    """``acoustic_eigenvalues`` as the roots of z^2 + nu xi^2 z + c^2 xi^2;
    the eigenvalue -kappa of the drag row completes the compressible block."""

    @PROPERTY
    @given(xi=xis, nu=nus, c=cs)
    def test_vieta(self, xi, nu, c):
        l2, l3 = acoustic_eigenvalues(xi, nu, c)
        size = scale(xi, nu, c)
        assert abs(l2 + l3 + nu * xi**2) <= 1e-14 * size
        assert abs(l2 * l3 - c**2 * xi**2) <= 1e-13 * size**2

    @PROPERTY
    @given(xi=xis, nu=nus, c=cs)
    def test_nonpositive_real_parts(self, xi, nu, c):
        l2, l3 = acoustic_eigenvalues(xi, nu, c)
        assert l2.real <= 0.0 and l3.real <= 0.0

    @PROPERTY
    @given(xi=xis, nu=nus, c=cs, kappa=kappas)
    def test_against_numerical_eigendecomposition(self, xi, nu, c, kappa):
        # away from the collision nu*xi = 2c and the drag resonances, where
        # a double eigenvalue makes the dense reference lose half its digits
        got = np.array([-kappa, *acoustic_eigenvalues(xi, nu, c)])
        size = max(1.0, kappa, scale(xi, nu, c))
        assume(min(abs(got[0] - got[1]), abs(got[0] - got[2]), abs(got[1] - got[2]))
               > 1e-3 * size)
        ref = np.linalg.eigvals(compressible_matrix(xi, kappa, nu, c))
        # each eigenvalue against its nearest one of the other set, both ways,
        # so that ties in the real parts cannot misalign a sorted comparison
        dist = np.abs(got[:, None] - ref[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-11 * size

    @PROPERTY
    @given(xi=xis, nu=nus, c=cs)
    def test_complex_pair_small_frequency(self, xi, nu, c):
        assume(nu * xi < 2.0 * c * (1.0 - 1e-9))
        l2, l3 = acoustic_eigenvalues(xi, nu, c)
        assert l2.imag > 0.0 and l3 == np.conj(l2)

    @PROPERTY
    @given(xi=xis, nu=nus, c=cs)
    def test_real_pair_high_frequency(self, xi, nu, c):
        assume(nu * xi > 2.0 * c * (1.0 + 1e-9))
        l2, l3 = acoustic_eigenvalues(xi, nu, c)
        assert l2.imag == 0.0 and l3.imag == 0.0 and l3.real < l2.real

    def test_collision_point(self):
        # at nu*xi = 2c the pair collides at -c*xi; the dense fallback of
        # green_compressible takes over there
        nu = 1.0
        for c in (1.0, 2.5):
            xi = 2.0 * c / nu
            l2, l3 = acoustic_eigenvalues(xi, nu, c)
            assert l2 == l3 == -c * xi
            g = green_compressible(xi, 3.0, nu, c, 0.7)
            ref = expm(compressible_matrix(xi, 3.0, nu, c) * 0.7)
            for key, (i, j) in {"uu": (0, 0), "ua": (0, 1), "uv": (0, 2), "aa": (1, 1),
                                "av": (1, 2), "va": (2, 1), "vv": (2, 2)}.items():
                assert abs(g[key][0] - ref[i, j]) < 1e-12, (c, key)


class TestPropagator:
    def test_identity_at_zero_time(self):
        g3, g2 = propagator(1.7, 0.3, 1.0, 0.0, 0.0)
        assert np.allclose(g3, np.eye(3), atol=1e-14)
        assert np.allclose(g2, np.eye(2), atol=1e-14)

    def test_matches_matrix_exponential(self, rng):
        worst = 0.0
        for xi, tau, mu, lam, t in random_samples(rng, 60):
            nu = 2 * mu + lam
            g3, g2 = propagator(xi, tau, mu, lam, t)
            r3 = expm_scaled_squared(compressible_matrix(xi, 1.0 / tau, nu) * t)
            r2 = expm_scaled_squared(incompressible_matrix(xi, 1.0 / tau, mu) * t)
            worst = max(worst, np.max(np.abs(g3 - r3.real)), np.max(np.abs(g2 - r2.real)))
        assert worst < 1e-10

    def test_printed_formulas_unit_viscosity(self, rng):
        # closed-form entries at nu = 1 in their classical printed shape
        for _ in range(20):
            xi = rng.uniform(0.3, 6.0)
            tau = rng.uniform(0.05, 0.9)
            t = rng.uniform(0.05, 4.0)
            if abs(xi - 2.0) < 0.05:
                continue
            l2, l3 = np.roots([1.0, xi**2, xi**2]).astype(np.complex128)
            if l2.real < l3.real:
                l2, l3 = l3, l2
            den = 1.0 - tau * xi**2 + tau**2 * xi**2
            gap = l2 - l3
            phi_a = (tau * xi * np.exp(-t / tau) / den
                     + xi * np.exp(l2 * t) / ((1 + tau * l2) * gap)
                     - xi * np.exp(l3 * t) / ((1 + tau * l3) * gap))
            phi_psi = (-np.exp(-t / tau) / den
                       + l2 * np.exp(l2 * t) / ((1 + tau * l2) * gap)
                       - l3 * np.exp(l3 * t) / ((1 + tau * l3) * gap))
            a_a = (l2 * np.exp(l3 * t) - l3 * np.exp(l2 * t)) / gap
            psi_a = xi * (np.exp(l2 * t) - np.exp(l3 * t)) / gap
            g3, g2 = propagator(xi, tau, 1.0, -1.0, t)
            assert abs(g3[0, 1] - phi_a.real) < 1e-10
            assert abs(g3[0, 2] - phi_psi.real) < 1e-10
            assert abs(g3[1, 1] - a_a.real) < 1e-10
            assert abs(g3[2, 1] - psi_a.real) < 1e-10
            # solenoidal block: exact heat factor and drag mixing
            assert np.isclose(g2[1, 1], np.exp(-(xi**2) * t), atol=1e-12)
            mix = (np.exp(-(xi**2) * t) - np.exp(-t / tau)) / (1.0 - tau * xi**2)
            assert abs(g2[0, 1] - mix) < 1e-10

    def test_degenerate_frequency_limit(self):
        tau, mu, lam, t = 0.3, 1.0, -1.0, 0.8
        g_at = propagator(2.0, tau, mu, lam, t)[0]
        g_near = 0.5 * (propagator(2.0 + 1e-4, tau, mu, lam, t)[0]
                        + propagator(2.0 - 1e-4, tau, mu, lam, t)[0])
        assert np.max(np.abs(g_at - g_near)) < 1e-5

    def test_drag_resonance_is_removable(self):
        # 1 - tau*xi^2 = 0 in the solenoidal block
        tau, mu = 0.25, 1.0
        xi = 2.0000000001
        g2 = propagator(xi, tau, mu, -1.0, 1.3)[1]
        r2 = expm_scaled_squared(incompressible_matrix(xi, 1.0 / tau, mu) * 1.3)
        assert np.max(np.abs(g2 - r2.real)) < 1e-10

    @PROPERTY
    @given(xi=st.floats(min_value=0.0, max_value=8.0), tau=st.floats(min_value=0.02, max_value=1.0),
           mu=st.floats(min_value=0.2, max_value=2.0), lam_frac=st.floats(min_value=0.0, max_value=1.0),
           t1=st.floats(min_value=0.0, max_value=3.0), t2=st.floats(min_value=0.0, max_value=3.0))
    def test_semigroup_property(self, xi, tau, mu, lam_frac, t1, t2):
        lam = -2.0 * mu + 0.1 + lam_frac * (2.0 * mu + 1.9)
        a3, a2 = propagator(xi, tau, mu, lam, t1)
        b3, b2 = propagator(xi, tau, mu, lam, t2)
        c3, c2 = propagator(xi, tau, mu, lam, t1 + t2)
        assert np.max(np.abs(b3 @ a3 - c3)) < 1e-10
        assert np.max(np.abs(b2 @ a2 - c2)) < 1e-10

    def test_kernel_at_zero_time_picks_initial_mismatch(self):
        # the relative velocity's coefficients: phi-row minus psi-row of the
        # compressible propagator, Phi-row minus Psi-row of the solenoidal one
        g3, g2 = propagator(1.3, 0.2, 1.0, 0.0, 0.0)
        assert np.allclose(g3[0] - g3[2], [1.0, 0.0, -1.0], atol=1e-14)
        assert np.allclose(g2[0] - g2[1], [1.0, -1.0], atol=1e-14)

    def test_fast_drag_decay_dominated_by_powers(self):
        # e^{-t/tau} <= tau^2 / t^2 for t >= 1, tau < 1/4
        for tau in (0.24, 0.1, 0.02):
            for t in (1.0, 2.0, 7.0):
                assert np.exp(-t / tau) <= tau**2 / t**2


class TestContinuumNorms:
    def test_heat_channel_benchmark(self):
        fit = None
        ts = np.geomspace(10.0, 1000.0, 25)
        vals = []
        for t in ts:
            n = continuum_linear_norms(RadialInit(Psi0=chi), sigma=0.0, t=t, d=2,
                                       tau=0.1)
            vals.append(n["v"])
        fit = fit_decay_exponent(ts, vals)
        assert abs(fit.slope - 0.5) < 0.03

    def test_power_law_data_weak_norm_finite(self):
        init = RadialInit(a0=power_law_profile(0.0))
        j_min, j_max = block_j_range(R_LO, R_HI)
        js = np.arange(j_min, j_max + 1)
        blocks = continuum_block_l2(init, t=0.0, d=2, tau=0.1, mu=1.0, lam=-1.0, js=js)
        assert 0.0 < dyadic_sum(blocks["a"], js, -1.0, np.inf) < np.inf

    def test_two_sided_decay_window(self):
        # state norm stays within constant multiples of (1+t)^(-1/2)
        init = RadialInit(a0=power_law_profile(0.0))
        ts = np.geomspace(10.0, 1000.0, 20)
        comp = []
        for t in ts:
            n = continuum_linear_norms(init, sigma=0.0, t=t, d=2, tau=0.1)
            comp.append(n["uav"] * (1.0 + t) ** 0.5)
        assert max(comp) / min(comp) < 25.0

    def test_quadrature_convergence_guard(self):
        # about 3700 periods across the block j = 0: more than the finest
        # Gauss level (2048 nodes) resolves
        init = RadialInit(a0=lambda r: np.cos(4e4 * r) * chi(r))
        with pytest.raises(QuadratureNotConverged):
            continuum_block_l2(init, t=0.0, d=2, tau=0.1, mu=1.0, lam=-1.0, js=np.array([0]))


class TestMismatchScaling:
    def test_low_frequency_kernel_scales_with_tau_xi(self):
        # the wave-borne part of the mismatch kernel carries a tau*xi prefactor
        # and decays at the slow quadratic-in-frequency rate
        xi = 0.1
        for tau in (0.2, 0.05):
            vals = []
            for t in (1.0, 40.0, 80.0):
                g3, _ = propagator(xi, tau, 1.0, -1.0, t)
                k3 = g3[0] - g3[2]
                vals.append(abs(k3[1]) + abs(k3[2]))
            scaled = [v / (tau * xi) for v in vals]
            assert all(s < 3.0 for s in scaled)
            # rate between the two late samples is ~ xi^2/2 per unit time
            rate = np.log(vals[1] / vals[2]) / 40.0
            assert 0.2 * xi**2 < rate < 1.2 * xi**2

    def test_mismatch_norm_carries_tau_prefactor(self):
        # at matching times the continuum mismatch norm is proportional to tau
        init = RadialInit(a0=power_law_profile(0.0))
        vals = {}
        for tau in (0.1, 0.05):
            n = continuum_linear_norms(init, sigma=0.5, t=100.0, d=2, tau=tau)
            vals[tau] = n["rel"]
        ratio = vals[0.1] / vals[0.05]
        assert 1.6 < ratio < 2.4


@pytest.mark.parametrize("d", [2, 3])
def test_batched_quadrature_equals_the_block_loop(d):
    # one integrand call per Gauss level gives the per-block loop's norms bit for bit
    init = RadialInit(a0=power_law_profile(1.0 - d / 2.0), psi0=power_law_profile(0.5),
                      Phi0=chi)
    j_min, j_max = block_j_range(1e-4, 64.0)
    js = np.arange(j_min, j_max + 1)
    for t in (0.0, 0.3, 10.0, 300.0):
        got = continuum_block_l2(init, t, d, 0.2, 1.0, -1.0, js)
        want = continuum_block_l2_loop(init, t, d, 0.2, 1.0, -1.0, js)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])
