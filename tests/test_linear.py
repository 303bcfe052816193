"""Per-mode propagator and continuum decay tests."""

import numpy as np
import pytest

from driftflow.besov import block_j_range
from driftflow.errors import QuadratureNotConverged
from driftflow.linear import (
    RadialInit,
    continuum_block_l2,
    continuum_linear_norms,
    compressible_matrix,
    cutoff_profile,
    eigenvalues,
    green_compressible,
    incompressible_matrix,
    power_law_profile,
    propagator,
    relative_velocity_kernel,
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


class TestEigenvalues:
    def test_collision_point(self):
        es = eigenvalues(2.0, tau=0.3, mu=1.0, lam=-1.0)  # nu = 1
        assert np.isclose(es.lambda2.real, -2.0) and np.isclose(es.lambda3.real, -2.0)
        assert es.degenerate

    def test_complex_pair_small_frequency(self):
        es = eigenvalues(1.0, tau=0.1, mu=1.0, lam=-1.0)
        assert np.isclose(es.lambda1, -10.0)
        assert es.complex_pair
        assert np.isclose(es.lambda2, -0.5 + 0.8660254j, atol=1e-6)
        assert np.isclose(es.lambda3, -0.5 - 0.8660254j, atol=1e-6)

    def test_real_pair_high_frequency(self):
        es = eigenvalues(4.0, tau=0.2, mu=1.0, lam=-1.0)
        assert np.isclose(es.lambda2, -8.0 + 4.0 * np.sqrt(3.0))
        assert np.isclose(es.lambda3, -8.0 - 4.0 * np.sqrt(3.0))
        assert np.isclose(es.lambda2 * es.lambda3, 16.0)

    def test_vieta_and_fifth_eigenvalue(self, rng):
        for xi, tau, mu, lam, _ in random_samples(rng, 25):
            es = eigenvalues(xi, tau, mu, lam)
            nu = 2 * mu + lam
            assert np.isclose(es.lambda2 + es.lambda3, -nu * xi**2, atol=1e-10)
            assert np.isclose(es.lambda2 * es.lambda3, xi**2, atol=1e-9 * max(1, xi**2))
            assert np.isclose(es.lambda5, -mu * xi**2)

    def test_against_numerical_eigendecomposition(self, rng):
        for xi, tau, mu, lam, _ in random_samples(rng, 40):
            nu = 2 * mu + lam
            a = compressible_matrix(xi, 1.0 / tau, nu)
            got = np.sort_complex(eigenvalues(xi, tau, mu, lam).as_array()[:3])
            ref = np.sort_complex(np.linalg.eigvals(a))
            assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.linalg.norm(a))

    def test_nonpositive_real_parts(self, rng):
        for xi, tau, mu, lam, _ in random_samples(rng, 40):
            es = eigenvalues(xi, tau, mu, lam)
            assert np.max(es.as_array().real) <= 1e-14


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

    def test_semigroup_property(self, rng):
        for xi, tau, mu, lam, t in random_samples(rng, 20):
            t1, t2 = 0.4 * t, 0.6 * t
            a3, a2 = propagator(xi, tau, mu, lam, t1)
            b3, b2 = propagator(xi, tau, mu, lam, t2)
            c3, c2 = propagator(xi, tau, mu, lam, t1 + t2)
            assert np.max(np.abs(b3 @ a3 - c3)) < 1e-10
            assert np.max(np.abs(b2 @ a2 - c2)) < 1e-10

    def test_relative_velocity_kernel_is_row_difference(self, rng):
        for xi, tau, mu, lam, t in random_samples(rng, 10):
            g3, g2 = propagator(xi, tau, mu, lam, t)
            k3, k2 = relative_velocity_kernel(xi, tau, mu, lam, t)
            assert np.max(np.abs(k3 - (g3[0] - g3[2]))) < 1e-12
            assert np.max(np.abs(k2 - (g2[0] - g2[1]))) < 1e-12

    def test_kernel_at_zero_time_picks_initial_mismatch(self):
        k3, k2 = relative_velocity_kernel(1.3, 0.2, 1.0, 0.0, 0.0)
        assert np.allclose(k3, [1.0, 0.0, -1.0], atol=1e-14)
        assert np.allclose(k2, [1.0, -1.0], atol=1e-14)

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
            n = continuum_linear_norms(
                RadialInit(Psi0=cutoff_profile), sigma=0.0, sigma1=-1.0, t=t, d=2, tau=0.1
            )
            vals.append(n["v_B0.0_21"])
        fit = fit_decay_exponent(ts, vals)
        assert abs(fit.slope - 0.5) < 0.03

    def test_power_law_data_weak_norm_finite(self):
        init = RadialInit(a0=power_law_profile(0.0))
        n = continuum_linear_norms(init, sigma=0.5, sigma1=-1.0, t=0.0, d=2, tau=0.1)
        assert 0.0 < n["a_B-1.0_2inf"] < np.inf

    def test_two_sided_decay_window(self):
        # state norm stays within constant multiples of (1+t)^(-1/2)
        init = RadialInit(a0=power_law_profile(0.0))
        ts = np.geomspace(10.0, 1000.0, 20)
        comp = []
        for t in ts:
            n = continuum_linear_norms(init, sigma=0.0, sigma1=-1.0, t=t, d=2, tau=0.1)
            comp.append(n["uav_B_21"] * (1.0 + t) ** 0.5)
        assert max(comp) / min(comp) < 25.0

    def test_quadrature_convergence_guard(self):
        # about 3700 periods across the block j = 0: more than the finest
        # Gauss level (2048 nodes) resolves
        init = RadialInit(a0=lambda r: np.cos(4e4 * r) * cutoff_profile(r))
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
                k3, _ = relative_velocity_kernel(xi, tau, 1.0, -1.0, t)
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
            n = continuum_linear_norms(init, sigma=0.5, sigma1=-1.0, t=100.0, d=2, tau=tau)
            vals[tau] = n["rel_B0.5_21"]
        ratio = vals[0.1] / vals[0.05]
        assert 1.6 < ratio < 2.4


@pytest.mark.parametrize("d", [2, 3])
def test_batched_quadrature_equals_the_block_loop(d):
    # one integrand call per Gauss level gives the per-block loop's norms bit for bit
    init = RadialInit(a0=power_law_profile(1.0 - d / 2.0), psi0=power_law_profile(0.5),
                      Phi0=cutoff_profile)
    j_min, j_max = block_j_range(1e-4, 64.0)
    js = np.arange(j_min, j_max + 1)
    for t in (0.0, 0.3, 10.0, 300.0):
        got = continuum_block_l2(init, t, d, 0.2, 1.0, -1.0, js)
        want = continuum_block_l2_loop(init, t, d, 0.2, 1.0, -1.0, js)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])
