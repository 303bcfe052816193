"""Dyadic decomposition and Besov-type norm tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow.besov import (
    BlockTimeSeries,
    LPFamily,
    besov_norm,
    block_l2_spectrum,
    block_lp_norm,
    chemin_lerner_low_high,
    chemin_lerner_norm,
    chi,
    dyadic_block,
    dyadic_sum,
    family_for,
    hybrid_norm,
    hybrid_time_l1_norm,
    phi,
    split_low_high,
)
from driftflow.errors import InsufficientSamples, UnsupportedP
from driftflow.spectral import Grid, SpectralField, from_physical, l2_norm

from conftest import random_field
from oracles import lebesgue_besov_time_norm


class TestGenerator:
    def test_chi_plateaus_and_support(self):
        r = np.linspace(0, 2, 4001)
        c = chi(r)
        assert np.all(c[r <= 0.75] == 1.0)
        assert np.all(c[r >= 4.0 / 3.0] == 0.0)
        assert np.all(np.diff(c) <= 1e-10)  # non-increasing up to interpolation ripple

    def test_chi_is_closed_form(self):
        # the cutoff is evaluated, not interpolated: importing the package
        # loads no interpolation module
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, driftflow; print('scipy.interpolate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "False"

    def test_phi_support(self):
        r = np.linspace(0.01, 4, 2000)
        p = phi(r)
        assert np.all(p[(r < 0.75) | (r > 8.0 / 3.0)] == 0.0)
        assert np.all(p >= -1e-12)

    def test_partition_of_unity(self, grid2d):
        fam = family_for(grid2d)
        assert fam.partition_residual() < 1e-10

    def test_family_is_shared_by_equal_grids(self):
        fam = family_for(Grid(2, 16, 2.0 * np.pi))
        assert family_for(Grid(2, 16, 2.0 * np.pi)) is fam
        other = family_for(Grid(2, 16, 3.0 * np.pi))
        assert other is not fam and other.grid.length == 3.0 * np.pi

    @pytest.mark.parametrize("grid, j_range", [
        (Grid(3, 16, 2.0 * np.pi), (-3, 5)),
        (Grid(2, 48, 8.0 * np.pi), (-5, 4)),
        (Grid(3, 48, 2.0 * np.pi), (-3, 7)),
        (Grid(2, 64, 16.0 * np.pi), (-6, 4)),
        (Grid(2, 128, 32.0 * np.pi), (-7, 4)),
    ])
    def test_block_range_covers_the_stored_band(self, grid, j_range):
        # the family spans the radii of the stored band, |k_i| <= (N-1)//3,
        # and no block that would see only modes beyond it
        fam = family_for(grid)
        assert (fam.j_min, fam.j_max) == j_range
        assert np.max(grid.kmag) * 4.0 / 3.0 <= 2.0 ** (fam.j_max - 1)

    def test_partition_on_wide_radius_range(self):
        r = np.geomspace(1e-4, 64.0, 3000)
        js = np.arange(-16, 9)
        total = sum(phi(r / 2.0**j) for j in js)
        assert np.max(np.abs(total - 1.0)) < 1e-10


def single_mode_field(grid, kint_vec, amp=1.0):
    # last component 0: both partners lie in the stored band
    assert kint_vec[-1] == 0
    c = np.zeros(grid.spectral_shape, dtype=np.complex128)
    c[tuple(kint_vec)] = amp / 2.0
    c[tuple(-np.asarray(kint_vec))] = amp / 2.0
    return SpectralField(grid, c)


class TestBlocks:
    def test_single_mode_in_single_block_window(self):
        # radius 2.8 = 1.4 * 2^1 lies where only the j=1 annulus weight is 1
        grid = Grid(2, 32, 5.0 * np.pi)
        f = single_mode_field(grid, (7, 0))
        assert np.isclose(grid.kmag[7, 0], 2.8)
        fam = family_for(grid)
        b1 = dyadic_block(f, 1)
        assert np.max(np.abs(b1.coeffs - f.coeffs)) < 1e-12
        for j in fam.j_values:
            if j != 1:
                assert l2_norm(dyadic_block(f, j)) < 1e-12

    def test_blocks_sum_to_field(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f.coeffs[0, 0] = 0.0
        fam = family_for(grid2d)
        total = np.zeros_like(f.coeffs)
        for j in fam.j_values:
            total += dyadic_block(f, j).coeffs
        assert np.max(np.abs(total - f.coeffs)) < 1e-10 * max(np.max(np.abs(f.coeffs)), 1.0)

    def test_block_support_annulus(self, grid2d, rng):
        f = random_field(grid2d, rng)
        j = 1
        blk = dyadic_block(f, j)
        outside = (grid2d.kmag < 0.75 * 2.0**j) | (grid2d.kmag > 8.0 / 3.0 * 2.0**j)
        assert np.max(np.abs(blk.coeffs[outside])) == 0.0


class TestBesovNorms:
    def test_partitioned_single_radius(self):
        # one radius split across two annuli: weights phi(1) + phi(2) = 1,
        # so the s=0 summed norm equals the plain L2 norm
        grid = Grid(2, 32, 2.0 * np.pi)
        f = single_mode_field(grid, (4, 0))
        n = besov_norm(f, 0.0, 2.0, 1.0)
        assert abs(n - l2_norm(f)) < 1e-10 * l2_norm(f)

    def test_single_block_closed_form(self):
        grid = Grid(2, 32, 5.0 * np.pi)
        f = single_mode_field(grid, (7, 0))
        for s in (-1.0, 0.5, 2.0):
            n = besov_norm(f, s)
            assert abs(n - 2.0**s * l2_norm(f)) < 1e-10 * max(n, 1.0)
            w = besov_norm(f, s, r=np.inf)
            assert abs(w - 2.0**s * l2_norm(f)) < 1e-10 * max(w, 1.0)

    def test_equivalence_with_sobolev(self, rng):
        grid = Grid(2, 64, 2.0 * np.pi)
        f = random_field(grid, rng, band=(1.0, 18.0))
        b = besov_norm(f, 1.0, 2.0, 2.0)
        h1 = float(np.sqrt(grid.volume * np.sum(grid.k2 * np.abs(f.coeffs) ** 2)))
        assert 0.5 < b / h1 < 2.0

    def test_weak_below_summed(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f.coeffs[0, 0] = 0.0
        for s in (-0.5, 0.0, 1.0):
            assert besov_norm(f, s, r=np.inf) <= besov_norm(f, s) + 1e-14

    def test_unsupported_p(self, grid2d, rng):
        f = random_field(grid2d, rng)
        with pytest.raises(UnsupportedP):
            besov_norm(f, 0.0, 3.0)

    @pytest.mark.parametrize("r", [0.0, -1.0, 0.5, np.nan])
    def test_summation_exponent_below_one_rejected(self, grid2d, rng, r):
        f = random_field(grid2d, rng)
        with pytest.raises(UnsupportedP):
            besov_norm(f, 0.0, r=r)
        with pytest.raises(UnsupportedP):  # every norm sums through dyadic_sum
            split_low_high(f, 0.0, r=r)

    def test_interpolation_inequality_shape(self, grid2d, rng):
        s1, s2 = -1.0, 2.0
        for _ in range(5):
            f = random_field(grid2d, rng)
            f.coeffs[0, 0] = 0.0
            w1 = besov_norm(f, s1, r=np.inf)
            w2 = besov_norm(f, s2, r=np.inf)
            for theta in (0.25, 0.5, 0.75):
                s = theta * s1 + (1 - theta) * s2
                lhs = besov_norm(f, s)
                c = 10.0 / (theta * (1 - theta) * (s2 - s1))
                assert lhs <= c * w1**theta * w2 ** (1 - theta)

    def test_dyadic_scaling_property(self, rng):
        # f_lambda(x) = f(2^m x) on the shrunken torus shifts blocks by m
        m = 2
        lam = 2.0**m
        g1 = Grid(2, 64, 8.0 * np.pi)
        g2 = Grid(2, 64, 8.0 * np.pi / lam)
        f1 = random_field(g1, rng, band=(0.5, 4.0))
        f1.coeffs[0, 0] = 0.0
        f2 = SpectralField(g2, f1.coeffs.copy())
        for s in (-0.5, 1.0):
            n1 = besov_norm(f1, s)
            n2 = besov_norm(f2, s)
            assert abs(n2 - lam ** (s - g1.dim / 2.0) * n1) < 1e-8 * n2

    def test_lp_block_norms_run(self, grid2d, rng):
        f = random_field(grid2d, rng)
        for p in (1.0, 4.0, np.inf):
            assert besov_norm(f, 0.0, p) > 0


class TestSplits:
    def test_field_in_low_blocks_has_no_high_part(self):
        grid = Grid(2, 64, 16.0 * np.pi)
        f = single_mode_field(grid, (1, 0))  # radius 1/8, block j = -3
        lo, hi = split_low_high(f, s_low=0.0)
        assert hi == 0.0
        assert lo > 0.0

    def test_low_high_overlap_bounds(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f.coeffs[0, 0] = 0.0
        n = besov_norm(f, 0.5)
        lo, hi = split_low_high(f, 0.5)
        fam = family_for(grid2d)
        blocks = block_l2_spectrum(f)
        js = list(fam.j_values)
        # blocks j = -1, 0 are counted by both parts
        overlap = sum(2.0 ** (0.5 * j) * blocks[js.index(j)] for j in (-1, 0))
        assert n - 1e-12 <= lo + hi <= n + overlap + 1e-12

    def test_hybrid_intersection_identity(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f.coeffs[0, 0] = 0.0
        lo, hi = split_low_high(f, -0.5, 1.0)
        assert np.isclose(hybrid_norm(f, -0.5, 1.0), lo + hi)


def decaying_series(grid, rng, ts):
    f = random_field(grid, rng)
    f.coeffs[0, 0] = 0.0
    base = block_l2_spectrum(f)
    vals = np.outer(base, np.exp(-ts))
    return f, BlockTimeSeries(times=ts, j_values=family_for(grid).j_values, values=vals)


class TestCheminLerner:
    def test_constant_in_time_sup_norm(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f.coeffs[0, 0] = 0.0
        base = block_l2_spectrum(f)
        ts = np.linspace(0, 2, 5)
        series = BlockTimeSeries(ts, family_for(grid2d).j_values, np.outer(base, np.ones_like(ts)))
        n = chemin_lerner_norm(series, np.inf, s=0.3)
        assert np.isclose(n, besov_norm(f, 0.3), rtol=1e-12)

    def test_exponential_decay_l1(self, grid2d, rng):
        ts = np.arange(0.0, 20.0 + 1e-12, 1e-3)
        f, series = decaying_series(grid2d, rng, ts)
        n = chemin_lerner_norm(series, 1.0, s=0.0)
        expected = besov_norm(f, 0.0) * (1.0 - np.exp(-20.0))
        assert abs(n - expected) < 1e-3 * expected

    def test_r1_matches_frequency_first_ordering(self, grid2d, rng):
        ts = np.linspace(0.0, 3.0, 400)
        _, series = decaying_series(grid2d, rng, ts)
        a = chemin_lerner_norm(series, 1.0, s=0.5)
        b = lebesgue_besov_time_norm(series, 1.0, s=0.5, r=1.0)
        assert abs(a - b) < 1e-12 * max(a, 1.0)

    def test_minkowski_direction(self, grid2d, rng):
        # r = 1 <= rho = 2: the time-first norm dominates
        ts = np.linspace(0.0, 3.0, 400)
        f, series = decaying_series(grid2d, rng, ts)
        series.values += 0.1 * np.abs(np.sin(np.outer(series.j_values, ts)))
        tilde = chemin_lerner_norm(series, 2.0, s=0.0)
        plain = lebesgue_besov_time_norm(series, 2.0, s=0.0, r=1.0)
        assert tilde >= plain - 1e-12

    @pytest.mark.parametrize("where", ["values", "times"])
    def test_nan_series_rejected(self, grid2d, rng, where):
        _, series = decaying_series(grid2d, rng, np.linspace(0.0, 1.0, 5))
        getattr(series, where)[..., 2] = np.nan
        with pytest.raises(ValueError):
            BlockTimeSeries(series.times, series.j_values, series.values)

    def test_insufficient_samples(self, grid2d, rng):
        f = random_field(grid2d, rng)
        base = block_l2_spectrum(f)
        series = BlockTimeSeries(np.array([0.0]), family_for(grid2d).j_values, base[:, None])
        with pytest.raises(InsufficientSamples):
            chemin_lerner_norm(series, 2.0, s=0.0)


class TestDyadicSum:
    def test_columns_are_single_sums(self, rng):
        js = np.arange(-3, 5)
        b = rng.random((len(js), 6))
        for r in (1.0, 2.0, np.inf):
            cols = dyadic_sum(b, js, 0.7, r)
            assert cols.shape == (6,)
            for t in range(6):
                assert np.isclose(cols[t], dyadic_sum(b[:, t], js, 0.7, r), rtol=1e-14)

    def test_closed_forms(self):
        js = np.array([0, 1, 2])
        b = np.array([1.0, 1.0, 1.0])
        assert np.isclose(dyadic_sum(b, js, 1.0), 7.0)
        assert np.isclose(dyadic_sum(b, js, 1.0, 2.0), np.sqrt(21.0))
        assert dyadic_sum(b, js, 1.0, np.inf) == 4.0
        assert dyadic_sum(b[:0], js[:0], 1.0, np.inf) == 0.0

    def test_table_rows_are_the_block_weights(self, grid2d):
        fam = family_for(grid2d)
        assert fam.weights.shape == (len(fam.j_values),) + grid2d.spectral_shape
        for j in fam.j_values:
            assert np.array_equal(fam.weight(j), phi(grid2d.kmag / 2.0**j))
        for j in (fam.j_min - 1, fam.j_max + 1):
            with pytest.raises(ValueError):
                fam.weight(j)


# ---------------------------------------------------------------------------
# properties of the weight table and the one low/high split, on 2D and 3D grids

GRIDS = [Grid(2, 16, 2.0 * np.pi), Grid(2, 24, 5.0), Grid(3, 8, 2.0 * np.pi), Grid(3, 12, 3.0)]
PROPERTY = settings(max_examples=25, deadline=None)
grids = st.sampled_from(GRIDS)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
indices = st.floats(min_value=-2.0, max_value=2.0)


def constant_series(f, ts):
    """The blocks of f held constant over the sample times ts."""
    fam = family_for(f.grid)
    base = block_l2_spectrum(f)
    return BlockTimeSeries(ts, fam.j_values, np.outer(base, np.ones_like(ts)))


class TestSplitProperties:
    @PROPERTY
    @given(grid=grids)
    def test_weight_rows_partition_unity(self, grid):
        total = np.sum(LPFamily(grid).weights, axis=0)
        nonzero = grid.kmag > 0
        assert np.max(np.abs(total[nonzero] - 1.0)) < 1e-10
        assert total[~nonzero].item() == 0.0

    @PROPERTY
    @given(grid=grids, seed=seeds, ncomp=st.sampled_from([1, 2]))
    def test_table_contraction_matches_per_block_sums(self, grid, seed, ncomp):
        f = random_field(grid, np.random.default_rng(seed), ncomp)
        fam = family_for(grid)
        per_block = [block_lp_norm(f, j, 2.0) for j in fam.j_values]
        assert np.allclose(block_l2_spectrum(f), per_block, rtol=1e-12, atol=0.0)

    @PROPERTY
    @given(grid=grids, seed=seeds, s_low=indices, s_high=indices)
    def test_space_split_is_the_sup_in_time_split(self, grid, seed, s_low, s_high):
        f = random_field(grid, np.random.default_rng(seed))
        series = constant_series(f, np.linspace(0.0, 1.0, 3))
        lo, hi = split_low_high(f, s_low, s_high)
        lo_t, hi_t = chemin_lerner_low_high(series, np.inf, s_low, s_high)
        assert np.isclose(lo_t, lo, rtol=1e-13, atol=0.0)
        assert np.isclose(hi_t, hi, rtol=1e-13, atol=0.0)

    @PROPERTY
    @given(grid=grids, seed=seeds, s=indices, s_prime=indices)
    def test_hybrid_l1_over_unit_interval(self, grid, seed, s, s_prime):
        f = random_field(grid, np.random.default_rng(seed))
        series = constant_series(f, np.linspace(0.0, 1.0, 4))
        expected = hybrid_norm(f, s, s_prime)
        assert np.isclose(hybrid_time_l1_norm(series, s, s_prime), expected,
                          rtol=1e-13, atol=0.0)
