"""Data identity: each (recipe, seed) names the physical fields it always has.

The pinned values were recorded when fields were stored on the full FFT
lattice: the physical L2 norm of each field (rectangle rule) and its samples
at a few grid points (the first component of a vector field).  The
nonlinear-decay verdict is known to hold for the battery's data seed only, so
a change of layout must not change the data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow.errors import ConfigError, NonFiniteField
from driftflow.initial_data import (DataRecipe, df_state, euler_ns_state, initial_state,
                                    random_scalar)
from driftflow.spectral import Grid, from_physical, to_physical

GRIDS = {2: Grid(2, 32, 8.0 * np.pi), 3: Grid(3, 16, 2.0 * np.pi)}
POINTS = {2: [(0, 0), (5, 7), (17, 3), (31, 30)], 3: [(0, 0, 0), (3, 9, 14), (15, 2, 7)]}

# (dim, seed, field) -> (L2 norm, samples); df_state draws rho, a, v exactly
# as euler_ns_state does, so the same rows pin both
PINS = {
    (2, 1, "rho"): (0.30723833805160566, [0.0016063974196493776, 0.00214324195881672, 0.0070730420518860145, 0.001197711908806665]),
    (2, 1, "u"): (0.6648260723425479, [-0.026795074893932784, -0.012576115016335543, -0.010095509208199458, -0.04293035008542665]),
    (2, 1, "a"): (0.3467335543121134, [-0.024359833415984137, 0.008839638466110383, 0.006390441261103897, -0.009899283801258348]),
    (2, 1, "v"): (0.46928450403560723, [-0.0017147189504452525, -0.0078814617685235, -0.01757167019568789, -0.014556846290812091]),
    (2, 3, "rho"): (0.40235441691939916, [0.004335318030420315, 0.022162676797046504, 0.022846623752533053, 0.002465856619539208]),
    (2, 3, "u"): (0.686929035728284, [0.002158841242817391, 0.01544888744247342, 0.006917539200295118, -0.023742602062227298]),
    (2, 3, "a"): (0.3634629413785503, [0.006605371235267805, -0.016880107445455993, -0.011705553806659375, -0.019289936043748828]),
    (2, 3, "v"): (0.5052660647376637, [0.01970286243574557, 0.006548472037618581, 0.007362247158165991, -0.013468476076969747]),
    (2, 11, "rho"): (0.450205043988529, [0.007568581108622807, 0.030964910516742068, 0.008175406086049835, 0.004952463888745127]),
    (2, 11, "u"): (0.6308662732079793, [0.00995272291946133, -0.015190710078218045, 0.00750597220879664, -0.014964565202099265]),
    (2, 11, "a"): (0.3406675966406726, [0.01564528675445559, -0.017875198191078412, -0.011584800537857955, -0.009115291397701794]),
    (2, 11, "v"): (0.43166007368191006, [-0.0004967350252102392, -0.00817102167947354, 0.006970162797230856, 0.003091928181651874]),
    (3, 1, "rho"): (0.4155361894143371, [0.015293294491942017, 0.030393780478202244, 0.01751538412018211]),
    (3, 1, "u"): (0.533608602265832, [-0.0016160195900207976, -0.026781901402268327, -7.392492725816126e-05]),
    (3, 1, "a"): (0.22530431903819112, [-0.018738598592164, 0.016672736038160305, 0.003598369414171764]),
    (3, 1, "v"): (0.3521499883653212, [-0.007789484251716699, 0.012319669986109697, 0.001059194727352485]),
    (3, 3, "rho"): (0.37347457566444614, [0.012959975590747713, 0.030895442356904092, 0.022725956956667678]),
    (3, 3, "u"): (0.52554449876349, [0.023999921367806848, 0.016263685325371872, 0.019426989788331545]),
    (3, 3, "a"): (0.2494239223977721, [0.003340932547484509, 0.024108973605490122, 0.010832705191049626]),
    (3, 3, "v"): (0.3528828857158274, [0.0251322543867378, -0.0038713719807821766, 0.012151892032693823]),
    (3, 11, "rho"): (0.30792133295684293, [0.011715263805833586, 0.0252021125972053, 0.013039030618948743]),
    (3, 11, "u"): (0.4005998218001919, [0.014793852992041919, -0.015412798010710101, 0.014268234424955397]),
    (3, 11, "a"): (0.19803112390089825, [0.005987797769366379, -0.009441156848661324, 0.00898719384402986]),
    (3, 11, "v"): (0.2928570026230878, [-0.0008027117911805358, 0.003183210629437351, 0.009809055129917272]),
}

# the decay study's recipe texture (sigma1 profile, low band), data seed 3
DECAY_PINS = {
    "rho": (0.3222805318079251, [0.00348825442433625, 0.0177501414376372, 0.018297299002026455, 0.0019926852956313667]),
    "u": (0.8404336594446792, [-0.015007377521775712, 0.010099433695298742, 0.018713528539770496, -0.02562069409525346]),
    "a": (0.3835048441372795, [-0.032406275396174765, 0.01774394528634535, 0.020154048211459226, -0.035615587860033215]),
    "v": (0.5174597732829731, [-0.005933218298625061, 0.0141580158094592, 0.001986706913443318, -0.01775411097418251]),
}

RTOL = 1e-12


def assert_pinned(state, grid, points, pins):
    for name, f in state.fields().items():
        norm, samples = pins[name]
        v = to_physical(f)
        got = float(np.sqrt(grid.cell_volume * np.sum(v**2)))
        assert abs(got - norm) <= RTOL * norm, name
        v0 = v[0] if f.is_vector else v
        scale = float(np.max(np.abs(v0)))
        for p, want in zip(points, samples):
            assert abs(v0[p] - want) <= RTOL * scale, (name, p)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [1, 3, 11])
@pytest.mark.parametrize("make_state", [euler_ns_state, df_state])
def test_default_recipe_data_pinned(dim, seed, make_state):
    grid = GRIDS[dim]
    state = make_state(grid, DataRecipe(seed=seed))
    pins = {name: PINS[(dim, seed, name)] for name in state.fields()}
    assert_pinned(state, grid, POINTS[dim], pins)


def test_decay_texture_data_pinned():
    grid = GRIDS[2]
    recipe = DataRecipe(amplitude=0.04, rho_amplitude=0.04, seed=3,
                        k_band=(2.0 * np.pi / grid.length, 0.5), sigma1=-1.0,
                        mismatch_band=(2.0 * np.pi / grid.length, 0.4))
    assert_pinned(euler_ns_state(grid, recipe), grid, POINTS[2], DECAY_PINS)


@pytest.mark.parametrize("system", ["euler_ns", "df", "tns"])
def test_non_finite_amplitude_fails_in_the_builder(system):
    # an infinite amplitude scales the zero coefficients to NaN; each
    # builder's validate() rejects the state before any run starts
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteField):
        initial_state(system, GRIDS[2], DataRecipe(amplitude=np.inf))


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"seed": 1.0}, {"seed": True}, {"prepared": "wel"},
    {"k_band": (3.0, 0.5)}, {"k_band": (-1.0, -0.5)},
    {"k_band": (0.5, np.inf)}, {"k_band": (np.nan, 1.0)},
    {"mismatch_band": (-0.5, 1.0)}, {"mismatch_band": (0.0, np.inf)},
    {"mismatch_band": (np.nan, 1.0)},
    {"bump_width": 0.0}, {"bump_width": -1.0}, {"bump_width": np.inf}, {"bump_width": np.nan},
], ids=["seed-negative", "seed-float", "seed-bool", "prepared-misspelt",
        "k-band-reversed", "k-band-negative", "k-band-infinite", "k-band-nan",
        "mismatch-band-negative", "mismatch-band-infinite", "mismatch-band-nan",
        "bump-width-zero", "bump-width-negative", "bump-width-inf", "bump-width-nan"])
def test_bad_recipe_rejected(kwargs):
    with pytest.raises(ValueError):
        DataRecipe(**kwargs)


@pytest.mark.parametrize("system", ["euler_ns", "df", "tns"])
def test_band_beyond_the_grid_is_a_config_error(system):
    # |xi| <= 3.54 on this grid: a velocity band (50, 60) holds no mode
    with pytest.raises(ConfigError, match="no nonzero mode"):
        initial_state(system, GRIDS[2], DataRecipe(seed=1, k_band=(50.0, 60.0)))


def test_a_band_of_one_shell_is_kept():
    # the band is closed at both ends: (1, 1) holds the four |xi| = 1 modes
    a = random_scalar(GRIDS[2], np.random.default_rng(0), 1.0, (1.0, 1.0))
    assert set(np.flatnonzero(a.coeffs)) <= set(np.flatnonzero(GRIDS[2].kmag == 1.0))
    assert np.max(np.abs(a.coeffs)) > 0


def test_a_mismatch_band_with_hi_below_lo_is_widened():
    # the decay study's own band on a 4.5pi box: (2pi/L, 0.4) with 2pi/L > 0.4
    grid = Grid(2, 16, 4.5 * np.pi)
    k0 = 2.0 * np.pi / grid.length
    s = euler_ns_state(grid, DataRecipe(seed=3, k_band=(k0, 0.5), mismatch_band=(k0, 0.4)))
    mismatch = (s.u - s.v).coeffs
    assert np.max(np.abs(mismatch)) > 0
    assert np.all(grid.kmag[np.any(mismatch != 0, axis=0)] >= k0)


def test_band_of_the_zero_mode_alone_is_a_config_error():
    with pytest.raises(ConfigError):
        random_scalar(GRIDS[2], np.random.default_rng(0), 1.0, (0.0, 0.1))


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([Grid(2, 16, 2.0 * np.pi), Grid(2, 32, 8.0 * np.pi),
                             Grid(3, 16, 2.0 * np.pi)]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       sigma1=st.sampled_from([None, -1.0, 0.5]),
       k_band=st.sampled_from([(0.5, 3.0), (1.0, 2.5), (0.0, 1.5)]),
       amplitude=st.floats(min_value=1e-3, max_value=1e3))
def test_random_scalar_is_real_zero_mean_banded_and_scaled(grid, seed, sigma1, k_band, amplitude):
    f = random_scalar(grid, np.random.default_rng(seed), amplitude, k_band, sigma1)
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(from_physical(grid, to_physical(f)).coeffs - f.coeffs)) <= 1e-14 * scale
    assert f.zero_mode() == 0.0
    outside = (grid.kmag < k_band[0]) | (grid.kmag > k_band[1])
    assert np.all(f.coeffs[outside] == 0.0)
    assert abs(np.max(np.abs(to_physical(f))) - amplitude) <= 1e-14 * amplitude
