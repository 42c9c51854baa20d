import numpy as np
import pytest
from hypothesis import given, strategies as st

from robustrates import ValidationError, VolBand, g_value

finite_a = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_generator_zero_is_zero():
    assert g_value(VolBand(0.1, 0.3), 0.0) == 0.0


def test_generator_hand_values():
    # sup of sigma^2 * a / 2 over [0.01, 0.09]
    band = VolBand(0.1, 0.3)
    assert g_value(band, 1.0) == pytest.approx(0.045, abs=1e-15)
    assert g_value(band, -1.0) == pytest.approx(-0.005, abs=1e-15)


@given(a=finite_a)
def test_generator_positive_homogeneity(a):
    band = VolBand(0.1, 0.3)
    for lam in (0.0, 0.5, 2.0, 7.25):
        assert g_value(band, lam * a) == pytest.approx(lam * g_value(band, a), rel=1e-12, abs=1e-300)


@given(a=finite_a, b=finite_a)
def test_generator_monotone_and_subadditive(a, b):
    band = VolBand(0.05, 0.4)
    lo, hi = min(a, b), max(a, b)
    assert g_value(band, lo) <= g_value(band, hi)
    assert g_value(band, a + b) <= g_value(band, a) + g_value(band, b) + 1e-9 * (abs(a) + abs(b))


@given(a=finite_a)
def test_generator_sublinearity_gap(a):
    band = VolBand(0.1, 0.3)
    assert g_value(band, a) + g_value(band, -a) >= -1e-18
    degenerate = VolBand(0.2, 0.2)
    assert g_value(degenerate, a) + g_value(degenerate, -a) == pytest.approx(0.0, abs=1e-12 * (1 + abs(a)))


def test_generator_gap_strictly_positive_iff_band_wide():
    band = VolBand(0.1, 0.3)
    assert g_value(band, 2.0) + g_value(band, -2.0) > 0.0


def test_generator_vectorized():
    band = VolBand(0.1, 0.3)
    a = np.array([-2.0, 0.0, 2.0])
    np.testing.assert_allclose(g_value(band, a), [-0.01, 0.0, 0.09])


def test_generator_is_bitwise_the_halved_selected_variance():
    # the 1/2 rides on the scalars; halving is exact while results stay normal
    band = VolBand(0.005, 0.02)
    rng = np.random.default_rng(0)
    a = np.concatenate([[-np.inf, -1e300, -0.0, 0.0, 1e300, np.inf, np.nan],
                        rng.normal(size=1000) * 10.0 ** rng.integers(-290, 290, 1000)])
    expected = 0.5 * np.where(a >= 0.0, band.sigma_hi**2 * a, band.sigma_lo**2 * a)
    assert g_value(band, a).tobytes() == expected.tobytes()


@pytest.mark.parametrize("band", [VolBand(0.005, 0.02), VolBand(0.02, 0.02), VolBand(1e-150, 1e150)])
def test_generator_is_bitwise_the_selecting_form(band):
    # g_value takes the larger of both products; the reference selects first
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(7)
    a = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf, np.nan, 1e308, -1e308],
        rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-300, 300, 10_000),
    ])
    before = a.copy()
    with np.errstate(over="ignore"):
        expected = np.where(a >= 0.0, 0.5 * band.sigma_hi**2, 0.5 * band.sigma_lo**2) * a
        got = g_value(band, a)
    assert got.tobytes() == expected.tobytes()
    assert a.tobytes() == before.tobytes()  # the caller's array is not written
    for x in (1.5, -1.5, 0.0, -0.0):
        v = g_value(band, x)
        assert type(v) is float
        assert np.float64(v).tobytes() == (np.where(x >= 0.0, 0.5 * band.sigma_hi**2, 0.5 * band.sigma_lo**2) * x).tobytes()


@pytest.mark.parametrize("lo,hi", [(0.0, 0.1), (-0.1, 0.1), (0.2, 0.1), (np.nan, 0.1)])
def test_band_validation(lo, hi):
    with pytest.raises(ValidationError):
        VolBand(lo, hi)


def test_band_helpers():
    band = VolBand(0.005, 0.02)
    assert not band.is_degenerate
    assert band.midpoint == pytest.approx(0.0125)
    assert band.contains([0.005, 0.01, 0.02])
    assert not band.contains(0.021)
