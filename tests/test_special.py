"""Special-function layer against independent (mpmath) references."""
import math

import mpmath as mp
import numpy as np
import pytest

from special_oracles import integrate_adaptive, polylog_exp, zeta_tail
from stablewalk.special import (
    gamma_fn,
    integrate_panels,
    omexp,
    x_minus_sin,
    zeta_fn,
)

mp.mp.dps = 60


@pytest.mark.parametrize("x", [0.2, 0.5, 1.0, 1.2, 1.8, 2.5, 3.7, 17.25, -0.5, -0.8, -1.7, -6.3])
def test_gamma_matches_reference(x):
    assert abs(gamma_fn(x) - math.gamma(x)) <= 1e-13 * abs(math.gamma(x))


def test_gamma_pole_raises():
    with pytest.raises(ValueError):
        gamma_fn(-2.0)


# -94.5 = 1.5 - 96 is the deepest order the polylog series of an alpha = 1.5
# law reads; bp15's integer beta = 3 branch reads zeta(3 - k) at negative even
# integers, its trivial zeros
@pytest.mark.parametrize(
    "s",
    [-94.5, -60.3, -11.7, -3.2, -0.8, -0.2, 0.0, 0.3, 0.8, 1.05, 1.2, 1.5, 1.8, 2.4, 3.0, 7.7]
    + [-2.0, -4.0, -50.0, -94.0],
)
def test_zeta_matches_mpmath(s):
    ref = float(mp.zeta(s))
    assert abs(zeta_fn(s) - ref) <= 5e-13 * max(abs(ref), 1.0)
    if s < 0 and s % 2 == 0:
        assert zeta_fn(s) == 0.0


def test_zeta_tail_consistency():
    for s in (1.2, 1.5, 2.4, 3.6):
        head = sum(y ** -s for y in range(1, 200))
        assert zeta_tail(s, 200) == pytest.approx(zeta_fn(s) - head, abs=1e-12)


@pytest.mark.parametrize("s", [1.2, 1.5, 1.83, 2.2, 2.5, 3.0, 3.6, 4.0])
def test_polylog_on_unit_circle(s):
    thetas = np.array([1e-6, 1e-3, 0.3, 1.0, 2.2, math.pi])
    got = polylog_exp(s, thetas)
    ref = np.array([complex(mp.polylog(s, mp.exp(1j * mp.mpf(float(t))))) for t in thetas])
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 5e-13


def test_omexp_small_argument():
    x = np.array([1e-12, 1e-8, 1e-4, 0.5])
    got = omexp(x)
    # real part 1 - cos x = x^2/2 - ... must survive at tiny x
    assert got.real[0] == pytest.approx(0.5e-24, rel=1e-12)
    ref = 1.0 - np.exp(1j * x[2:])
    assert np.abs(got[2:] - ref).max() < 1e-15


def test_x_minus_sin_series_branch():
    xs = np.array([1e-9, 1e-4, 5e-3, 0.5, 2.0, -1e-4])
    ref = np.array([float(mp.mpf(float(x)) - mp.sin(mp.mpf(float(x)))) for x in xs])
    rel = np.abs(x_minus_sin(xs) - ref) / np.maximum(np.abs(ref), 1e-30)
    assert rel.max() < 1e-14


def test_panel_integration_exact_polynomial():
    val, err = integrate_panels(lambda t: t ** 6 + 0j, np.linspace(0.0, 1.0, 5))
    assert val.real == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert err < 1e-14


def test_adaptive_integration_oscillatory():
    val, err = integrate_adaptive(lambda t: np.cos(40.0 * t) + 0j, 0.0, 1.0, abs_tol=1e-12)
    assert val.real == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)
