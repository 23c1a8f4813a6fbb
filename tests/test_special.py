"""Special-function layer against independent (mpmath) references."""
import math

import mpmath as mp
import numpy as np
import pytest

from special_oracles import chirp_z_batched, integrate_adaptive, polylog_exp, zeta_tail
from stablewalk.special import (
    chirp_z,
    gamma_fn,
    integrate_panels,
    omexp,
    panel_breaks,
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


def _union(*parts):
    return np.unique(np.concatenate(parts))


def test_panel_breaks_is_each_quadratures_former_rule():
    """panel_breaks gives, bit for bit, each of the five break arrays its callers built before it.

    The oracles write out those five rules over their callers' parameter
    ranges: the lattice-offset panels (one octave per halving of pi, cut
    below 1e-13 / 2), the stable densities' theta panels, the a(x) cusp
    panels in u = theta^{2 - alpha}, and the Fourier oracle's tau panels and
    its theta panels t0 2^k <= pi, also for t0 an ulp either side of pi / 2^k.
    """
    def same(a, b):
        return a.tobytes() == b.tobytes()

    n = max(math.ceil(math.log2(math.pi / 1e-13)), 4)
    pts = math.pi * 2.0 ** -np.arange(1, n + 1, dtype=float)
    assert same(panel_breaks(math.pi, 2, 45, math.pi), _union([0.0, math.pi], pts[pts > 1e-13 / 2]))

    for theta_star in np.geomspace(0.05, 1e5, 97):
        for points in (33, 34, 1001, 250_000):
            oracle = _union([0.0], theta_star * 2.0 ** (-np.arange(1, 48, dtype=float)),
                            np.linspace(0.0, theta_star, points))
            assert same(panel_breaks(theta_star, points, 47, theta_star), oracle)

    for alpha in (1.01, 1.2, 1.5, 1.8, 1.99):
        for X in (1, 2, 49, 50, 51, 64, 1000, 4096, 2 ** 20):
            u_hi = min(0.5, 25.0 / X) ** (2.0 - alpha)
            oracle = _union([0.0], u_hi * 2.0 ** (-np.arange(1, 44, dtype=float)), np.linspace(0.0, u_hi, 65))
            assert same(panel_breaks(u_hi, 65, 43, u_hi), oracle)

    for n in [*range(1, 70), 255, 256, 1024, 4095, 4096]:
        cusp = math.pi / max(n, 1) * 2.0 ** -np.arange(1, 34, dtype=float)
        oracle = _union(np.linspace(0.0, math.pi, max(2, n + 1)), cusp)
        assert same(panel_breaks(math.pi, n + 1, 33, math.pi / n), oracle)

    edges = [math.pi / 2 ** k for k in range(6, 25)]
    t0s = [1e-7, 0.05, *np.geomspace(1e-7, 0.05, 499), *edges, *np.nextafter(edges, 0.0), *np.nextafter(edges, 1.0)]
    for t0 in map(float, t0s):
        n_up = int(math.ceil(math.log2(math.pi / t0))) + 1
        oracle = _union([0.0], t0 * 2.0 ** np.arange(0, n_up), [math.pi])
        m = next(k for k in range(64) if t0 * 2.0 ** k > math.pi)
        assert same(panel_breaks(math.pi, 2, m, t0 * 2.0 ** m), oracle[oracle <= math.pi])


@pytest.mark.parametrize("na, cols, b0, nb", [(129, 15, 0, 8176), (8176, 15, -4096, 8193), (7, 3, 2, 1), (1, 1, -5, 11)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_chirp_z_columns_are_the_batched_transform(na, cols, b0, nb, dtype):
    """chirp_z, one column at a time, has the bits of one batched FFT along axis 0."""
    rng = np.random.default_rng(na)
    c = rng.standard_normal((na, cols)).astype(dtype)
    if dtype is complex:
        c += 1j * rng.standard_normal((na, cols))
    assert np.array_equal(chirp_z(c, -3, b0, nb, 0.0123), chirp_z_batched(c, -3, b0, nb, 0.0123))
