"""Stable density, hitting density, constants: closed forms and cross-identities."""
import math

import numpy as np
import pytest

from stable_oracles import (
    WrongSkew,
    abs_moment,
    kappa_hit_p1,
    meander_density,
    meander_small_eta_slope,
    normalization_check,
    stable_density,
)
from stablewalk.special import gamma_fn
from stablewalk.stable_numerics import (
    _f1_integral,
    _quadrature,
    constants,
    density_at_zero,
    density_grid,
    density_series_far,
    hitting_density,
    psi,
)
from stablewalk.walk_model import StableParams, stable_params_of


def make_params(alpha, gamma, c=1.0):
    return StableParams(alpha=alpha, gamma=gamma, c_circ=c)


GRID = [
    (a, g)
    for a in (1.2, 1.5, 1.8)
    for g in (0.0, (2 - a) / 2, -(2 - a) / 2, 2 - a, -(2 - a))
]


def test_psi_modulus_and_symmetry():
    p = make_params(1.5, 0.3)
    th = np.array([-2.0, -0.5, 0.5, 2.0])
    vals = psi(th, p)
    assert np.allclose(np.abs(vals), np.abs(th) ** 1.5)
    assert np.allclose(psi(-th, p), np.conj(vals))
    assert psi(0.0, p) == 0.0
    assert np.all(vals.real > 0)
    assert np.allclose(vals.real, math.cos(0.15 * math.pi) * np.abs(th) ** 1.5)


@pytest.mark.parametrize("alpha,gamma", GRID)
def test_density_at_zero_closed_form(alpha, gamma):
    p = make_params(alpha, gamma)
    ev = stable_density(1.0, 0.0, p)
    closed = gamma_fn(1 / alpha) * math.sin(math.pi * (alpha - gamma) / (2 * alpha)) / (math.pi * alpha)
    assert abs(ev.value - closed) < 1e-8
    assert closed == pytest.approx(density_at_zero(1.0, p), rel=1e-15)


def test_density_at_zero_extremal_form():
    for alpha in (1.2, 1.5, 1.8):
        p = make_params(alpha, 2 - alpha)
        assert density_at_zero(1.0, p) == pytest.approx(
            1.0 / (alpha * gamma_fn(1 - 1 / alpha)), rel=1e-13
        )


def test_density_symmetry_gamma_zero():
    p = make_params(1.5, 0.0)
    for x in (0.5, 1.0, 2.0):
        assert stable_density(1.0, x, p).value == pytest.approx(
            stable_density(1.0, -x, p).value, rel=1e-12
        )


def test_density_scaling_relation():
    p = make_params(1.5, 0.25)
    t = 2.7
    for x in (0.4, 1.3, 5.0):
        lhs = stable_density(t, x, p).value
        rhs = t ** (-1 / 1.5) * stable_density(1.0, x * t ** (-1 / 1.5), p).value
        ev = stable_density(t, x, p)
        assert abs(lhs - rhs) <= max(2 * ev.abs_error_estimate, 1e-13)


@pytest.mark.parametrize("deriv", [0, 1])
def test_density_grid_takes_each_route_on_its_side_of_the_cut(deriv):
    """Inside 35 t^{1/alpha} density_grid is the quadrature bit for bit; beyond it, the far-tail series."""
    for p in (make_params(1.5, 0.25), make_params(1.2, 0.8)):
        for t in (0.7, 2.0):
            cut = 35.0 * t ** (1.0 / p.alpha)
            near = np.array([-0.99 * cut, -3.0, 0.0, 1.5, cut])
            far = np.array([-4.0 * cut, -1.01 * cut, 1.01 * cut, 3.0 * cut])
            for xs, route in ((near, _quadrature(t, near, p, deriv)), (far, density_series_far(t, far, p, deriv=deriv))):
                vals, errs = density_grid(t, xs, p, deriv=deriv)
                assert np.array_equal(vals, route[0]) and np.array_equal(errs, route[1])


def test_hitting_density_creeping_route_unchanged(sp15):
    """On sp15, f^1(c) is x p_c(-x)/t off the quadrature alone, whatever the series cut."""
    p = stable_params_of(sp15)
    val = hitting_density(p.c_circ, 1.0, p)
    assert val == 1.0 / p.c_circ * float(_quadrature(p.c_circ, np.array([-1.0]), p, 0)[0][0])
    assert val == pytest.approx(0.586142816707243, rel=1e-12)


def test_density_positive_on_window():
    # non-extremal skew: both tails are power laws, positivity holds everywhere
    p = make_params(1.5, 0.25)
    xs = np.linspace(-10, 10, 41)
    vals, _ = density_grid(1.0, xs, p)
    assert np.all(vals > 0)
    # extremal skew: the spectrally-positive left tail decays beyond double
    # precision by |x| ~ 5; positivity is asserted where the density is
    # resolvable and only noise-level negativity is tolerated beyond
    pe = make_params(1.5, 0.5)
    vals_e, errs_e = density_grid(1.0, xs, pe)
    resolvable = np.abs(vals_e) > 10 * errs_e + 1e-15
    assert np.all(vals_e[resolvable] > 0)
    assert vals_e.min() > -1e-12


@pytest.mark.parametrize("alpha,gamma", GRID)
def test_normalization(alpha, gamma):
    p = make_params(alpha, gamma)
    mass, err = normalization_check(1.0, p)
    assert abs(mass - 1.0) < 1e-6


@pytest.mark.parametrize("alpha,gamma", GRID)
def test_abs_moment_closed_vs_quadrature(alpha, gamma):
    p = make_params(alpha, gamma)
    closed = abs_moment(1.0, p, "closed")
    quad = abs_moment(1.0, p, "quadrature")
    assert abs(closed - quad) < 1e-5


def test_abs_moment_scaling():
    p = make_params(1.5, 0.2)
    assert abs_moment(3.0, p) == pytest.approx(3.0 ** (1 / 1.5) * abs_moment(1.0, p), rel=1e-14)


def test_constants_table_identities():
    for alpha in (1.2, 1.5, 1.8):
        for gamma in (0.0, (2 - alpha) / 2, 2 - alpha):
            c = constants(make_params(alpha, gamma))
            # two printed expressions for the hitting constant agree
            assert abs(c.kappa_hit - kappa_hit_p1(make_params(alpha, gamma))) < 1e-10
            # evenness in gamma
            c2 = constants(make_params(alpha, -gamma))
            assert c.kappa_hit == pytest.approx(c2.kappa_hit, abs=1e-12)


def test_constants_extremal_values():
    alpha = 1.5
    c = constants(make_params(alpha, 2 - alpha))
    assert c.kappa_hit == pytest.approx((alpha - 1) / gamma_fn(1 / alpha), rel=1e-12)
    assert abs(c.kappa_f) < 1e-10
    assert c.b_minus == pytest.approx(0.0, abs=1e-12)
    assert c.b_plus == pytest.approx(1.0 / gamma_fn(alpha), rel=1e-12)
    assert c.kappa_a_plus == pytest.approx(0.0, abs=1e-12)
    assert c.kappa_a_minus == pytest.approx(1.0 / gamma_fn(alpha), rel=1e-12)
    # ladder-side constants
    cc = make_params(alpha, 2 - alpha, c=0.7)
    c3 = constants(cc)
    assert c3.b_ladder == pytest.approx(1.0 / (0.7 ** (1 / alpha) * gamma_fn(1 - 1 / alpha)), rel=1e-12)
    assert c3.kappa_V == pytest.approx(1.0 / (0.7 * gamma_fn(alpha)), rel=1e-12)


def test_kappa_f_sign_dichotomy():
    for alpha in (1.2, 1.5, 1.8):
        below = constants(make_params(alpha, (2 - alpha) / 2))
        assert below.kappa_f > 0
        at = constants(make_params(alpha, 2 - alpha))
        assert abs(at.kappa_f) < 1e-10


def test_kappa_f_integral_form():
    """First Corollary-1 expression: integral of u^{1-a} p'(-u) matches closed form."""
    alpha, gamma = 1.5, 0.2
    p = make_params(alpha, gamma)
    # substitution u = v^2 removes the u^{1-alpha} endpoint singularity
    vs = np.linspace(1e-8, math.sqrt(60.0), 2501)
    dv, _ = density_grid(1.0, -(vs ** 2), p, deriv=1)
    integrand = 2.0 * vs ** (3 - 2 * alpha) * dv
    val = np.trapezoid(integrand, vs)
    closed = gamma_fn(2 - alpha) * math.sin(math.pi * (alpha + gamma) / 2) / (alpha * math.pi)
    assert val == pytest.approx(closed, rel=2e-3)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_hitting_density_two_paths(alpha):
    p = make_params(alpha, 2 - alpha)
    for t, x in ((1.0, 1.0), (3.0, 2.0)):
        ident = hitting_density(t, x, p)  # the creeping identity at gamma = 2 - alpha
        integ = _f1_integral(t / x ** alpha, p) / x ** alpha
        assert abs(ident - integ) < 1e-8
        assert ident >= 0.0


def test_hitting_density_scaling():
    p = make_params(1.5, 0.2)
    for x in (2.0, 5.0):
        for t in (1.0, 10.0):
            lhs = hitting_density(t, x, p)
            rhs = hitting_density(t / x ** 1.5, 1.0, p) / x ** 1.5
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_hitting_density_negative_start_flips_skew():
    p = make_params(1.5, 0.3)
    pflip = make_params(1.5, -0.3)
    assert hitting_density(2.0, -1.5, p) == pytest.approx(
        hitting_density(2.0, 1.5, pflip), rel=1e-12
    )


def test_cor1_trend_to_kappa_f():
    p = make_params(1.5, 0.2)
    c = constants(p)
    devs = []
    for t in (10.0, 100.0, 1000.0, 10000.0):
        scaled = t ** (2 - 1 / 1.5) * hitting_density(t, 1.0, p)
        devs.append(abs(scaled / c.kappa_f - 1.0))
    assert devs[0] > devs[1] > devs[2] > devs[3]
    assert devs[-1] < 0.05


def test_meander_wrong_skew():
    with pytest.raises(WrongSkew):
        meander_density(1.0, 0.5, make_params(1.5, 0.0), K=1.0)


def test_meander_dual_density_normalises():
    """Q_hat' integrates to one over (0, inf)."""
    p = make_params(1.5, 0.5)
    etas = np.linspace(1e-4, 30.0, 3000)
    vals = np.array([meander_density(1.0, e, p).q_hat_prime for e in etas[:: len(etas) // 300]])
    sub = etas[:: len(etas) // 300]
    total = np.trapezoid(vals, sub)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_meander_scaling_and_small_eta():
    p = make_params(1.5, 0.5)
    # Q_t(eta) = Q_1(eta/t^{1/alpha}) => Q_t'(eta) = Q_1'(eta t^{-1/a}) t^{-1/a};
    # with Q' = K/(alpha p_t(0)) this is inherited from K's scaling, checked
    # here through the closed-form small-eta slope instead.
    for t in (1.0, 2.0, 8.0):
        slope = meander_small_eta_slope(t, p, 0.25)
        ref = 0.25 ** 0.5 / (t * 1.5 * gamma_fn(1.5))
        assert slope == pytest.approx(ref, rel=1e-14)


def test_hitting_density_space_integral_extremal():
    """gamma = 2-alpha: int_0^inf f^x(t) dx = t^{-1+1/alpha}/Gamma(1/alpha)."""
    alpha = 1.5
    p = make_params(alpha, 2 - alpha)
    t = 2.0
    xs = np.linspace(1e-4, 40.0, 1500)
    vals = np.array([hitting_density(t, float(x), p) for x in xs[::5]])
    total = np.trapezoid(vals, xs[::5])
    target = t ** (-1 + 1 / alpha) / gamma_fn(1 / alpha)
    assert total == pytest.approx(target, rel=2e-3)


def test_meander_q_prime_consumes_k():
    p = make_params(1.5, 0.5)
    ev = meander_density(2.0, 0.7, p, K=0.31)
    assert ev.q_prime == pytest.approx(0.31 / (1.5 * density_at_zero(2.0, p)), rel=1e-14)
    assert ev.q_hat_prime > 0
