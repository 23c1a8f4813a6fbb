"""Limit-process objects: stable densities, hitting densities, constants.

All densities are computed by characteristic-function inversion
    p_t(x) = (1/pi) Re int_0^inf e^{-t psi(theta)} e^{-i x theta} dtheta,
with the integrand cut at theta* where t cos(pi gamma/2) theta^alpha = 44
(below e^{-44}), geometric panels against the theta^alpha cusp at the origin
and half-period panels against the cos(x theta) oscillation.  Far tails use
the classical asymptotic series in x^{-alpha}, with the first omitted term as
the error bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureNonConvergence
from .special import gamma_fn, gk_panels
from .walk_model import StableParams

_CUT = 44.0  # exp(-44) ~ 8e-20: below double noise for O(1) integrands
_X_ROWS = 128  # x rows per block of _quadrature's oscillatory matrix product
_FAR_TERMS = 5  # terms of the far-tail series; the sixth is the error bound


def psi(theta, params: StableParams):
    """Characteristic exponent e^{i sgn(theta) pi gamma / 2} |theta|^alpha."""
    theta = np.asarray(theta, dtype=float)
    phase = np.exp(1j * np.sign(theta) * math.pi * params.gamma / 2.0)
    out = phase * np.abs(theta) ** params.alpha
    return out if out.shape else complex(out)


def _theta_breaks(t: float, params: StableParams, x_max: float) -> np.ndarray:
    """Panel breakpoints on [0, theta*] resolving both the cusp and cos(x theta)."""
    cr = math.cos(math.pi * params.gamma / 2.0)
    theta_star = (_CUT / (t * cr)) ** (1.0 / params.alpha)
    n_osc = int(abs(x_max) * theta_star / math.pi) + 1
    n_base = max(33, min(n_osc + 1, 250_000))
    uni = np.linspace(0.0, theta_star, n_base)
    geo = theta_star * 2.0 ** (-np.arange(1, 48, dtype=float))
    return np.unique(np.concatenate([[0.0], geo, uni]))


def _quadrature(t: float, xs: np.ndarray, params: StableParams, deriv: int) -> tuple[np.ndarray, np.ndarray]:
    """p_t(x) (or its x-derivative) by the inversion integral, with error estimates."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    breaks = _theta_breaks(t, params, float(np.abs(xs).max()) if len(xs) else 1.0)
    nodes, wk, wg, _ = gk_panels(breaks)
    g = np.exp(-t * psi(nodes, params))
    if deriv:
        g = g * (-1j * nodes) ** deriv
    # e^{-ix theta} g w = (cos - i sin)(a + ib): with columns (a, b) of g wk and
    # (c, d) of g wg, both real matrix products give every part of both rules
    gw = np.stack([(g * wk).real, (g * wk).imag, (g * wg).real, (g * wg).imag], axis=1)
    vals = np.empty(len(xs))
    errs = np.empty(len(xs))
    for lo in range(0, len(xs), _X_ROWS):
        chunk = xs[lo : lo + _X_ROWS]
        phase = np.outer(chunk, nodes)
        ca, cb, cc, cd = (np.cos(phase) @ gw).T
        sa, sb, sc, sd = (np.sin(phase, out=phase) @ gw).T
        vk_re, vk_im = ca + sb, cb - sa
        vals[lo : lo + len(chunk)] = vk_re / math.pi
        errs[lo : lo + len(chunk)] = np.hypot(vk_re - (cc + sd), vk_im - (cd - sc)) / math.pi
    return vals, errs


def density_series_far(t: float, xs: np.ndarray, params: StableParams, deriv: int = 0):
    """p_t(x) (or d/dx p_t) by the far-tail series; |x| >> t^{1/alpha} only."""
    xs = np.asarray(xs, dtype=float)
    a = params.alpha
    side = np.where(xs >= 0, 1, -1)
    if deriv == 0:
        return _far_series(t, np.abs(xs), params, side, _FAR_TERMS, lambda k: 1.0, -1.0)
    out, err = _far_series(t, np.abs(xs), params, side, _FAR_TERMS, lambda k: -(k * a + 1.0), -2.0)
    # d/dx p_t(x): for x<0 the chain rule flips the sign
    return side * out, err


_SERIES_SWITCH = 35.0  # |x| / t^{1/alpha} beyond which the far series is used


def density_grid(t: float, xs: np.ndarray, params: StableParams, deriv: int = 0):
    """p_t(x) (or its x-derivative) on a batch of points, with error estimates.

    Points with |x| > 35 t^{1/alpha} take the far-tail series, the rest the
    inversion integral.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cut = _SERIES_SWITCH * t ** (1.0 / params.alpha)
    far = np.abs(xs) > cut
    vals = np.empty(xs.shape)
    errs = np.empty(xs.shape)
    if (~far).any():
        v, e = _quadrature(t, xs[~far], params, deriv)
        vals[~far], errs[~far] = v, e
    if far.any():
        v, e = density_series_far(t, xs[far], params, deriv=deriv)
        vals[far], errs[far] = v, e
    return vals, errs


def density_at_zero(t: float, params: StableParams) -> float:
    """p_t(0) in closed form: Gamma(1/a) sin(pi (a-g)/(2a)) / (pi a t^{1/a})."""
    a, g = params.alpha, params.gamma
    return (
        gamma_fn(1.0 / a)
        * math.sin(math.pi * (a - g) / (2.0 * a))
        / (math.pi * a)
        * t ** (-1.0 / a)
    )


# ---------------------------------------------------------------------------
# far-tail series (classical expansion in x^{-alpha})
# ---------------------------------------------------------------------------


def _tail_sin(params: StableParams, k: int, side: int) -> float:
    """sin(k pi (alpha -+ gamma)/2): '+x' tail uses alpha-gamma, '-x' alpha+gamma."""
    a, g = params.alpha, params.gamma
    arg = a - g if side > 0 else a + g
    return math.sin(k * math.pi * arg / 2.0)


def _far_series(t: float, z, params: StableParams, side, terms: int, weight, shift: float):
    """(sum_{k <= terms} c_k weight(k) z^{shift - k alpha}, first omitted term's size).

    c_k = (-1)^{k-1} Gamma(k alpha + 1)/k! sin(k pi (alpha -+ gamma)/2) t^k / pi
    is the k-th coefficient of p_t(+-z) in powers of z^{-alpha}; its tail
    integrals and derivative differ only in weight(k) and shift.  The error
    bound is the (terms + 1)-th term without its sine.  side (+1 / -1) may be
    an array matching z.
    """
    a = params.alpha
    total = 0.0
    for k in range(1, terms + 1):
        c_k = (-1.0) ** (k - 1) * gamma_fn(k * a + 1.0) / math.factorial(k) * t ** k / math.pi
        sin_k = np.where(side > 0, _tail_sin(params, k, +1), _tail_sin(params, k, -1))
        total = total + c_k * sin_k * weight(k) * z ** (shift - k * a)
    k = terms + 1
    mag = gamma_fn(k * a + 1.0) / math.factorial(k) * t ** k / math.pi
    return total, mag * abs(weight(k)) * z ** (shift - k * a)


# ---------------------------------------------------------------------------
# hitting density of the origin
# ---------------------------------------------------------------------------


def _f1_integral(t: float, params: StableParams) -> float:
    """f^1(t) by the first-passage time-convolution representation.

    The (1-u)^{-1+1/alpha} endpoint singularity is removed exactly by the
    substitution u = 1 - v^alpha.
    """
    a = params.alpha
    p10 = density_at_zero(1.0, params)
    pref = math.sin(math.pi / a) / (math.pi * p10) / (a * t ** (1.0 + 1.0 / a)) * a

    v_nodes, wk, _, _ = gk_panels(np.linspace(0.0, 1.0, 65))
    u = 1.0 - v_nodes ** a
    u = np.clip(u, 1e-140, 1.0)
    args = -((t * u) ** (-1.0 / a))
    dvals, _ = density_grid(1.0, args, params, deriv=1)
    integrand = u ** (-2.0 / a) * dvals
    # u -> 0 endpoint: the integrand decays like u; guard stray non-finite
    integrand = np.where(np.isfinite(integrand), integrand, 0.0)
    return pref * float(integrand @ wk)


def hitting_density(t: float, x: float, params: StableParams) -> float:
    """Density f^x(t) of the first hitting time of 0 from x != 0.

    For the spectrally positive case (gamma = 2 - alpha, x > 0) the creeping
    identity f^x(t) = x t^{-1} p_t(-x) applies; otherwise the density
    derivative is integrated through the first-passage representation
    (_f1_integral) with the scaling f^x(t) = f^1(t/x^alpha)/x^alpha.  A start
    x < 0 is the start -x of the skew-flipped process.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if x == 0:
        raise ValueError("x must be nonzero")
    if x < 0:
        return hitting_density(t, -x, replace(params, gamma=-params.gamma))
    if params.skew_sign > 0:
        val, err = _quadrature(t, np.array([-x]), params, 0)
        if err[0] > 1e-8:
            raise QuadratureNonConvergence(f"p_t(-x) error {err[0]:.2e}")
        return x / t * float(val[0])
    return _f1_integral(t / x ** params.alpha, params) / x ** params.alpha


# ---------------------------------------------------------------------------
# named constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsTable:
    alpha: float
    gamma: float
    c_circ: float
    kappa_hit: float          # hitting-time constant
    kappa_f: float            # f^1(t) tail constant, zero iff gamma = 2-alpha
    kappa_a_plus: float       # a(x) growth constants
    kappa_a_minus: float
    b_plus: float             # boundary constants of the killed density
    b_minus: float
    p1_zero: float
    b_ladder: float           # half-line survival constant (gamma = 2-alpha)
    kappa_V: float            # ascending-ladder renewal constant (gamma = 2-alpha)

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def constants(params: StableParams) -> ConstantsTable:
    a, g, c = params.alpha, params.gamma, params.c_circ
    p1_zero = density_at_zero(1.0, params)
    kappa_hit = (
        (a - 1.0)
        * math.sin(math.pi / a)
        / (gamma_fn(1.0 / a) * math.sin(math.pi * (a - g) / (2.0 * a)))
    )
    kappa_f = (
        gamma_fn(2.0 - a)
        * math.sin(math.pi / a)
        * math.sin(math.pi * (a + g) / 2.0)
        / (a * math.pi ** 2 * p1_zero)
    )
    kappa_a_plus = -gamma_fn(1.0 - a) / math.pi * math.sin(math.pi * (a + g) / 2.0)
    kappa_a_minus = -gamma_fn(1.0 - a) / math.pi * math.sin(math.pi * (a - g) / 2.0)
    b_plus = -gamma_fn(1.0 - a) / math.pi * math.sin(math.pi * (a - g) / 2.0)
    b_minus = -gamma_fn(1.0 - a) / math.pi * math.sin(math.pi * (a + g) / 2.0)
    if params.skew_sign > 0:
        b_ladder = 1.0 / (c ** (1.0 / a) * gamma_fn(1.0 - 1.0 / a))
        kappa_v = 1.0 / (c * gamma_fn(a))
    else:
        b_ladder = math.nan
        kappa_v = math.nan
    return ConstantsTable(
        alpha=a,
        gamma=g,
        c_circ=c,
        kappa_hit=kappa_hit,
        kappa_f=kappa_f,
        kappa_a_plus=kappa_a_plus,
        kappa_a_minus=kappa_a_minus,
        b_plus=b_plus,
        b_minus=b_minus,
        p1_zero=p1_zero,
        b_ladder=b_ladder,
        kappa_V=kappa_v,
    )
