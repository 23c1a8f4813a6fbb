"""Stable-law quantities only tests read: point densities, mass, moments, meanders.

Each evaluates the package's density quadrature or far-tail series at test
points and checks it against a closed form or a conservation identity; the
verification drivers never call them.  kappa_hit_p1 is the hitting-time
constant by its second printed form, through p_1(0).
"""
import math
from dataclasses import dataclass

import numpy as np

from stablewalk.errors import QuadratureNonConvergence, StableWalkError
from stablewalk.special import gamma_fn, gk_panels
from stablewalk.stable_numerics import _far_series, _quadrature, density_at_zero, density_grid
from stablewalk.walk_model import StableParams


class WrongSkew(StableWalkError):
    """Operation requires the spectrally positive case gamma = 2 - alpha."""


@dataclass(frozen=True)
class StableDensityEval:
    t: float
    x: float
    value: float
    abs_error_estimate: float


def kappa_hit_p1(params: StableParams) -> float:
    """kappa = (1 - 1/alpha) sin(pi/alpha) / (pi p_1(0)), the p_1(0) form of ConstantsTable.kappa_hit."""
    a = params.alpha
    return (1.0 - 1.0 / a) * math.sin(math.pi / a) / (density_at_zero(1.0, params) * math.pi)


def stable_density(t: float, x: float, params: StableParams) -> StableDensityEval:
    """Density of Y_t at x."""
    vals, errs = density_grid(t, np.array([x]), params)
    val, err = float(vals[0]), float(errs[0])
    if err > 1e-8:
        raise QuadratureNonConvergence(f"density quadrature error {err:.2e}")
    return StableDensityEval(t=t, x=float(x), value=max(val, 0.0), abs_error_estimate=err)


def tail_mass_series(X: float, t: float, params: StableParams, side: int, terms: int = 3):
    """(P[Y_t > X] or P[Y_t < -X], error bound) by the asymptotic series."""
    a = params.alpha
    total, bound = _far_series(t, X, params, side, terms, lambda k: 1.0 / (k * a), 0.0)
    return float(total), bound


def tail_absmoment_series(X: float, t: float, params: StableParams, side: int, terms: int = 3):
    """(int_X^inf x p_t(+-x) dx, error bound) by the asymptotic series."""
    a = params.alpha
    total, bound = _far_series(t, X, params, side, terms, lambda k: 1.0 / (k * a - 1.0), 1.0)
    return float(total), bound


def _x_breaks(t: float, X: float) -> np.ndarray:
    """x-panels on [-X, X]: fine near 0 on the t^{1/alpha} scale, geometric out."""
    scale = max(t, 1e-6) ** 0.7  # mild widening with t; exactness comes from GK
    inner = np.linspace(0.0, min(4.0 * scale, X), 17)
    if X > inner[-1]:
        n_geo = max(int(math.ceil(math.log2(X / max(inner[-1], 1e-3)))) * 4, 4)
        outer = inner[-1] * (X / inner[-1]) ** (np.arange(1, n_geo + 1) / n_geo)
        grid = np.concatenate([inner, outer])
    else:
        grid = inner
    return np.unique(np.concatenate([-grid[::-1], grid]))


def normalization_check(t: float, params: StableParams) -> tuple[float, float]:
    """(integral of p_t over R, error bound): pointwise quadrature + tail series."""
    a = params.alpha
    X = max(32.0, (gamma_fn(4 * a + 1.0) / (24.0 * 4 * a) * t ** 4 / 1e-8) ** (1.0 / (4 * a)))
    nodes, wk, _, _ = gk_panels(_x_breaks(t, X))
    vals, errs = density_grid(t, nodes, params)
    mass = float(vals @ wk)
    err = float(errs @ np.abs(wk))
    tp, ep = tail_mass_series(X, t, params, +1)
    tm, em = tail_mass_series(X, t, params, -1)
    return mass + tp + tm, err + ep + em


def abs_moment(t: float, params: StableParams, method: str = "closed") -> float:
    """E|Y_t| = (2 t^{1/a}/pi) Gamma(1-1/a) sin(pi (a-g)/(2a)), or by quadrature."""
    a, g = params.alpha, params.gamma
    if method == "closed":
        return (
            2.0
            * t ** (1.0 / a)
            / math.pi
            * gamma_fn(1.0 - 1.0 / a)
            * math.sin(math.pi * (a - g) / (2.0 * a))
        )
    if method != "quadrature":
        raise ValueError(method)
    X = max(100.0, 8.0 * t ** (1.0 / a))
    nodes, wk, _, _ = gk_panels(_x_breaks(t, X))
    vals, errs = density_grid(t, nodes, params)
    mom = float((vals * np.abs(nodes)) @ wk)
    tp, _ = tail_absmoment_series(X, t, params, +1)
    tm, _ = tail_absmoment_series(X, t, params, -1)
    return mom + tp + tm


@dataclass(frozen=True)
class MeanderEval:
    t: float
    eta: float
    q_prime: float       # Q_t'(eta), needs an externally supplied K_t(eta)
    q_hat_prime: float   # dual meander density, closed form


def meander_density(t: float, eta: float, params: StableParams, K: float | None = None) -> MeanderEval:
    """Meander density pair at eta > 0 for the spectrally positive case.

    Q_t'(eta) = K_t(eta) / (alpha p_t(0)); K values come from the half-line
    kernel estimator.  The dual density has the closed form
    Q_hat_t'(eta) = t^{-1/alpha} Gamma(1/alpha) p_t(-eta) eta.
    """
    if params.skew_sign <= 0:
        raise WrongSkew("meander densities implemented for gamma = 2 - alpha only")
    if eta <= 0 or t <= 0:
        raise ValueError("t, eta must be positive")
    a = params.alpha
    val, err = _quadrature(t, np.array([-eta]), params, 0)
    if err[0] > 1e-8:
        raise QuadratureNonConvergence(f"p_t(-eta) error {err[0]:.2e}")
    q_hat = t ** (-1.0 / a) * gamma_fn(1.0 / a) * float(val[0]) * eta
    q_prime = math.nan if K is None else K / (a * density_at_zero(t, params))
    return MeanderEval(t=t, eta=eta, q_prime=q_prime, q_hat_prime=q_hat)


def meander_small_eta_slope(t: float, params: StableParams, eta: float) -> float:
    """Leading form eta^{alpha-1}/(t alpha Gamma(alpha)) of Q_t'(eta) as eta -> 0."""
    a = params.alpha
    return eta ** (a - 1.0) / (t * a * gamma_fn(a))
