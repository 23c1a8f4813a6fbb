"""Special functions only tests read, built on the package's own primitives.

zeta_tail sums y^{-s} past m by an Euler-Maclaurin tail with its own
Bernoulli numbers, a route to zeta independent of zeta_fn (scipy.special's),
polylog_exp adds the singular term back to the analytic part of
Li_s(e^{i theta}), and integrate_adaptive splits GK15 panels until the
embedded error estimate is met; each is checked against mpmath or a direct
sum.
"""
import math

import numpy as np

from stablewalk.errors import QuadratureNonConvergence
from stablewalk.special import _panel_sums, polylog_analytic, polylog_sing, zeta_fn

# Bernoulli numbers B_2 .. B_16 for the Euler-Maclaurin tail.
_B2K = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
)


def zeta_tail(s: float, m: int) -> float:
    """sum_{y >= m} y^{-s} for s > 1, by Euler-Maclaurin (no large partial sums)."""
    if m < 30:
        head = sum(y ** (-s) for y in range(1, m))
        return zeta_fn(s) - head
    big_m = float(m)
    total = big_m ** (1.0 - s) / (s - 1.0) + 0.5 * big_m ** (-s)
    rising = s
    mpow = big_m ** (-s - 1.0)
    for k, b in enumerate(_B2K, start=1):
        total += b / math.factorial(2 * k) * rising * mpow
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        mpow /= big_m * big_m
    return total


def polylog_exp(s: float, theta: np.ndarray) -> np.ndarray:
    """Li_s(e^{i theta}) for 0 < theta <= pi (series converges for theta < 2 pi)."""
    return polylog_analytic(s, theta) + polylog_sing(s, theta)


def integrate_adaptive(f, a, b, abs_tol=1e-12, max_splits=14, initial=33):
    """Adaptive panel-splitting GK15 on [a, b] for vectorised complex f."""
    breaks = np.linspace(a, b, initial)
    for _ in range(max_splits):
        per_k, per_g = _panel_sums(f, breaks)
        err = np.abs(per_k - per_g)
        if err.sum() <= abs_tol:
            return per_k.sum(), float(err.sum())
        worst = err > max(abs_tol / max(len(breaks), 1), err.max() / 8.0)
        mids = 0.5 * (breaks[:-1][worst] + breaks[1:][worst])
        breaks = np.sort(np.concatenate([breaks, mids]))
    raise QuadratureNonConvergence(
        f"adaptive GK15 on [{a}, {b}]: error {err.sum():.3e} > {abs_tol:.1e}"
    )
