"""Asymptotic forms and diagnostics no verification driver checks, for tests only.

rhs_theorem6_i is Theorem 6's form for x, y fixed, rhs_theorem6_hitting_form
restates regime (ii) through the hitting density, and lemma76_diagnostic
bounds the free kernel against the stable tail; each reads the same
LawContext a driver does.
"""
import numpy as np

from stablewalk.asymptotics import LawContext, f0_asymptote
from stablewalk.errors import RegimeViolation
from stablewalk.killed_walk import default_window, run_kernel
from stablewalk.stable_numerics import density_grid, hitting_density


def rhs_theorem6_i(ctx: LawContext, x: int, y: int, n: int) -> float:
    """Regime (i), x > 0 > y fixed: a_dagger(x) a(-y) f^0(n) + (a_dagger(x)|y_n| p_c(y_n) + a(-y) x_n p_c(-x_n))/n."""
    if not (x > 0 > y):
        raise RegimeViolation("Theorem 6 needs x > 0 > y")
    inv_a = 1.0 / ctx.params.alpha
    xn, yn = x / n ** inv_a, y / n ** inv_a
    ad = ctx.pot.a_dagger(x)
    am = ctx.pot.a(-y)
    (p_y, p_x), _ = density_grid(ctx.params.c_circ, np.array([yn, -xn]), ctx.params)
    return ad * am * f0_asymptote(n, ctx.params, ctx.consts) + (ad * abs(yn) * p_y + am * xn * p_x) / n


def rhs_theorem6_hitting_form(ctx: LawContext, x: int, y: int, n: int, c_plus_val: float) -> float:
    """Equivalent regime-(ii) form C+ c f^{x-y}(c n) through the hitting density."""
    params = ctx.params
    return c_plus_val * params.c_circ * hitting_density(
        params.c_circ * n, float(x - y), params
    )


def lemma76_diagnostic(ctx: LawContext, n: int) -> float:
    """sup_x p^n(x) n^{1/a} / (1 ^ |x_n|^{-a}) over the window (recorded, not asserted)."""
    inv_a = 1.0 / ctx.params.alpha
    W = default_window(ctx.law, n)
    table = run_kernel(ctx.law, None, [0], n, window=W, keep=[n])
    sl = table.values[n][0]
    xs = np.arange(-W, W + 1, dtype=float)
    xn = np.abs(xs) * float(n) ** -inv_a
    with np.errstate(divide="ignore"):
        xnpow = np.where(xn > 0, xn ** -ctx.params.alpha, np.inf)
    bound = np.minimum(1.0, xnpow)
    return float((sl * float(n) ** inv_a / bound).max())
