"""Scalar special functions and quadrature primitives.

Everything numeric in the library funnels through this module so that the
gamma / zeta / polylog values used in closed-form constants and the ones used
inside quadratures come from a single source.  Gamma and zeta are
scipy.special's, which `import scipy.fft` loads anyway.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft as sfft
import scipy.special as ssp


def gamma_fn(x: float) -> float:
    """Gamma function on the real line (poles at 0, -1, -2, ... raise)."""
    if x == math.floor(x) and x <= 0:
        raise ValueError(f"gamma pole at {x}")
    return float(ssp.gamma(x))


@functools.lru_cache(maxsize=None)
def zeta_fn(s: float) -> float:
    """Riemann zeta on the real line, s != 1.

    Memoised: a law build asks for two to four distinct orders thousands of
    times.
    """
    if abs(s - 1.0) < 1e-9:
        raise ValueError("zeta pole at s=1")
    return float(ssp.zeta(s))


_POLYLOG_K = np.arange(97)  # Taylor terms of the analytic part of Li_s(e^{i theta})
_INV_FACTORIAL = np.array([1.0 / math.factorial(k) for k in _POLYLOG_K])


def polylog_analytic(s: float, theta: np.ndarray) -> np.ndarray:
    """Analytic (Taylor) part of Li_s(e^{i theta}) on 0 < theta <= pi.

    For non-integer s this is sum_k zeta(s-k) (i theta)^k / k!, one Horner
    sum; the Gamma(1-s)(-i theta)^{s-1} singular term is *excluded*.  For
    integer s >= 2 the k = s-1 term with the log replaces the singular term
    and is *included* here, so for integer s this is the full Li_s(e^{i theta}).
    """
    theta = np.asarray(theta, dtype=float)
    n = round(s)
    integer = abs(s - n) < 1e-12
    if integer and n < 2:
        raise ValueError("polylog order must be > 1")
    coef = ssp.zeta((n if integer else s) - _POLYLOG_K) * _INV_FACTORIAL
    log_term = 0.0
    if integer:
        coef[n - 1] = 0.0
        log_term = (1j * theta) ** (n - 1) * _INV_FACTORIAL[n - 1] * (
            sum(1.0 / j for j in range(1, n)) - (np.log(theta) - 1j * math.pi / 2.0)
        )
    return np.polyval(coef[::-1], 1j * theta) + log_term


def polylog_sing(s: float, theta: np.ndarray) -> np.ndarray:
    """Singular term Gamma(1-s)(-i theta)^{s-1} of Li_s(e^{i theta}), theta > 0.

    Zero for integer s (the log branch lives in polylog_analytic instead).
    """
    theta = np.asarray(theta, dtype=float)
    if abs(s - round(s)) < 1e-12:
        return np.zeros(theta.shape, dtype=complex)
    return gamma_fn(1.0 - s) * np.exp((s - 1.0) * (np.log(theta) - 1j * math.pi / 2.0))


def omexp(x: np.ndarray) -> np.ndarray:
    """1 - e^{ix} without cancellation: 2 sin^2(x/2) - i sin(x)."""
    x = np.asarray(x, dtype=float)
    return 2.0 * np.sin(x / 2.0) ** 2 - 1j * np.sin(x)


def x_minus_sin(x: np.ndarray) -> np.ndarray:
    """x - sin(x), series-evaluated for small |x|."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.asarray(x - np.sin(x))
    small = np.abs(x) < 1e-2
    xs = x[small]
    x2 = xs * xs
    out[small] = xs * x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0)))
    return out


def chirp_z(c: np.ndarray, a0: int, b0: int, nb: int, h: float) -> np.ndarray:
    """sum_a c[a - a0] e^{i h a b} for b = b0 ... b0 + nb - 1, per column of c.

    Row i of c belongs to the integer a = a0 + i.  a b = (a^2 + b^2 - (b - a)^2) / 2
    turns the sum into one convolution with the chirp e^{-i h d^2 / 2} per
    column (Bluestein's chirp-z transform; Rabiner, Schafer & Rader, 1969),
    done by FFT along axis 0.
    """
    na = len(c)
    a, b = np.arange(a0, a0 + na), np.arange(b0, b0 + nb)
    d = np.arange(b0 - a0 - na + 1, b0 + nb - a0)  # every b - a
    n = sfft.next_fast_len(len(d) + na - 1)
    conv = sfft.ifft(sfft.fft(c * np.exp(0.5j * h * (a * a))[:, None], n, axis=0)
                     * sfft.fft(np.exp(-0.5j * h * (d * d)), n)[:, None], axis=0)
    return np.exp(0.5j * h * (b * b))[:, None] * conv[na - 1 : na - 1 + nb]


# Gauss-Kronrod 15 point rule on [-1, 1] with the embedded 7 point Gauss rule.
GK_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
GK_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
G7_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)


def gk_panels(breaks: np.ndarray):
    """All GK15 nodes and scaled weights for the given panel breakpoints.

    Returns (nodes, kronrod_w, gauss_w, panel_index); flat arrays of length
    15 * n_panels.  gauss_w is zero on non-Gauss nodes so that the embedded
    estimate is a plain dot product.
    """
    breaks = np.asarray(breaks, dtype=float)
    a, b = breaks[:-1], breaks[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * GK_NODES[None, :]).ravel()
    wk = (half[:, None] * GK_WEIGHTS[None, :]).ravel()
    wg = np.zeros((len(a), 15))
    wg[:, 1::2] = half[:, None] * G7_WEIGHTS[None, :]
    return nodes, wk, wg.ravel(), np.repeat(np.arange(len(a)), 15)


def _panel_sums(f, breaks):
    """Per-panel (GK15, G7) sums of callable f (vectorised, complex ok)."""
    nodes, wk, wg, idx = gk_panels(breaks)
    vals = f(nodes)

    def per_panel(w):
        v = vals * w
        return np.bincount(idx, weights=v.real) + 1j * np.bincount(idx, weights=v.imag)

    return per_panel(wk), per_panel(wg)


def integrate_panels(f, breaks):
    """Integrate callable f (vectorised, complex ok) over fixed panels.

    Returns (value, error_estimate); the estimate is the summed |GK15 - G7|
    panel difference.
    """
    per_k, per_g = _panel_sums(f, np.asarray(breaks, dtype=float))
    return per_k.sum(), float(np.abs(per_k - per_g).sum())


def geometric_breaks(lo: float, hi: float) -> np.ndarray:
    """Breakpoints hi / 2^k, one per octave, from hi down to ~lo (plus the origin)."""
    n = max(int(math.ceil(math.log2(hi / lo))), 4)
    pts = hi * 2.0 ** -np.arange(1, n + 1, dtype=float)
    return np.unique(np.concatenate([[0.0, hi], pts[pts > lo / 2]]))
