"""Closed-form potential identities and the per-point a(x) sum, as test oracles.

Each reads a(x) off a PotentialTable (or the quadrature nodes of one window),
so it checks the package's whole-window tables without sharing their
summation.  hit_dist and green read H_A^x and u_A(x) off the same
whole-window solution FiniteSetPotential.u reads.
"""
import math

import numpy as np

from stablewalk.errors import StableWalkError
from stablewalk.potential_theory import _a_segments
from stablewalk.special import omexp


class DegenerateDenominator(StableWalkError):
    """a(y) + a(-y) vanished; two-point hitting formula undefined."""


def a_per_point(law, X: int, xs) -> np.ndarray:
    """a(x) at each x by the direct sum over the quadrature nodes of window X."""
    theta1, g1, theta2, g2 = _a_segments(law, X)
    theta = np.concatenate([theta1, theta2.ravel()])
    g = np.concatenate([g1, g2.ravel()])
    return np.array([(omexp(float(x) * theta) @ g).real / math.pi for x in xs])


def green_origin(pot, x: int, y: int) -> float:
    """g_{0}(x, y) = a_dagger(x) + a(-y) - a(x - y)."""
    return pot.a_dagger(x) + pot.a(-y) - pot.a(x - y)


def hit_before(pot, x: int, y: int) -> float:
    """P[walk from x visits y before 0] by the two-point escape identity."""
    if y == 0:
        raise ValueError("y must differ from 0")
    denom = pot.a(y) + pot.a(-y)
    if abs(denom) < 1e-14:
        raise DegenerateDenominator(f"a({y}) + a({-y}) = {denom}")
    val = (pot.a_dagger(x) + pot.a(-y) - pot.a(x - y)) / denom
    return min(max(val, 0.0), 1.0)


def hit_dist(fsp, x: int) -> dict:
    """H_A^x(z) for z in A, from the finite-set solution of fsp."""
    sol = fsp._columns(x)
    return {z: float(sol[j]) for j, z in enumerate(fsp.A)}


def green(fsp, x: int, y: int) -> float:
    """g_A(x, y) = u_A(x) - a(x - y) + sum_z H_A^x(z) a(z - y), the n = 0 identity term included."""
    x, y = int(x), int(y)
    fsp.pot.fill([x - y] + [z - y for z in fsp.A])
    sol = fsp._columns(x)
    a = fsp.pot.a
    return float(sol[-1] - a(x - y) + sum(sol[j] * a(z - y) for j, z in enumerate(fsp.A)))


def u_via_anchor(fsp, x: int, w0: int) -> float:
    """u_A(x) = a_dagger(x - w0) - sum_z H_A^x(z) a(z - w0), any anchor w0 in A."""
    if w0 not in fsp.A:
        raise ValueError("anchor must lie in A")
    h = hit_dist(fsp, x)
    return fsp.pot.a_dagger(x - w0) - sum(h[z] * fsp.pot.a(z - w0) for z in fsp.A)
