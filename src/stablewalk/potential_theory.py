"""Potential kernel a(x), Green functions, harmonic u_A, hitting identities.

The potential kernel is computed by quadrature of
    a(x) = (1/pi) Re int_0^pi (1 - e^{i x theta}) / (1 - phi(theta)) dtheta,
with the |theta|^{1-alpha} cusp at the origin flattened exactly by the
substitution theta = u^{1/(2-alpha)} and the cos(x theta) oscillation resolved
by half-period panels.  Finite killing sets reduce to an (|A|+1) x (|A|+1)
linear system built from single-point identities; the dynamic-programming
kernels of killed_walk serve as the independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDenominator,
    ExtrapolationUnstable,
    SingularSystem,
)
from .special import gk_panels, omexp
from .walk_model import WalkLaw

def _a_breaks_sub(alpha: float, split: float) -> np.ndarray:
    """Panels in the substituted variable u = theta^{2-alpha} on [0, split]."""
    u_hi = split ** (2.0 - alpha)
    geo = u_hi * 2.0 ** (-np.arange(1, 44, dtype=float))
    return np.unique(np.concatenate([[0.0], geo, np.linspace(0.0, u_hi, 65)]))


def potential_a_grid(law: WalkLaw, xs) -> np.ndarray:
    """a(x) on a batch of integers (shared quadrature nodes).

    The split between the cusp (substituted) segment and the oscillation
    segment adapts to the largest |x| in the batch so the substitution
    segment never carries more than a few cos(x theta) periods.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.int64))
    alpha = law.spec.alpha
    x_max = int(np.abs(xs).max()) if len(xs) else 1

    out = np.zeros(len(xs))
    split = min(0.5, 25.0 / max(x_max, 1))

    # segment 1: cusp region via theta = u^{1/(2-alpha)}
    u_nodes, wk, _, _ = gk_panels(_a_breaks_sub(alpha, split))
    p = 2.0 - alpha
    theta1 = u_nodes ** (1.0 / p)
    jac = u_nodes ** (1.0 / p - 1.0) / p
    d1 = jac / law.one_minus_char(theta1)

    # segment 2: [split, pi], half-period panels for the largest |x|
    n_osc = max(48, int(2 * x_max * (math.pi - split) / math.pi) + 1)
    theta2, wk2, _, _ = gk_panels(np.linspace(split, math.pi, min(n_osc, 400_000)))
    d2 = 1.0 / law.one_minus_char(theta2)

    for j, x in enumerate(xs):
        if x == 0:
            continue
        v1 = (omexp(float(x) * theta1) * d1) @ wk
        v2 = (omexp(float(x) * theta2) * d2) @ wk2
        out[j] = (v1 + v2).real / math.pi
    return out


@dataclass
class PotentialTable:
    """Cached a(x) = sum_n [p^n(0) - p^n(-x)] values for one law."""

    law: WalkLaw
    values: dict = field(default_factory=dict)

    def a(self, x: int) -> float:
        x = int(x)
        if x == 0:
            return 0.0
        if x not in self.values:
            self.fill([x])
        return self.values[x]

    def a_dagger(self, x: int) -> float:
        return self.a(x) + (1.0 if x == 0 else 0.0)

    def fill(self, xs) -> None:
        missing = sorted({int(x) for x in xs if int(x) != 0 and int(x) not in self.values})
        if not missing:
            return
        vals = potential_a_grid(self.law, missing)
        self.values.update(zip(missing, vals))

    def to_csv(self, window: int) -> str:
        self.fill(range(-window, window + 1))
        lines = ["schema_version,x,a"]
        for x in range(-window, window + 1):
            lines.append(f"1,{x},{self.a(x):.17g}")
        return "\n".join(lines) + "\n"


def green_origin(pot: PotentialTable, x: int, y: int) -> float:
    """g_{0}(x, y) = a_dagger(x) + a(-y) - a(x - y)."""
    return pot.a_dagger(x) + pot.a(-y) - pot.a(x - y)


def hit_before(pot: PotentialTable, x: int, y: int) -> float:
    """P[walk from x visits y before 0] by the two-point escape identity."""
    if y == 0:
        raise ValueError("y must differ from 0")
    denom = pot.a(y) + pot.a(-y)
    if abs(denom) < 1e-14:
        raise DegenerateDenominator(f"a({y}) + a({-y}) = {denom}")
    val = (pot.a_dagger(x) + pot.a(-y) - pot.a(x - y)) / denom
    return min(max(val, 0.0), 1.0)


class FiniteSetPotential:
    """Hitting distributions, u_A and the Green function of a finite set A.

    For each start x the vector (H_A^x(z), z in A; u_A(x)) solves
        sum_z H_A^x(z) a(z - w) + u_A(x) = a(x - w) + 1(x = w)   (w in A)
        sum_z H_A^x(z) = 1,
    assembled from the single-point potential identities.  The kernel DP
    validates the reduction.
    """

    def __init__(self, pot: PotentialTable, A):
        self.pot = pot
        self.A = sorted(int(z) for z in set(A))
        if not self.A:
            raise ValueError("A must be non-empty")
        m = len(self.A)
        pot.fill([z - w for z in self.A for w in self.A])
        mat = np.zeros((m + 1, m + 1))
        for i, w in enumerate(self.A):
            for j, z in enumerate(self.A):
                mat[i, j] = pot.a(z - w)
            mat[i, m] = 1.0
        mat[m, :m] = 1.0
        try:
            cond = np.linalg.cond(mat)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SingularSystem(str(exc)) from exc
        if not np.isfinite(cond) or cond > 1e13:
            raise SingularSystem(f"hitting system condition number {cond:.2e}")
        self._lu = np.linalg.inv(mat)

    def _solve(self, x: int) -> np.ndarray:
        m = len(self.A)
        x = int(x)
        self.pot.fill([x - w for w in self.A])
        rhs = np.empty(m + 1)
        for i, w in enumerate(self.A):
            rhs[i] = self.pot.a(x - w) + (1.0 if x == w else 0.0)
        rhs[m] = 1.0
        return self._lu @ rhs

    def hit_dist(self, x: int) -> dict:
        sol = self._solve(x)
        return {z: float(sol[j]) for j, z in enumerate(self.A)}

    def u(self, x: int) -> float:
        return float(self._solve(x)[-1])

    def u_via_anchor(self, x: int, w0: int) -> float:
        """u_A(x) = a_dagger(x - w0) - sum_z H_A^x(z) a(z - w0), any anchor w0."""
        if w0 not in self.A:
            raise ValueError("anchor must lie in A")
        h = self.hit_dist(x)
        self.pot.fill([x - w0] + [z - w0 for z in self.A])
        return self.pot.a_dagger(x - w0) - sum(h[z] * self.pot.a(z - w0) for z in self.A)

    def green(self, x: int, y: int) -> float:
        """g_A(x, y) including the n = 0 identity term."""
        sol = self._solve(x)
        x, y = int(x), int(y)
        self.pot.fill([x - y] + [z - y for z in self.A])
        val = sol[-1] - self.pot.a(x - y)
        for j, z in enumerate(self.A):
            val += sol[j] * self.pot.a(z - y)
        return float(val)


def _aitken_limit(seq) -> float:
    """Aitken delta-squared limit of a sequence with geometric-ish tail."""
    s = list(map(float, seq))
    accel = []
    for i in range(len(s) - 2):
        d1 = s[i + 1] - s[i]
        d2 = s[i + 2] - s[i + 1]
        denom = d2 - d1
        if denom == 0:
            accel.append(s[i + 2])
        else:
            accel.append(s[i + 2] - d2 * d2 / denom)
    if len(accel) < 2:
        raise ExtrapolationUnstable("sequence too short")
    if abs(accel[-1] - accel[-2]) > 0.01 * max(abs(accel[-1]), 1e-30):
        raise ExtrapolationUnstable(
            f"Aitken depths disagree: {accel[-2]:.6g} vs {accel[-1]:.6g}"
        )
    return accel[-1]


def has_bounded_potential(law: WalkLaw) -> bool:
    """Structural (a_bdd) check: light negative tail + mass at or below -2.

    Read off the law's own negative side, so a reversed one-sided law (whose
    negative side carries the alpha tail) is not bounded.
    """
    if law.rm <= 2.0 * law.spec.alpha - 1.0:  # a heavy side (rm = alpha) or a too heavy light one
        return False
    return float(law.pmf(np.array([-2]))[0]) > 0.0 or law.sm > 0.0


def c_plus(law: WalkLaw, pot: PotentialTable | None = None, k_hi: int = 12) -> float:
    """C+ = lim_{x -> +inf} a(x): finite value, 0, or +inf per the tail criterion.

    Left-continuity (no mass below -1, so a(x) = 0 for x > 0) is read off the
    law's negative side, so a reversed left-continuous law is not.
    """
    if law.sm == 0.0:
        return 0.0
    if not has_bounded_potential(law):
        return math.inf
    pot = pot or PotentialTable(law)
    ks = list(range(5, k_hi + 1))
    pot.fill([2 ** k for k in ks])
    seq = [pot.a(2 ** k) for k in ks]
    return _aitken_limit(seq)
