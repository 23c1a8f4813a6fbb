"""Potential kernel a(x), Green functions and harmonic u_A of finite sets.

The potential kernel is computed by quadrature of
    a(x) = (1/pi) Re int_0^pi (1 - e^{i x theta}) / (1 - phi(theta)) dtheta,
with the |theta|^{1-alpha} cusp at the origin flattened exactly by the
substitution theta = u^{1/(2-alpha)} on [0, split] and the cos(x theta)
oscillation resolved by uniform half-period panels on [split, pi], both
chosen for a window [-X, X].  Every x of the window is summed at once: the
cusp segment is a matrix product over blocks of x rows, and on the uniform
panels e^{i x theta} factors into a per-node phase times e^{i x j h}, so the
sum over panels j is one chirp-z transform (Rabiner, Schafer & Rader, 1969)
per GK node position, done as Bluestein's FFT convolution.  Nodes and
weights are those of the per-point sum; only the order of summation differs.
1 - phi on those panels comes from WalkLaw.one_minus_char_panels, whose
atom sum is a chirp-z of the same kind.

A PotentialTable holds a(x) on one window and, asked for |x| > X, recomputes
it at the next power of two >= max(|x|, 64), so a window a few sites past
the last one (u_A needs a(x - z) for z in A) does not cost a second pass.
Because the nodes follow X, a value depends on the window it was computed
in: against X = 4096, the windows 64, 128, ..., 2048 move it by at most
1.3e-13 absolute and 1.5e-11 relative on the three canonical alpha = 1.5
laws.

Finite killing sets reduce to an (|A|+1) x (|A|+1) linear system built from
single-point identities, solved for the whole window in one product; the
dynamic-programming kernels of killed_walk serve as the independent
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtrapolationUnstable, SingularSystem
from .output import csv_text
from .special import chirp_z, gk_panels, panel_breaks
from .walk_model import WalkLaw

_CUSP_ROWS = 128  # x rows per block of the cusp segment's matrix product
_C_PLUS_K_HI = 12  # c_plus extrapolates a(2^k) for k = 5 .. _C_PLUS_K_HI


def _a_segments(law: WalkLaw, X: int):
    """Nodes and weight / (1 - phi) of both segments for the window [-X, X].

    The split adapts to X so the cusp segment never carries more than a few
    cos(x theta) periods; the second segment comes as (panel, node) arrays.
    """
    alpha = law.spec.alpha
    split = min(0.5, 25.0 / max(X, 1))
    p = 2.0 - alpha
    u_hi = split ** p  # the substituted variable u = theta^p runs over [0, u_hi]
    u, wk, _, _ = gk_panels(panel_breaks(u_hi, 65, 43, u_hi))
    theta1 = u ** (1.0 / p)
    g1 = wk * u ** (1.0 / p - 1.0) / p / law.one_minus_char(theta1)
    n_osc = max(48, int(2 * X * (math.pi - split) / math.pi) + 1)
    theta2, wk2, _, _ = gk_panels(np.linspace(split, math.pi, min(n_osc, 400_000)))
    theta2 = theta2.reshape(-1, 15)
    return theta1, g1, theta2, wk2.reshape(-1, 15) / law.one_minus_char_panels(theta2)


def potential_a_grid(law: WalkLaw, X: int) -> np.ndarray:
    """a(x) for x = -X ... X, one array (a(0) = 0 at index X)."""
    X = int(X)
    theta1, g1, theta2, g2 = _a_segments(law, X)
    # cusp segment for x >= 0: Re[(1 - e^{i x theta}) g] = 2 sin^2(x theta / 2) Re g + sin(x theta) Im g,
    # and the second term changes sign with x
    even, odd = np.empty(X + 1), np.empty(X + 1)
    for lo in range(0, X + 1, _CUSP_ROWS):
        arg = np.outer(np.arange(lo, min(lo + _CUSP_ROWS, X + 1)), theta1)
        even[lo : lo + _CUSP_ROWS] = (2.0 * np.sin(arg / 2.0) ** 2) @ g1.real
        odd[lo : lo + _CUSP_ROWS] = np.sin(arg) @ g1.imag
    out = np.concatenate([(even - odd)[:0:-1], even + odd])
    # theta_jk = theta_0k + j h, so the sum over panels j is one chirp-z per node position k
    sums = chirp_z(g2, 0, -X, 2 * X + 1, theta2[1, 0] - theta2[0, 0])
    out += (g2.sum() - (np.exp(1j * np.outer(np.arange(-X, X + 1), theta2[0])) * sums).sum(axis=1)).real
    out /= math.pi
    out[X] = 0.0
    return out


@dataclass
class PotentialTable:
    """a(x) = sum_n [p^n(0) - p^n(-x)] for one law on a window [-X, X]."""

    law: WalkLaw
    X: int = field(default=0, init=False)
    values: np.ndarray = field(default_factory=lambda: np.zeros(1), init=False)

    def a(self, x: int) -> float:
        x = int(x)
        if abs(x) > self.X:
            self.fill([x])
        return float(self.values[x + self.X])

    def a_dagger(self, x: int) -> float:
        return self.a(x) + (1.0 if x == 0 else 0.0)

    def fill(self, xs) -> None:
        need = max((abs(int(x)) for x in xs), default=0)
        if need > self.X:
            self.X = 1 << (max(need, 64) - 1).bit_length()
            self.values = potential_a_grid(self.law, self.X)

    def to_csv(self, window: int) -> str:
        self.fill([window])
        return csv_text(("x", "a"), [(x, self.a(x)) for x in range(-window, window + 1)])


class FiniteSetPotential:
    """u_A of a finite set A, with the hitting distribution H_A it is solved with.

    For each start x the vector (H_A^x(z), z in A; u_A(x)) solves
        sum_z H_A^x(z) a(z - w) + u_A(x) = a(x - w) + 1(x = w)   (w in A)
        sum_z H_A^x(z) = 1,
    assembled from the single-point potential identities.  The columns for
    every x of the table's window come from one product with the inverse,
    rebuilt whenever the table grows.  The kernel DP validates the reduction.
    """

    def __init__(self, pot: PotentialTable, A):
        self.pot = pot
        self.A = sorted(int(z) for z in set(A))
        if not self.A:
            raise ValueError("A must be non-empty")
        self._reach = max(abs(z) for z in self.A)
        self._table = None
        self._columns(0)

    def _columns(self, x: int) -> np.ndarray:
        """(H_A^x(z), z in A; u_A(x)), read off the whole-window solution."""
        pot, A, m = self.pot, self.A, len(self.A)
        pot.fill([abs(int(x)) + self._reach, 2 * self._reach])
        if self._table is not pot.values:
            a, Xt = pot.values, pot.X
            mat = np.ones((m + 1, m + 1))
            mat[:m, :m] = [[a[Xt + z - w] for z in A] for w in A]
            mat[m, m] = 0.0
            try:
                cond = np.linalg.cond(mat)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise SingularSystem(str(exc)) from exc
            if not np.isfinite(cond) or cond > 1e13:
                raise SingularSystem(f"hitting system condition number {cond:.2e}")
            X = Xt - self._reach
            rhs = np.ones((m + 1, 2 * X + 1))
            for i, w in enumerate(A):
                rhs[i] = a[Xt - X - w : Xt + X - w + 1]
                rhs[i, X + w] += 1.0
            self._sol, self._X, self._table = np.linalg.inv(mat) @ rhs, X, a
        return self._sol[:, int(x) + self._X]

    def u(self, x: int) -> float:
        return float(self._columns(x)[-1])


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


def c_plus(law: WalkLaw, pot: PotentialTable | None = None) -> float:
    """C+ = lim_{x -> +inf} a(x): finite value, 0, or +inf per the tail criterion.

    Left-continuity (no mass below -1, so a(x) = 0 for x > 0) is read off the
    law's negative side, so a reversed left-continuous law is not.
    """
    if law.sm == 0.0:
        return 0.0
    if not has_bounded_potential(law):
        return math.inf
    pot = pot or PotentialTable(law)
    pot.fill([2 ** _C_PLUS_K_HI])
    return _aitken_limit([pot.a(2 ** k) for k in range(5, _C_PLUS_K_HI + 1)])
