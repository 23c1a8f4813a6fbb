"""Lattice increment laws with exact stable-index power tails.

A law is assembled from
  * two analytic power-law sides p(+-y) = s * [y^-r - (y+1)^-r] (telescoped, so
    the discrete tail sum P[X >= y] = s * y^-r holds exactly at every lattice
    point past the calibration blocks),
  * two inner calibration blocks whose atoms are rescaled by (1 + l1) on
    [1, 4] and (1 + l2) on [5, 64],
  * optional repair atoms at -1 / +1, and the atom at the origin.

Each part has one place in `WalkLaw`: `_side` gives a side's scale, exponent
and repair atom, `_blocks` the calibration blocks, and `_tail` the exact side
tail behind `cumulative_*` and `escaped_split`, which is therefore exact for
every window W, inside the blocks too.  law.json is written field by field
with one encoder per field annotation.  law.json values and config values are
read by one decoder per annotation, and `WalkLaw.from_json` checks the law it
reads as `build_walk_law` checks the laws it builds.

The builder closes the mean to exactly zero and solves l2 so that the theta^2
coefficient of 1 - phi(theta) vanishes.  It then scans l1 and a short-range
atom for a sign change of the lattice offset constant
C0 = lim [pi_0(tau) - pi_0^inf(tau)] and refines one with brentq; without a
sign change it keeps the feasible grid point of smallest |C0|.  The fallback
is the common case: sym15, sp15 and bp15 keep c0 = 0.31, 0.012 and 0.0076,
recorded in `WalkLaw.c0`.

A build evaluates C0 for some 40 laws on the same 690 GK15 nodes, and those
laws share alpha, the light-side exponent and the atom positions.  So the
builder makes one shared `_Nodes` table for the build: rho_m, sin(theta), the
polylog terms per exponent and the (nodes, atoms) matrices of the atom sum
are computed once, and each law applies only its own scales and masses,
through the same `_excess` combination and the same reductions, so every
float is what `_excess` gives on a table of its own.  The table lives for
one build; nothing keeps it at module level.  The block sums of `_moments`
and `d2` depend on (block, exponent, power) alone and are memoised in
`_block_sum`.
brentq is imported inside the one branch that brackets a sign change:
scipy.optimize costs about 0.15 s of import time and 20 MB, and most laws
(sym15, sp15 and bp15 among them) never reach that branch.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
import numpy as np

from .errors import (
    AlphaOutOfRange,
    AperiodicityFailure,
    ConfigError,
    InfeasibleMeanAdjustment,
)
from .output import csv_text
from .special import (
    chirp_z,
    gamma_fn,
    gk_panels,
    integrate_panels,
    panel_breaks,
    polylog_analytic,
    polylog_sing,
    x_minus_sin,
    zeta_fn,
)

BLOCK1 = (1, 4)
BLOCK2 = (5, 64)
CALIBRATED_BEYOND = BLOCK2[1]  # pure telescoped tail from here on
_ATOM_ROWS = 128  # theta rows per block of a streamed atom sum in _excess
_ELIDE_NODES = 256 * 1024 // 16  # complex values in numpy's 256 KiB temporary-elision size
_OFFSET_BREAKS = panel_breaks(math.pi, 2, 45, math.pi)  # panels of the lattice-offset integral


class Family(str, Enum):
    TWO_SIDED_PARETO = "two_sided_pareto"
    SPECTRALLY_POSITIVE = "spectrally_positive"
    LEFT_CONTINUOUS = "left_continuous"
    BOUNDED_POTENTIAL = "bounded_potential"


@dataclass(frozen=True)
class TailSpec:
    """Requested tail structure of an increment law."""

    alpha: float
    family: Family
    B: float = 0.5
    q_plus: float | None = None  # two_sided_pareto: 0.5 when left out; one-sided: 1 only
    q_minus: float | None = None  # two_sided_pareto: 0.5 when left out; one-sided: 0 only
    support_radius: int = 2 ** 20
    beta_neg: float | None = None
    calibrate: bool = True

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise AlphaOutOfRange(f"alpha={self.alpha} outside (1, 2)")
        for name in ("B", "q_plus", "q_minus", "beta_neg"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name}={value} is not finite")
        if self.B <= 0:
            raise ConfigError("B must be positive")
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if fam is Family.TWO_SIDED_PARETO:
            qp, qm = (0.5 if q is None else q for q in (self.q_plus, self.q_minus))
            if abs(qp + qm - 1.0) > 1e-12:
                raise ConfigError("two_sided_pareto requires q_plus + q_minus = 1")
            if qp <= 0 or qm <= 0:
                raise ConfigError("two_sided_pareto requires q_plus, q_minus > 0")
        elif self.q_plus not in (None, 1.0) or self.q_minus not in (None, 0.0):
            raise ConfigError(f"{fam.value} forces q_plus = 1 and q_minus = 0")
        else:
            qp, qm = 1.0, 0.0
        object.__setattr__(self, "q_plus", qp)
        object.__setattr__(self, "q_minus", qm)
        if fam in (Family.SPECTRALLY_POSITIVE, Family.BOUNDED_POTENTIAL):
            beta = self.beta_neg
            if beta is None:
                beta = self.alpha + 1.0 if fam is Family.SPECTRALLY_POSITIVE else 2.0 * self.alpha
                object.__setattr__(self, "beta_neg", beta)
            if beta <= 2.0 * self.alpha - 1.0:
                raise ConfigError(
                    f"beta_neg={beta} must exceed 2*alpha-1={2 * self.alpha - 1}"
                )
            if abs(beta - 2.0) < 1e-6:
                raise ConfigError("beta_neg = 2 hits a zeta pole; nudge it")
        elif self.beta_neg is not None:
            raise ConfigError(f"beta_neg only applies to light-negative families")
        if self.support_radius < 2 * CALIBRATED_BEYOND:
            raise ConfigError("support_radius too small for the calibration blocks")


@dataclass(frozen=True)
class StableParams:
    """Limit-process parameters (index, skewness, scale, positivity)."""

    alpha: float
    gamma: float
    c_circ: float

    def __post_init__(self):
        if abs(self.gamma) > 2.0 - self.alpha + 1e-12:
            raise ConfigError(f"|gamma|={abs(self.gamma)} exceeds 2-alpha")

    @property
    def rho(self) -> float:
        """Positivity P[Y_1 > 0] = (1 - gamma/alpha)/2."""
        return 0.5 * (1.0 - self.gamma / self.alpha)

    @property
    def skew_sign(self) -> int:
        """+1 at gamma = 2 - alpha (spectrally positive), -1 at gamma = -(2 - alpha), else 0."""
        if abs(abs(self.gamma) - (2.0 - self.alpha)) < 1e-12:
            return 1 if self.gamma > 0 else -1
        return 0


def _wgt(y: np.ndarray, r: float) -> np.ndarray:
    return y ** (-r) - (y + 1.0) ** (-r)


def _sites(block: tuple[int, int]) -> np.ndarray:
    """The sites of a calibration block, as floats."""
    return np.arange(block[0], block[1] + 1, dtype=float)


@functools.lru_cache(maxsize=None)
def _block_sum(block: tuple[int, int], r: float, k: int) -> float:
    """sum of w(y) y^k over the sites of a calibration block, w(y) = y^-r - (y+1)^-r.

    Memoised: a build asks for a few (block, r, k) thousands of times.
    """
    y = _sites(block)
    v = _wgt(y, r)
    for _ in range(k):
        v = v * y
    return v.sum()


class _Nodes:
    """Nodes theta > 0 and the parts of 1 - phi that depend on theta alone, each computed once.

    These are rho_m, sin(theta), the polylog terms per exponent and, per atom
    set, the matrices 2 sin^2(theta y / 2) and x_minus_sin(theta y) of the
    atom sum (atom_blocks).  one_minus_char makes one per call, on |theta|,
    and one_minus_char_panels one per block of panels; build_walk_law makes a
    shared one on the lattice-offset nodes and hands it to every law it
    calibrates.
    """

    def __init__(self, theta: np.ndarray, shared: bool = False):
        self.theta = theta
        self.shared = shared
        self._terms = {}

    def _term(self, key, make):
        if key not in self._terms:
            self._terms[key] = make()
        return self._terms[key]

    def rho_m(self) -> np.ndarray:
        """(1 - e^{-i theta}) - i theta."""
        return self._term("rho_m", lambda: 2.0 * np.sin(self.theta / 2.0) ** 2 - 1j * x_minus_sin(self.theta))

    def sin(self) -> np.ndarray:
        return self._term("sin", lambda: np.sin(self.theta))

    def analytic(self, s: float) -> np.ndarray:
        return self._term(("analytic", s), lambda: polylog_analytic(s, self.theta))

    def sing(self, s: float) -> np.ndarray:
        return self._term(("sing", s), lambda: polylog_sing(s, self.theta))

    def atom_blocks(self, pts: np.ndarray):
        """(rows, 2 sin^2(theta y / 2), x_minus_sin(theta y)) per block of theta rows, y = pts.

        A shared table keeps its matrices per atom set, as one block, for the
        next law to read.  Any other table is read once, so it streams blocks
        of _ATOM_ROWS rows: its working set is two (_ATOM_ROWS, atoms)
        matrices, about 0.26 MB for the 129 atoms of a calibrated law, whatever
        the node count.  Each row's sum runs over its own atoms, and the sums
        enter 1 - phi by additions, which round alike in place or not, so a
        value does not depend on the block it is in: the 256 KiB rule of
        one_minus_char_panels does not bind here.
        """
        def block(rows):
            arg = np.outer(self.theta[rows], pts)
            return rows, 2.0 * np.sin(arg / 2.0) ** 2, x_minus_sin(arg)

        if self.shared:
            return self._term(("atoms", pts.tobytes()), lambda: [block(slice(None))])
        return (block(slice(lo, lo + _ATOM_ROWS)) for lo in range(0, len(self.theta), _ATOM_ROWS))


def _switch(value) -> bool:
    """A switch: 1/true/yes or 0/false/no in any case, JSON true/false too; anything else is a ValueError."""
    word = str(value).lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(value)
    return word in ("1", "true", "yes")


def _integer(value) -> int:
    """An int from a JSON integer or from integer text; anything else, a float or a bool among them, is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(value)
    return int(value)


# law.json encoder per field annotation; any other field is a float written as
# its repr, or None (beta_neg)
_ENCODERS = {"Family": lambda v: v.value, "int": int, "bool": bool}
# decoder per field annotation of law.json and config values alike; any other field is a float
_DECODERS = {"Family": Family, "int": _integer, "bool": _switch}


def _float_text(v) -> str | None:
    return None if v is None else repr(float(v))


def _encode(obj) -> dict:
    """The dataclass fields of obj as law.json values (a nested spec is written apart)."""
    return {
        f.name: _ENCODERS.get(f.type, _float_text)(getattr(obj, f.name))
        for f in fields(obj)
        if f.name != "spec"
    }


def _field_value(f, value):
    """Field f's value from its law.json value or config text; None stays None where f allows it."""
    if value is None and "None" in f.type:
        return None
    try:
        return _DECODERS.get(f.type, float)(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {f.name}: {value!r}") from exc


def _decode(cls, d) -> dict:
    """Constructor keywords of cls from its law.json section d."""
    wanted = [f for f in fields(cls) if f.name != "spec"]
    missing = [f.name for f in wanted if not isinstance(d, dict) or f.name not in d]
    if missing:
        raise ConfigError(f"law.json {cls.__name__} lacks {', '.join(missing)}")
    return {f.name: _field_value(f, d[f.name]) for f in wanted}


@dataclass(frozen=True)
class WalkLaw:
    """Immutable increment law; all operations are pure."""

    spec: TailSpec
    sp: float       # positive-side scale (q+ B)
    rp: float       # positive-side exponent (alpha)
    sm: float       # negative-side scale (q- B, or the light-tail scale)
    rm: float       # negative-side exponent (alpha or beta_neg)
    l1: float       # calibration factor - 1 on BLOCK1
    l2: float       # calibration factor - 1 on BLOCK2
    u_plus: float   # repair atom at +1
    u_minus: float  # repair atom at -1
    c0: float = math.nan  # achieved lattice offset constant (diagnostic)

    # -- structural helpers -------------------------------------------------

    def _side(self, sign: int) -> tuple[float, float, float]:
        """(scale, exponent, repair atom) of the side X >= 1 (sign +1) or X <= -1 (sign -1)."""
        return (self.sp, self.rp, self.u_plus) if sign > 0 else (self.sm, self.rm, self.u_minus)

    def _blocks(self) -> tuple[tuple[tuple[int, int], float], ...]:
        """The calibration blocks as ((first site, last site), factor - 1) pairs."""
        return (BLOCK1, self.l1), (BLOCK2, self.l2)

    def _moments(self, k: int) -> tuple[float, float]:
        """(sum_{y>=1} y^k P[X = y], sum_{y>=1} y^k P[X = -y]) exactly, k = 0 or 1."""
        out = []
        for sign in (1, -1):
            s, r, u = self._side(sign)
            # the telescoped side alone: sum y^k w(y) is 1 (k = 0) or zeta(r) (k = 1)
            v = 1.0 if k == 0 else zeta_fn(r)
            for block, l in self._blocks():
                v = v + l * _block_sum(block, r, k)
            out.append(s * v + u)
        return out[0], out[1]

    def side_mass(self) -> tuple[float, float]:
        """(P[X >= 1], P[X <= -1]) exactly."""
        return self._moments(0)

    @property
    def p0(self) -> float:
        mp, mm = self.side_mass()
        return 1.0 - mp - mm

    def mean(self) -> float:
        """Exact first moment (analytic tail moments via zeta)."""
        vp, vm = self._moments(1)
        return vp - vm

    def d2(self) -> float:
        """theta^2 coefficient of Re(1 - phi)."""
        v = -(
            self.sp * (zeta_fn(self.rp) / 2.0 - zeta_fn(self.rp - 1.0))
            + self.sm * (zeta_fn(self.rm) / 2.0 - zeta_fn(self.rm - 1.0))
        )
        v += (self.u_plus + self.u_minus) / 2.0
        for block, l in self._blocks():
            v += l * (self.sp * _block_sum(block, self.rp, 2) + self.sm * _block_sum(block, self.rm, 2)) / 2.0
        return v

    # -- pmf and tails -------------------------------------------------------

    def pmf(self, x) -> np.ndarray:
        """Exact probability mass at integer points (vectorised)."""
        x = np.asarray(x, dtype=np.int64)
        out = np.zeros(x.shape, dtype=float)
        for sign in (1, -1):
            on = sign * x >= 1
            if on.any():
                s, r, u = self._side(sign)
                y = (sign * x[on]).astype(float)
                factor = np.ones_like(y)
                for (lo, hi), l in self._blocks():
                    factor[(y >= lo) & (y <= hi)] += l
                out[on] = s * _wgt(y, r) * factor + np.where(y == 1.0, u, 0.0)
        out[x == 0] = self.p0
        return out

    def _tail(self, sign: int, y: int) -> float:
        """P[sign * X >= y] exactly, any y >= 1."""
        s, r, _ = self._side(sign)
        y = int(y)
        if y > CALIBRATED_BEYOND:
            return s * float(y) ** (-r)
        grid = sign * np.arange(y, CALIBRATED_BEYOND + 1, dtype=np.int64)
        return float(self.pmf(grid).sum()) + s * float(CALIBRATED_BEYOND + 1) ** (-r)

    def cumulative_plus(self, y: int) -> float:
        """P[X >= y] exactly, any y >= 1."""
        return self._tail(1, y)

    def cumulative_minus(self, y: int) -> float:
        """P[X <= -y] exactly, any y >= 1."""
        return self._tail(-1, y)

    def pmf_window(self, W: int) -> np.ndarray:
        """Dense pmf on [-W, W] (index 0 <-> -W)."""
        if W > self.spec.support_radius:
            raise ConfigError("window exceeds support_radius")
        xs = np.arange(-W, W + 1, dtype=np.int64)
        return self.pmf(xs)

    def escaped_split(self, W: int) -> tuple[float, float]:
        """(P[X > W], P[X < -W]) - per-step jump mass beyond the window, exact for every W >= 0."""
        return self.cumulative_plus(W + 1), self.cumulative_minus(W + 1)

    # -- Fourier side ---------------------------------------------------------

    def _atoms_for_fourier(self):
        """Finite lattice components: (points, masses) treated atom-by-atom."""
        pts, ms = [np.zeros(0)], [np.zeros(0)]
        for block, l in self._blocks():
            if l != 0.0:
                y = _sites(block)
                for sign in (1, -1):
                    s, r, _ = self._side(sign)
                    pts.append(sign * y)
                    ms.append(l * s * _wgt(y, r))
        for sign in (1, -1):
            u = self._side(sign)[2]
            if u != 0.0:
                pts.append(np.array([float(sign)]))
                ms.append(np.array([u]))
        return np.concatenate(pts), np.concatenate(ms)

    def _main(self, nodes: _Nodes) -> np.ndarray:
        """Stable principal part of (1 - phi): the alpha-side singular image."""
        sing_p = nodes.sing(self.rp)
        main = -self.sp * (1j * nodes.theta) * sing_p
        if self.rm == self.rp:
            main = main - self.sm * (-1j * nodes.theta) * np.conj(sing_p)
        return main

    def _excess(self, nodes: _Nodes, F=None) -> np.ndarray:
        """(1 - phi) - _main, cancellation-free, theta > 0: the one assembly of 1 - phi.

        It adds the continuum terms, then the atom sum
        sum_m p_m (1 - e^{i theta y_m}) + i theta y_m, then the mean residual.
        The atom sum goes atom by atom over nodes.atom_blocks, or, given
        F = sum_m p_m e^{i theta y_m} on every node (one_minus_char_panels'
        chirp-z), it is sum p - Re F + i (theta sum p y - Im F).
        """
        theta = nodes.theta
        rho_m = nodes.rho_m()      # (1-e^{-i t}) - i t
        rho_p = np.conj(rho_m)     # (1-e^{+i t}) + i t
        zp, zm = zeta_fn(self.rp), zeta_fn(self.rm)
        # one table entry per exponent: two-sided laws (rp == rm) evaluate each polylog once
        Rp = nodes.analytic(self.rp) - zp
        Rm = nodes.analytic(self.rm) - zm
        Sp = nodes.sing(self.rp)
        Sm = nodes.sing(self.rm)
        v = -self.sp * (1j * theta * Rp + rho_m * (zp + Rp + Sp))
        v = v + self.sm * 1j * theta * np.conj(Rm)
        v = v - self.sm * rho_p * (zm + np.conj(Rm) + np.conj(Sm))
        if self.rm != self.rp:
            # light-side singular main stays in the excess (theta^beta term)
            v = v - self.sm * (-1j * theta) * np.conj(Sm)
        pts, ms = self._atoms_for_fourier()
        if F is not None:
            v = v + (ms.sum() - F.real) + 1j * (theta * (ms @ pts) - F.imag)
        else:
            # in blocks of theta rows, to bound the (rows, atoms) temporaries
            if len(pts):
                for rows, s2, xs in nodes.atom_blocks(pts):
                    v[rows] = v[rows] + (ms[None, :] * s2).sum(axis=1)
                    v[rows] = v[rows] + 1j * (ms[None, :] * xs).sum(axis=1)
        # float-residual of the exact-zero mean, restored on its sin carrier
        return v - 1j * nodes.sin() * self.mean()

    def one_minus_char_panels(self, theta: np.ndarray) -> np.ndarray:
        """one_minus_char on uniform panels theta[j, k] = theta[0, k] + j h, theta > 0.

        On integer atoms F = sum_m p_m e^{i theta y_m} is one chirp-z over j per
        node position k, and _excess builds the atom sum from it.  It
        agrees with the atom-by-atom sum of one_minus_char to about 1e-12 |1 - phi|.
        _excess and _main then run over ceil(P / 2r) near-equal blocks of the P
        panel rows, where r rows hold _ELIDE_NODES nodes, so besides theta, F
        and the output the working set is a few arrays of one block.  numpy
        reuses a temporary of at least 256 KiB as the output of an in-place
        operation, and its in-place complex multiply rounds differently; so
        every block of an array of at least _ELIDE_NODES nodes holds at least
        r rows, and every value keeps the bits of one whole-array pass.
        """
        pts, ms = self._atoms_for_fourier()
        ys = np.rint(pts).astype(np.int64)
        Y = int(np.abs(ys).max(initial=0))
        c = np.zeros(2 * Y + 1)
        np.add.at(c, ys + Y, ms)
        # one panel row has the one transform at b = 0, which does not depend on h
        h = theta[1, 0] - theta[0, 0] if len(theta) > 1 else 0.0
        F = chirp_z(c[:, None] * np.exp(1j * np.outer(np.arange(-Y, Y + 1), theta[0])),
                    -Y, 0, len(theta), h)
        out = np.empty(theta.shape, dtype=complex)
        per_block = 2 * -(-_ELIDE_NODES // theta.shape[1])
        n_blocks = -(-len(theta) // per_block)
        for i in range(n_blocks):
            rows = slice(i * len(theta) // n_blocks, (i + 1) * len(theta) // n_blocks)
            nodes = _Nodes(theta[rows])
            out[rows] = self._excess(nodes, F[rows]) + self._main(nodes)
        return out

    def one_minus_char(self, theta) -> np.ndarray:
        """1 - phi(theta), exact, for theta in [-pi, pi] (vectorised).

        One _Nodes table holds |theta|; 1 - phi(-theta) is the conjugate of 1 - phi(theta).
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.zeros(theta.shape, dtype=complex)
        on = theta != 0
        neg = theta < 0
        nodes = _Nodes(np.abs(theta[on]))
        out[on] = self._excess(nodes) + self._main(nodes)
        out[neg] = np.conj(out[neg])
        return out

    # -- misc ------------------------------------------------------------------

    def reversed(self) -> "WalkLaw":
        """Law of -X (duality partner)."""
        spec = self.spec
        if spec.family is Family.TWO_SIDED_PARETO:
            spec = replace(spec, q_plus=spec.q_minus, q_minus=spec.q_plus)
        # one-sided families keep the spec marker; skew and boundedness are
        # read off the swapped sides, not off the family
        return replace(
            self, spec=spec, sp=self.sm, rp=self.rm, sm=self.sp, rm=self.rp,
            u_plus=self.u_minus, u_minus=self.u_plus,
        )

    def to_json(self) -> str:
        payload = {"schema_version": 1, "spec": _encode(self.spec), "law": _encode(self)}
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "WalkLaw":
        """The law a law.json text describes, checked as the builder checks the laws it builds."""
        try:
            d = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"law.json is not JSON: {exc}") from None
        if not isinstance(d, dict) or d.get("schema_version") != 1:
            raise ConfigError("unknown law schema version")
        law = WalkLaw(spec=TailSpec(**_decode(TailSpec, d.get("spec"))), **_decode(WalkLaw, d.get("law")))
        _validate(law)
        return law

    def law_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# stable parameter dictionary
# ---------------------------------------------------------------------------


def stable_params_of(law: WalkLaw) -> StableParams:
    """Read off (alpha, gamma, c_circ) from the tail constants."""
    alpha = law.spec.alpha
    if law.spec.family is Family.TWO_SIDED_PARETO:
        qp, qm = law.spec.q_plus, law.spec.q_minus
        if qp == qm:
            gamma = 0.0
        else:
            gamma = (2.0 / math.pi) * math.atan(
                (qp - qm) * (-math.tan(alpha * math.pi / 2.0))
            )
    else:
        # one-sided families: the side carrying the alpha tail (the negative
        # one after reversed()) sets the sign of the extremal skew
        gamma = 2.0 - alpha if law.rp == alpha and law.sp > 0.0 else alpha - 2.0
    c_circ = (
        law.spec.B
        * gamma_fn(1.0 - alpha)
        * math.cos(alpha * math.pi / 2.0)
        / math.cos(gamma * math.pi / 2.0)
    )
    return StableParams(alpha=alpha, gamma=gamma, c_circ=c_circ)


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def _lattice_offset(law: WalkLaw, nodes: _Nodes) -> float:
    """C0 = lim_{tau->0} [pi_0(tau) - pi_0^inf(tau)] (real).

    Requires d2 ~ 0; the integrand is the stable-principal-part defect of
    1/(1 - phi) plus the tail of the continuum integral beyond |theta|=pi.
    nodes holds the GK15 nodes of _OFFSET_BREAKS, the points at which
    integrate_panels evaluates the integrand, so the integrand is computed
    on the table and handed over.
    """
    params = stable_params_of(law)
    ex, cp = law._excess(nodes), law._main(nodes)
    integrand = (-ex / ((ex + cp) * cp)).real + 0j
    val, _ = integrate_panels(lambda _: integrand, _OFFSET_BREAKS)
    tail = (
        2.0
        * math.cos(math.pi * params.gamma / 2.0)
        * math.pi ** (1.0 - law.spec.alpha)
        / ((law.spec.alpha - 1.0) * params.c_circ)
    )
    return (2.0 * val.real - tail) / (2.0 * math.pi)


def _close_mean(law: WalkLaw, iters: int, step) -> WalkLaw:
    """Apply law = step(law, law.mean()) up to iters times, stopping at an exactly zero mean."""
    for _ in range(iters):
        r = law.mean()
        if r == 0.0:
            break
        law = step(law, r)
    return law


def _raw_law(spec: TailSpec, l1: float, l2: float, u_extra: float = 0.0) -> WalkLaw:
    """Law with given blocks; mass closers solved for exact zero mean.

    u_extra is an optional short-range atom budget at distance one: a
    mean-neutral +-1 pair for two-sided laws, a -1 atom (with the light-side
    scale re-closing the mean) otherwise.
    """
    alpha, B = spec.alpha, spec.B
    if spec.family is Family.TWO_SIDED_PARETO:
        half = u_extra / 2.0
        law = WalkLaw(spec, spec.q_plus * B, alpha, spec.q_minus * B, alpha, l1, l2, half, half)

        def step(lw: WalkLaw, r: float) -> WalkLaw:
            if r > 0 or lw.u_minus > half:
                return replace(lw, u_minus=lw.u_minus + r)
            return replace(lw, u_plus=lw.u_plus - r)

        return _close_mean(law, 4, step)
    if spec.family is Family.LEFT_CONTINUOUS:
        law = WalkLaw(spec, B, alpha, 0.0, alpha, l1, l2, 0.0, 0.0)
        return _close_mean(law, 4, lambda lw, r: replace(lw, u_minus=lw.u_minus + r))
    # light-negative families: the scale sm solves the mean, which is linear in it
    law = WalkLaw(spec, B, alpha, 0.0, spec.beta_neg, l1, l2, 0.0, u_extra)
    slope = replace(law, sm=1.0).mean() - law.mean()
    return _close_mean(law, 6, lambda lw, r: replace(lw, sm=lw.sm - r / slope))


def _solve_d2(spec: TailSpec, l1: float, u_extra: float = 0.0) -> WalkLaw:
    """Given (l1, u_extra), pick l2 so that d2 = 0 in float arithmetic.

    The mass closers re-solve per l2, so d2(l2) is only approximately linear;
    a secant iteration drives the float value to (near) exact zero.  This is
    not cosmetic: a d2 residual eps contributes eps * theta^{2-2 alpha} to the
    lattice-offset integrand, which for alpha > 1.5 swamps the true constant.
    """
    a, fa = 0.0, _raw_law(spec, l1, 0.0, u_extra).d2()
    b, fb = 1.0, _raw_law(spec, l1, 1.0, u_extra).d2()
    law = None
    for _ in range(60):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        law = _raw_law(spec, l1, c, u_extra)
        fc = law.d2()
        if fc == 0.0 or abs(fc) < 1e-15:
            return law
        a, fa, b, fb = b, fb, c, fc
    return law if law is not None else _raw_law(spec, l1, 0.0, u_extra)


def _feasible(law: WalkLaw) -> bool:
    return (
        law.l1 > -0.98
        and law.l2 > -0.98
        and law.p0 > 0.02
        and law.u_plus >= 0.0
        and law.u_minus >= 0.0
        and law.sm >= 0.0
    )


def build_walk_law(spec: TailSpec) -> WalkLaw:
    """Construct, calibrate and validate a law for the given tail spec."""
    if not spec.calibrate:
        law = _raw_law(spec, 0.0, 0.0)
        _validate(law)
        return law

    grid = np.linspace(-0.9, 3.0, 27)
    if spec.family is Family.LEFT_CONTINUOUS:
        u_grid = [0.0]
    else:
        u_grid = [0.0, 0.15, 0.3, 0.45, 0.6]

    nodes = _Nodes(gk_panels(_OFFSET_BREAKS)[0], shared=True)  # shared by every C0 of this build
    chosen = None
    best, best_c0 = None, math.inf  # the feasible grid point of smallest |C0| so far
    for u in u_grid:
        laws = [_solve_d2(spec, g, u) for g in grid]
        feas = [_feasible(lw) for lw in laws]
        c0s = [_lattice_offset(lw, nodes) if ok else math.nan for lw, ok in zip(laws, feas)]
        for i in range(len(grid) - 1):
            if feas[i] and feas[i + 1] and c0s[i] * c0s[i + 1] < 0:
                # imported here, not at module load: scipy.optimize costs about
                # 0.15 s and 20 MB, and most laws never bracket a sign change
                from scipy.optimize import brentq

                root = brentq(
                    lambda l: _lattice_offset(_solve_d2(spec, l, u), nodes),
                    grid[i],
                    grid[i + 1],
                    xtol=1e-11,
                )
                chosen = _solve_d2(spec, root, u)
                chosen = replace(chosen, c0=_lattice_offset(chosen, nodes))
                break
        if chosen is not None:
            break
        finite = [abs(c) if ok and math.isfinite(c) else math.inf for c, ok in zip(c0s, feas)]
        k = int(np.argmin(finite))
        if finite[k] < abs(best_c0):
            best, best_c0 = laws[k], c0s[k]
    if chosen is None:
        if best is None:
            raise InfeasibleMeanAdjustment(
                f"no feasible calibration for {spec.family.value} alpha={spec.alpha} B={spec.B}"
            )
        chosen = replace(best, c0=best_c0)
    _validate(chosen)
    return chosen


def _validate(law: WalkLaw) -> None:
    mp, mm = law.side_mass()
    if not law.p0 > 0.0:  # a nan origin mass fails too
        raise InfeasibleMeanAdjustment(
            f"origin mass {law.p0:.4f} <= 0 (side masses {mp:.4f}, {mm:.4f})"
        )
    if law.u_plus < 0.0 or law.u_minus < 0.0 or law.sm < 0.0:
        raise InfeasibleMeanAdjustment("negative repair atom")
    win = law.pmf_window(80)
    if win.min() < -1e-15:
        raise InfeasibleMeanAdjustment("negative atom inside the calibration window")
    if not abs(law.mean()) <= 1e-10:
        raise InfeasibleMeanAdjustment(f"mean {law.mean():.2e} not zero")
    support = np.nonzero(win > 0)[0] - 80
    if len(support) < 2:
        raise AperiodicityFailure("degenerate support")
    g = 0
    for x in support:
        g = math.gcd(g, int(abs(x)))
        if g == 1:
            break
    if g != 1:
        raise AperiodicityFailure(f"support gcd {g}")


# ---------------------------------------------------------------------------
# tail validation report
# ---------------------------------------------------------------------------


_TAIL_K_MAX = 22  # validate_tails scans y = 2^k for k < _TAIL_K_MAX


@dataclass
class TailReport:
    rows: list = field(default_factory=list)  # (x, side, scaled, target, deviation)

    def to_csv(self) -> str:
        return csv_text(("x", "side", "scaled_tail", "target", "deviation"), self.rows)


def validate_tails(law: WalkLaw) -> TailReport:
    """Scaled tails y^alpha P[X >= y] (and the mirror side) on y = 2^k.

    With the telescoped construction P[X >= y] = sp * y^-alpha holds exactly
    once y clears the calibration blocks, so the deviation is identically
    zero there; inside the window the blocks produce a finite deviation.
    """
    rep = TailReport()
    alpha = law.spec.alpha
    for k in range(1, _TAIL_K_MAX):
        y = 2 ** k
        scaled = law.cumulative_plus(y) * float(y) ** alpha
        target = law.sp
        rep.rows.append((y, "plus", scaled, target, abs(scaled - target)))
        scaled_m = law.cumulative_minus(y) * float(y) ** alpha
        target_m = law.sm if law.rm == law.rp else 0.0
        rep.rows.append((y, "minus", scaled_m, target_m, abs(scaled_m - target_m)))
    return rep


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def parse_law_config(text: str) -> TailSpec:
    """Parse the flat `key = value` law config format; each key may appear once."""
    specs = {f.name: f for f in fields(TailSpec)}
    kwargs, lines = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in specs:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {ln}: key {key!r} already set on line {lines[key]}")
        lines[key] = ln
        kwargs[key] = _field_value(specs[key], val)
    if "family" not in kwargs or "alpha" not in kwargs:
        raise ConfigError("config must set at least 'family' and 'alpha'")
    return TailSpec(**kwargs)
