"""Right-hand sides of the limit theorems and exact-vs-asymptotic reports.

Every verify_* driver produces a VerificationReport: rows of
(n, x, y, exact, rhs, ratio) plus a trend verdict.  Exact columns come from
the killed-walk DP only; rhs columns come from the stable numerics and the
potential kernel only, so the two sides are computationally independent.

The paper's statements are asymptotic with no rates, so the pass criterion
is a trend: |ratio - 1| must be non-increasing across the grid (deviations
already below a small floor may reorder freely - they are numerically
converged) and the final deviation must beat a per-theorem cap.

A run builds one LawContext for its law and hands it to every driver.  The
context owns all per-law state: the stable parameters and named constants,
one PotentialTable that every theorem reads and fills, and the memo of DP
slices, so each distinct DP runs once per run.  Only the on-disk artifact
cache (STABLEWALK_CACHE) spans runs.

Every f^x(n) is f^x_W(n) = p~^n_{0}(0, x), read at site x of the reversed
law's {0}-killed run from 0 (LawContext.dual_slice): thm1, thm2_small, comp
and finite share one at W(n_max), crossover has its own, thm2_bulk, thm4 and
thm5 share one per n, prop21 has one per n.  Forward {0}-killed runs give
only kernel slices p^n_0(x, .); prop23 reads p^n_0(x, y) = p~^n_0(y, x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cache
from .errors import (
    ConditioningMassZero,
    InfiniteCPlus,
    RegimeViolation,
)
from .killed_walk import (
    HALF_LE_0,
    default_window,
    k_estimate,
    ladder_renewals,
    run_kernel,
)
from .potential_theory import FiniteSetPotential, PotentialTable, c_plus, has_bounded_potential
from .special import gamma_fn
from .stable_numerics import (
    ConstantsTable,
    constants,
    density_at_zero,
    density_grid_smart,
    hitting_density,
)
from .walk_model import StableParams, WalkLaw, stable_params_of


# ---------------------------------------------------------------------------
# trend criterion and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendCriterion:
    """Pass/fail rule for asymptotic ratio trends.

    final_cap bounds the last |ratio - 1|; deviations below mono_floor are
    treated as converged noise and exempt from the ordering requirement.
    """

    final_cap: float = 0.15
    mono_floor: float = 0.02

    def check(self, deviations) -> tuple[bool, bool]:
        devs = [float(d) for d in deviations]
        mono = all(
            devs[i + 1] <= max(devs[i], self.mono_floor) for i in range(len(devs) - 1)
        )
        final_ok = devs[-1] < self.final_cap
        return mono, final_ok


@dataclass
class VerificationReport:
    theorem_id: str
    rows: list = field(default_factory=list)
    deviations: list = field(default_factory=list)
    monotone: bool = False
    final_dev: float = math.nan
    passed: bool = False
    notes: dict = field(default_factory=dict)

    def add_row(self, exact: float, rhs: float, **keys) -> None:
        """Append the row keys + (exact, rhs, ratio = exact/rhs) and its |ratio - 1|."""
        ratio = exact / rhs
        self.rows.append({**keys, "exact": exact, "rhs": rhs, "ratio": ratio})
        self.deviations.append(abs(ratio - 1.0))

    def finalize(self, crit: TrendCriterion) -> "VerificationReport":
        self.monotone, final_ok = crit.check(self.deviations)
        self.final_dev = float(self.deviations[-1])
        self.passed = self.monotone and final_ok
        return self

    def to_csv(self) -> str:
        cols = ["n", "x", "y", "exact", "rhs", "ratio", "regime"]
        lines = ["schema_version," + ",".join(cols)]
        for row in self.rows:
            vals = []
            for c in cols:
                v = row.get(c, "")
                vals.append(f"{v:.17g}" if isinstance(v, float) else str(v))
            lines.append("1," + ",".join(vals))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "passed": bool(self.passed),
            "monotone": bool(self.monotone),
            "final_dev": self.final_dev,
            "deviations": [float(d) for d in self.deviations],
            "notes": self.notes,
        }


class DPSlice(NamedTuple):
    """One-start DP at kept step m: p^m_B(x, .) over [-W, W], W, f^x_B(0..n), escaped mass at m."""

    slice: np.ndarray
    window: int
    f: np.ndarray
    escaped: float

    def at(self, y: int) -> float:
        return float(self.slice[y + self.window])


@dataclass
class LawContext:
    """The per-law state of one run, shared by every theorem driver."""

    law: WalkLaw
    params: StableParams
    consts: ConstantsTable
    pot: PotentialTable
    # (law hash, killing set, x, n, W) -> {kept m: DPSlice}, in front of the artifact cache
    memo: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, law: WalkLaw) -> "LawContext":
        params = stable_params_of(law)
        return cls(law=law, params=params, consts=constants(params), pot=PotentialTable(law))

    def dp_slice(self, B, x: int, n: int, mult: float = 8.0) -> DPSlice:
        """run_kernel(law, B, [x], n, keep=[n]) at W = default_window(law, n, mult)."""
        return self._run(self.law, B, x, n, default_window(self.law, n, mult), [n])[n]

    def dual_slice(self, ns, mult: float = 8.0) -> dict:
        """{m: DPSlice} for m in ns of the reversed law's {0}-killed run from 0 to max(ns).

        On W = default_window(law, max(ns), mult) site x of the slice at m is
        f^x_W(m) exactly (the windowed reversed step matrix is the transpose
        of the forward one), and the kill ledger .f is f^0_W.
        """
        n = max(ns)
        return self._run(self.law.reversed(), ("set", (0,)), 0, n, default_window(self.law, n, mult), ns)

    def _run(self, law: WalkLaw, B, x: int, n: int, W: int, keep) -> dict:
        """{m: DPSlice} for m in keep of run_kernel(law, B, [x], n, window=W), read-only.

        One run per (law, B, x, n, W) and context; asking for a step it did not
        keep reruns it kept at both requests (keep does not change the floats).
        """
        base = (law.law_hash(), str(B), x, n, W)
        runs = self.memo.get(base, {})
        if set(keep) <= runs.keys():
            return runs
        keep = sorted(set(keep) | runs.keys())
        # kept at its last step only: the key and 1-D layout of a plain dp_slice artifact
        shape = (2 * W + 1,) if len(keep) == 1 else (len(keep), 2 * W + 1)
        extra = {} if len(keep) == 1 else {"keep": keep}
        key = cache.content_key(base[0], "dp_slice", B=str(B), x=x, n=n, W=W, **extra)
        arrays = cache.load(key, shapes={"slice": shape, "f": (n + 1,), "escaped": (len(keep),)})
        if arrays is None:
            table = run_kernel(law, B, [x], n, window=W, keep=keep)
            arrays = {"slice": np.stack([table.values[m][0] for m in keep]).reshape(shape),
                      "f": table.step_killed[0], "escaped": table.escaped[0, keep]}
            cache.store(key, **arrays)
        for arr in arrays.values():
            arr.flags.writeable = False
        slices = arrays["slice"].reshape(len(keep), 2 * W + 1)
        self.memo[base] = {m: DPSlice(sl, W, arrays["f"], float(esc)) for m, sl, esc in zip(keep, slices, arrays["escaped"])}
        return self.memo[base]


# ---------------------------------------------------------------------------
# rhs evaluators
# ---------------------------------------------------------------------------


def f0_asymptote(n: int, params: StableParams, consts: ConstantsTable) -> float:
    """Hitting-time asymptote kappa c^{1/alpha} / n^{2 - 1/alpha}."""
    return consts.kappa_hit * params.c_circ ** (1.0 / params.alpha) * float(n) ** (
        1.0 / params.alpha - 2.0
    )


def _p_ccirc(ctx: LawContext, xi: float) -> float:
    vals, _ = density_grid_smart(ctx.params.c_circ, np.array([xi]), ctx.params)
    return float(vals[0])


def rhs_theorem2_3(ctx: LawContext, x: int, n: int, regime: str, prefactor: float | None = None) -> float:
    """Hitting-time rhs: 'x_small' or 'bulk' regime of the first-passage law.

    prefactor is the potential factor of the x_small form: a_dagger(x) for
    the origin (the default), u_A(x) for a finite killing set A.
    """
    params, consts = ctx.params, ctx.consts
    xn = x / n ** (1.0 / params.alpha)
    if regime == "x_small":
        pref = ctx.pot.a_dagger(x) if prefactor is None else prefactor
        val = pref * f0_asymptote(n, params, consts)
        if params.skew_sign * x > 0:
            val += abs(xn) * _p_ccirc(ctx, -xn) / n
        return val
    if regime == "bulk":
        if xn == 0:
            raise RegimeViolation("bulk regime needs x of order n^{1/alpha}")
        return params.c_circ * hitting_density(params.c_circ, xn, params) / n
    raise RegimeViolation(f"unknown regime {regime!r}")


def rhs_theorem4_5(
    ctx: LawContext,
    x: int,
    y: int,
    n: int,
    regime: str,
    f_x: float | None = None,
    f_minus_y: float | None = None,
    K_val: float | None = None,
) -> float:
    """Killed-kernel rhs per Theorem 4 (|gamma| < 2-alpha) / Theorem 5 (= 2-alpha).

    f_x / f_minus_y default to the theorem-1 asymptote with the potential
    prefactor.  The bulk regime has no closed form: see verify_bulk_scaling.
    """
    inv_a = 1.0 / ctx.params.alpha
    xn = x / n ** inv_a
    if regime == "y_small":
        fx = f_x if f_x is not None else rhs_theorem2_3(ctx, x, n, "x_small")
        return fx * ctx.pot.a(-y)
    if regime == "x_small":
        fy = f_minus_y if f_minus_y is not None else rhs_theorem2_3(ctx, -y, n, "x_small")
        val = ctx.pot.a_dagger(x) * fy
        if ctx.params.skew_sign > 0 and xn > 0:
            if K_val is None:
                raise RegimeViolation("gamma = 2 - alpha x_small regime needs a K value")
            val += max(xn, 0.0) * K_val / n ** inv_a
        return val
    raise RegimeViolation(f"unknown regime {regime!r}")


def rhs_theorem6(
    ctx: LawContext, x: int, y: int, n: int, regime: str, c_plus_val: float
) -> float:
    """Tunneling rhs for laws with bounded one-sided potential, x > 0 > y."""
    if not (x > 0 > y):
        raise RegimeViolation("Theorem 6 needs x > 0 > y")
    if not math.isfinite(c_plus_val):
        raise InfiniteCPlus("law has C+ = inf")
    params, consts = ctx.params, ctx.consts
    inv_a = 1.0 / params.alpha
    xn, yn = x / n ** inv_a, y / n ** inv_a
    if regime == "i":
        ad = ctx.pot.a_dagger(x)
        am = ctx.pot.a(-y)
        return ad * am * f0_asymptote(n, params, consts) + (
            ad * abs(yn) * _p_ccirc(ctx, yn) + am * xn * _p_ccirc(ctx, -xn)
        ) / n
    if regime == "ii":
        return c_plus_val * (xn - yn) * _p_ccirc(ctx, yn - xn) / n
    raise RegimeViolation(f"unknown regime {regime!r}")


def rhs_theorem6_hitting_form(ctx: LawContext, x: int, y: int, n: int, c_plus_val: float) -> float:
    """Equivalent regime-(ii) form C+ c f^{x-y}(c n) through the hitting density."""
    params = ctx.params
    return c_plus_val * params.c_circ * hitting_density(
        params.c_circ * n, float(x - y), params
    )


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


def verify_thm1(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    crit: TrendCriterion = TrendCriterion(final_cap=0.15),
) -> VerificationReport:
    """n^{2-1/alpha} f^0(n) against kappa c^{1/alpha}."""
    fp = ctx.dual_slice(n_values)[max(n_values)]
    rep = VerificationReport(theorem_id="thm1")
    for n in n_values:
        rep.add_row(float(fp.f[n]), f0_asymptote(n, ctx.params, ctx.consts), n=n, x=0)
    rep.notes["escaped"] = fp.escaped
    return rep.finalize(crit)


def verify_thm2_bulk(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    xi: float = 1.0,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """f^x(n) ~ c f^{x_n}(c)/n uniformly for x_n of order one."""
    rep = VerificationReport(theorem_id="thm2_bulk")
    for n in n_values:
        x = max(1, int(math.floor(xi * n ** (1.0 / ctx.params.alpha))))
        rep.add_row(ctx.dual_slice([n])[n].at(x), rhs_theorem2_3(ctx, x, n, "bulk"), n=n, x=x, regime="bulk")
    return rep.finalize(crit)


def verify_thm2_small(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    x_fixed: int = 4,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """f^x(n) ~ a_dagger(x) f^0(n) (+ spectral term when gamma x > 0)."""
    rep = VerificationReport(theorem_id="thm2_small")
    dual = ctx.dual_slice(n_values)
    for n in n_values:
        rhs = rhs_theorem2_3(ctx, x_fixed, n, "x_small")
        rep.add_row(dual[n].at(x_fixed), rhs, n=n, x=x_fixed, regime="x_small")
    return rep.finalize(crit)


def verify_crossover(
    ctx: LawContext,
    x_values=(1, 2),
    n_grid=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    factor_cap: float = 4.0,
    two_term_cap: float = 0.35,
) -> VerificationReport:
    """Locate the Theorem-3 dominance switch empirically (gamma = 2 - alpha).

    For fixed x the potential term a_dag(x) f^0-asymptote overtakes the
    density term x_n p_c(-x_n)/n as n grows.  The exact f^x(n) is compared
    against both terms; the switch point n-hat is where the two relative
    errors cross, and a_dag(x)/x must be within factor_cap of
    n-hat^{1 - 2/alpha}.  The two-term sum must also track the exact values
    through the transition (Theorem 3's combined form).
    """
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("crossover scan needs gamma = 2 - alpha")
    params, consts = ctx.params, ctx.consts
    inv_a = 1.0 / params.alpha
    rep = VerificationReport(theorem_id="crossover")
    factors = []
    track_worst = 0.0
    dual = ctx.dual_slice(n_grid)
    for x in x_values:
        gaps = []
        two_term = {}
        for n in n_grid:
            xn = x * float(n) ** -inv_a
            t1 = ctx.pot.a_dagger(x) * f0_asymptote(n, params, consts)
            t2 = xn * _p_ccirc(ctx, -xn) / n
            exact = dual[n].at(x)
            d1 = abs(exact / t1 - 1.0)
            d2 = abs(exact / t2 - 1.0)
            gaps.append((n, d1 - d2))
            rep.add_row(exact, t1 + t2, n=n, x=x, regime="crossover")
            two_term[n] = rep.deviations[-1]
        # d1 - d2 starts positive (density term rules) and turns negative;
        # interpolate the sign change in log n
        n_hat = None
        for (na, ga), (nb, gb) in zip(gaps[:-1], gaps[1:]):
            if ga > 0 >= gb:
                w = ga / (ga - gb)
                n_hat = math.exp((1 - w) * math.log(na) + w * math.log(nb))
                break
        if n_hat is None:
            raise RegimeViolation(f"no dominance switch inside the n grid for x={x}")
        # the combined two-term form must track the exact values through the
        # transition window around the switch (earlier n are pre-asymptotic)
        for n, dev in two_term.items():
            if n_hat / 8.0 <= n <= 8.0 * n_hat:
                track_worst = max(track_worst, dev)
        # predicted location constant: a(x)/x = p_c(0) n^{1-2/a} / (kappa c^{1/a});
        # the factor cap is applied to this units-free normalisation
        c_pred = density_at_zero(params.c_circ, params) / (
            consts.kappa_hit * params.c_circ ** inv_a
        )
        r = (ctx.pot.a_dagger(x) / x) / n_hat ** (1.0 - 2.0 * inv_a) / c_pred
        factors.append(r)
        rep.notes.setdefault("n_hat", []).append(n_hat)
    rep.monotone = True
    rep.deviations = [track_worst]
    rep.final_dev = track_worst
    rep.passed = all(1.0 / factor_cap <= r <= factor_cap for r in factors) and track_worst < two_term_cap
    rep.notes["factors"] = factors
    rep.notes["two_term_worst"] = track_worst
    return rep


def verify_thm4_y_small(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    y_fixed: int = 3,
    xi: float = 0.5,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """p^n_0(x, y) ~ f^x(n) a(-y) with y fixed and x in the bulk."""
    rep = VerificationReport(theorem_id="thm4_y_small")
    inv_a = 1.0 / ctx.params.alpha
    for n in n_values:
        x = max(1, int(math.floor(xi * n ** inv_a)))
        rhs = rhs_theorem4_5(ctx, x, y_fixed, n, "y_small", f_x=ctx.dual_slice([n])[n].at(x))
        rep.add_row(ctx.dp_slice(("set", (0,)), x, n).at(y_fixed), rhs, n=n, x=x, y=y_fixed, regime="y_small")
    return rep.finalize(crit)


def verify_thm5_x_small(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    x_fixed: int = 3,
    eta: float = 1.0,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2, mono_floor=0.03),
) -> VerificationReport:
    """gamma = 2-alpha: p^n_0(x, y) ~ a_dagger(x) f^{-y}(n) + x_n K(y_n)/n^{1/a}.

    The rhs embeds the kernel-estimated K value, whose own resolution is a
    few percent, so the monotonicity floor sits at 0.03 for this check.
    """
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("Theorem 5 x_small term needs gamma = 2 - alpha")
    rep = VerificationReport(theorem_id="thm5_x_small")
    inv_a = 1.0 / ctx.params.alpha
    for n in n_values:
        y = max(1, int(math.floor(eta * n ** inv_a)))
        fy = ctx.dual_slice([n])[n].at(-y)
        K_vals, spreads = k_estimate(ctx, [y], n)
        rhs = rhs_theorem4_5(ctx, x_fixed, y, n, "x_small", f_minus_y=fy, K_val=float(K_vals[0]))
        rep.add_row(ctx.dp_slice(("set", (0,)), x_fixed, n).at(y), rhs, n=n, x=x_fixed, y=y, regime="x_small")
        rep.notes.setdefault("k_spread", []).append(float(spreads[0]))
    return rep.finalize(crit)


def verify_bulk_scaling(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    xi: float = 0.7,
    eta: float = 0.7,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
    killing=("set", (0,)),
) -> VerificationReport:
    """Scaled killed kernel n^{1/a} p^n_B(xi n^{1/a}, eta n^{1/a}) stabilises.

    The stable killed density has no closed form; successive resolutions act
    as each other's reference, which is exactly the scaling-limit claim.
    """
    inv_a = 1.0 / ctx.params.alpha
    vals = []
    rep = VerificationReport(theorem_id="bulk_scaling")
    for n in n_values:
        x = max(1, int(round(xi * n ** inv_a)))
        y = max(1, int(round(eta * n ** inv_a)))
        scaled = float(n) ** inv_a * ctx.dp_slice(killing, x, n).at(y)
        vals.append(scaled)
        rep.rows.append({"n": n, "x": x, "y": y, "exact": scaled, "rhs": math.nan, "ratio": math.nan, "regime": "bulk"})
    for i in range(len(vals) - 1):
        rep.deviations.append(abs(vals[i] / vals[i + 1] - 1.0))
    rep.notes["scaled_values"] = vals
    return rep.finalize(crit)


def verify_thm6(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """Regime (ii): p^n_0(x, y) ~ C+ (x_n - y_n) p_c(y_n - x_n)/n at x = -y."""
    if not has_bounded_potential(ctx.law):
        raise InfiniteCPlus("Theorem 6 needs the bounded-potential family")
    cp = c_plus(ctx.law, ctx.pot)
    rep = VerificationReport(theorem_id="thm6_ii")
    inv_a = 1.0 / ctx.params.alpha
    for n in n_values:
        x = max(1, int(math.floor(0.5 * n ** inv_a)))
        y = -x
        exact = ctx.dp_slice(("set", (0,)), x, n, mult=10.0).at(y)
        rep.add_row(exact, rhs_theorem6(ctx, x, y, n, "ii", cp), n=n, x=x, y=y, regime="ii")
    rep.notes["c_plus"] = cp
    return rep.finalize(crit)


def tunneling_check(ctx: LawContext, R_values, n: int, x: int, y: int) -> VerificationReport:
    """P[S at first entry of (-inf,0] < -R | sigma_0 > n, S_n = y], exactly.

    Decomposes along the first entry into (-inf, 0]: entrance law from x times
    the dual {0}-killed kernel from -y, normalised by p^n_0(x, y).
    """
    if not (x > 0 > y):
        raise RegimeViolation("need x > 0 > y")
    law = ctx.law
    W = default_window(law, n)
    ent = run_kernel(law, HALF_LE_0, [x], n, window=W, keep=[n], entrance_depth=W)
    h = ent.entrance[0]  # h[k, d]: entry at step k at site -d (boundary 0)
    dual = run_kernel(law.reversed(), ("set", (0,)), [-y], n, window=W)
    sl0, W0, _, _ = ctx.dp_slice(("set", (0,)), x, n)
    denom = float(sl0[y + W0])
    if denom <= 1e-300:
        raise ConditioningMassZero(f"p^{n}_0({x},{y}) = {denom}")
    rep = VerificationReport(theorem_id="tunneling")
    # p^{n-k}_0(z, y) = dual kernel from -y evaluated at -z = d
    dual_slices = dual.values
    probs = []
    for R in R_values:
        num = 0.0
        for k in range(1, n + 1):
            rowk = h[k]
            m = n - k
            dz = dual_slices[m][0]
            # z < -R  <->  d > R; dual kernel gives p^{n-k}_0(z, y) at index -z + W
            d_idx = np.arange(int(R) + 1, len(rowk))
            num += float((rowk[d_idx] * dz[d_idx + W]).sum())
        probs.append(num / denom)
        rep.rows.append({"n": n, "x": x, "y": y, "exact": num / denom, "rhs": float(R), "ratio": math.nan, "regime": "tunnel"})
    rep.notes["probs"] = probs
    rep.notes["entrance_lump"] = float(ent.entrance_lump[0].sum())
    rep.deviations = [0.0]
    rep.monotone = all(probs[i] >= probs[i + 1] for i in range(len(probs) - 1))
    rep.final_dev = 0.0
    rep.passed = rep.monotone
    return rep


def verify_comp(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    xi: float = 0.5,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """Comparison identity p^n_0 ~ p^n_{(-inf,0)} + a_dag(x) f^0(n) a(-y), x, y > 0."""
    rep = VerificationReport(theorem_id="comp")
    inv_a = 1.0 / ctx.params.alpha
    f0 = ctx.dual_slice(n_values)[max(n_values)].f
    for n in n_values:
        x = y = max(1, int(math.floor(xi * n ** inv_a)))
        rhs = ctx.dp_slice(("le", -1), x, n).at(y) + ctx.pot.a_dagger(x) * float(f0[n]) * ctx.pot.a(-y)
        rep.add_row(ctx.dp_slice(("set", (0,)), x, n).at(y), rhs, n=n, x=x, y=y, regime="comp")
    return rep.finalize(crit)


def verify_k_small_eta(
    ctx: LawContext,
    n: int = 4096,
    etas=(1.0, 0.5, 0.25),
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """K_c(eta) c Gamma(alpha) / (p_c(0) eta^{alpha-1}) -> 1 as eta -> 0."""
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("K estimates need gamma = 2 - alpha")
    params = ctx.params
    p0 = density_at_zero(params.c_circ, params)
    rep = VerificationReport(theorem_id="k_small_eta")
    K_vals, spreads = k_estimate(ctx, [int(math.floor(eta * n ** (1.0 / params.alpha))) for eta in etas], n)
    for eta, K_val, spread in zip(etas, K_vals.tolist(), spreads.tolist()):
        scaled = K_val * params.c_circ * gamma_fn(params.alpha) / (p0 * eta ** (params.alpha - 1.0))
        rep.rows.append({"n": n, "x": 0, "y": eta, "exact": K_val, "rhs": math.nan, "ratio": scaled, "regime": "eta"})
        rep.deviations.append(abs(scaled - 1.0))
        rep.notes.setdefault("spread", []).append(spread)
    return rep.finalize(crit)


def verify_finite_set(
    ctx: LawContext,
    A=(-1, 0, 2),
    n_values=(256, 1024, 4096),
    crit: TrendCriterion = TrendCriterion(final_cap=0.1),
) -> VerificationReport:
    """sum_z in A f_A^z(n) / f^0(n) -> 1."""
    A = sorted(int(z) for z in A)
    n_max = max(n_values)
    W = default_window(ctx.law, n_max)
    table = run_kernel(ctx.law, ("set", tuple(A)), A, n_max, window=W, keep=[])
    f0 = ctx.dual_slice(n_values)[n_max]
    rep = VerificationReport(theorem_id="finite_set_sum")
    for n in n_values:
        rep.add_row(float(table.step_killed[:, n].sum()), float(f0.f[n]), n=n, x=0, regime="sum_fA")
    return rep.finalize(crit)


def verify_cor3(
    ctx: LawContext,
    A=(-1, 0, 2),
    n_values=(256, 1024, 4096),
    x_fixed: int = 5,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """Space-time hitting: P[sigma_A = n, S_n = y] ~ f_A^x(n) w_A(y), y in A.

    w_A(y) = u_{-A}(-y): the u-function of the reflected set -A (same law),
    which is the limiting entrance distribution; the weights sum to one.
    """
    A = sorted(int(z) for z in A)
    n_max = max(n_values)
    W = default_window(ctx.law, n_max)
    table = run_kernel(ctx.law, ("set", tuple(A)), [x_fixed], n_max, window=W, keep=[])
    fsp_neg = FiniteSetPotential(ctx.pot, [-z for z in A])
    weights = {y: fsp_neg.u(-y) for y in A}
    wsum = sum(weights.values())
    rep = VerificationReport(theorem_id="cor3")
    y_probe = max(A)
    for n in n_values:
        # P[sigma = n, S_n = y]: the entrance law at y, A being inside the window
        exact = float(table.entrance[0, n, A.index(y_probe)])
        fA_n = float(table.step_killed[0, n])
        rep.add_row(exact, fA_n * weights[y_probe], n=n, x=x_fixed, y=y_probe, regime="cor3")
    rep.notes["weight_sum"] = wsum
    return rep.finalize(crit)


def diagnostics_prop21(ctx: LawContext, n_values=(64, 256), refine: int = 2) -> VerificationReport:
    """sup of f^x(n) n / (|x_n|^{a-1} ^ |x_n|^{-a}), stable under x-grid refinement.

    The paper's constant is unspecified, so the assertion is boundedness:
    the supremum must not move materially when the x grid is refined/widened.
    """
    inv_a = 1.0 / ctx.params.alpha
    rep = VerificationReport(theorem_id="prop21")
    sups = []
    for level in range(refine):
        step = 3 * (level + 1)  # finer grid at higher level
        sup = 0.0
        xs = sorted({max(1, int(round(2.0 ** (j / step)))) for j in range(14 * step)})
        for n in n_values:
            fn = ctx.dual_slice([n], mult=10.0)[n]
            for x in xs:
                xn = x * float(n) ** -inv_a
                if xn > 8.0:
                    break
                bound = min(xn ** (ctx.params.alpha - 1.0), xn ** -ctx.params.alpha)
                sup = max(sup, fn.at(x) * n / bound)
        sups.append(sup)
        rep.rows.append({"n": 0, "x": level, "exact": sup, "rhs": math.nan, "ratio": math.nan, "regime": "sup"})
    rep.deviations = [abs(sups[i + 1] / sups[i] - 1.0) for i in range(len(sups) - 1)]
    rep.notes["sups"] = sups
    rep.monotone = True
    rep.final_dev = rep.deviations[-1] if rep.deviations else 0.0
    rep.passed = all(math.isfinite(s) for s in sups) and rep.final_dev < 0.2
    return rep


def diagnostics_prop23(ctx: LawContext, n: int = 256) -> VerificationReport:
    """Prop 2.3(i) scaled ratio: sup stable under (x, y)-grid refinement.

    Boundedness diagnostic only - the paper's C_M is unspecified.
    """
    a, inv_a = ctx.params.alpha, 1.0 / ctx.params.alpha
    rep = VerificationReport(theorem_id="prop23")
    sups = []
    # same extents, refined interior: stability means no blowup between nodes
    grids = (
        ((-40, -12, -3, 3, 12, 40), (1, 4, 16)),
        ((-40, -24, -12, -6, -3, -1, 1, 3, 6, 12, 24, 40), (1, 2, 4, 8, 16)),
    )
    # p^n_0(x, y) is site x of the reversed law's {0}-killed run from y, on the same window
    W, rev = default_window(ctx.law, n), ctx.law.reversed()
    col = {y: ctx._run(rev, ("set", (0,)), y, n, W, [n])[n] for y in grids[-1][1]}
    for xs, ys in grids:
        sup = 0.0
        for x in xs:
            xn = x * float(n) ** -inv_a
            for y in ys:
                bound = min(max(abs(xn), 1.0) ** (a - 1.0), abs(xn) ** -a) * abs(y) ** (a - 1.0)
                val = col[y].at(int(x)) / bound
                sup = max(sup, val)
                rep.rows.append({"n": n, "x": x, "y": y, "exact": val, "rhs": math.nan, "ratio": math.nan, "regime": "p23"})
        sups.append(sup)
    rep.notes["sups"] = sups
    rep.notes["sup"] = sups[-1]
    rep.deviations = [abs(sups[1] / sups[0] - 1.0)]
    rep.monotone = True
    rep.final_dev = rep.deviations[-1]
    rep.passed = all(math.isfinite(s) for s in sups) and rep.final_dev < 0.2
    return rep


def lemma76_diagnostic(ctx: LawContext, n: int = 512) -> float:
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


def verify_cor1(
    params: StableParams,
    t_values=(10.0, 100.0, 1000.0, 10000.0),
    crit: TrendCriterion = TrendCriterion(final_cap=0.15),
) -> VerificationReport:
    """t^{2-1/alpha} f^1(t) -> kappa_f for gamma < 2 - alpha (pure stable side)."""
    if params.skew_sign > 0:
        raise RegimeViolation("Corollary 1 power branch needs gamma < 2 - alpha")
    consts = constants(params)
    rep = VerificationReport(theorem_id="cor1")
    for t in t_values:
        val = hitting_density(t, 1.0, params, method="integral")
        scaled = t ** (2.0 - 1.0 / params.alpha) * val
        rep.add_row(scaled, consts.kappa_f, n=int(t), x=1, regime="t")
    return rep.finalize(crit)


def verify_cor2(
    ctx: LawContext,
    n_values=(256, 1024, 4096),
    x_fixed: int = -3,
    eta: float = 0.7,
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> VerificationReport:
    """gamma = 2-alpha, x <= 0, y < 0: p^n_0 ~ a_dag(x)[f^0(n)a(-y) + |y_n| p_c(y_n)/n]."""
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("Corollary 2 branch needs gamma = 2 - alpha")
    if x_fixed > 0:
        raise RegimeViolation("x must be <= 0 in this branch")
    rep = VerificationReport(theorem_id="cor2")
    inv_a = 1.0 / ctx.params.alpha
    for n in n_values:
        y = -max(1, int(math.floor(eta * n ** inv_a)))
        yn = y * float(n) ** -inv_a
        f0_term = f0_asymptote(n, ctx.params, ctx.consts) * ctx.pot.a(-y)
        rhs = ctx.pot.a_dagger(x_fixed) * (f0_term + abs(yn) * _p_ccirc(ctx, yn) / n)
        rep.add_row(ctx.dp_slice(("set", (0,)), x_fixed, n).at(y), rhs, n=n, x=x_fixed, y=y, regime="cor2")
    return rep.finalize(crit)


def verify_llt(
    ctx: LawContext,
    n_values=(64, 256, 1024),
    crit: TrendCriterion = TrendCriterion(final_cap=0.05, mono_floor=0.002),
) -> VerificationReport:
    """sup_x |n^{1/a} p^n(x) - p_c(x n^{-1/a})| decreasing along the n grid."""
    inv_a = 1.0 / ctx.params.alpha
    rep = VerificationReport(theorem_id="llt")
    n_max = max(n_values)
    W = default_window(ctx.law, n_max)
    table = run_kernel(ctx.law, None, [0], n_max, window=W, keep=list(n_values))
    xs = np.arange(-W, W + 1, dtype=float)
    for n in n_values:
        scale = float(n) ** inv_a
        # window-edge bias is a DP artifact, not an LLT failure: restrict the
        # sup to the bulk |x| <= 6 n^{1/alpha}
        mask = np.abs(xs) <= 6.0 * scale
        dens, _ = density_grid_smart(ctx.params.c_circ, xs[mask] / scale, ctx.params)
        sup = float(np.abs(scale * table.values[n][0][mask] - dens).max())
        rep.rows.append({"n": n, "x": 0, "exact": sup, "rhs": 0.0, "ratio": sup, "regime": "llt"})
        rep.deviations.append(sup)
    return rep.finalize(crit)


def verify_ladder(
    ctx: LawContext,
    x_values=(16, 64, 256),
    crit: TrendCriterion = TrendCriterion(final_cap=0.2),
) -> tuple[VerificationReport, VerificationReport]:
    """U_ds(x) E|Z|/x -> 1 and V_as(x) c Gamma(a)/(x^{a-1} E|Z|) -> 1 trends.

    The V_as normalisation carries the 1/L = E|Z| factor of the renewal
    identity; both trends require gamma = 2 - alpha with E|Z| < inf.
    """
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("ladder trends need gamma = 2 - alpha")
    lt = ladder_renewals(ctx.law, x_max=max(x_values))
    ez = lt.mean_descending()
    a, c = ctx.params.alpha, ctx.params.c_circ
    rep_u = VerificationReport(theorem_id="ladder_U")
    rep_v = VerificationReport(theorem_id="ladder_V")
    for x in x_values:
        ru = lt.U_ds[x] * ez / x
        rv = lt.V_as[x] * c * gamma_fn(a) / (float(x) ** (a - 1.0) * ez)
        rep_u.rows.append({"n": x, "x": x, "exact": lt.U_ds[x], "rhs": x / ez, "ratio": ru, "regime": "U_ds"})
        rep_v.rows.append({"n": x, "x": x, "exact": lt.V_as[x], "rhs": float(x) ** (a - 1.0) * ez / (c * gamma_fn(a)), "ratio": rv, "regime": "V_as"})
        rep_u.deviations.append(abs(ru - 1.0))
        rep_v.deviations.append(abs(rv - 1.0))
    rep_u.notes["E_Z"] = ez
    rep_u.notes["pmf_tails"] = [lt.q_ds_tail, lt.q_as_tail]
    rep_v.notes["E_Z"] = ez
    return rep_u.finalize(crit), rep_v.finalize(crit)
