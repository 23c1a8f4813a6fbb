"""Right-hand sides of the limit theorems and exact-vs-asymptotic reports.

Every driver is called as driver(ctx, quick): ctx is the run's LawContext
and quick is the CLI's --quick flag.  Each theorem's quick and full values
(its n grid, sites, caps) are literals in its own driver, and the shared n
grid is _grid; cli._drivers only maps theorem ids to drivers.  A driver returns a VerificationReport:
rows of (n, x, y, exact, rhs, ratio) plus a trend verdict.  Exact columns
come from the killed-walk DP only; rhs columns come from the stable numerics
and the potential kernel only, so the two sides are computationally
independent.

The paper's statements are asymptotic with no rates, so the pass criterion
is a trend: |ratio - 1| must be non-increasing across the grid (deviations
already below a small floor may reorder freely - they are numerically
converged) and the final deviation must beat a per-theorem cap.

A run builds one LawContext for its law and hands it to every driver.  It
owns the stable parameters and constants, one PotentialTable, and the memo of
DP rows keyed by (law hash, killing set, start, n, W); only the artifact
cache (STABLEWALK_CACHE) spans runs.  Each DP-reading driver is a generator,
made a driver by _reads: after its guards it yields the rows it reads, with
the steps it reads them at, once (runs = yield rows), and is sent their
runs.  driver.rows(ctx, quick) runs it up to that yield, so a driver whose
guard fails declares none.  Before any driver runs, cli.cmd_verify hands the
rows of every requested id to LawContext.plan, which steps every row at one
(n, W) - forward and reversed, {0}-, A-, free and half-line rows alike -
as one run_kernel batch.  Each row is memoised and cached under its own key
and keeps the steps its readers read, so the drivers' reads are memo hits;
a driver called without a plan reads its rows in one batch, so the plan
saves steps but never changes a number.  A row's artifact holds each power
of two up to n, and n, for a reversed row (on a self-dual law, every row),
else n, so one id finds the rows another id wrote; a row also read at
another step (llt's free row, prop22's every-step dual row) could never
load, so it is not stored.

On the window p^n_B(x, y) = p~^n_B(y, x), p~ the reversed law's kernel.  So
f^x(n) = p~^n_{0}(0, x) is read off the reversed {0}-killed row from 0
(_hits_row): thm1, thm2_small, comp, finite and full-grid crossover
share one at W(n_max), the quick crossover reads the one to 2048, thm2_bulk,
thm4 and thm5 one per n, prop21 one per n.
prop23 reads its columns y off reversed rows from y; on the full grid the
one from 8 is also prop22's dual kernel (every step) and, on a self-dual
law, its forward denominator.  For A = {-1, 0, 2}, site x of the reversed
A-killed row from z in A is P_x[sigma_A = n, S_n = z]: the three rows
(_a_rows) give cor3 both its columns and finite its sum_{w in A} f_A^w(n),
the summed kill ledgers.  thm5 and kest hand k_estimate the two half-line
rows of _k_rows.  On the full grid the rows above at n = 4096, with thm4's,
comp's, bulk_scaling's, thm5's and cor2's forward rows, llt's free row and
comp's half-line row, are one batch.  Only tunneling_check's entrance-law
run, the one reader of Green sums here, calls run_kernel directly;
tunneling_check reads its other rows itself, since tests call it with
their own (R, n, x, y), and verify_prop22 yields them first.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cache
from .errors import (
    ConditioningMassZero,
    ConfigError,
    InfiniteCPlus,
    RegimeViolation,
    StableWalkError,
    WindowTooSmall,
)
from .killed_walk import (
    HALF_LE_0,
    default_window,
    k_estimate,
    k_starts,
    ladder_renewals,
    normalize_killing,
    run_kernel,
)
from .output import csv_text
from .potential_theory import FiniteSetPotential, PotentialTable, c_plus, has_bounded_potential
from .special import gamma_fn
from .stable_numerics import (
    ConstantsTable,
    constants,
    density_at_zero,
    density_grid,
    hitting_density,
)
from .walk_model import StableParams, WalkLaw, stable_params_of

_ORIGIN = ("set", (0,))  # killing at the origin
_A = (-1, 0, 2)  # the finite killing set of finite and cor3


# ---------------------------------------------------------------------------
# report and its trend verdict
# ---------------------------------------------------------------------------


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
        self.record(exact, rhs, ratio, abs(ratio - 1.0), **keys)

    def record(self, exact: float, rhs: float = math.nan, ratio: float = math.nan, dev: float | None = None, **keys) -> None:
        """Append a row as given; dev, if given, joins the deviations the verdict reads."""
        self.rows.append({**keys, "exact": exact, "rhs": rhs, "ratio": ratio})
        if dev is not None:
            self.deviations.append(dev)

    def finalize(self, final_cap: float, mono_floor: float = 0.02) -> "VerificationReport":
        """The trend verdict on the recorded deviations.

        They must be non-increasing, except that deviations below mono_floor
        are converged noise and may reorder freely, and the last one must be
        below final_cap.
        """
        devs = [float(d) for d in self.deviations]
        monotone = all(devs[i + 1] <= max(devs[i], mono_floor) for i in range(len(devs) - 1))
        return self.finish(self.deviations, monotone, devs[-1] < final_cap)

    def finish(self, deviations, monotone: bool, ok: bool) -> "VerificationReport":
        """Close the report on deviations: passed iff monotone and ok, final_dev the last one."""
        self.deviations = list(deviations)
        self.monotone = monotone
        self.final_dev = float(self.deviations[-1])
        self.passed = monotone and ok
        return self

    def to_csv(self) -> str:
        cols = ("n", "x", "y", "exact", "rhs", "ratio", "regime")
        return csv_text(cols, [[row.get(c, "") for c in cols] for row in self.rows])

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
    """One start's DP at a kept step m: p^m_B(x, .) over [-W, W], W, f^x_B(0..n), escaped mass at m."""

    slice: np.ndarray
    window: int
    f: np.ndarray
    escaped: float

    def at(self, y: int) -> float:
        """p^m_B(x, y); a site outside [-W, W] raises WindowTooSmall, where the index would wrap to the other edge."""
        if abs(y) > self.window:
            raise WindowTooSmall(f"site {y} outside window {self.window}")
        return float(self.slice[y + self.window])


class Row(NamedTuple):
    """One DP row: the B-killed run from x to step n on [-W, W], of law.reversed() when dual, read at steps."""

    dual: bool
    B: tuple
    x: int
    n: int
    W: int
    steps: tuple


@dataclass
class LawContext:
    """The per-law state of one run, shared by every theorem driver."""

    law: WalkLaw
    params: StableParams
    consts: ConstantsTable
    pot: PotentialTable
    # (law hash, killing set, start, n, W) of one row -> {kept m: DPSlice}
    memo: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, law: WalkLaw) -> "LawContext":
        params = stable_params_of(law)
        return cls(law=law, params=params, consts=constants(params), pot=PotentialTable(law))

    def __post_init__(self):
        self._reversed = self.law.reversed()
        self._hashes = (self.law.law_hash(), self._reversed.law_hash())

    def row(self, B, x: int, n: int, mult: float = 8.0, dual: bool = False, steps=None) -> Row:
        """The law's (law.reversed()'s when dual) B-killed run from x to n at W = default_window(law, n, mult).

        Its reader reads it at steps, by default n.
        """
        return Row(dual, normalize_killing(B), int(x), n, default_window(self.law, n, mult),
                   (n,) if steps is None else tuple(steps))

    def read(self, rows) -> list:
        """[{m: DPSlice}] of each row, read-only, at least at its steps.

        Rows the memo lacks load from the artifact cache or run, as in plan.
        """
        for batch in self._batches(rows):
            self._run(batch)
        return [self.memo[self._key(r)] for r in rows]

    def plan(self, rows) -> None:
        """Step the declared rows the memo lacks, each batch of them in one run_kernel call.

        A batch is every row at one (n, W), whatever its law, killing set and
        start; each row is bit for bit its single-start run and keeps the
        steps its readers read.  A batch that raises is left to its readers,
        whose own reads meet the error.
        """
        for batch in self._batches(rows):
            try:
                self._run(batch)
            except StableWalkError:
                pass

    def _key(self, r: Row) -> tuple:
        return (self._hashes[r.dual], r.B, r.x, r.n, r.W)

    def _artifact_steps(self, r: Row) -> list:
        """The steps a row's artifact holds.

        Each power of two up to n, and n, on the reversed law (on a self-dual
        law, every row), else n: the steps other processes' readers may read.
        """
        if self._hashes[r.dual] == self._hashes[1]:
            return sorted({r.n, *(1 << k for k in range(r.n.bit_length()))})
        return [r.n]

    def _artifact(self, r: Row) -> str:
        return cache.content_key(self._hashes[r.dual], "dp_row", B=str(r.B), x=r.x, n=r.n, W=r.W)

    def _batches(self, rows) -> list:
        """The rows the memo lacks, merged by key, less those the artifact cache holds, grouped into batches.

        Each is (key, row, steps to keep).  A row the memo holds at too few
        steps reruns for the others.  With an artifact cache a row read only
        at steps its artifact holds keeps all of those, for later processes;
        a row read elsewhere too could never load, so it keeps its readers'
        steps only and is not stored.
        """
        need = {}
        for r in rows:
            key = self._key(r)
            need[key] = (r, need.get(key, (r, set()))[1] | set(r.steps))
        caching = cache.cache_dir() is not None
        batches = {}
        for key, (r, steps) in need.items():
            held = self.memo.get(key, {}).keys()
            if steps <= held:
                continue
            stored = self._artifact_steps(r)
            if steps <= set(stored) and self._load(key, r, stored):
                continue
            if caching and steps <= set(stored):
                steps = set(stored)
            batches.setdefault((r.n, r.W), []).append((key, r, steps))
        return list(batches.values())

    def _load(self, key: tuple, r: Row, stored: list) -> bool:
        arrays = cache.load(self._artifact(r), {"slice": (len(stored), 2 * r.W + 1), "f": (r.n + 1,),
                                                "escaped": (len(stored),)})
        if arrays is not None:
            self._keep(key, r.W, arrays["f"], {m: (arrays["slice"][j], arrays["escaped"][j]) for j, m in enumerate(stored)})
        return arrays is not None

    def _keep(self, key: tuple, W: int, f: np.ndarray, kept: dict) -> None:
        """Memoise a row's DPSlices, arrays read-only, from f and {m: (slice, escaped mass)}, beside those it holds."""
        f.flags.writeable = False
        for sl, _ in kept.values():
            sl.flags.writeable = False
        new = {m: DPSlice(sl, W, f, float(esc)) for m, (sl, esc) in kept.items()}
        self.memo[key] = dict(sorted({**new, **self.memo.get(key, {})}.items()))

    def _run(self, batch: list) -> None:
        """Step one batch of (key, row, steps) in one run_kernel call, memoise each row and cache those kept at their artifact's steps.

        The law's rows come first, then the reversed law's (none on a
        self-dual law); each row passes its killing set and its kept steps,
        a sorted tuple.
        """
        flipped = self._hashes[0] != self._hashes[1]
        batch = sorted(batch, key=lambda item: flipped and item[1].dual)
        dual = [r.x for _, r, _ in batch if flipped and r.dual]
        law, starts = self.law, [r.x for _, r, _ in batch][: len(batch) - len(dual)]
        if not starts:
            law, starts, dual = self._reversed, dual, []
        _, r0, _ = batch[0]
        table = run_kernel(law, [r.B for _, r, _ in batch], starts, r0.n, window=r0.W,
                           keep=[tuple(sorted(steps)) for _, _, steps in batch], dual_starts=dual)
        for i, (key, r, steps) in enumerate(batch):
            self._keep(key, r.W, table.step_killed[i], {m: (sl, table.escaped[i, m]) for m, sl in table.kept(i).items()})
            stored = self._artifact_steps(r)
            if cache.cache_dir() is not None and steps <= set(stored):
                run = self.memo[key]
                cache.store(self._artifact(r), slice=np.stack([run[m].slice for m in stored]), f=run[r.n].f,
                            escaped=np.array([run[m].escaped for m in stored]))


def _hits_row(ctx: LawContext, n: int, steps=None) -> Row:
    """The reversed {0}-killed run from 0 to n, read at steps (default n): site x at m is f^x_W(m), .f is f^0_W."""
    return ctx.row(_ORIGIN, 0, n, dual=True, steps=steps)


def _k_rows(ctx: LawContext, n: int) -> list:
    """The half-line rows k_estimate reads at n."""
    return [ctx.row(HALF_LE_0, x, n) for x in k_starts(ctx.law, n)]


def _a_rows(ctx: LawContext, ns) -> list:
    """The reversed A-killed runs from each z in A to max(ns), read at every n of ns."""
    return [ctx.row(_A, z, max(ns), dual=True, steps=ns) for z in _A]


def _grid(quick: bool) -> tuple:
    """The n grid of the trend drivers."""
    return (64, 256, 1024) if quick else (256, 1024, 4096)


def _site(ctx: LawContext, c: float, n: int) -> int:
    """The lattice site max(1, floor(c n^{1/alpha}))."""
    return max(1, int(math.floor(c * n ** (1.0 / ctx.params.alpha))))


def _reads(check):
    """The driver(ctx, quick) -> report of check, a generator that yields the DP rows it reads and is sent their runs.

    check yields once, runs = yield rows, after its guards: driver reads
    the rows in one ctx.read.  driver.rows(ctx, quick) runs check up to
    that yield and returns its rows, for LawContext.plan.
    """
    @functools.wraps(check)
    def driver(ctx: LawContext, quick: bool):
        gen = check(ctx, quick)
        try:
            gen.send(ctx.read(next(gen)))
        except StopIteration as done:
            return done.value

    driver.rows = lambda ctx, quick: next(check(ctx, quick))
    return driver


def declared_rows(ctx: LawContext, drivers, quick: bool) -> list:
    """Every DP row the drivers will read, for LawContext.plan; a driver whose guard fails declares none."""
    rows = []
    for driver in drivers:
        try:
            rows += driver.rows(ctx, quick) if hasattr(driver, "rows") else []
        except StableWalkError:
            pass
    return rows


# ---------------------------------------------------------------------------
# rhs evaluators, one per asymptotic form a driver checks
# ---------------------------------------------------------------------------


def f0_asymptote(n: int, params: StableParams, consts: ConstantsTable) -> float:
    """Hitting-time asymptote kappa c^{1/alpha} / n^{2 - 1/alpha}."""
    return consts.kappa_hit * params.c_circ ** (1.0 / params.alpha) * float(n) ** (
        1.0 / params.alpha - 2.0
    )


def _p_ccirc(ctx: LawContext, xi: float) -> float:
    vals, _ = density_grid(ctx.params.c_circ, np.array([xi]), ctx.params)
    return float(vals[0])


def rhs_thm2_small(ctx: LawContext, x: int, n: int) -> tuple[float, float]:
    """x fixed: f^x(n) ~ t1 + t2, t1 = a_dagger(x) f^0(n), t2 = |x_n| p_c(-x_n)/n when gamma x > 0, else 0.0."""
    params = ctx.params
    xn = x / n ** (1.0 / params.alpha)
    t1 = ctx.pot.a_dagger(x) * f0_asymptote(n, params, ctx.consts)
    return t1, (abs(xn) * _p_ccirc(ctx, -xn) / n if params.skew_sign * x > 0 else 0.0)


def rhs_thm2_bulk(ctx: LawContext, x: int, n: int) -> float:
    """x_n of order one: f^x(n) ~ c f^{x_n}(c)/n."""
    params = ctx.params
    xn = x / n ** (1.0 / params.alpha)
    if xn == 0:
        raise RegimeViolation("bulk regime needs x of order n^{1/alpha}")
    return params.c_circ * hitting_density(params.c_circ, xn, params) / n


def rhs_thm5_x_small(ctx: LawContext, x: int, n: int, f_minus_y: float, K_val: float) -> float:
    """gamma = 2 - alpha, x > 0 fixed: p^n_0(x, y) ~ a_dagger(x) f^{-y}(n) + x_n K(y_n)/n^{1/alpha}."""
    inv_a = 1.0 / ctx.params.alpha
    xn = x / n ** inv_a
    return ctx.pot.a_dagger(x) * f_minus_y + xn * K_val / n ** inv_a


def rhs_thm6_ii(ctx: LawContext, x: int, y: int, n: int, c_plus_val: float) -> float:
    """Bounded one-sided potential, x > 0 > y: p^n_0(x, y) ~ C+ (x_n - y_n) p_c(y_n - x_n)/n."""
    if not (x > 0 > y):
        raise RegimeViolation("Theorem 6 needs x > 0 > y")
    if not math.isfinite(c_plus_val):
        raise InfiniteCPlus("law has C+ = inf")
    inv_a = 1.0 / ctx.params.alpha
    xn, yn = x / n ** inv_a, y / n ** inv_a
    return c_plus_val * (xn - yn) * _p_ccirc(ctx, yn - xn) / n


# ---------------------------------------------------------------------------
# verification drivers: driver(ctx, quick) -> VerificationReport
# ---------------------------------------------------------------------------


@_reads
def verify_thm1(ctx: LawContext, quick: bool):
    """n^{2-1/alpha} f^0(n) against kappa c^{1/alpha}."""
    ns = _grid(quick)
    (hits,) = yield [_hits_row(ctx, max(ns))]
    fp = hits[max(ns)]
    rep = VerificationReport(theorem_id="thm1")
    for n in ns:
        rep.add_row(float(fp.f[n]), f0_asymptote(n, ctx.params, ctx.consts), n=n, x=0)
    rep.notes["escaped"] = fp.escaped
    return rep.finalize(0.15)


@_reads
def verify_thm2_bulk(ctx: LawContext, quick: bool):
    """f^x(n) ~ c f^{x_n}(c)/n uniformly for x_n of order one, at x_n = 1."""
    ns = _grid(quick)
    runs = yield [_hits_row(ctx, n) for n in ns]
    rep = VerificationReport(theorem_id="thm2_bulk")
    for n, hits in zip(ns, runs):
        x = _site(ctx, 1.0, n)
        rep.add_row(hits[n].at(x), rhs_thm2_bulk(ctx, x, n), n=n, x=x, regime="bulk")
    return rep.finalize(0.2)


@_reads
def verify_thm2_small(ctx: LawContext, quick: bool):
    """f^4(n) ~ a_dagger(4) f^0(n) (+ spectral term when gamma > 0)."""
    ns = _grid(quick)
    (dual,) = yield [_hits_row(ctx, max(ns), steps=ns)]
    rep = VerificationReport(theorem_id="thm2_small")
    for n in ns:
        rep.add_row(dual[n].at(4), sum(rhs_thm2_small(ctx, 4, n)), n=n, x=4, regime="x_small")
    return rep.finalize(0.2)


@_reads
def verify_crossover(ctx: LawContext, quick: bool):
    """Locate the Theorem-3 dominance switch empirically (gamma = 2 - alpha).

    For fixed x = 1, 2 the potential term t1 of rhs_thm2_small overtakes its
    density term t2 as n grows.  The exact f^x(n) is compared against both;
    the switch point n-hat is where the two relative errors cross, and
    a_dag(x)/x must be within a factor 4 of n-hat^{1 - 2/alpha}.  t1 + t2
    must also track the exact values through the transition (Theorem 3's
    combined form).  The n grid is 16, 32, ..., 2048 when quick and runs on
    to 4096 otherwise.
    """
    params, inv_a = ctx.params, 1.0 / ctx.params.alpha
    if params.skew_sign <= 0:
        raise RegimeViolation("crossover scan needs gamma = 2 - alpha")
    ns = tuple(16 << k for k in range(8 if quick else 9))
    (dual,) = yield [_hits_row(ctx, max(ns), steps=ns)]
    n_arr = np.array(ns)
    # predicted location constant: a(x)/x = p_c(0) n^{1-2/a} / (kappa c^{1/a});
    # the factor cap is applied to this units-free normalisation
    c_pred = density_at_zero(params.c_circ, params) / (ctx.consts.kappa_hit * params.c_circ ** inv_a)
    rep = VerificationReport(theorem_id="crossover")
    n_hats, factors, track_worst = [], [], 0.0
    for x in (1, 2):
        exact = np.array([dual[n].at(x) for n in ns])
        t1, t2 = np.array([rhs_thm2_small(ctx, x, n) for n in ns]).T
        for n, e, rhs in zip(ns, exact.tolist(), (t1 + t2).tolist()):
            rep.add_row(e, rhs, n=n, x=x, regime="crossover")
        # the gap starts positive (density term rules) and turns negative;
        # interpolate its first sign change in log n
        gap = np.abs(exact / t1 - 1.0) - np.abs(exact / t2 - 1.0)
        turns = np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
        if not turns.size:
            raise RegimeViolation(f"no dominance switch inside the n grid for x={x}")
        i = turns[0]
        w = gap[i] / (gap[i] - gap[i + 1])
        n_hat = math.exp((1 - w) * math.log(ns[i]) + w * math.log(ns[i + 1]))
        # t1 + t2 must track the exact values through the transition window
        # around the switch (earlier n are pre-asymptotic)
        near = (n_hat / 8.0 <= n_arr) & (n_arr <= 8.0 * n_hat)
        track_worst = max(track_worst, float(np.abs(exact / (t1 + t2) - 1.0)[near].max()))
        n_hats.append(n_hat)
        factors.append((ctx.pot.a_dagger(x) / x) / n_hat ** (1.0 - 2.0 * inv_a) / c_pred)
    rep.notes.update(n_hat=n_hats, factors=factors, two_term_worst=track_worst)
    return rep.finish([track_worst], True, all(0.25 <= r <= 4.0 for r in factors) and track_worst < 0.35)


@_reads
def verify_thm4_y_small(ctx: LawContext, quick: bool):
    """p^n_0(x, 3) ~ f^x(n) a(-3) with x = floor(n^{1/alpha}/2) in the bulk."""
    ns = _grid(quick)
    xs = [_site(ctx, 0.5, n) for n in ns]
    runs = yield [row for n, x in zip(ns, xs) for row in (_hits_row(ctx, n), ctx.row(_ORIGIN, x, n))]
    rep = VerificationReport(theorem_id="thm4_y_small")
    for n, x, hits, fwd in zip(ns, xs, runs[::2], runs[1::2]):
        rep.add_row(fwd[n].at(3), hits[n].at(x) * ctx.pot.a(-3), n=n, x=x, y=3, regime="y_small")
    return rep.finalize(0.2)


@_reads
def verify_thm5_x_small(ctx: LawContext, quick: bool):
    """gamma = 2-alpha: p^n_0(3, y) ~ a_dagger(3) f^{-y}(n) + x_n K(y_n)/n^{1/a}, y_n = 1.

    The rhs embeds the kernel-estimated K value, whose own resolution is a
    few percent, so the monotonicity floor sits at 0.03 for this check.
    """
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("Theorem 5 x_small term needs gamma = 2 - alpha")
    ns = _grid(quick)
    runs = yield [row for n in ns for row in (_hits_row(ctx, n), ctx.row(_ORIGIN, 3, n), *_k_rows(ctx, n))]
    rep = VerificationReport(theorem_id="thm5_x_small")
    for n, hits, fwd, *k_runs in zip(ns, *(runs[i::4] for i in range(4))):
        y = _site(ctx, 1.0, n)
        K_vals, spreads = k_estimate(ctx.law, k_runs, [y], n)
        rhs = rhs_thm5_x_small(ctx, 3, n, hits[n].at(-y), float(K_vals[0]))
        rep.add_row(fwd[n].at(y), rhs, n=n, x=3, y=y, regime="x_small")
        rep.notes.setdefault("k_spread", []).append(float(spreads[0]))
    return rep.finalize(0.2, mono_floor=0.03)


@_reads
def verify_bulk_scaling(ctx: LawContext, quick: bool):
    """Scaled killed kernel n^{1/a} p^n_0(0.7 n^{1/a}, 0.7 n^{1/a}) stabilises.

    The stable killed density has no closed form; successive resolutions act
    as each other's reference, which is exactly the scaling-limit claim.
    """
    inv_a = 1.0 / ctx.params.alpha
    ns = _grid(quick)
    xs = [max(1, int(round(0.7 * n ** inv_a))) for n in ns]
    runs = yield [ctx.row(_ORIGIN, x, n) for n, x in zip(ns, xs)]
    vals = []
    rep = VerificationReport(theorem_id="bulk_scaling")
    for n, x, run in zip(ns, xs, runs):
        scaled = float(n) ** inv_a * run[n].at(x)
        vals.append(scaled)
        rep.record(scaled, n=n, x=x, y=x, regime="bulk")
    rep.deviations = [abs(vals[i] / vals[i + 1] - 1.0) for i in range(len(vals) - 1)]
    rep.notes["scaled_values"] = vals
    return rep.finalize(0.2)


@_reads
def verify_thm6(ctx: LawContext, quick: bool):
    """Regime (ii): p^n_0(x, y) ~ C+ (x_n - y_n) p_c(y_n - x_n)/n at x = -y."""
    if not has_bounded_potential(ctx.law):
        raise InfiniteCPlus("Theorem 6 needs the bounded-potential family")
    ns = _grid(quick)
    xs = [_site(ctx, 0.5, n) for n in ns]
    runs = yield [ctx.row(_ORIGIN, x, n, mult=10.0) for n, x in zip(ns, xs)]
    cp = c_plus(ctx.law, ctx.pot)
    rep = VerificationReport(theorem_id="thm6_ii")
    for n, x, run in zip(ns, xs, runs):
        rep.add_row(run[n].at(-x), rhs_thm6_ii(ctx, x, -x, n, cp), n=n, x=x, y=-x, regime="ii")
    rep.notes["c_plus"] = cp
    return rep.finalize(0.2)


def _tunneling_rows(ctx: LawContext, n: int, x: int, y: int) -> list:
    """tunneling_check's rows: the reversed {0}-killed run from -y at every step, and p^n_0(x, .)."""
    if not (x > 0 > y):
        raise RegimeViolation("need x > 0 > y")
    return [ctx.row(_ORIGIN, -y, n, dual=True, steps=range(n)), ctx.row(_ORIGIN, x, n)]


def tunneling_check(ctx: LawContext, R_values, n: int, x: int, y: int) -> VerificationReport:
    """P[S at first entry of (-inf,0] < -R | sigma_0 > n, S_n = y] on symmetric laws.

    Decomposes along the first entry into (-inf, 0]: the entrance law h(k, z)
    from x (the step-k growth of the forward run's Green sums on [-W, 0])
    times p^{n-k}_0(z, y), normalised by p^n_0(x, y).  The second factor is
    read at site -z of the reversed law's {0}-killed run from -y, which holds
    p^{n-k}_0(y, z).  That equals p^{n-k}_0(z, y) only when the law is
    symmetric, so on a skewed law the value is not the stated probability
    (the FOUND line on tunneling_check in CHANGES.md).  The entrance run is
    the one DP here outside the context: only it reads Green sums.
    """
    dual, fwd = ctx.read(_tunneling_rows(ctx, n, x, y))
    W = fwd[n].window
    ent = run_kernel(ctx.law, HALF_LE_0, [x], n, window=W, keep=[], entrance_depth=W, keep_green=range(n + 1))
    strip = np.array([ent.green[k][0, W::-1] for k in range(n + 1)])  # sites 0, -1, ..., -W; no unit as x > 0
    h = np.diff(strip, axis=0, prepend=0.0)  # h[k, d]: entry at step k at site -d (boundary 0)
    denom = fwd[n].at(y)
    if denom <= 1e-300:
        raise ConditioningMassZero(f"p^{n}_0({x},{y}) = {denom}")
    rep = VerificationReport(theorem_id="tunneling")
    # h[k, d] enters at z = -d, and z < -R <-> d > R; the dual at step n - k
    # holds p^{n-k}_0(y, z) at index d + W
    probs = []
    for R in R_values:
        d = int(R) + 1
        num = sum(float((h[k, d:] * dual[n - k].slice[W + d:]).sum()) for k in range(1, n + 1))
        probs.append(num / denom)
        rep.record(num / denom, float(R), n=n, x=x, y=y, regime="tunnel")
    rep.notes["probs"] = probs
    rep.notes["entrance_lump"] = float(ent.killed[0, n] - strip[n].sum())  # killed below the window
    return rep.finish([0.0], all(probs[i] >= probs[i + 1] for i in range(len(probs) - 1)), True)


@_reads
def verify_prop22(ctx: LawContext, quick: bool):
    """Prop 2.2 from x = 8 to y = -8: the tunneling probability falls as R = 4, 16, 64 grows."""
    n = 128 if quick else 256
    yield _tunneling_rows(ctx, n, 8, -8)
    return tunneling_check(ctx, (4, 16, 64), n, 8, -8)


@_reads
def verify_comp(ctx: LawContext, quick: bool):
    """Comparison identity p^n_0 ~ p^n_{(-inf,0)} + a_dag(x) f^0(n) a(-y) at x = y = n^{1/a}/2."""
    ns = _grid(quick)
    xs = [_site(ctx, 0.5, n) for n in ns]
    hits, *runs = yield [_hits_row(ctx, max(ns))] + [ctx.row(B, x, n) for n, x in zip(ns, xs) for B in (("le", -1), _ORIGIN)]
    f0 = hits[max(ns)].f
    rep = VerificationReport(theorem_id="comp")
    for n, x, below, fwd in zip(ns, xs, runs[::2], runs[1::2]):
        rhs = below[n].at(x) + ctx.pot.a_dagger(x) * float(f0[n]) * ctx.pot.a(-x)
        rep.add_row(fwd[n].at(x), rhs, n=n, x=x, y=x, regime="comp")
    return rep.finalize(0.2)


@_reads
def verify_k_small_eta(ctx: LawContext, quick: bool):
    """K_c(eta) c Gamma(alpha) / (p_c(0) eta^{alpha-1}) -> 1 as eta = 1, 1/2, 1/4 -> 0."""
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("K estimates need gamma = 2 - alpha")
    params = ctx.params
    n, etas = (1024 if quick else 4096), (1.0, 0.5, 0.25)
    runs = yield _k_rows(ctx, n)
    p0 = density_at_zero(params.c_circ, params)
    rep = VerificationReport(theorem_id="k_small_eta")
    K_vals, spreads = k_estimate(ctx.law, runs, [_site(ctx, eta, n) for eta in etas], n)
    for eta, K_val, spread in zip(etas, K_vals.tolist(), spreads.tolist()):
        scaled = K_val * params.c_circ * gamma_fn(params.alpha) / (p0 * eta ** (params.alpha - 1.0))
        rep.record(K_val, ratio=scaled, dev=abs(scaled - 1.0), n=n, x=0, y=eta, regime="eta")
        rep.notes.setdefault("spread", []).append(spread)
    return rep.finalize(0.2)


@_reads
def verify_finite_set(ctx: LawContext, quick: bool):
    """sum_z in A f_A^z(n) / f^0(n) -> 1 for A = {-1, 0, 2}: the summed ledgers of cor3's reversed runs."""
    ns = _grid(quick)
    *runs, hits = yield _a_rows(ctx, ns) + [_hits_row(ctx, max(ns))]
    f0 = hits[max(ns)]
    rep = VerificationReport(theorem_id="finite_set_sum")
    for n in ns:
        rep.add_row(float(sum(run[n].f[n] for run in runs)), float(f0.f[n]), n=n, x=0, regime="sum_fA")
    return rep.finalize(0.2 if quick else 0.1)


@_reads
def verify_cor3(ctx: LawContext, quick: bool):
    """Space-time hitting from x = 5: P[sigma_A = n, S_n = y] ~ f_A^x(n) w_A(y), y in A.

    w_A(y) = u_{-A}(-y): the u-function of the reflected set -A (same law),
    which is the limiting entrance distribution; the weights sum to one.
    Site 5 of the reversed A-killed run from z holds P_5[sigma_A = n, S_n = z].
    """
    ns = _grid(quick)
    runs = yield _a_rows(ctx, ns)
    fsp_neg = FiniteSetPotential(ctx.pot, [-z for z in _A])
    weights = {y: fsp_neg.u(-y) for y in _A}
    rep = VerificationReport(theorem_id="cor3")
    y_probe = max(_A)
    for n in ns:
        entry = [run[n].at(5) for run in runs]
        rep.add_row(entry[_A.index(y_probe)], sum(entry) * weights[y_probe], n=n, x=5, y=y_probe, regime="cor3")
    rep.notes["weight_sum"] = sum(weights.values())
    return rep.finalize(0.2)


def _finish_sups(rep: VerificationReport, sups: list) -> VerificationReport:
    """Two-grid stability: passed iff both sups are finite and within 20% of each other."""
    rep.notes["sups"] = sups
    dev = abs(sups[1] / sups[0] - 1.0)
    return rep.finish([dev], True, all(math.isfinite(s) for s in sups) and dev < 0.2)


@_reads
def diagnostics_prop21(ctx: LawContext, quick: bool):
    """sup of f^x(n) n / (|x_n|^{a-1} ^ |x_n|^{-a}), stable under x-grid refinement.

    The paper's constant is unspecified, so the assertion is boundedness:
    the supremum over n = 64, 256 must not move materially when the x grid
    is refined.  Quick and full runs use the same grids.
    """
    inv_a = 1.0 / ctx.params.alpha
    ns = (64, 256)
    runs = yield [ctx.row(_ORIGIN, 0, n, mult=10.0, dual=True) for n in ns]
    rep = VerificationReport(theorem_id="prop21")
    sups = []
    for level in range(2):
        step = 3 * (level + 1)  # finer grid at higher level
        sup = 0.0
        xs = sorted({max(1, int(round(2.0 ** (j / step)))) for j in range(14 * step)})
        for n, run in zip(ns, runs):
            for x in xs:
                xn = x * float(n) ** -inv_a
                if xn > 8.0:
                    break
                bound = min(xn ** (ctx.params.alpha - 1.0), xn ** -ctx.params.alpha)
                sup = max(sup, run[n].at(x) * n / bound)
        sups.append(sup)
        rep.record(sup, n=0, x=level, regime="sup")
    return _finish_sups(rep, sups)


# prop23's coarse and refined (x, y) grids: same extents, refined interior
_P23_GRIDS = (
    ((-40, -12, -3, 3, 12, 40), (1, 4, 16)),
    ((-40, -24, -12, -6, -3, -1, 1, 3, 6, 12, 24, 40), (1, 2, 4, 8, 16)),
)


@_reads
def diagnostics_prop23(ctx: LawContext, quick: bool):
    """Prop 2.3(i) scaled ratio at n = 256: sup stable under (x, y)-grid refinement.

    Boundedness diagnostic only - the paper's C_M is unspecified.  Quick and
    full runs use the same grids.
    """
    a, inv_a = ctx.params.alpha, 1.0 / ctx.params.alpha
    n = 256
    fine = _P23_GRIDS[-1][1]
    runs = yield [ctx.row(_ORIGIN, y, n, dual=True) for y in fine]
    col = dict(zip(fine, runs))
    rep = VerificationReport(theorem_id="prop23")
    sups = []
    # stability means no blowup between the coarse grid's nodes
    for xs, ys in _P23_GRIDS:
        sup = 0.0
        for x in xs:
            xn = x * float(n) ** -inv_a
            for y in ys:
                bound = min(max(abs(xn), 1.0) ** (a - 1.0), abs(xn) ** -a) * abs(y) ** (a - 1.0)
                val = col[y][n].at(int(x)) / bound
                sup = max(sup, val)
                rep.record(val, n=n, x=x, y=y, regime="p23")
        sups.append(sup)
    rep.notes["sup"] = sups[-1]
    return _finish_sups(rep, sups)


def verify_cor1(ctx: LawContext, quick: bool) -> VerificationReport:
    """t^{2-1/alpha} f^1(t) -> kappa_f for gamma < 2 - alpha (pure stable side).

    Reads only ctx.params and ctx.consts: the check is on the stable limit.
    """
    params = ctx.params
    if params.skew_sign > 0:
        raise ConfigError("cor1 power branch needs a two-sided law")
    rep = VerificationReport(theorem_id="cor1")
    for t in (10.0, 100.0, 1000.0) if quick else (10.0, 100.0, 1000.0, 10000.0):
        scaled = t ** (2.0 - 1.0 / params.alpha) * hitting_density(t, 1.0, params)
        rep.add_row(scaled, ctx.consts.kappa_f, n=int(t), x=1, regime="t")
    return rep.finalize(0.15)


@_reads
def verify_cor2(ctx: LawContext, quick: bool):
    """gamma = 2-alpha, x = -3, y < 0: p^n_0 ~ a_dag(x)[f^0(n)a(-y) + |y_n| p_c(y_n)/n], rhs_thm2_small's terms at -y."""
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("Corollary 2 branch needs gamma = 2 - alpha")
    ns = _grid(quick)
    runs = yield [ctx.row(_ORIGIN, -3, n) for n in ns]
    rep = VerificationReport(theorem_id="cor2")
    for n, run in zip(ns, runs):
        y = -_site(ctx, 0.7, n)
        rhs = ctx.pot.a_dagger(-3) * sum(rhs_thm2_small(ctx, -y, n))
        rep.add_row(run[n].at(y), rhs, n=n, x=-3, y=y, regime="cor2")
    return rep.finalize(0.2)


@_reads
def verify_llt(ctx: LawContext, quick: bool):
    """sup_x |n^{1/a} p^n(x) - p_c(x n^{-1/a})| decreasing along the n grid."""
    inv_a = 1.0 / ctx.params.alpha
    ns = _grid(quick)
    (free,) = yield [ctx.row(None, 0, max(ns), steps=ns)]
    rep = VerificationReport(theorem_id="llt")
    W = free[max(ns)].window
    xs = np.arange(-W, W + 1, dtype=float)
    for n in ns:
        scale = float(n) ** inv_a
        # window-edge bias is a DP artifact, not an LLT failure: restrict the
        # sup to the bulk |x| <= 6 n^{1/alpha}
        mask = np.abs(xs) <= 6.0 * scale
        dens, _ = density_grid(ctx.params.c_circ, xs[mask] / scale, ctx.params)
        sup = float(np.abs(scale * free[n].slice[mask] - dens).max())
        rep.record(sup, 0.0, sup, sup, n=n, x=0, regime="llt")
    return rep.finalize(0.05, mono_floor=0.002)


def verify_ladder(ctx: LawContext, quick: bool) -> tuple[VerificationReport, VerificationReport]:
    """U_ds(x) E|Z|/x -> 1 and V_as(x) c Gamma(a)/(x^{a-1} E|Z|) -> 1 trends.

    The V_as normalisation carries the 1/L = E|Z| factor of the renewal
    identity; both trends require gamma = 2 - alpha with E|Z| < inf.
    """
    if ctx.params.skew_sign <= 0:
        raise RegimeViolation("ladder trends need gamma = 2 - alpha")
    x_values = (8, 32, 128) if quick else (16, 64, 256)
    lt = ladder_renewals(ctx.law, x_max=max(x_values))
    ez = lt.mean_descending()
    a, c = ctx.params.alpha, ctx.params.c_circ
    rep_u = VerificationReport(theorem_id="ladder_U")
    rep_v = VerificationReport(theorem_id="ladder_V")
    for x in x_values:
        ru = lt.U_ds[x] * ez / x
        rv = lt.V_as[x] * c * gamma_fn(a) / (float(x) ** (a - 1.0) * ez)
        rep_u.record(lt.U_ds[x], x / ez, ru, abs(ru - 1.0), n=x, x=x, regime="U_ds")
        rep_v.record(lt.V_as[x], float(x) ** (a - 1.0) * ez / (c * gamma_fn(a)), rv, abs(rv - 1.0), n=x, x=x, regime="V_as")
    rep_u.notes["E_Z"] = ez
    rep_u.notes["pmf_tails"] = [lt.q_ds_tail, lt.q_as_tail]
    rep_v.notes["E_Z"] = ez
    for rep in (rep_u, rep_v):
        rep.notes["green_tail_rel"] = lt.green_tail_rel
    return rep_u.finalize(0.2), rep_v.finalize(0.2)
