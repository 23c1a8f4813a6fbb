"""Verification harness: rhs identities, one function per asymptotic form, quick trends."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from asymptotic_oracles import rhs_theorem6_hitting_form, rhs_theorem6_i
from conftest import get_ctx
from stablewalk import asymptotics, cache
from stablewalk.asymptotics import (
    LawContext,
    VerificationReport,
    diagnostics_prop21,
    f0_asymptote,
    rhs_thm2_bulk,
    rhs_thm5_x_small,
    rhs_thm6_ii,
    tunneling_check,
    verify_comp,
    verify_cor2,
    verify_cor3,
    verify_crossover,
    verify_finite_set,
    verify_llt,
    verify_thm1,
    verify_thm2_bulk,
    verify_thm4_y_small,
    verify_thm5_x_small,
)
from stablewalk.errors import InfiniteCPlus, RegimeViolation, WindowTooSmall
from stablewalk.killed_walk import HALF_LE_0, first_passage, normalize_killing, run_kernel
from stablewalk.potential_theory import FiniteSetPotential, c_plus
from stablewalk.special import gamma_fn


def test_rhs_theorem1_power_law(sym15):
    ctx = LawContext.build(sym15)
    r1 = f0_asymptote(100, ctx.params, ctx.consts)
    r2 = f0_asymptote(200, ctx.params, ctx.consts)
    assert r2 / r1 == pytest.approx(2.0 ** (1 / 1.5 - 2.0), rel=1e-12)


def test_rhs_extremal_kappa(sp15):
    ctx = LawContext.build(sp15)
    alpha = ctx.params.alpha
    kappa = (alpha - 1.0) / gamma_fn(1.0 / alpha)
    expect = kappa * ctx.params.c_circ ** (1 / alpha) * 64.0 ** (1 / alpha - 2.0)
    assert f0_asymptote(64, ctx.params, ctx.consts) == pytest.approx(expect, rel=1e-12)


def test_theorem_pair_consistency_extremal(sp15):
    """(eq_0): bulk rhs agrees with the two-term identity at gamma = 2 - alpha.

    c f^{x_n}(c)/n equals x_n p_c(-x_n)/n through the creeping identity, so
    the two theorem forms must match to near machine precision.
    """
    ctx = LawContext.build(sp15)
    from stablewalk.stable_numerics import density_grid

    inv_a = 1.0 / ctx.params.alpha
    for n in (64, 256):
        x = int(1.3 * n ** inv_a)
        xn = x / n ** inv_a
        bulk = rhs_thm2_bulk(ctx, x, n)
        dens, _ = density_grid(ctx.params.c_circ, np.array([-xn]), ctx.params)
        two_term = xn * float(dens[0]) / n
        assert abs(bulk - two_term) < 1e-10


def test_rhs_regime_dispatch_total(sym15):
    """Each form raises RegimeViolation outside its regime."""
    ctx = LawContext.build(sym15)
    with pytest.raises(RegimeViolation):
        rhs_thm2_bulk(ctx, 0, 64)
    with pytest.raises(RegimeViolation):
        rhs_thm6_ii(ctx, -5, 5, 64, 1.0)
    with pytest.raises(RegimeViolation):
        rhs_theorem6_i(ctx, 5, 3, 64)


def test_rhs_finite_set_singleton_reduction(sym15):
    """A = {0} reproduces the single-point prefactor: u_{0}(x) = a_dagger(x) to 1e-10."""
    ctx = LawContext.build(sym15)
    fsp = FiniteSetPotential(ctx.pot, [0])
    for x in (3, -7, 12):
        assert abs(fsp.u(x) - ctx.pot.a_dagger(x)) < 1e-10


def test_rhs_theorem6_forms_agree(bp15):
    """Regime (ii) product form equals the C+ c f^{x-y}(c n) form; regime (i) tracks the DP."""
    ctx = LawContext.build(bp15)
    cp = c_plus(bp15, ctx.pot)
    for n in (64, 256):
        x = max(1, int(0.5 * n ** (2 / 3)))
        a = rhs_thm6_ii(ctx, x, -x, n, cp)
        b = rhs_theorem6_hitting_form(ctx, x, -x, n, cp)
        assert a == pytest.approx(b, rel=1e-9)
    # x = -y = 1 fixed: the DP over the regime-(i) form reads 0.9988 at n = 1024
    exact = _at_n(ctx, ("set", (0,)), 1, 1024, mult=10.0).at(-1)
    assert exact == pytest.approx(rhs_theorem6_i(ctx, 1, -1, 1024), rel=0.01)


def test_rhs_theorem6_infinite_cplus(sym15):
    ctx = LawContext.build(sym15)
    with pytest.raises(InfiniteCPlus):
        rhs_thm6_ii(ctx, 5, -5, 64, math.inf)


def test_trend_criterion_monotone_floor():
    def verdict(devs):
        rep = VerificationReport(theorem_id="t")
        for d in devs:
            rep.record(d, dev=d)
        return rep.finalize(0.15, mono_floor=0.02)

    rep = verdict([0.30, 0.10, 0.05])
    assert rep.monotone and rep.passed
    rep = verdict([0.001, 0.015, 0.01])  # noise-level reordering
    assert rep.monotone and rep.passed
    rep = verdict([0.30, 0.40, 0.05])
    assert not rep.monotone


def test_report_serialisation():
    rep = verify_thm1(get_ctx("sym15"), True)
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("schema_version")
    summ = rep.summary()
    assert set(summ) >= {"theorem_id", "passed", "final_dev", "deviations"}


def test_quick_trends_two_sided():
    sym15 = get_ctx("sym15")
    assert verify_thm1(sym15, True).passed
    assert verify_thm2_bulk(sym15, True).passed
    assert verify_thm4_y_small(sym15, True).passed
    assert verify_llt(sym15, True).passed


def test_quick_trends_spectral():
    sp15 = get_ctx("sp15")
    assert verify_comp(sp15, True).passed
    assert verify_cor2(sp15, True).passed
    assert verify_finite_set(sp15, True).passed


def test_tunneling_families():
    """Bounded potential: decreasing in R; two-sided: increasing with x = -y."""
    bp15, sym15 = get_ctx("bp15"), get_ctx("sym15")
    rep = tunneling_check(bp15, (4, 16, 64), 128, 8, -8)
    probs = rep.notes["probs"]
    assert probs[0] > probs[1] > probs[2]
    vals = []
    for x in (8, 16, 64):
        rep = tunneling_check(sym15, (10,), 128, x, -x)
        vals.append(rep.notes["probs"][0])
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 0.8


def test_tunneling_validates_orientation():
    with pytest.raises(RegimeViolation):
        tunneling_check(get_ctx("bp15"), (4,), 64, -8, 8)


def test_report_exact_column_reproducible(sym15):
    """With the artifact cache active the exact column reproduces bit-identically."""
    r1 = verify_thm1(LawContext.build(sym15), True)
    r2 = verify_thm1(LawContext.build(sym15), True)
    assert [row["exact"] for row in r1.rows] == [row["exact"] for row in r2.rows]
    assert r1.to_csv() == r2.to_csv()


def _count_run_kernel(monkeypatch):
    """Route asymptotics.run_kernel through a counter; returns (real run_kernel, calls)."""
    real = asymptotics.run_kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "run_kernel", counted)
    return real, calls


def _at_n(ctx, B, x, n, **kwargs):
    """p^n_B(x, .) off ctx's row (B, x, n), read through LawContext.read."""
    return ctx.read([ctx.row(B, x, n, **kwargs)])[0][n]


def test_dp_slice_runs_each_dp_once(sym15, monkeypatch, tmp_path):
    """Repeats, and mult 8 vs 10 at the same W, share one run_kernel call."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    real, calls = _count_run_kernel(monkeypatch)
    ctx = LawContext.build(sym15)
    first = _at_n(ctx, ("set", (0,)), 3, 256)
    assert first.window == 512
    assert _at_n(ctx, ("set", (0,)), 3, 256) is first
    assert _at_n(ctx, ("set", (0,)), 3, 256, mult=10.0) is first
    # sym15 is self-dual: the reversed run from 3 is the same run, kept at the powers of two
    (dual,) = ctx.read([ctx.row(("set", (0,)), 3, 256, dual=True)])
    assert sorted(dual) == [1, 2, 4, 8, 16, 32, 64, 128, 256] and dual[256] is first
    assert len(calls) == 1
    table = real(sym15, ("set", (0,)), [3], 256, window=512, keep=[256])
    assert np.array_equal(first.slice, table.values[256][0])
    assert np.array_equal(first.f, table.step_killed[0])
    assert first.escaped == table.escaped[0, 256]
    # the next run's context reads the artifact cache instead of rerunning the DP
    loaded = _at_n(LawContext.build(sym15), ("set", (0,)), 3, 256)
    assert len(calls) == 1
    assert np.array_equal(loaded.slice, first.slice) and loaded.escaped == first.escaped
    for hit in (first, loaded):
        assert not hit.slice.flags.writeable
        assert not hit.f.flags.writeable


def test_dp_slice_keys_the_normalised_killing_set(sym15, monkeypatch, tmp_path):
    """Three spellings of the killing set {0} are one run_kernel call and one memo entry."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    real, calls = _count_run_kernel(monkeypatch)
    ctx = LawContext.build(sym15)
    first = _at_n(ctx, [0], 3, 64)
    assert _at_n(ctx, ("set", (0,)), 3, 64) is first
    assert _at_n(ctx, ("set", [0]), 3, 64) is first
    assert len(calls) == 1 and len(ctx.memo) == 1


def test_rows_read_off_their_artifact_steps_are_not_stored(sp15, monkeypatch, tmp_path):
    """A row read at a step its artifact would not hold writes no artifact; read at n alone, it writes one.

    A forward row's artifact holds n only, so a read at 8 and 16 could never
    load from it.
    """
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    real, calls = _count_run_kernel(monkeypatch)
    ctx = LawContext.build(sp15)
    run = ctx.read([ctx.row(("set", (0,)), 3, 16, steps=(8, 16))])[0]
    assert sorted(run) == [8, 16] and not list(tmp_path.glob("*.npz"))
    ctx = LawContext.build(sp15)
    assert _at_n(ctx, ("set", (0,)), 3, 16).slice.tolist() == run[16].slice.tolist()
    _only_artifact(tmp_path)
    assert len(calls) == 2


def _only_artifact(root):
    """The one npz artifact under root."""
    (path,) = root.glob("*.npz")
    return path


@pytest.mark.parametrize("flaw", ["short slice", "short f", "nan in f", "no escaped"])
def test_dp_slice_recomputes_malformed_artifact(sym15, monkeypatch, tmp_path, flaw):
    """A wrong-shape or non-finite artifact under the run's key is a warned miss, recomputed and replaced."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    B, x, n, W = ("set", (0,)), 3, 256, 512
    real, calls = _count_run_kernel(monkeypatch)
    _at_n(LawContext.build(sym15), B, x, n)
    path = _only_artifact(tmp_path)
    kept = 9  # sym15 is self-dual, so its runs keep the steps 1, 2, 4, ..., 256
    planted = {"slice": np.zeros((kept, 2 * W + 1)), "f": np.zeros(n + 1), "escaped": np.zeros(kept)}
    if flaw == "short slice":
        planted["slice"] = planted["slice"][:, :-1]
    elif flaw == "short f":
        planted["f"] = planted["f"][:-1]
    elif flaw == "nan in f":
        planted["f"][7] = np.nan
    else:
        del planted["escaped"]
    np.savez_compressed(path, **planted)
    with pytest.warns(UserWarning, match="treated as a miss"):
        got = _at_n(LawContext.build(sym15), B, x, n)
    assert len(calls) == 2
    table = real(sym15, B, [x], n, window=W, keep=[n])
    assert np.array_equal(got.slice, table.values[n][0])
    assert np.array_equal(got.f, table.step_killed[0])
    # the recomputed artifact replaced the planted one
    assert _only_artifact(tmp_path) == path
    again = _at_n(LawContext.build(sym15), B, x, n)
    assert len(calls) == 2
    assert np.array_equal(again.f, got.f)


def test_dp_slice_reads_only_its_window():
    """DPSlice.at(y) reads site y for |y| <= W and raises WindowTooSmall beyond, where the index would wrap."""
    from stablewalk.asymptotics import DPSlice
    from stablewalk.errors import WindowTooSmall

    dp = DPSlice(np.arange(5.0), 2, np.zeros(1), 0.0)
    assert [dp.at(y) for y in range(-2, 3)] == [0.0, 1.0, 2.0, 3.0, 4.0]
    for y in (-3, 3, -7):
        with pytest.raises(WindowTooSmall, match=f"site {y} outside window 2"):
            dp.at(y)


@pytest.mark.parametrize("name", ["asym15", "sp15", "bp15"])
def test_dual_slice_is_the_forward_kill_ledger(name):
    """f^x_W(n) at site x of the reversed law's run from 0 is the forward {0}-killed ledger from x."""
    ctx, n = get_ctx(name), 256
    dual = _at_n(ctx, ("set", (0,)), 0, n, dual=True)
    assert dual.window == 512
    s = n ** (1.0 / ctx.params.alpha)
    xs = sorted({v for x in (1, 4, int(s / 2), int(s), int(3 * s)) for v in (x, -x)})
    f = run_kernel(ctx.law, ("set", (0,)), xs, n, window=512, keep=[]).step_killed[:, n]
    got = np.array([dual.at(x) for x in xs])
    assert np.all(np.abs(got - f) <= 1e-12 * f + 1e-15)
    f0 = run_kernel(ctx.law, ("set", (0,)), [0], n, window=512, keep=[]).step_killed[0]
    assert np.abs(dual.f - f0).max() <= 1e-15


@pytest.mark.parametrize("name", ["asym15", "sp15"])
def test_dual_set_slice_is_the_forward_entrance_law(name):
    """Site x of the reversed A-killed run from z is P_x[sigma_A = n, S_n = z]; the ledgers sum to sum_z f_A^z(n)."""
    ctx, n, A = get_ctx(name), 256, (-1, 0, 2)
    runs = dict(zip(A, ctx.read([ctx.row(("set", A), z, n, dual=True) for z in A])))
    xs = [-40, -7, -2, 1, 3, 5, 20, 60]
    # the forward run's step-n entrance law into A: the growth of its Green sums on A at step n
    fwd = run_kernel(ctx.law, A, xs, n, window=512, keep=[], keep_green=[n - 1, n])
    entrance = (fwd.green[n] - fwd.green[n - 1])[:, np.array(A) + 512]
    for j, z in enumerate(A):
        got = np.array([runs[z][n].at(x) for x in xs])
        # the FFT's round-off is absolute, about 1e-17 here: sp15's rare entries at -1 (~1e-8) differ by 2e-12 relative
        assert np.all(np.abs(got - entrance[:, j]) <= 1e-12 * entrance[:, j] + 1e-16)
    f_A = run_kernel(ctx.law, A, A, n, window=512, keep=[]).step_killed[:, n].sum()
    assert sum(runs[z][n].f[n] for z in A) == pytest.approx(f_A, rel=1e-12)


@pytest.mark.parametrize("name, B, ys", [("sp15", ("set", (0,)), [1, 2, 4, 8, 16]),
                                         ("asym15", ("set", (-1, 0, 2)), [-1, 0, 2]),
                                         ("sp15", ("le", 0), [0, 1, 3])])
def test_batch_artifacts_equal_single_runs(name, B, ys, monkeypatch, tmp_path):
    """The starts run as one batch with one artifact per row, and each row is its single-start run, bit for bit."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    real, calls = _count_run_kernel(monkeypatch)
    law, n, W = get_ctx(name).law, 256, 512
    ctx = LawContext.build(law)
    ctx.read([ctx.row(B, y, n, dual=True) for y in ys])
    assert len(calls) == 1
    assert len(list(tmp_path.glob("*.npz"))) == len(ys)
    keep = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    rev = law.reversed()
    for y in ys:
        key = cache.content_key(rev.law_hash(), "dp_row", B=str(normalize_killing(B)), x=y, n=n, W=W)
        with np.load(tmp_path / f"{key}.npz") as z:
            stored = {k: z[k] for k in z.files}
        single = real(rev, B, [y], n, window=W, keep=keep)
        assert np.array_equal(stored["slice"], np.stack([single.values[m][0] for m in keep]))
        assert np.array_equal(stored["f"], single.step_killed[0])
        assert np.array_equal(stored["escaped"], single.escaped[0, keep])


def test_plan_steps_half_line_rows_with_their_window(sp15, monkeypatch):
    """plan steps finite-set and half-line rows at one (n, W) as one run_kernel call, one from below b among them.

    Every row still equals its single-start run bit for bit.
    """
    monkeypatch.delenv("STABLEWALK_CACHE", raising=False)
    real, calls = _count_run_kernel(monkeypatch)
    ctx, n = LawContext.build(sp15), 128
    rows = [ctx.row(("set", (0,)), 3, n), ctx.row(HALF_LE_0, 1, n), ctx.row(HALF_LE_0, 2, n, dual=True),
            ctx.row(None, 0, n, dual=True), ctx.row(("le", -1), 4, n), ctx.row(HALF_LE_0, -2, n)]
    ctx.plan(rows)
    assert len(calls) == 1 and calls[0][2] == [3, 1, 4, -2]
    for r, run in zip(rows, ctx.read(rows)):
        single = real(sp15.reversed() if r.dual else sp15, r.B, [r.x], n, window=r.W, keep=[n])
        assert np.array_equal(run[n].slice, single.values[n][0]) and np.array_equal(run[n].f, single.step_killed[0])
        assert run[n].escaped == single.escaped[0, n]
    assert len(calls) == 1


def test_plan_leaves_a_failing_batch_to_its_readers(sp15, monkeypatch, tmp_path):
    """A batch that raises in plan is dropped without a word; its rows' own reads rerun it and meet the error.

    The start 10 000 lies outside the window 512 of its n = 64 batch, which
    also holds a good row; the n = 256 batch is stepped and memoised.
    """
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    _, calls = _count_run_kernel(monkeypatch)
    ctx = LawContext.build(sp15)
    good, bad, other = (ctx.row(("set", (0,)), x, n) for x, n in ((3, 64), (10_000, 64), (5, 256)))
    assert (good.W, bad.W) == (512, 512)
    ctx.plan([good, bad, other])
    assert len(calls) == 2
    ctx.read([other])
    assert len(calls) == 2
    ctx.read([good])
    assert len(calls) == 3
    with pytest.raises(WindowTooSmall, match="start 10000 outside window 512"):
        ctx.read([bad])


def test_thm1_and_crossover_share_one_run(sp15, monkeypatch, tmp_path):
    """On the full grid both read the reversed run from 0 to n = 4096: one DP, not one per reader."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    _, calls = _count_run_kernel(monkeypatch)
    ctx = LawContext.build(sp15)
    verify_thm1(ctx, False)
    with pytest.raises(RegimeViolation, match="no dominance switch"):
        verify_crossover(ctx, False)
    assert len(calls) == 1


def test_quick_crossover_scans_to_2048(sp15, monkeypatch, tmp_path):
    """The quick scan steps no DP past n = 2048, skips sp15 as the benchmark reference does, and finds spx15's switches."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    _, calls = _count_run_kernel(monkeypatch)
    with pytest.raises(RegimeViolation) as exc:
        verify_crossover(LawContext.build(sp15), True)
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_sp15.json").read_text())
    assert "configuration error: thm3: RegimeViolation: " + str(exc.value) == ref["theorems"]["thm3"]["skip"]
    assert calls and max(c[3] for c in calls) == 2048
    quick, full = verify_crossover(get_ctx("spx15"), True), verify_crossover(get_ctx("spx15"), False)
    assert quick.passed and full.passed
    assert max(r["n"] for r in quick.rows) == 2048 and max(r["n"] for r in full.rows) == 4096
    assert quick.notes["n_hat"] == pytest.approx(full.notes["n_hat"], rel=1e-9)


def test_cor3_and_finite_share_one_set_run(sp15, monkeypatch, tmp_path):
    """cor3 and finite read the same three reversed A-killed runs, made in one run_kernel call."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    _, calls = _count_run_kernel(monkeypatch)
    ctx = LawContext.build(sp15)
    verify_cor3(ctx, True)
    verify_finite_set(ctx, True)
    assert len([c for c in calls if all(b == ("set", (-1, 0, 2)) for b in c[1])]) == 1


def test_thm4_loads_the_f_run_thm1_stored(sp15, monkeypatch, tmp_path):
    """A fresh context's f^x(1024) read is an artifact hit on the run thm1's quick grid stored."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    verify_thm1(LawContext.build(sp15), True)
    real, dual, stepped = asymptotics.run_kernel, sp15.reversed().law_hash(), []

    def logged(law, B, starts, n, dual_starts=(), **kwargs):
        # the reversed law's rows of this call: its starts under the reversed law, else its dual starts
        stepped.extend((n, x) for x in (starts if law.law_hash() == dual else dual_starts))
        return real(law, B, starts, n, dual_starts=dual_starts, **kwargs)

    monkeypatch.setattr(asymptotics, "run_kernel", logged)
    verify_thm4_y_small(LawContext.build(sp15), True)
    assert stepped == [(64, 0), (256, 0)]


def test_prop21_reads_two_dual_runs(sym15, monkeypatch, tmp_path):
    """Every x of the sup grid at n = 64 and 256 comes off one run per n."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    _, calls = _count_run_kernel(monkeypatch)
    assert diagnostics_prop21(LawContext.build(sym15), True).passed
    assert len(calls) <= 2


def test_f_drivers_share_one_dual_run_per_n(sp15, monkeypatch, tmp_path):
    """thm2_bulk, thm4 and thm5 read f off one reversed run per n; forward runs are kernel slices."""
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    _, calls = _count_run_kernel(monkeypatch)
    ctx, ns = LawContext.build(sp15), (64, 256, 1024)
    verify_thm2_bulk(ctx, True)
    verify_thm4_y_small(ctx, True)
    verify_thm5_x_small(ctx, True)
    # a batch of rows with different killing sets passes them as a list, one per start
    point = [(law.law_hash(), n, x) for law, B, starts, n in calls
             for b, x in zip(B if isinstance(B, list) else [B] * len(starts), starts) if b == ("set", (0,))]
    assert sorted((n, x) for h, n, x in point if h == sp15.reversed().law_hash()) == [(64, 0), (256, 0), (1024, 0)]
    inv_a = 1.0 / ctx.params.alpha
    slices = {(n, max(1, int(math.floor(0.5 * n ** inv_a)))) for n in ns} | {(n, 3) for n in ns}
    assert {(n, x) for h, n, x in point if h == sp15.law_hash()} == slices


def test_thm5_reads_K_at_its_own_site():
    """n^{1/alpha} = 10.08 on sp18 at n = 64: the row's y is 10 and K is read there, not at 9."""
    ctx, n = get_ctx("sp18"), 64
    row = verify_thm5_x_small(ctx, True).rows[0]
    assert (row["n"], row["y"]) == (n, 10)
    fy = first_passage(ctx.law, ("set", (0,)), -10, n).f[n]
    # K(y) = n^{1/a} p^n_{(-inf,0]}(x, y) / x_n, averaged over the starts x = 1, 2 used at this n
    scale, xs = n ** (1.0 / ctx.params.alpha), np.array([1, 2])
    half = run_kernel(ctx.law, HALF_LE_0, xs, n, keep=[n])

    def rhs(y):
        K = float(np.mean(scale * half.values[n][:, y + half.window] / (xs / scale)))
        return rhs_thm5_x_small(ctx, 3, n, fy, K)

    assert row["rhs"] == pytest.approx(rhs(10), rel=1e-10)
    assert abs(rhs(9) / rhs(10) - 1.0) > 1e-6
