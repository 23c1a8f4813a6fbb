"""Kernel DP: conservation, duality, Chapman-Kolmogorov, oracles, ladders."""
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import get_ctx
from stablewalk import stable_params_of
from stablewalk.errors import WindowTooSmall
from stablewalk.killed_walk import (
    HALF_LE_0,
    _fft_stepper,
    default_window,
    first_passage,
    fourier_first_passage_batch,
    k_estimate,
    k_starts,
    ladder_renewals,
    run_kernel,
)
from stablewalk.special import gamma_fn
from stablewalk.stable_numerics import density_grid


def test_one_step_is_pmf(sym15):
    tab = run_kernel(sym15, None, [0], 4, window=512, keep=[1])
    assert np.abs(tab.values[1][0] - sym15.pmf_window(512)).max() < 1e-16


def test_conservation_every_step(sym15):
    """Mass is conserved at every step, also on a window inside the calibration blocks."""
    for W in (700, 16):
        tab = run_kernel(sym15, [0], [3, -7], 512, window=W)
        for n in (1, 64, 511, 512):
            assert tab.conservation_defect(n).max() < 1e-12, (W, n)


@pytest.mark.parametrize("W", [512, 812, 1015, 2047])
def test_stepper_matches_linear_convolution(asym15, W):
    """Circular step (next_fast_len(3W+1) is no power of two here) vs np.convolve."""
    step, _, _ = _fft_stepper(asym15, W)
    p = asym15.pmf_window(W)
    rng = np.random.default_rng(W)
    states = rng.random((4, 2 * W + 1))
    states /= states.sum(axis=1, keepdims=True)
    inside, below, above = step(states)
    full = np.array([np.convolve(s, p) for s in states])
    assert np.abs(inside - full[:, W : 3 * W + 1]).max() <= 1e-13 * np.abs(full).max()
    assert np.abs(below - full[:, :W].sum(axis=1)).max() <= 1e-14
    assert np.abs(above - full[:, 3 * W + 1 :].sum(axis=1)).max() <= 1e-14


@pytest.mark.parametrize("S_minus_W", [1, 2, 40])
def test_stepper_on_the_last_sites_matches_linear_convolution(asym15, S_minus_W):
    """A state on the last S sites [W - S + 1, W] steps to the same sites; below is the mass under them."""
    W, S = 512, 512 + S_minus_W
    step, _, _ = _fft_stepper(asym15, W)
    p = asym15.pmf_window(W)
    rng = np.random.default_rng(S)
    states = rng.random((3, S))
    states /= states.sum(axis=1, keepdims=True)
    inside, below, above = step(states)
    full = np.array([np.convolve(s, p) for s in states])  # index k <-> site k + 1 - S
    assert inside.shape == states.shape
    assert np.abs(inside - full[:, W : W + S]).max() <= 1e-13 * np.abs(full).max()
    assert np.abs(below - full[:, :W].sum(axis=1)).max() <= 1e-14
    assert np.abs(above - full[:, W + S :].sum(axis=1)).max() <= 1e-14


_ORACLE_W, _ORACLE_N = 40, 60


def _on_live_sites(green, b: int, depth: int, starts, W: int) -> list:
    """An oracle's green as a half-line run keeps it: 0 below its live sites [max(-W, min(b - depth, starts)), W]."""
    live = np.arange(-W, W + 1) >= max(-W, min(b - depth, *starts))
    return [g * live for g in green]


@pytest.mark.parametrize("name", ["sp15", "asym15"])
@pytest.mark.parametrize("b", [0, -1, -_ORACLE_W - 5])
@pytest.mark.parametrize("depth", [0, 7, _ORACLE_W])
@pytest.mark.parametrize("starts", [[3, 9], [0], [-5, 2]])
def test_half_line_run_matches_dense_matrix(name, b, depth, starts):
    """run_kernel on the live sites against a dense killed transition matrix and the full-window loop.

    green is checked at every step on every live site, the killed strip
    b, ..., b - depth included, where it holds the entrance law by depth.
    depth = W is tunneling_check's entrance strip, start 0 is the ladder's
    reversed run, and start -5 lies inside B below the strip.  At b = -W - 5
    no site of the window is killed, only the mass that leaves it downward.
    """
    from killed_walk_oracles import dense_half_line, full_window_half_line

    law, W, n = get_ctx(name).law, _ORACLE_W, _ORACLE_N
    tab = run_kernel(law, ("le", b), starts, n, window=W, entrance_depth=depth, keep_green=range(n + 1))
    got = {"values": [tab.values[m] for m in range(n + 1)], "green": [tab.green[m] for m in range(n + 1)],
           "step_killed": tab.step_killed, "escaped": tab.escaped}
    for oracle in (dense_half_line, full_window_half_line):
        want = oracle(law, b, starts, n, W)
        want["green"] = _on_live_sites(want["green"], b, depth, starts, W)
        for key, arr in got.items():
            assert np.abs(np.asarray(arr) - np.asarray(want[key])).max() <= 1e-13, (oracle.__name__, key)


@pytest.mark.parametrize("name", ["sp15", "asym15"])
@pytest.mark.parametrize("A", [(), (0,), (-1, 0, 2), (-_ORACLE_W, -3, 5, _ORACLE_W + 4)])
@pytest.mark.parametrize("starts", [[3, 9], [0], [-5, 2]])
def test_set_run_matches_dense_matrix(name, A, starts):
    """Free (B = None) and finite-set runs against a dense killed transition matrix at every step.

    green is checked on every site, those of A included, where it holds the
    entrance law by site.  The last set holds the window's lowest site, where
    the DP's kill and its downward escape meet, and a site beyond the window,
    which no run records.  The set passed as a NumPy array gives the same run
    as the list.
    """
    from killed_walk_oracles import dense_killed

    law, W, n = get_ctx(name).law, _ORACLE_W, _ORACLE_N
    tab = run_kernel(law, list(A) or None, starts, n, window=W, keep_green=range(n + 1))
    want = dense_killed(law, np.isin(np.arange(-W, W + 1), A), starts, n, W, below_killed=False)
    got = {"values": [tab.values[m] for m in range(n + 1)], "green": [tab.green[m] for m in range(n + 1)],
           "step_killed": tab.step_killed, "escaped": tab.escaped}
    for key, arr in got.items():
        assert np.shape(arr) == np.shape(want[key]), key
        assert np.abs(np.asarray(arr) - np.asarray(want[key])).max(initial=0.0) <= 1e-13, key
    as_array = run_kernel(law, np.array(A, dtype=int), starts, n, window=W)
    assert as_array.killing == tab.killing
    np.testing.assert_array_equal(as_array.values[n], tab.values[n])
    np.testing.assert_array_equal(as_array.step_killed, tab.step_killed)


_TABLE_ARRAYS = ("step_killed", "escaped")


@pytest.mark.parametrize("name", ["sp15", "asym15"])
@pytest.mark.parametrize(
    "B, depth",
    [(HALF_LE_0, 0), (HALF_LE_0, 7), (("le", -1), 0), ([0], 0), ([-1, 0, 2], 0), (None, 0)],
)
def test_dual_rows_match_single_law_runs(name, B, depth):
    """Rows under law and under law.reversed() in one batch equal the two single-law runs bit for bit.

    Starts 1 and 0 on (-inf, 0] are the ladder's rows.  Each row also meets
    the dense killed matrix of its own law; asym15 is not self-dual.
    """
    from killed_walk_oracles import dense_half_line, dense_killed

    law, W, n = get_ctx(name).law, _ORACLE_W, _ORACLE_N
    starts, dual = [1, 4], [0]
    every = range(n + 1)
    both = run_kernel(law, B, starts, n, window=W, entrance_depth=depth, dual_starts=dual, keep_green=every)
    assert both.starts == starts + dual
    rev = law.reversed()
    singles = [run_kernel(law, B, starts, n, window=W, entrance_depth=depth, keep_green=every),
               run_kernel(rev, B, dual, n, window=W, entrance_depth=depth, keep_green=every)]
    rows = [slice(0, len(starts)), slice(len(starts), None)]
    for single, rows_of in zip(singles, rows):
        for m in range(n + 1):
            assert np.array_equal(both.values[m][rows_of], single.values[m]), m
            assert np.array_equal(both.green[m][rows_of], single.green[m]), m
        for key in _TABLE_ARRAYS:
            assert np.array_equal(getattr(both, key)[rows_of], getattr(single, key)), key
    for row_law, rows_of, row_starts in ((law, rows[0], starts), (rev, rows[1], dual)):
        if isinstance(B, tuple):
            want = dense_half_line(row_law, B[1], row_starts, n, W)
            want["green"] = _on_live_sites(want["green"], B[1], depth, starts + dual, W)
        else:
            want = dense_killed(row_law, np.isin(np.arange(-W, W + 1), B or []), row_starts, n, W, below_killed=False)
        got = {"values": [both.values[m][rows_of] for m in range(n + 1)],
               "green": [both.green[m][rows_of] for m in range(n + 1)]}
        got.update((key, getattr(both, key)[rows_of]) for key in _TABLE_ARRAYS)
        for key, arr in got.items():
            assert np.abs(np.asarray(arr) - np.asarray(want[key])).max(initial=0.0) <= 1e-13, key


@pytest.mark.parametrize("name", ["sym15", "sp15"])
def test_mixed_batch_rows_match_single_runs(name):
    """One batch of {0}-, A-, free and half-line rows under law and law.reversed(), each kept at its own steps.

    Every row equals its single-start run bit for bit: values at its kept
    steps, step_killed, escaped, and the Green sums every row records.  The
    half-line rows step on their own live sites [0, W] beside the finite
    sets' whole window.
    """
    law, W, n = get_ctx(name).law, 256, 96
    A = (-1, 0, 2)
    rows = [  # (reversed law, killing set, start, kept steps)
        (False, ("set", (0,)), 7, (n,)),
        (False, ("set", A), 5, (16, n)),
        (False, None, 0, tuple(range(n + 1))),
        (False, HALF_LE_0, 3, (16, n)),
        (True, ("set", (0,)), 0, (1, 2, 64)),
        (True, HALF_LE_0, 1, (n,)),
        (True, ("set", A), 2, (n,)),
        (True, None, -3, (8,)),
        (True, ("set", A), -1, (32, n)),
    ]
    fwd, rev = [r for r in rows if not r[0]], [r for r in rows if r[0]]
    both = run_kernel(law, [r[1] for r in fwd + rev], [r[2] for r in fwd], n, window=W,
                      keep=[r[3] for r in fwd + rev], dual_starts=[r[2] for r in rev], keep_green=[0, 17, n])
    assert both.starts == [r[2] for r in fwd + rev]
    for i, (dual, B, x, steps) in enumerate(fwd + rev):
        single = run_kernel(law.reversed() if dual else law, B, [x], n, window=W, keep=steps, keep_green=[0, 17, n])
        kept = both.kept(i)
        assert sorted(kept) == sorted(steps)
        for m in steps:
            assert np.array_equal(kept[m], single.values[m][0]), (i, m)
        for m in (0, 17, n):
            assert np.array_equal(both.green[m][i], single.green[m][0]), (i, m)
        for key in _TABLE_ARRAYS:
            assert np.array_equal(getattr(both, key)[i], getattr(single, key)[0]), (i, key)
    assert both.killed[2, n] == 0.0 and both.killed[0, n] > 0.0


def _lane_batch(law):
    """A batch whose full-window rows two lanes split: {0}-, A-, free and half-line rows under law and its reversal."""
    A = (-1, 0, 2)
    fwd = [(("set", (0,)), 7), (("set", A), 5), (None, 0), (HALF_LE_0, 3), (("set", (0,)), -4), (None, 9)]
    rev = [(("set", (0,)), 0), (("set", A), 2), (HALF_LE_0, 1), (("set", A), -1)]
    return dict(B=[b for b, _ in fwd + rev], starts=[x for _, x in fwd], dual_starts=[x for _, x in rev])


@pytest.mark.parametrize("name", ["sym15", "sp15"])
def test_two_lanes_give_the_one_lane_table(name, monkeypatch):
    """With one CPU the batch steps as one lane; with two, its halves and groups on two lanes, bit for bit alike.

    The two-lane run switches threads every microsecond, so a lane writing
    another's rows would show.
    """
    import sys

    from stablewalk import killed_walk

    law, W, n = get_ctx(name).law, 1024, 24
    lanes_used = []
    step_lanes = killed_walk._step_lanes
    monkeypatch.setattr(killed_walk, "_step_lanes", lambda lanes, n_max: lanes_used.append(len(lanes)) or step_lanes(lanes, n_max))
    tables, interval = [], sys.getswitchinterval()
    for cpus in (1, 2):
        monkeypatch.setattr(killed_walk, "_cpus", lambda cpus=cpus: cpus)
        sys.setswitchinterval(1e-6 if cpus == 2 else interval)
        try:
            tables.append(run_kernel(law, n_max=n, window=W, keep=[[n], [3, n], list(range(n + 1))] + [[n]] * 7,
                                     keep_green=[0, 5, n], **_lane_batch(law)))
        finally:
            sys.setswitchinterval(interval)
    assert lanes_used == [1, 2]
    one, two = tables
    assert one.rows_at == two.rows_at and one.values.keys() == two.values.keys()
    for m in one.values:
        assert np.array_equal(one.values[m], two.values[m]), m
    for m in (0, 5, n):
        assert np.array_equal(one.green[m], two.green[m]), m
    for key in _TABLE_ARRAYS:
        assert np.array_equal(getattr(one, key), getattr(two, key)), key


def test_a_failing_lane_is_raised_after_both_stop(sym15, monkeypatch):
    """An exception in the helper's lane stops the calling thread's lane too, and run_kernel raises it with no thread left."""
    import threading

    from stablewalk import killed_walk

    monkeypatch.setattr(killed_walk, "_cpus", lambda: 2)
    real = killed_walk._fft_stepper
    built, main_steps, n = [], [], 400

    def stepper(law, W):
        step, esc_p, esc_m = real(law, W)
        built.append(0)
        mine = len(built)

        def failing(states):
            if threading.current_thread() is threading.main_thread():
                main_steps.append(mine)
            elif mine == 2:
                raise FloatingPointError("lane failed")
            return step(states)

        return failing, esc_p, esc_m

    monkeypatch.setattr(killed_walk, "_fft_stepper", stepper)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="lane failed"):
        run_kernel(sym15, None, range(-4, 4), n, window=1024, keep=[n])
    assert len(built) == 2 and threading.active_count() == before
    assert set(main_steps) <= {1} and len(main_steps) < n


@pytest.mark.parametrize(
    "B, start, depth",
    [([0], 3, 0), ([-1, 0, 2], 5, 0), (HALF_LE_0, 4, 16)],
)
def test_conservation_long_run(asym15, B, start, depth):
    tab = run_kernel(asym15, B, [start], 2048, window=512, keep=[2048], entrance_depth=depth)
    assert tab.conservation_defect(2048).max() <= 1e-10


@pytest.mark.parametrize("B", [None, [0], [-1, 0, 2], HALF_LE_0])
def test_green_is_running_sum_of_states(asym15, B):
    """Off B green is the running sum of the kept states; on B it adds the mass that entered there.

    A finite set's sites hold all of its kill; the half-line's live sites
    [-5, 0] lack the mass killed below them.
    """
    tab = run_kernel(asym15, B, [3, -5], 256, window=512, keep_green=range(257))
    running = np.cumsum([tab.values[n] for n in range(257)], axis=0)
    sites = np.arange(-512, 513)
    on_B = sites <= 0 if B == HALF_LE_0 else np.isin(sites, B or [])
    for n in (0, 1, 17, 256):
        assert np.abs(tab.green[n][:, ~on_B] - running[n][:, ~on_B]).max() <= 1e-13
        entered = (tab.green[n] - running[n])[:, on_B].sum(axis=1)
        if B == HALF_LE_0:
            assert np.all(entered <= tab.killed[:, n] + 1e-13)
        else:
            assert np.abs(entered - tab.killed[:, n]).max() <= 1e-13


def test_set_entrance_sums_to_step_killed(asym15):
    """The steps' growth of green on A is the entrance law by site, and its sum over A is step_killed."""
    A = [-1, 0, 2]
    tab = run_kernel(asym15, A, [5, -4, 0], 512, window=512, keep=[], keep_green=range(513))
    on_A = np.array(A) + 512
    green_A = np.array([tab.green[n][:, on_A] for n in range(513)])  # (step, start, site); start 0 adds a unit
    entrance = np.diff(green_A, axis=0, prepend=0.0).transpose(1, 0, 2)
    entrance[:, 0] = 0.0
    assert entrance.shape == (3, 513, 3)
    assert np.abs(entrance.sum(axis=2) - tab.step_killed).max() <= 1e-15
    # step 1 from 5 enters A at z with probability p(z - 5)
    assert np.abs(entrance[0, 1] - asym15.pmf(np.array(A) - 5)).max() < 1e-16


def _value(table, n: int, x: int, y: int) -> float:
    """p^n_B(x, y) off a kernel table."""
    return float(table.values[n][table.starts.index(x)][y + table.window])


def test_killed_rows_vanish_on_set(sym15):
    tab = run_kernel(sym15, [0, 5], [-3], 64, window=512, keep=[16, 64])
    for n in (16, 64):
        assert _value(tab, n, -3, 0) == 0.0
        assert _value(tab, n, -3, 5) == 0.0


def test_duality_relation(sym15, asym15):
    """Same-law reversal p^n_0(x, y) = p^n_0(-y, -x) and the reversed-law
    form p^n_0(x, y) = p-hat^n_0(y, x), both exact."""
    for law in (sym15, asym15):
        t1 = run_kernel(law, [0], [3], 64, window=512, keep=[64])
        t2 = run_kernel(law, [0], [5], 64, window=512, keep=[64])
        assert _value(t1, 64, 3, -5) == pytest.approx(_value(t2, 64, 5, -3), abs=1e-15)
        t3 = run_kernel(law.reversed(), [0], [-5], 64, window=512, keep=[64])
        assert _value(t1, 64, 3, -5) == pytest.approx(_value(t3, 64, -5, 3), abs=1e-15)


def test_chapman_kolmogorov(sym15):
    """p^{m+n}_B(x, y) = sum_z p^m_B(x, z) p^n_B(z, y) within the z-truncation."""
    W = 512
    m = n = 16
    zs = list(range(-W, W + 1))
    t_all = run_kernel(sym15, [0], zs, m, window=W, keep=[m])
    big = run_kernel(sym15, [0], [3], m + n, window=W, keep=[m + n])
    row3 = t_all.values[m][zs.index(3)]
    comp = row3 @ t_all.values[m]
    direct = big.values[m + n][0]
    # missing z beyond the window is bounded by the escape ledger
    tol = 1e-10 + float(t_all.escaped[zs.index(3), m])
    assert np.abs(comp - direct).max() < tol


def test_monotone_domination_larger_killing_set(sym15):
    t_small = run_kernel(sym15, [0], [4], 32, window=512, keep=[32])
    t_big = run_kernel(sym15, HALF_LE_0, [4], 32, window=512, keep=[32])
    assert np.all(t_big.values[32][0] <= t_small.values[32][0] + 1e-15)


def test_first_passage_one_step(sym15):
    fp = first_passage(sym15, [0], 3, 8, window=512)
    assert fp.f[1] == pytest.approx(float(sym15.pmf(np.array([-3]))[0]), abs=1e-16)
    fp0 = first_passage(sym15, [0], 0, 8, window=512)
    assert fp0.f[1] == pytest.approx(sym15.p0, abs=1e-16)


def test_first_passage_conservation(sym15):
    """First-passage mass plus the surviving and escaped mass at n_max is one."""
    fp = first_passage(sym15, [0], 3, 256, window=600)
    table = run_kernel(sym15, [0], [3], 256, window=600, keep=[256])
    np.testing.assert_array_equal(fp.f, table.step_killed[0])
    tail = table.values[256][0].sum() + table.escaped[0, 256]
    assert np.cumsum(fp.f)[-1] + tail == pytest.approx(1.0, abs=1e-12)


def test_window_too_small_raised(sym15):
    with pytest.raises(WindowTooSmall):
        run_kernel(sym15, [0], [700], 8, window=512)
    with pytest.raises(WindowTooSmall):
        run_kernel(sym15, [0], [0], 64, window=512, escape_budget=1e-9)


@pytest.mark.parametrize("window", [0, -4])
def test_window_below_one_raised(sym15, window):
    """Only window=None selects the default window; 0 or less is no window at all."""
    with pytest.raises(WindowTooSmall, match="below 1"):
        run_kernel(sym15, None, [0], 8, window=window)
    with pytest.raises(WindowTooSmall, match="below 1"):
        first_passage(sym15, [0], 0, 8, window=window)
    assert run_kernel(sym15, None, [0], 8, window=None).window == default_window(sym15, 8)


@pytest.mark.parametrize("x,n", [(0, 8), (3, 32), (-3, 32), (8, 128), (0, 128)])
def test_fourier_oracle_vs_dp(sym15, x, n):
    fdp = float(first_passage(sym15, [0], x, n, window=1024).f[n])
    ffo = fourier_first_passage_batch(sym15, [x], n)[0]
    assert abs(fdp - ffo) < 1e-4
    # declared oracle accuracy is much tighter at this scale
    assert abs(fdp - ffo) < 2e-5


def test_fourier_oracle_first_coefficient(sym15):
    assert fourier_first_passage_batch(sym15, [0], 1)[0] == pytest.approx(sym15.p0, abs=1e-6)


def test_fourier_oracle_asymmetric(asym15):
    fdp = float(first_passage(asym15, [0], 3, 64, window=1024).f[64])
    assert fourier_first_passage_batch(asym15, [3], 64)[0] == pytest.approx(fdp, abs=1e-5)


def test_fourier_oracle_memory_is_blocked(sym15):
    """The theta integral runs in blocks of tau rows, never on whole (tau, theta) matrices."""
    import tracemalloc

    tracemalloc.start()
    try:
        fourier_first_passage_batch(sym15, [-20, -3, 0, 5, 17], 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_llt_sup_shrinks(sym15):
    p = stable_params_of(sym15)
    W = default_window(sym15, 1024)
    tab = run_kernel(sym15, None, [0], 1024, window=W, keep=[64, 256, 1024])
    sups = []
    for n in (64, 256, 1024):
        sl = tab.values[n][0]
        scale = float(n) ** (1 / p.alpha)
        xs = np.arange(-W, W + 1, dtype=float)
        dens, _ = density_grid(p.c_circ, xs / scale, p)
        mask = np.abs(xs) <= 6.0 * scale
        sups.append(float(np.abs(scale * sl - dens)[mask].max()))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 5e-3


def test_halfline_entrance_one_step(sp15):
    """After one step green holds p(y - 4) at depth d = -y of the strip 0, -1, ..., -64."""
    he = run_kernel(sp15, HALF_LE_0, [4], 16, window=512, keep=[], entrance_depth=64, keep_green=[1])
    ys = -np.arange(0, 65)
    assert np.abs(he.green[1][0, ys + 512] - sp15.pmf(ys - 4)).max() < 1e-16
    assert not he.green[1][0, : 512 - 64].any()


def test_halfline_entrance_conservation(sp15):
    """The entrance law on the strip 0, ..., -128, the mass entering deeper, the survivors and the escaped mass sum to 1.

    The deeper mass is read off a run whose strip reaches the window's
    bottom, plus what left the window downward; on the shared strip the two
    runs agree.
    """
    narrow = run_kernel(sp15, HALF_LE_0, [4], 64, window=512, keep=[64], entrance_depth=128, keep_green=[64])
    wide = run_kernel(sp15, HALF_LE_0, [4], 64, window=512, keep=[], entrance_depth=512, keep_green=[64])
    strip = narrow.green[64][0, 512 - 128 : 513]
    assert np.abs(wide.green[64][0, 512 - 128 : 513] - strip).max() <= 1e-15
    below_window = wide.killed[0, 64] - wide.green[64][0, :513].sum()
    deeper = wide.green[64][0, : 512 - 128].sum() + below_window
    assert 0.0 < deeper < 1e-6
    total = strip.sum() + deeper + narrow.values[64][0].sum() + narrow.escaped[0, -1]
    assert total == pytest.approx(1.0, abs=1e-12)


def test_halfline_vs_point_killing_spectral(sp15):
    """Remark after Theorem 5: for gamma = 2-alpha the two killed kernels merge.

    At the stable level p^{0}_t = p^{(-inf,0]}_t for x, y > 0; on the lattice
    the ratio at bulk points must drift toward one as n grows.
    """
    rats = []
    for n in (64, 256, 1024):
        W = default_window(sp15, n)
        x = max(1, int(0.7 * n ** (2 / 3)))
        y = max(1, int(0.9 * n ** (2 / 3)))
        t0 = run_kernel(sp15, ("set", (0,)), [x], n, window=W, keep=[n])
        th = run_kernel(sp15, HALF_LE_0, [x], n, window=W, keep=[n])
        rats.append(th.values[n][0][y + W] / t0.values[n][0][y + W])
    assert abs(rats[-1] - 1.0) < abs(rats[0] - 1.0)
    assert abs(rats[-1] - 1.0) < 0.1


@pytest.mark.slow
def test_ladder_memory_is_bounded(sp15):
    """The ladder pmfs come off the Green sums at the kept steps: no per-step array over the entrance strip.

    At x_max = 64 the run takes 8194 steps of two rows; a (row, step, depth)
    entrance array alone would be 8.5 MB, and the whole call peaks near 1.7 MB.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        ladder_renewals(sp15, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_ladder_tables(sp15, monkeypatch):
    """One run_kernel call and one stepper give the two-run tables bit for bit, and the renewal trends hold."""
    from killed_walk_oracles import two_run_ladder
    from stablewalk import killed_walk

    p = stable_params_of(sp15)
    calls = []
    for name in ("run_kernel", "_fft_stepper"):
        real = getattr(killed_walk, name)
        monkeypatch.setattr(killed_walk, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    lt = ladder_renewals(sp15, x_max=128)
    assert calls == ["run_kernel", "_fft_stepper"]
    monkeypatch.undo()
    oracle = two_run_ladder(sp15, 128)
    for f in fields(lt):
        assert np.array_equal(getattr(lt, f.name), getattr(oracle, f.name)), f.name
    # renewal-function conventions
    assert lt.V_as[0] >= 1.0
    assert lt.U_ds[0] == pytest.approx(1.0)
    assert np.all(np.diff(lt.V_as) >= -1e-12)
    assert np.all(np.diff(lt.U_ds) >= -1e-12)
    # recursion route against the Green route at small x (defect-limited)
    for x in (4, 16, 32):
        assert lt.U_ds_recursion[x] == pytest.approx(lt.U_ds[x], rel=0.05)
        assert lt.V_as_recursion[x] == pytest.approx(lt.V_as[x], rel=0.08)
    # renewal theorem: U_ds(x) E|Z| / x -> 1
    ez = lt.mean_descending()
    devs = [abs(lt.U_ds[x] * ez / x - 1.0) for x in (16, 64, 128)]
    assert devs[-1] < 0.2 and devs[0] >= devs[-1]
    # ascending renewal constant: V_as(x) c Gamma(a) / (x^{a-1} E|Z|) -> 1
    devs_v = [
        abs(lt.V_as[x] * p.c_circ * gamma_fn(p.alpha) / (x ** (p.alpha - 1) * ez) - 1.0)
        for x in (16, 64, 128)
    ]
    assert devs_v[-1] < 0.2


def _k_estimate(ctx, ys, n):
    """k_estimate at n off the context's two half-line runs."""
    return k_estimate(ctx.law, ctx.read([ctx.row(HALF_LE_0, x, n) for x in k_starts(ctx.law, n)]), ys, n)


def test_k_estimate_two_resolutions():
    # the site y = floor(n^{1/alpha}), i.e. eta = 1, at both resolutions
    (k1,), (s1,) = _k_estimate(get_ctx("sp15"), [40], 256)
    (k2,), (s2,) = _k_estimate(get_ctx("sp15"), [101], 1024)
    assert k1 > 0 and k2 > 0
    assert abs(k1 / k2 - 1.0) < 0.05
    assert s2 < 0.1


def test_lemma76_ratio_bounded(sym15):
    from asymptotic_oracles import lemma76_diagnostic
    from stablewalk.asymptotics import LawContext

    val = lemma76_diagnostic(LawContext.build(sym15), n=256)
    assert math.isfinite(val)
    assert val < 50.0


def test_k_estimate_one_run_for_all_etas(sp15, monkeypatch, tmp_path):
    """Every site and every later call at the same n read one memoised two-start batch.

    Its estimates are those of two single-start runs, bit for bit.
    """
    from stablewalk import asymptotics

    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path))
    calls = []
    real = asymptotics.run_kernel
    monkeypatch.setattr(asymptotics, "run_kernel", lambda *a, **k: calls.append(a) or real(*a, **k))
    ctx, n = asymptotics.LawContext.build(sp15), 256
    sites = np.array([40, 20, 10])  # eta = 1, 0.5, 0.25 at n = 256
    est, spread = _k_estimate(ctx, sites, n)
    for i, y in enumerate(sites):
        (k,), (s,) = _k_estimate(ctx, [y], n)
        assert (est[i], spread[i]) == (k, s)
    assert len(calls) == 1
    scale, W = n ** (1.0 / ctx.params.alpha), default_window(sp15, n)
    x1 = max(1, int(round(scale / 32.0)))
    vals = [scale * real(sp15, HALF_LE_0, [x], n, window=W, keep=[n]).values[n][0, sites + W] / (x / scale)
            for x in (x1, 2 * x1)]
    assert np.array_equal(est, 0.5 * (vals[0] + vals[1]))
    assert np.array_equal(spread, np.abs(vals[0] - vals[1]) / np.maximum(np.abs(est), 1e-300))
