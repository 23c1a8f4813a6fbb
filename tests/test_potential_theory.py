"""Potential kernel, Green functions, harmonic u_A, hitting identities."""
import math

import numpy as np
import pytest

from conftest import get_law
from potential_oracles import (
    DegenerateDenominator,
    a_per_point,
    green,
    green_origin,
    hit_before,
    hit_dist,
    u_via_anchor,
)
from stablewalk import potential_theory, stable_params_of
from stablewalk.killed_walk import run_kernel
from stablewalk.potential_theory import FiniteSetPotential, PotentialTable, _aitken_limit, c_plus, potential_a_grid
from stablewalk.special import gamma_fn
from stablewalk.stable_numerics import constants


@pytest.fixture(scope="module")
def pot15(sym15):
    pot = PotentialTable(sym15)
    pot.fill(range(-64, 65))
    return pot


def test_a_zero(sym15):
    assert potential_a_grid(sym15, 8)[8] == 0.0


@pytest.mark.parametrize("name", ["sym15", "sp15", "bp15"])
def test_a_window_matches_per_point_sum(name):
    """The chirp-z window is the per-point sum over the same nodes, reordered."""
    law, X = get_law(name), 2000
    window = potential_a_grid(law, X)
    xs = np.unique(np.concatenate([np.arange(-X, X + 1, 37), np.arange(-12, 13), [X - 1, X]]))
    assert np.abs(window[xs + X] - a_per_point(law, X, xs)).max() <= 1e-11


@pytest.mark.parametrize("name, X", [("sp15", 4096), ("bp15", 2048), ("asym15", 1024)])
def test_panel_atom_sum_matches_pointwise(name, X):
    """On a(x)'s uniform panels the chirp-z atom sum is the pointwise sum of one_minus_char within 1e-11 |1 - phi|."""
    law = get_law(name)
    theta = potential_theory._a_segments(law, X)[2]
    pointwise = law.one_minus_char(theta.ravel()).reshape(theta.shape)
    assert np.all(np.abs(law.one_minus_char_panels(theta) - pointwise) <= 1e-11 * np.abs(pointwise))


def test_a_positive_two_sided(pot15):
    for x in range(-50, 51):
        if x != 0:
            assert pot15.a(x) > 0.0


def test_a_against_abel_oracle(sym15, pot15):
    """a(3) matches the Abel-summed DP series at r = 1 - 1e-4 within 1e-3."""
    W = 3000
    tab = run_kernel(sym15, None, [0], 4000, window=W, keep=list(range(4001)))
    r = 1.0 - 1e-4
    for x, tol in ((3, 1e-3), (1, 1e-3), (-5, 4e-3)):
        tot, rn = 0.0, 1.0
        for n in range(4001):
            sl = tab.values[n][0]
            tot += rn * (sl[W] - sl[W - x])
            rn *= r
        assert abs(pot15.a(x) - tot) < tol


def test_subadditivity(pot15):
    pot15.fill(range(-110, 111))
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = rng.integers(-50, 51, 2)
        assert pot15.a(int(x + y)) <= pot15.a(int(x)) + pot15.a(int(y)) + 1e-11


def test_lemma31_growth_trend(sym15):
    """c a(x)/|x|^{alpha-1} trends to the kappa_a constant on both sides."""
    p = stable_params_of(sym15)
    ct = constants(p)
    pot = PotentialTable(sym15)
    pot.fill([2 ** k for k in range(4, 14)] + [-(2 ** k) for k in range(4, 14)])
    for sign, target in ((1, ct.kappa_a_plus), (-1, ct.kappa_a_minus)):
        devs = [
            abs(p.c_circ * pot.a(sign * 2 ** k) / 2 ** (k * (p.alpha - 1)) - target)
            for k in (6, 9, 13)
        ]
        assert devs[0] > devs[-1]
        assert devs[-1] < 0.01 * abs(target)


def test_lemma31_increments_trend(sym15):
    """c (a(x+1) - a(x)) |x|^{2-alpha} trends to (alpha-1) kappa_a^+ for x > 0."""
    p = stable_params_of(sym15)
    ct = constants(p)
    pot = PotentialTable(sym15)
    xs = [2 ** k for k in (6, 9, 12)]
    pot.fill(xs + [x + 1 for x in xs])
    target = (p.alpha - 1.0) * ct.kappa_a_plus
    devs = [
        abs(p.c_circ * (pot.a(x + 1) - pot.a(x)) * x ** (2 - p.alpha) - target) for x in xs
    ]
    assert devs[0] > devs[-1]
    assert devs[-1] < 0.05 * abs(target)


def test_spectrally_positive_dichotomy(sp15):
    """gamma = 2-alpha: c a(-y)/|y|^{alpha-1} -> 1/Gamma(alpha), a(x) = o(x^{alpha-1})."""
    p = stable_params_of(sp15)
    pot = PotentialTable(sp15)
    pot.fill([2 ** k for k in (6, 9, 12)] + [-(2 ** k) for k in (6, 9, 12)])
    target = 1.0 / gamma_fn(p.alpha)
    devs = [abs(p.c_circ * pot.a(-(2 ** k)) / 2 ** (k * 0.5) - target) for k in (6, 9, 12)]
    assert devs[0] > devs[-1] and devs[-1] < 0.01 * target
    ratios = [p.c_circ * pot.a(2 ** k) / 2 ** (k * 0.5) for k in (6, 9, 12)]
    assert ratios[0] > ratios[-1]
    assert ratios[-1] < 0.02 * target


def test_left_continuous_vanishing_positive_side(lc15):
    pot = PotentialTable(lc15)
    for x in (1, 2, 5, 17, 64):
        assert abs(pot.a(x)) < 1e-9
    assert pot.a(-3) > 0


def test_green_origin_identities(pot15):
    assert green_origin(pot15, 5, 5) == pytest.approx(pot15.a(5) + pot15.a(-5), rel=1e-12)
    for x in range(-20, 21):
        for y in range(-20, 21):
            assert green_origin(pot15, x, y) > -1e-12


def test_green_origin_vs_dp_partial_sums(sym15, pot15):
    """DP partial sums increase to the closed form from below.

    The truncation gap decays like N^{-(1 - 1/alpha)}; it is checked against
    the hitting-time-asymptote tail bound
        sum_{n > N} p^n_0(x, y) <~ a_dag(x) a(-y) kappa c^{1/a} N^{1/a-1}/(1-1/a).
    """
    from stablewalk.stable_numerics import constants as _constants

    W = 1024
    N_checks = (1000, 3000)
    tab = run_kernel(sym15, [0], [3], max(N_checks), window=W, keep=[], keep_green=N_checks)
    partial = [{y: tab.green[N][0, y + W] for y in (-5, 2, 7)} for N in N_checks]
    p = stable_params_of(sym15)
    ct = _constants(p)
    inv_a = 1.0 / p.alpha
    for y in (-5, 2, 7):
        closed = green_origin(pot15, 3, y)
        seq = [pp[y] for pp in partial]
        assert seq[0] < seq[1] <= closed + 1e-9
        for N, val in zip(N_checks, seq):
            bound = (
                pot15.a_dagger(3)
                * pot15.a(-y)
                * ct.kappa_hit
                * p.c_circ ** inv_a
                * N ** (inv_a - 1.0)
                / (1.0 - inv_a)
            )
            assert closed - val < 1.6 * bound


def test_finite_set_singleton_reduces_to_origin(sym15, pot15):
    fsp = FiniteSetPotential(pot15, [0])
    for x in range(-12, 13):
        assert fsp.u(x) == pytest.approx(pot15.a_dagger(x), abs=1e-11)
        for y in range(-6, 7):
            assert green(fsp, x, y) == pytest.approx(green_origin(pot15, x, y), abs=1e-10)
    assert hit_dist(fsp, 5)[0] == pytest.approx(1.0, abs=1e-12)


def test_finite_set_green_zero_on_set(pot15):
    fsp = FiniteSetPotential(pot15, [-1, 2])
    for x in (-7, 3, 9):
        for w in (-1, 2):
            assert green(fsp, x, w) == pytest.approx(0.0, abs=1e-10)
    assert green(fsp, -1, -1) == pytest.approx(1.0, abs=1e-10)


def test_finite_set_vs_dp(sym15, pot15):
    """g_A against extrapolated DP partial sums; hit rows sum to one."""
    A = (-1, 2)
    fsp = FiniteSetPotential(pot15, A)
    W = 1024
    tab = run_kernel(sym15, A, [4], 4000, window=W, keep=[], keep_green=[1000, 2000, 4000])
    checks = {n: tab.green[n][0] for n in (1000, 2000, 4000)}
    for y in (-4, 0, 6):
        seq = [checks[n][y + W] for n in (1000, 2000, 4000)]
        closed = green(fsp, 4, y)
        assert seq[0] < seq[1] < seq[2] <= closed + 1e-9
        # Aitken-extrapolated limit of the N^{1/a-1} tail
        d1, d2 = seq[1] - seq[0], seq[2] - seq[1]
        accel = seq[2] - d2 * d2 / (d2 - d1)
        assert accel == pytest.approx(closed, rel=5e-3)
    h = hit_dist(fsp, 4)
    assert sum(h.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v >= -1e-12 for v in h.values())


def test_u_A_anchor_independence(pot15):
    fsp = FiniteSetPotential(pot15, [-1, 2])
    for x in (-9, 0, 5, 14):
        vals = [u_via_anchor(fsp, x, w0) for w0 in (-1, 2)]
        assert abs(vals[0] - vals[1]) < 1e-9
        assert fsp.u(x) == pytest.approx(vals[0], abs=1e-9)
        assert fsp.u(x) > 0


def test_finite_set_columns_match_per_x_solve(pot15):
    """The whole-window u_A and H_A columns are the per-x solutions of the system."""
    A = (-1, 2)
    fsp = FiniteSetPotential(pot15, A)
    mat = np.ones((3, 3))
    mat[:2, :2] = [[pot15.a(z - w) for z in A] for w in A]
    mat[2, 2] = 0.0
    X = pot15.X - 2  # the set's window: x - w stays in the table
    for x in range(-X, X + 1):
        rhs = [pot15.a(x - w) + (x == w) for w in A] + [1.0]
        sol = np.linalg.solve(mat, rhs)
        h = hit_dist(fsp, x)
        assert abs(fsp.u(x) - sol[2]) <= 1e-12
        assert max(abs(h[z] - sol[j]) for j, z in enumerate(A)) <= 1e-12


def test_finite_set_follows_table_growth(sym15):
    """Built on a 64-wide table, u_{0} still equals a_dagger after the table grows to 4096."""
    pot = PotentialTable(sym15)
    fsp = FiniteSetPotential(pot, [0])
    assert fsp.u(5) == pytest.approx(pot.a(5), abs=1e-11)
    assert pot.X == 64
    pot.fill([4096])
    assert pot.X == 4096
    for x in (-4096, -700, -3, 0, 1, 5, 64, 4096):
        assert fsp.u(x) == pytest.approx(pot.a_dagger(x), abs=1e-11)


def test_u_A_over_the_csv_window_computes_a_once(sym15, monkeypatch):
    """u_A on [-X, X] after to_csv(X) needs a(x - z) a few sites past X: one power-of-two window holds both."""
    windows = []

    def counted(law, X):
        windows.append(X)
        return real(law, X)

    real = potential_theory.potential_a_grid
    monkeypatch.setattr(potential_theory, "potential_a_grid", counted)
    pot = PotentialTable(sym15)
    pot.to_csv(200)
    fsp = FiniteSetPotential(pot, [-1, 2])
    u = [fsp.u(x) for x in range(-200, 201)]
    assert windows == [256]
    assert all(np.isfinite(u))


def test_u_A_harmonicity(sym15, pot15):
    """sum_z p(z - x) u_A(z) = u_A(x) off A, within window truncation."""
    A = (-1, 2)
    fsp = FiniteSetPotential(pot15, A)
    Z = 4000
    zs = np.arange(-Z, Z + 1)
    pot15.fill(np.concatenate([zs - (-1), zs - 2]))
    u_vals = np.array([fsp.u(int(z)) for z in zs])
    for x in (-6, 0, 4, 9):
        pz = sym15.pmf(zs - x)
        mask = ~np.isin(zs, A)
        lhs = float((pz[mask] * u_vals[mask]).sum())
        # truncation: |z| > Z contributes ~ tail * u growth
        tol = 30.0 * sym15.spec.B * Z ** (sym15.spec.alpha - 1) * Z ** -sym15.spec.alpha
        assert abs(lhs - fsp.u(x)) < tol


def test_u_A_tracks_a_at_infinity(sym15, pot15):
    fsp = FiniteSetPotential(pot15, [-1, 2])
    pot15.fill([-4096, 4096])
    for x in (-4096, 4096):
        assert fsp.u(x) / pot15.a(x) == pytest.approx(1.0, abs=0.02)


def test_c_plus_families(sym15, bp15, lc15):
    assert c_plus(sym15) == math.inf
    assert c_plus(lc15) == 0.0
    # the reversed law has mass below -1 and the alpha tail on its negative side
    assert c_plus(lc15.reversed()) == math.inf
    pot = PotentialTable(bp15)
    val = c_plus(bp15, pot)
    assert 0.0 < val < math.inf
    # stability across depths (1%): the limit of a(2^5 .. 2^11) off the same table
    val2 = _aitken_limit([pot.a(2 ** k) for k in range(5, 12)])
    assert val == pytest.approx(val2, rel=0.01)


def test_hit_before_basics(sym15, pot15):
    assert hit_before(pot15, 7, 7) == pytest.approx(1.0, abs=1e-12)
    expect = 1.0 / (pot15.a(4) + pot15.a(-4))
    assert hit_before(pot15, 0, 4) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        hit_before(pot15, 3, 0)


def test_hit_before_degenerate_guard(sym15):
    pot = PotentialTable(sym15)
    pot.fill([9])
    pot.values[pot.X + 9] = 0.0
    pot.values[pot.X - 9] = 0.0
    with pytest.raises(DegenerateDenominator):
        hit_before(pot, 3, 9)


def test_hit_before_vs_dp(sym15, pot15):
    """Two-point escape formula against an absorbing DP.

    The undecided mass of the y-vs-0 race decays like N^{1/alpha - 1}, so a
    finite DP only brackets the answer: hit_y <= closed <= hit_y + undecided
    (undecided counts in-window survivors and escaped mass).  On top of the
    rigorous bracket, an Aitken extrapolation over doubling checkpoints must
    land within a few parts per thousand.
    """
    y = 3
    W = 2048
    for x in (2, -3):
        tab = run_kernel(sym15, [0, y], [x], 16_000, window=W, keep=[], keep_green=[4000, 8000, 16000])
        seq = []
        closed = hit_before(pot15, x, y)
        for n in (4000, 8000, 16000):
            # the Green sums on the set are the running hit masses of 0 and y
            hit_0, hit_y = tab.green[n][0, [W, W + y]]
            seq.append(hit_y)
            undecided = 1.0 - hit_y - hit_0
            assert hit_y - 1e-12 <= closed <= hit_y + undecided + 1e-12
        d1, d2 = seq[1] - seq[0], seq[2] - seq[1]
        accel = seq[2] - d2 * d2 / (d2 - d1)
        assert closed == pytest.approx(accel, abs=5e-3)


def test_one_minus_char_memory_is_bounded(sp15):
    """The atom sum of one_minus_char runs in blocks: no (nodes, atoms) temporaries."""
    import tracemalloc

    theta = np.linspace(1e-6, math.pi, 100_000)
    tracemalloc.start()
    try:
        sp15.one_minus_char(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
