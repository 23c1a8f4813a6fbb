"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

The limit statements are asymptotic with no stated rates, so the acceptance
form is: exact identities at machine-level tolerances, and trend criteria
(|ratio - 1| non-increasing modulo a 0.02 noise floor, final deviation below
the stated cap) for the asymptotic formulas.
"""
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from asymptotic_oracles import lemma76_diagnostic
from conftest import get_ctx, get_law
from potential_oracles import green, green_origin
from stable_oracles import abs_moment, normalization_check, stable_density
from stablewalk.asymptotics import (
    diagnostics_prop21,
    diagnostics_prop23,
    tunneling_check,
    verify_cor1,
    verify_cor2,
    verify_cor3,
    verify_crossover,
    verify_finite_set,
    verify_k_small_eta,
    verify_ladder,
    verify_thm1,
    verify_thm2_bulk,
    verify_thm2_small,
    verify_thm4_y_small,
    verify_thm5_x_small,
    verify_thm6,
    verify_bulk_scaling,
)
from stablewalk.killed_walk import (
    first_passage,
    fourier_first_passage_batch,
    run_kernel,
)
from stablewalk.montecarlo import SimConfig, estimate_first_passage
from stablewalk.potential_theory import FiniteSetPotential, PotentialTable
from stablewalk.stable_numerics import _f1_integral, constants, density_at_zero, hitting_density
from stablewalk.walk_model import StableParams


def _announce(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {status} {name}: {detail} ({time.time() - t0:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def _params_only(params):
    """The part of a LawContext that verify_cor1 reads, for parameters no lattice law has."""
    return SimpleNamespace(params=params, consts=constants(params))


AG_GRID = [
    (a, g)
    for a in (1.2, 1.5, 1.8)
    for g in (0.0, (2 - a) / 2, -(2 - a) / 2, 2 - a, -(2 - a))
]


@pytest.mark.acceptance
def test_criterion_1_exact_identities():
    """Duality, Chapman-Kolmogorov, conservation, Green closed form, u_0 = a_dag."""
    t0 = time.time()
    law = get_law("sym15")
    W = 512
    worst = 0.0

    # conservation + duality on |x|,|y| <= 20, n <= 128
    starts = list(range(-20, 21))
    tab = run_kernel(law, [0], starts, 128, window=W, keep=[32, 128])
    for n in (32, 128):
        worst = max(worst, float(tab.conservation_defect(n).max()))
    for n in (32, 128):
        M = tab.values[n]
        for xi, x in enumerate(starts):
            for y in range(-20, 21):
                if x == 0 or y == 0 or abs(-y) > 20:
                    continue
                lhs = M[xi][y + W]
                rhs = M[starts.index(-y)][-x + W]
                worst = max(worst, abs(lhs - rhs))
    rev = law.reversed()
    tab_r = run_kernel(rev, [0], starts, 128, window=W, keep=[128])
    for x in (-17, 3, 20):
        for y in (-20, -1, 5):
            lhs = tab.values[128][starts.index(x)][y + W]
            rhs = tab_r.values[128][starts.index(y)][x + W]
            worst = max(worst, abs(lhs - rhs))

    # Chapman-Kolmogorov (m, n) = (16, 16) over the full window
    zs = list(range(-W, W + 1))
    t16 = run_kernel(law, [0], zs, 16, window=W, keep=[16])
    t32 = run_kernel(law, [0], [3], 32, window=W, keep=[32])
    comp = t16.values[16][zs.index(3)] @ t16.values[16]
    ck_err = float(np.abs(comp - t32.values[32][0]).max())
    ledger = float(t16.escaped[zs.index(3), 16])
    worst = max(worst, max(ck_err - ledger, 0.0))

    # Green closed form vs the finite-set solver; u_0 = a_dagger
    pot = PotentialTable(law)
    fsp = FiniteSetPotential(pot, [0])
    for x in range(-20, 21):
        worst = max(worst, abs(fsp.u(x) - pot.a_dagger(x)))
        for y in (-20, -7, 1, 13, 20):
            worst = max(worst, abs(green(fsp, x, y) - green_origin(pot, x, y)))

    ok = worst < 1e-10 and (time.time() - t0) < 60
    _announce(1, "exact identities", ok, f"worst deviation {worst:.2e}", t0)


@pytest.mark.acceptance
def test_criterion_2_oracle_triangle():
    """DP vs Fourier inversion within 5e-5 relative, and DP vs Monte Carlo within |z| <= 4.2, on five laws.

    A Monte Carlo leg estimates f^x(n) from N = 500 000 paths, a binomial
    count under a correct sampler, so z = (estimate - DP) / sqrt(DP (1 - DP) / N).
    z* = 4.2 bounds the 30 legs (six (x, n) cases on five laws) one by one:
    each fails a correct sampler with probability 2.7e-5 (normal tails; the
    exact binomial tails at these counts, N f >= 220, are at most 2.8e-5), so
    all 30 together fail with probability at most 30 x 2.8e-5 = 8.4e-4, by the
    union bound, whatever the dependence between legs that share a seed.
    """
    t0 = time.time()
    laws = ("sym15", "sp15", "bp15", "asym15", "lc15")
    worst_f = {}
    for name in laws:
        law = get_law(name)
        worst_f[name] = 0.0
        for n in (8, 32, 128, 512):
            dps = {}
            for x in (0, 3, -3, 8, -8):
                dps[x] = float(first_passage(law, [0], x, n, window=1024).f[n])
            four = fourier_first_passage_batch(law, [0, 3, -3, 8, -8], n)
            for i, x in enumerate((0, 3, -3, 8, -8)):
                # relative, so a DP that read 0 where f is small (f^0(512) = 8.5e-5 on sym15) fails
                worst_f[name] = max(worst_f[name], abs(dps[x] - four[i]) / abs(four[i]))
    ok_fourier = max(worst_f.values()) <= 5e-5

    z_star = 4.2
    cases = [(3, 32), (8, 64), (0, 16), (-3, 32), (5, 128), (2, 8)]
    cfg = SimConfig(trials=500_000, n_horizon=128, seed=20260808)
    worst_z = {}
    for name in laws:
        law = get_law(name)
        worst_z[name] = 0.0
        for x, n in cases:
            est = estimate_first_passage(law, x, [n], cfg)["f"][n]
            truth = float(first_passage(law, [0], x, n, window=1024).f[n])
            z = (est.point - truth) / math.sqrt(truth * (1.0 - truth) / est.trials_effective)
            worst_z[name] = max(worst_z[name], abs(z))
    ok = ok_fourier and max(worst_z.values()) <= z_star and (time.time() - t0) < 600
    _announce(
        2,
        "oracle triangle",
        ok,
        f"max |DP-Fourier|/|Fourier| {', '.join(f'{k} {v:.2e}' for k, v in worst_f.items())}; "
        f"max |MC-DP| z {', '.join(f'{k} {v:.2f}' for k, v in worst_z.items())} (bound {z_star})",
        t0,
    )


@pytest.mark.acceptance
def test_criterion_3_stable_numerics():
    """Normalization 1e-6, density-at-zero 1e-8, Parseval 1e-5, creeping 1e-8."""
    t0 = time.time()
    worst_norm = worst_p0 = worst_pars = worst_creep = 0.0
    for alpha, gamma in AG_GRID:
        p = StableParams(alpha=alpha, gamma=gamma, c_circ=1.0)
        mass, _ = normalization_check(1.0, p)
        worst_norm = max(worst_norm, abs(mass - 1.0))
        ev = stable_density(1.0, 0.0, p)
        worst_p0 = max(worst_p0, abs(ev.value - density_at_zero(1.0, p)))
        worst_pars = max(
            worst_pars, abs(abs_moment(1.0, p, "closed") - abs_moment(1.0, p, "quadrature"))
        )
        if abs(gamma - (2 - alpha)) < 1e-12:
            for t, x in ((1.0, 1.0), (2.0, 1.5)):
                worst_creep = max(
                    worst_creep,
                    abs(
                        hitting_density(t, x, p)
                        - _f1_integral(t / x ** alpha, p) / x ** alpha
                    ),
                )
    ok = (
        worst_norm < 1e-6
        and worst_p0 < 1e-8
        and worst_pars < 1e-5
        and worst_creep < 1e-8
        and (time.time() - t0) < 120
    )
    _announce(
        3,
        "stable numerics",
        ok,
        f"norm {worst_norm:.1e}, p1(0) {worst_p0:.1e}, parseval {worst_pars:.1e}, creep {worst_creep:.1e}",
        t0,
    )


@pytest.mark.acceptance
@pytest.mark.parametrize("name", ["sym12", "sym15", "sym18", "sp12", "sp15", "sp18"])
def test_criterion_4_theorem1_trend(name):
    """n^{2-1/a} f^0(n)/(kappa c^{1/a}): non-increasing, final < 0.15."""
    t0 = time.time()
    rep = verify_thm1(get_ctx(name), False)
    ok = rep.passed and (time.time() - t0) < 300
    _announce(4, f"theorem 1 [{name}]", ok, f"devs {['%.4f' % d for d in rep.deviations]}", t0)


@pytest.mark.acceptance
def test_criterion_5_theorems_2_to_5():
    """Per-regime trends for Theorems 2-5 and Corollaries 1-2 + crossover scan."""
    t0 = time.time()
    sym, sp = get_ctx("sym15"), get_ctx("sp15")
    reports = {
        "thm2_small": verify_thm2_small(sym, False),
        "thm2_bulk": verify_thm2_bulk(sym, False),
        "thm3_small_sp": verify_thm2_small(sp, False),
        "thm4_y_small": verify_thm4_y_small(sym, False),
        "thm4_bulk": verify_bulk_scaling(sym, False),
        "thm5_x_small": verify_thm5_x_small(sp, False),
        "cor1": verify_cor1(_params_only(StableParams(alpha=1.5, gamma=0.2, c_circ=1.0)), False),
        "cor2": verify_cor2(sp, False),
    }
    cross = verify_crossover(get_ctx("spx15"), False)
    details = []
    ok = cross.passed and (time.time() - t0) < 1200
    for key, rep in reports.items():
        details.append(f"{key}={rep.final_dev:.3f}")
        ok &= rep.passed
    details.append(f"crossover factors {['%.2f' % f for f in cross.notes['factors']]}")
    _announce(5, "theorems 2-5 / corollaries 1-2", ok, "; ".join(details), t0)


@pytest.mark.acceptance
def test_criterion_6_theorem6_tunneling():
    """Theorem 6(ii) trend on the bounded-potential family + Prop 2.2 orderings."""
    t0 = time.time()
    bp, sym = get_ctx("bp15"), get_ctx("sym15")
    rep6 = verify_thm6(bp, False)
    tun = tunneling_check(bp, (4, 16, 64), 256, 10, -10)
    probs = tun.notes["probs"]
    strict_dec = probs[0] > probs[1] > probs[2]
    grow = [tunneling_check(sym, (10,), 256, x, -x).notes["probs"][0] for x in (8, 24, 72)]
    strict_inc = grow[0] < grow[1] < grow[2]
    ok = rep6.passed and strict_dec and strict_inc and (time.time() - t0) < 900
    _announce(
        6,
        "theorem 6 + proposition 2.2",
        ok,
        f"thm6 devs {['%.3f' % d for d in rep6.deviations]}; "
        f"R-dec {['%.2e' % p for p in probs]}; x-inc {['%.3f' % g for g in grow]}",
        t0,
    )


@pytest.mark.acceptance
def test_criterion_7_finite_set():
    """A = {-1, 0, 2}: mass identity, Corollary 3, singleton reduction u_{0} = a_dagger."""
    t0 = time.time()
    ctx = get_ctx("sp15")
    rep_sum = verify_finite_set(ctx, False)
    rep_c3 = verify_cor3(ctx, False)
    fsp = FiniteSetPotential(ctx.pot, [0])
    worst = max(abs(fsp.u(x) - ctx.pot.a_dagger(x)) for x in (5, -9))
    ok = rep_sum.passed and rep_c3.passed and worst < 1e-10 and (time.time() - t0) < 600
    _announce(
        7,
        "finite-set extension",
        ok,
        f"sum dev {rep_sum.final_dev:.3f}; cor3 dev {rep_c3.final_dev:.3f}; "
        f"singleton reduction {worst:.1e}",
        t0,
    )


@pytest.mark.acceptance
def test_criterion_8_ladder_chain():
    """U_ds / V_as renewal trends and the small-eta K estimate (gamma = 2-alpha)."""
    t0 = time.time()
    sp = get_ctx("sp15")
    rep_u, rep_v = verify_ladder(sp, False)
    rep_k = verify_k_small_eta(sp, False)
    ok = rep_u.passed and rep_v.passed and rep_k.passed and (time.time() - t0) < 900
    _announce(
        8,
        "ladder/constants chain",
        ok,
        f"U devs {['%.3f' % d for d in rep_u.deviations]}; "
        f"V devs {['%.3f' % d for d in rep_v.deviations]}; "
        f"K devs {['%.3f' % d for d in rep_k.deviations]} (E|Z|={rep_u.notes['E_Z']:.4f})",
        t0,
    )


@pytest.mark.acceptance
def test_criterion_9_diagnostics():
    """Prop 2.1 / 2.3 suprema finite and two-grid stable; Lemma 7.6 bounded."""
    t0 = time.time()
    sym = get_ctx("sym15")
    rep21 = diagnostics_prop21(sym, False)
    rep23 = diagnostics_prop23(sym, False)
    l76 = lemma76_diagnostic(sym, n=256)
    ok = rep21.passed and rep23.passed and math.isfinite(l76) and (time.time() - t0) < 300
    _announce(
        9,
        "diagnostics",
        ok,
        f"prop21 sups {['%.3f' % s for s in rep21.notes['sups']]}; "
        f"prop23 sups {['%.4f' % s for s in rep23.notes['sups']]}; lemma76 {l76:.2f}",
        t0,
    )
