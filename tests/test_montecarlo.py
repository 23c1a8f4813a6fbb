"""Monte Carlo oracle: exact sampling, reproducibility, CI calibration."""
import numpy as np
import pytest

from montecarlo_oracles import covers
from stablewalk.errors import ConditioningTooRare
from stablewalk.killed_walk import first_passage
from stablewalk.montecarlo import (
    IncrementSampler,
    SimConfig,
    estimate_conditional_escape,
    estimate_first_passage,
    stream_rng,
)


def test_stream_determinism(sym15):
    sampler = IncrementSampler(sym15)
    a = sampler.sample(stream_rng(11, 2), 5000)
    b = sampler.sample(stream_rng(11, 2), 5000)
    assert np.array_equal(a, b)
    c = sampler.sample(stream_rng(11, 3), 5000)
    assert not np.array_equal(a, c)


def test_empirical_mean_near_zero(sym15):
    draws = IncrementSampler(sym15).sample(stream_rng(1, 0), 2_000_000)
    se = draws.std() / np.sqrt(len(draws))
    assert abs(draws.mean()) < 4 * se


def test_empirical_tail_matches_analytic(sym15):
    draws = IncrementSampler(sym15).sample(stream_rng(2, 0), 4_000_000)
    for x in (64, 300, 5000):
        exact = float(sym15.cumulative_plus(x + 1))
        emp = float((draws > x).mean())
        se = np.sqrt(exact * (1 - exact) / len(draws))
        assert abs(emp - exact) < 4 * se


def test_empirical_core_pmf(sp15):
    draws = IncrementSampler(sp15).sample(stream_rng(3, 0), 2_000_000)
    for x in (-2, -1, 0, 1, 5):
        exact = float(sp15.pmf(np.array([x]))[0])
        emp = float((draws == x).mean())
        se = np.sqrt(exact * (1 - exact) / len(draws))
        assert abs(emp - exact) < 4.5 * se


def test_first_passage_ci_covers_dp(sym15):
    cfg = SimConfig(trials=300_000, n_horizon=64, seed=77)
    est = estimate_first_passage(sym15, 3, [8, 32, 64], cfg)
    fp = first_passage(sym15, [0], 3, 64, window=1024)
    hits = 0
    for n in (8, 32, 64):
        if covers(est["f"][n], float(fp.f[n])):
            hits += 1
    assert hits >= 2  # 95% CIs: allow one miss across three checks
    surv = 1.0 - float(np.cumsum(fp.f)[64])
    assert covers(est["survival"][64], surv)


def test_estimates_bit_identical(sym15):
    cfg = SimConfig(trials=50_000, n_horizon=16, seed=5, stream_count=4)
    e1 = estimate_first_passage(sym15, 2, [16], cfg)
    e2 = estimate_first_passage(sym15, 2, [16], cfg)
    assert e1["f"][16] == e2["f"][16]


def test_stream_independence_permutation(sym15):
    """Disjoint streams behave like independent samples (permutation test)."""
    sampler = IncrementSampler(sym15)
    means = np.array(
        [sampler.sample(stream_rng(9, s), 40_000).mean() for s in range(24)]
    )
    rng = np.random.default_rng(0)
    half = len(means) // 2
    observed = abs(means[:half].mean() - means[half:].mean())
    null = []
    for _ in range(500):
        perm = rng.permutation(means)
        null.append(abs(perm[:half].mean() - perm[half:].mean()))
    p_val = (np.sum(np.array(null) >= observed) + 1) / 501
    assert p_val > 0.01


@pytest.mark.slow
def test_ci_calibration(sym15):
    """Empirical 95% CI coverage over 200 repetitions sits in [90%, 99%]."""
    fp = first_passage(sym15, [0], 2, 8, window=512)
    truth = float(fp.f[8])
    cover = 0
    reps = 200
    for rep in range(reps):
        cfg = SimConfig(trials=4000, n_horizon=8, seed=1000 + rep, stream_count=2)
        est = estimate_first_passage(sym15, 2, [8], cfg)
        if covers(est["f"][8], truth):
            cover += 1
    assert 0.90 * reps <= cover <= 0.99 * reps


def test_conditional_escape_against_dp(sym15):
    from stablewalk.asymptotics import LawContext, tunneling_check

    cfg = SimConfig(trials=400_000, n_horizon=64, seed=31)
    rep = tunneling_check(LawContext.build(sym15), (4,), 64, 6, -6)
    dp_val = rep.notes["probs"][0]
    est = estimate_conditional_escape(sym15, 6, -6, 64, 4.0, cfg)
    assert est.trials_effective >= 50
    assert abs(est.point - dp_val) < max(2.5 * est.half_width_95, 0.02)


def test_conditioning_too_rare(sym15):
    cfg = SimConfig(trials=200, n_horizon=16, seed=3)
    with pytest.raises(ConditioningTooRare):
        estimate_conditional_escape(sym15, 6, -6, 16, 4.0, cfg)


def test_estimates_csv_schema(sym15):
    from montecarlo_oracles import estimates_to_csv

    cfg = SimConfig(trials=20_000, n_horizon=8, seed=4)
    est = estimate_first_passage(sym15, 2, [8], cfg)
    csv = estimates_to_csv(est, x=2)
    head = csv.splitlines()[0]
    assert head == "schema_version,n,x,y,exact,rhs,ratio,regime,source"
    assert "montecarlo" in csv.splitlines()[1]
