"""Monte Carlo oracle: exact sampling, reproducibility, CI calibration."""
import numpy as np
import pytest

from montecarlo_oracles import covers, masked_conditional_escape, masked_first_passage, where_sample
from stablewalk import montecarlo
from stablewalk.errors import ConditioningTooRare
from stablewalk.killed_walk import first_passage
from stablewalk.montecarlo import (
    _CORE,
    EstimateCI,
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


@pytest.mark.parametrize("name", ["sym15", "sp15", "bp15"])
def test_alias_columns_carry_the_law(name, request):
    """Each column's mass, rebuilt from (prob, alias), is the pmf on the core and the two tail masses."""
    law = request.getfixturevalue(name)
    sampler = IncrementSampler(law)
    prob, alias = sampler._prob, sampler._alias
    m = len(prob)
    assert m == 2 * _CORE + 3
    assert ((prob >= 0) & (prob <= 1)).all() and ((alias >= 0) & (alias < m)).all()
    mass = (prob + np.bincount(alias, weights=1.0 - prob, minlength=m)) / m
    tail_p, tail_m = law.escaped_split(_CORE)
    want = np.concatenate([law.pmf(np.arange(-_CORE, _CORE + 1)), [tail_p, tail_m]])
    # Vose's build subtracts from the heaviest columns many times; each subtraction
    # rounds at ulp(p(0) m) ~ 2e-13 in scaled units, ~3e-17 in mass
    np.testing.assert_allclose(mass, want, rtol=1e-12, atol=1e-14)


def test_one_uniform_per_core_draw(sym15):
    """A draw costs one uniform unless it lands on a tail column: the stream advances by n plus the tail draws."""
    sampler = IncrementSampler(sym15)
    rng = stream_rng(4, 0)
    draws = sampler.sample(rng, 2_000_000)
    extra = int((np.abs(draws) > _CORE).sum())
    assert extra > 0
    ref = stream_rng(4, 0)
    ref.random(2_000_000 + extra)
    assert rng.random() == ref.random()


def test_top_edge_uniform_stays_in_the_table(sym15):
    """A u m that rounds up to m lands on the last column with a coin of 1, so it takes that column's alias."""
    sampler = IncrementSampler(sym15)

    class TopEdge:
        def random(self, n):
            return np.ones(n)

    last = len(sampler._prob) - 1
    assert sampler._prob[last] < 1.0 and sampler._alias[last] <= 2 * _CORE
    out = sampler.sample(TopEdge(), 3)
    assert (out == sampler._alias[last] - _CORE).all()


@pytest.mark.parametrize("name", ["sym15", "sp15", "bp15"])
def test_padded_column_pick_is_the_where_pick(name, request):
    """10^6 seeded draws pick the columns, and so the increments and the tail draws, of the np.where formula."""
    sampler = IncrementSampler(request.getfixturevalue(name))
    for stream in (0, 5):
        got, want = sampler.sample(stream_rng(29, stream), 500_000), where_sample(sampler, stream_rng(29, stream), 500_000)
        assert got.dtype == want.dtype and np.array_equal(got, want), stream


@pytest.mark.parametrize("name", ["sym15", "sp15", "bp15"])
def test_estimators_match_the_masked_loops(name, request, monkeypatch):
    """Compacting the live paths in order draws the same stream as the masked loop over every path."""
    law = request.getfixturevalue(name)
    sampler = IncrementSampler(law)
    monkeypatch.setattr(montecarlo, "_STREAMS", 3)
    cfg = SimConfig(trials=30_000, n_horizon=64, seed=17)
    for x in (0, 2, -3):
        got = estimate_first_passage(law, x, [4, 16, 64], cfg)
        assert got == masked_first_passage(sampler, x, [4, 16, 64], cfg)
        assert got["f"][16].point > 0
    if name == "sym15":
        monkeypatch.setattr(montecarlo, "_STREAMS", 2)
        cfg = SimConfig(trials=60_000, n_horizon=16, seed=31)
        est = estimate_conditional_escape(law, 3, -3, 16, 2.0, cfg)
        accept, deep = masked_conditional_escape(sampler, 3, -3, 16, 2.0, cfg)
        assert (est.trials_effective, est.point) == (accept, deep / accept)


def test_steps_outside_the_horizon_are_refused(sym15):
    """Both estimators take only steps in 1..n_horizon: no survival at n = 0, no step past the horizon."""
    cfg = SimConfig(trials=1000, n_horizon=2, seed=1)
    for grid in ([0, 4], [0, 2], [1, 4], []):
        with pytest.raises(ValueError, match="n_horizon"):
            estimate_first_passage(sym15, 2, grid, cfg)
    for n in (0, 3):
        with pytest.raises(ValueError, match="n_horizon"):
            estimate_conditional_escape(sym15, 6, -6, n, 4.0, cfg)
    est = estimate_first_passage(sym15, 2, [2, 1], cfg)
    assert sorted(est["survival"]) == [1, 2] and est["survival"][1].point < 1.0


def _lanes_logged(monkeypatch) -> list:
    """The number of lanes of each run_lanes call montecarlo makes from here on."""
    used = []
    run_lanes = montecarlo.run_lanes
    monkeypatch.setattr(montecarlo, "run_lanes", lambda parts: used.append(len(parts)) or run_lanes(parts))
    return used


@pytest.mark.parametrize("streams", [3, 8])
def test_two_lanes_give_the_one_lane_estimates(sym15, monkeypatch, streams):
    """With one CPU the streams run on one lane, with two on two lanes; both estimators return equal results, and equal the masked loops'."""
    import sys

    from stablewalk import lanes

    used = _lanes_logged(monkeypatch)
    monkeypatch.setattr(montecarlo, "_STREAMS", streams)
    cfg = SimConfig(trials=80_000, n_horizon=16, seed=31)
    got, interval = [], sys.getswitchinterval()
    for cpus in (1, 2):
        monkeypatch.setattr(lanes, "_cpus", lambda cpus=cpus: cpus)
        sys.setswitchinterval(1e-6 if cpus == 2 else interval)
        try:
            got.append((estimate_first_passage(sym15, 2, [4, 16], cfg),
                        estimate_conditional_escape(sym15, 3, -3, 16, 2.0, cfg)))
        finally:
            sys.setswitchinterval(interval)
    assert used == [1, 1, 2, 2]
    assert got[0] == got[1]
    sampler = IncrementSampler(sym15)
    assert got[1][0] == masked_first_passage(sampler, 2, [4, 16], cfg)
    accept, deep = masked_conditional_escape(sampler, 3, -3, 16, 2.0, cfg)
    assert got[1][1] == EstimateCI(deep / accept, got[1][1].half_width_95, accept)


def test_a_failing_lane_stops_the_estimator(sym15, monkeypatch):
    """A sampler that raises on the helper's lane stops the calling thread's lane, and the estimator raises it with no thread left."""
    import threading

    from stablewalk import lanes

    monkeypatch.setattr(lanes, "_cpus", lambda: 2)
    used = _lanes_logged(monkeypatch)
    orig = montecarlo.IncrementSampler.sample
    main_steps = []

    def sample(obj, rng, n):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("lane failed")
        main_steps.append(n)
        return orig(obj, rng, n)

    monkeypatch.setattr(montecarlo.IncrementSampler, "sample", sample)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="lane failed"):
        estimate_first_passage(sym15, 2, [64], SimConfig(trials=80_000, n_horizon=64, seed=3))
    assert used == [2] and threading.active_count() == before
    assert len(main_steps) < 4 * 64  # the calling lane's four streams stopped short


def test_small_estimates_run_on_one_lane(sym15, monkeypatch):
    """Two lanes only when each lane's smallest stream starts with at least the floor of live paths."""
    from stablewalk import lanes

    monkeypatch.setattr(lanes, "_cpus", lambda: 2)
    used = _lanes_logged(monkeypatch)
    for trials, streams in ((4000, 2), (19_999, 2), (20_000, 2), (200_000, 1)):
        monkeypatch.setattr(montecarlo, "_STREAMS", streams)
        estimate_first_passage(sym15, 2, [8], SimConfig(trials=trials, n_horizon=8, seed=1))
    assert used == [1, 1, 2, 1]


def test_estimators_share_one_sampler_per_law(sym15, monkeypatch):
    """Two estimator calls on one law build one alias table, and estimate as a freshly built sampler does."""
    monkeypatch.setattr(montecarlo, "_samplers", {})
    builds = []
    vose = montecarlo._vose
    monkeypatch.setattr(montecarlo, "_vose", lambda p: builds.append(len(p)) or vose(p))
    monkeypatch.setattr(montecarlo, "_STREAMS", 2)
    cfg = SimConfig(trials=60_000, n_horizon=16, seed=31)
    got = estimate_first_passage(sym15, 2, [4, 16], cfg)
    est = estimate_conditional_escape(sym15, 3, -3, 16, 2.0, cfg)
    assert len(builds) == 1
    fresh = IncrementSampler(sym15)
    assert got == masked_first_passage(fresh, 2, [4, 16], cfg)
    accept, deep = masked_conditional_escape(fresh, 3, -3, 16, 2.0, cfg)
    assert est == EstimateCI(deep / accept, est.half_width_95, accept)
    assert est == estimate_conditional_escape(sym15, 3, -3, 16, 2.0, cfg) and len(builds) == 2


def test_empirical_mean_near_zero(sym15):
    draws = IncrementSampler(sym15).sample(stream_rng(1, 0), 2_000_000)
    se = draws.std() / np.sqrt(len(draws))
    assert abs(draws.mean()) < 4 * se


def test_empirical_tail_matches_analytic(sym15):
    draws = IncrementSampler(sym15).sample(stream_rng(2, 0), 4_000_000)
    for x in (64, 300, 5000):
        for exact, emp in ((float(sym15.cumulative_plus(x + 1)), float((draws > x).mean())),
                           (float(sym15.cumulative_minus(x + 1)), float((draws < -x).mean()))):
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


def test_estimates_bit_identical(sym15, monkeypatch):
    monkeypatch.setattr(montecarlo, "_STREAMS", 4)
    cfg = SimConfig(trials=50_000, n_horizon=16, seed=5)
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
def test_ci_calibration(sym15, monkeypatch):
    """Empirical 95% CI coverage over 200 repetitions sits in [90%, 99%]."""
    fp = first_passage(sym15, [0], 2, 8, window=512)
    truth = float(fp.f[8])
    cover = 0
    reps = 200
    monkeypatch.setattr(montecarlo, "_STREAMS", 2)
    for rep in range(reps):
        cfg = SimConfig(trials=4000, n_horizon=8, seed=1000 + rep)
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
