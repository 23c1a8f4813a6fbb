"""Stochastic oracle: exact increment sampling and path estimators.

Sampling is exact: one Vose alias table covers the core sites [-_CORE,
_CORE] and two tail columns holding P[X > _CORE] and P[X < -_CORE], so the
sampled law equals the WalkLaw (no window truncation at all - this is what
makes the Monte Carlo estimates an independent check on the windowed DP
kernels).  An increment costs one uniform u: floor(u m) picks one of the m
columns and the fractional part of u m is the alias coin, and the draw is
col + (coin >= prob[col]) * (alias[col] - col).  The table is padded with
an m-th column whose keep probability is 0 and whose jump lands on the last
column's alias, so a u m that rounds up to m draws as the last column with
a coin of 1 does, with no clamp.  Only a draw that lands on a tail column
takes a second uniform, which inverts that power tail in closed form.  The
estimators keep their live paths in dense arrays and compact them, in
order, when paths hit.  They share one sampler per law hash across calls,
since the alias table's build is a Python loop over its 8195 columns.  An
estimate splits its trials over _STREAMS streams, each counter-based
(Philox) and keyed by (seed, stream index), so it reproduces bit-identically
from its SimConfig.

Each stream draws only from its own generator, so the streams split over
two lanes (lanes.run_lanes) and draw the same paths: lane k steps streams
k, k + 2, ..., when lanes.two_lanes passes each lane's smallest stream (its
trials, the live paths at its first step), and otherwise one lane steps them
all in order (lanes.alternate).  Each lane counts its own paths and the
estimator adds the counts, which is exact, so every estimate is bit
for bit that of one lane.  The estimators accept only steps in
1..SimConfig.n_horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningTooRare
from .lanes import alternate, run_lanes
from .walk_model import WalkLaw

_CORE = 4096  # the alias table covers [-_CORE, _CORE]; beyond it the tails are inverted
_CHUNK = 200_000  # paths simulated at once per stream
_MIN_EFFECTIVE = 50  # fewest accepted paths a conditional estimate may rest on
_SAMPLERS_KEPT = 4  # laws whose IncrementSampler the estimators keep
_STREAMS = 8  # counter-based streams an estimate splits its trials over


@dataclass(frozen=True)
class SimConfig:
    trials: int
    n_horizon: int
    seed: int = 20260808

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials >= 1")


@dataclass(frozen=True)
class EstimateCI:
    point: float
    half_width_95: float
    trials_effective: int


def _binom_ci(hits: float, n: int) -> EstimateCI:
    p = hits / n
    var = max(p * (1.0 - p), 1e-300)
    return EstimateCI(point=p, half_width_95=1.959963984540054 * math.sqrt(var / n), trials_effective=n)


def _vose(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table (prob, alias) for the distribution p over len(p) columns.

    Column i keeps itself with probability prob[i] and passes to alias[i]
    otherwise; a full column is its own alias.
    """
    m = len(p)
    scaled = p * m
    alias = np.arange(m, dtype=np.int64)
    prob = np.ones(m)
    small = [i for i, v in enumerate(scaled) if v < 1.0]
    large = [i for i, v in enumerate(scaled) if v >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        (small if scaled[l] < 1.0 else large).append(l)
    return prob, alias


class IncrementSampler:
    """One alias table over the core sites and both tail columns of one WalkLaw."""

    def __init__(self, law: WalkLaw):
        self.law = law
        # columns: the sites -_CORE .. _CORE, then P[X > _CORE] and P[X < -_CORE];
        # _CORE is past the calibration blocks, so both tails are pure power laws
        masses = np.concatenate([law.pmf(np.arange(-_CORE, _CORE + 1)), law.escaped_split(_CORE)])
        self._prob, self._alias = _vose(masses / masses.sum())
        # a padded column m, for a u m that rounds up to m: its coin 0 never keeps it,
        # and its jump lands on the last column's alias, where the coin 1 sends that column
        m = len(self._prob)
        self._pad_prob = np.append(self._prob, 0.0)
        self._jump = np.append(self._alias - np.arange(m), self._alias[-1] - m)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n) * len(self._prob)
        out = u.astype(np.int64)
        u -= out  # the coin
        out += (u >= self._pad_prob[out]) * self._jump[out]  # the column, or its alias
        tail = np.flatnonzero(out > 2 * _CORE)
        out -= _CORE
        if len(tail):
            # P[X >= y] = sp y^{-rp} past the core, so P[X >= y | X > _CORE] = (y / (_CORE+1))^{-rp}:
            # invert it on V ~ U(0, 1], likewise below
            minus = out[tail] == _CORE + 2
            r = np.where(minus, self.law.rm, self.law.rp)
            y = np.floor((_CORE + 1) * (1.0 - rng.random(len(tail))) ** (-1.0 / r)).astype(np.int64)
            out[tail] = np.where(minus, -y, y)
        return out


_samplers: dict = {}  # law hash -> IncrementSampler, least recently used first


def _sampler(law: WalkLaw) -> IncrementSampler:
    """The law's IncrementSampler, built once per law hash while it stays among the last _SAMPLERS_KEPT used."""
    key = law.law_hash()
    sampler = _samplers.pop(key, None) or IncrementSampler(law)
    _samplers[key] = sampler
    if len(_samplers) > _SAMPLERS_KEPT:
        del _samplers[next(iter(_samplers))]
    return sampler


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _stream_trials(cfg: SimConfig, stream: int) -> int:
    """The stream's share of cfg.trials: an even split, one more path on each of the first trials % _STREAMS."""
    base, rem = divmod(cfg.trials, _STREAMS)
    return base + (1 if stream < rem else 0)


def _chunks(cfg: SimConfig, streams):
    """(generator, trials) per chunk of the given streams: each stream's share of cfg.trials, in chunks."""
    for stream in streams:
        trials = _stream_trials(cfg, stream)
        rng = stream_rng(cfg.seed, stream)
        for done in range(0, trials, _CHUNK):
            yield rng, min(_CHUNK, trials - done)


def _horizon_steps(steps, cfg: SimConfig) -> list:
    """The steps, sorted, each checked to lie in 1..cfg.n_horizon."""
    steps = sorted(int(n) for n in steps)
    if not steps or steps[0] < 1 or steps[-1] > cfg.n_horizon:
        raise ValueError(f"steps {steps} not all in 1..n_horizon = {cfg.n_horizon}")
    return steps


def estimate_first_passage(law: WalkLaw, x: int, n_grid, cfg: SimConfig) -> dict:
    """Indicator estimates of f^x(n) on n_grid plus survival P[sigma > n], each n in 1..cfg.n_horizon.

    Returns {"f": {n: EstimateCI}, "survival": {n: EstimateCI}}.  Each lane
    counts the paths of its streams that hit at each step and that are alive
    after it; the counts are whole numbers, so their sum over the lanes is
    exact and every estimate is that of one lane.
    """
    n_grid = _horizon_steps(n_grid, cfg)
    horizon = max(n_grid)
    sampler = _sampler(law)
    parts = alternate(range(_STREAMS), lambda stream: _stream_trials(cfg, stream))
    counts = np.zeros((len(parts), 2, horizon + 1))  # per lane: paths hit at step n, alive after it

    def lane(streams, hit_at, alive_at):
        for rng, m in _chunks(cfg, streams):
            pos = np.full(m, int(x), dtype=np.int64)  # the live paths, in path order
            for n in range(1, horizon + 1):
                pos += sampler.sample(rng, len(pos))
                hit = len(pos) - int(np.count_nonzero(pos))
                if hit:
                    hit_at[n] += hit
                    pos = pos[pos != 0]
                alive_at[n] += len(pos)
                yield
                if not len(pos):
                    break

    run_lanes([lane(part, *c) for part, c in zip(parts, counts)])
    hit_at, alive_at = counts.sum(axis=0)
    out_f = {n: _binom_ci(hit_at[n], cfg.trials) for n in n_grid}
    out_s = {n: _binom_ci(alive_at[n], cfg.trials) for n in n_grid}
    return {"f": out_f, "survival": out_s}


def estimate_conditional_escape(law: WalkLaw, x: int, y: int, n: int, R: float, cfg: SimConfig) -> EstimateCI:
    """P[S at first entry of (-inf,0] < -R | sigma_0 > n, S_n = y] by rejection, n in 1..cfg.n_horizon.

    Each lane counts its accepted and deep paths, summed exactly as in
    estimate_first_passage.
    """
    if not (x > 0 > y):
        raise ValueError("need x > 0 > y")
    n = _horizon_steps([n], cfg)[0]
    sampler = _sampler(law)
    parts = alternate(range(_STREAMS), lambda stream: _stream_trials(cfg, stream))
    counts = np.zeros((len(parts), 2), dtype=np.int64)  # per lane: accepted paths, deep ones

    def lane(streams, tally):
        for rng, m in _chunks(cfg, streams):
            pos = np.full(m, int(x), dtype=np.int64)  # the paths with sigma_0 > current step, in order
            entry = np.zeros(m, dtype=np.int64)  # value at first entry of (-inf, 0), 0 before it
            for _ in range(n):
                pos += sampler.sample(rng, len(pos))
                live = pos != 0
                if not live.all():
                    pos, entry = pos[live], entry[live]
                yield
                if not len(pos):
                    break
                new = (pos < 0) & (entry == 0)
                entry[new] = pos[new]
            sel = pos == y
            tally += (np.count_nonzero(sel), np.count_nonzero(entry[sel] < -R))

    run_lanes([lane(part, c) for part, c in zip(parts, counts)])
    accept, deep = (int(v) for v in counts.sum(axis=0))
    if accept < _MIN_EFFECTIVE:
        raise ConditioningTooRare(
            f"only {accept} paths satisfied the conditioning (floor {_MIN_EFFECTIVE})"
        )
    return _binom_ci(deep, accept)
