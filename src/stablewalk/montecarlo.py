"""Stochastic oracle: exact increment sampling and path estimators.

Sampling is exact: one Vose alias table covers the core sites [-_CORE,
_CORE] and two tail columns holding P[X > _CORE] and P[X < -_CORE], so the
sampled law equals the WalkLaw (no window truncation at all - this is what
makes the Monte Carlo estimates an independent check on the windowed DP
kernels).  An increment costs one uniform u: floor(u m) picks one of the m
columns and the fractional part of u m is the alias coin.  Only a draw that
lands on a tail column takes a second uniform, which inverts that power tail
in closed form.  The estimators keep their live paths in dense arrays and
compact them, in order, when paths hit.  They share one sampler per law
hash across calls, since the alias table's build is a Python loop over its
8195 columns.  Streams are counter-based (Philox) keyed by (seed, stream
index), so an estimate reproduces bit-identically from its SimConfig.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningTooRare
from .walk_model import WalkLaw

_CORE = 4096  # the alias table covers [-_CORE, _CORE]; beyond it the tails are inverted
_CHUNK = 200_000  # paths simulated at once per stream
_MIN_EFFECTIVE = 50  # fewest accepted paths a conditional estimate may rest on
_SAMPLERS_KEPT = 4  # laws whose IncrementSampler the estimators keep


@dataclass(frozen=True)
class SimConfig:
    trials: int
    n_horizon: int
    seed: int = 20260808
    stream_count: int = 8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials >= 1")
        if self.stream_count < 1:
            raise ValueError("stream_count >= 1")


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

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        m = len(self._prob)
        u = rng.random(n) * m
        col = u.astype(np.int64)
        np.minimum(col, m - 1, out=col)  # a u m rounded up to m stays on the last column
        u -= col  # the coin
        out = np.where(u < self._prob[col], col, self._alias[col])
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


def _chunks(cfg: SimConfig):
    """(generator, trials) per chunk: cfg.trials split over the streams, each stream in chunks."""
    base, rem = divmod(cfg.trials, cfg.stream_count)
    for stream in range(cfg.stream_count):
        trials = base + (1 if stream < rem else 0)
        rng = stream_rng(cfg.seed, stream)
        for done in range(0, trials, _CHUNK):
            yield rng, min(_CHUNK, trials - done)


def estimate_first_passage(law: WalkLaw, x: int, n_grid, cfg: SimConfig) -> dict:
    """Indicator estimates of f^x(n) on n_grid plus survival P[sigma > n].

    Returns {"f": {n: EstimateCI}, "survival": {n: EstimateCI}}.
    """
    n_grid = sorted(int(n) for n in n_grid)
    horizon = max(n_grid)
    sampler = _sampler(law)
    hit_at = np.zeros(horizon + 1)
    alive_at = {n: 0.0 for n in n_grid}
    for rng, m in _chunks(cfg):
        pos = np.full(m, int(x), dtype=np.int64)  # the live paths, in path order
        for n in range(1, horizon + 1):
            pos += sampler.sample(rng, len(pos))
            hit = len(pos) - int(np.count_nonzero(pos))
            if hit:
                hit_at[n] += hit
                pos = pos[pos != 0]
            if n in alive_at:
                alive_at[n] += len(pos)
            if not len(pos):
                break
    out_f = {n: _binom_ci(hit_at[n], cfg.trials) for n in n_grid}
    out_s = {n: _binom_ci(alive_at[n], cfg.trials) for n in n_grid}
    return {"f": out_f, "survival": out_s}


def estimate_conditional_escape(law: WalkLaw, x: int, y: int, n: int, R: float, cfg: SimConfig) -> EstimateCI:
    """P[S at first entry of (-inf,0] < -R | sigma_0 > n, S_n = y] by rejection."""
    if not (x > 0 > y):
        raise ValueError("need x > 0 > y")
    sampler = _sampler(law)
    accept = 0
    deep = 0
    for rng, m in _chunks(cfg):
        pos = np.full(m, int(x), dtype=np.int64)  # the paths with sigma_0 > current step, in order
        entry = np.zeros(m, dtype=np.int64)  # value at first entry of (-inf, 0), 0 before it
        for _ in range(n):
            pos += sampler.sample(rng, len(pos))
            live = pos != 0
            if not live.all():
                pos, entry = pos[live], entry[live]
            if not len(pos):
                break
            new = (pos < 0) & (entry == 0)
            entry[new] = pos[new]
        sel = pos == y
        accept += int(np.count_nonzero(sel))
        deep += int(np.count_nonzero(entry[sel] < -R))
    if accept < _MIN_EFFECTIVE:
        raise ConditioningTooRare(
            f"only {accept} paths satisfied the conditioning (floor {_MIN_EFFECTIVE})"
        )
    return _binom_ci(deep, accept)
