"""Stochastic oracle: exact increment sampling and path estimators.

Sampling is exact: a Vose alias table covers the core window and the
analytic power tails are inverted in closed form, so the sampled law equals
the WalkLaw (no window truncation at all - this is what makes the Monte
Carlo estimates an independent check on the windowed DP kernels).  Streams
are counter-based (Philox) keyed by (seed, stream index), so estimates
reproduce bit-identically under any parallel split.
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


class IncrementSampler:
    """Alias-method core + closed-form tail inversion for one WalkLaw."""

    def __init__(self, law: WalkLaw):
        self.law = law
        xs = np.arange(-_CORE, _CORE + 1, dtype=np.int64)
        probs = law.pmf(xs)
        # (P[X >= _CORE+1], P[X <= -_CORE-1]); _CORE is past the calibration blocks,
        # so both tails are pure power laws
        self.tail_p, self.tail_m = law.escaped_split(_CORE)
        self.core_mass = float(probs.sum())
        # mass bookkeeping is exact by construction: core + tails = 1
        self._xs = xs
        self._build_alias(probs / self.core_mass)

    def _build_alias(self, p: np.ndarray) -> None:
        m = len(p)
        scaled = p * m
        alias = np.zeros(m, dtype=np.int64)
        prob = np.ones(m)
        small = [i for i, v in enumerate(scaled) if v < 1.0]
        large = [i for i, v in enumerate(scaled) if v >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            (small if scaled[l] < 1.0 else large).append(l)
        for i in large + small:
            prob[i] = 1.0
        self._alias = alias
        self._prob = prob

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        out = np.empty(n, dtype=np.int64)
        core = u < self.core_mass
        n_core = int(core.sum())
        idx = rng.integers(0, len(self._prob), n_core)
        take = rng.random(n_core) < self._prob[idx]
        chosen = np.where(take, idx, self._alias[idx])
        out[core] = self._xs[chosen]
        rest = ~core
        n_rest = int(rest.sum())
        if n_rest:
            v = u[rest] - self.core_mass
            plus = v < self.tail_p
            vals = np.empty(n_rest, dtype=np.int64)
            vp = v[plus]
            # P[X >= y] = sp y^{-rp}: invert on V ~ U(0, P[X >= core+1])
            vals[plus] = np.floor(
                (self.law.sp / np.maximum(self.tail_p - vp, 1e-300)) ** (1.0 / self.law.rp)
            ).astype(np.int64)
            vm = v[~plus] - self.tail_p
            vals[~plus] = -np.floor(
                (self.law.sm / np.maximum(self.tail_m - vm, 1e-300)) ** (1.0 / self.law.rm)
            ).astype(np.int64)
            out[rest] = vals
        return out


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
    sampler = IncrementSampler(law)
    hit_at = np.zeros(horizon + 1)
    alive_at = {n: 0.0 for n in n_grid}
    for rng, m in _chunks(cfg):
        pos = np.full(m, int(x), dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        for n in range(1, horizon + 1):
            idx = np.nonzero(alive)[0]
            if len(idx) == 0:
                break
            pos[idx] += sampler.sample(rng, len(idx))
            hit = idx[pos[idx] == 0]
            if len(hit):
                hit_at[n] += len(hit)
                alive[hit] = False
            if n in alive_at:
                alive_at[n] += int(alive.sum())
    out_f = {n: _binom_ci(hit_at[n], cfg.trials) for n in n_grid}
    out_s = {n: _binom_ci(alive_at[n], cfg.trials) for n in n_grid}
    return {"f": out_f, "survival": out_s}


def estimate_conditional_escape(law: WalkLaw, x: int, y: int, n: int, R: float, cfg: SimConfig) -> EstimateCI:
    """P[S at first entry of (-inf,0] < -R | sigma_0 > n, S_n = y] by rejection."""
    if not (x > 0 > y):
        raise ValueError("need x > 0 > y")
    sampler = IncrementSampler(law)
    accept = 0
    deep = 0
    for rng, m in _chunks(cfg):
        pos = np.full(m, int(x), dtype=np.int64)
        ok = np.ones(m, dtype=bool)          # sigma_0 > current step
        entered = np.zeros(m, dtype=bool)
        entry_val = np.zeros(m, dtype=np.int64)
        for _ in range(n):
            idx = np.nonzero(ok)[0]
            if len(idx) == 0:
                break
            pos[idx] += sampler.sample(rng, len(idx))
            sub = pos[idx]
            ok[idx[sub == 0]] = False
            new_entry = idx[(sub < 0) & (~entered[idx])]
            entered[new_entry] = True
            entry_val[new_entry] = pos[new_entry]
        sel = ok & (pos == y)
        accept += int(sel.sum())
        deep += int((entry_val[sel] < -R).sum())
    if accept < _MIN_EFFECTIVE:
        raise ConditioningTooRare(
            f"only {accept} paths satisfied the conditioning (floor {_MIN_EFFECTIVE})"
        )
    return _binom_ci(deep, accept)
