"""Monte Carlo estimates read against the DP, for tests only.

covers asks whether an estimate's 95% interval holds the exact value, and
estimates_to_csv puts the point estimate in the exact column and the 95%
half-width in the rhs column, so a test can lay the estimator next to a DP
report.  masked_first_passage and masked_conditional_escape are the
estimators' earlier loops, which keep every path and step the live ones by
index; the estimators must match them bit for bit.  where_sample is
IncrementSampler.sample with its earlier alias pick, np.where(coin <
prob[col], col, alias[col]) on a column clamped below m; the sampler's
padded-column pick must give the same draws.
"""
import numpy as np

from stablewalk import montecarlo
from stablewalk.montecarlo import _CORE, _binom_ci, _chunks


def covers(ci, truth: float) -> bool:
    """Whether the 95% interval of the estimate ci holds truth."""
    return abs(ci.point - truth) <= ci.half_width_95


def estimates_to_csv(estimates: dict, x: int) -> str:
    """First-passage estimates in the verification-report column layout."""
    lines = ["schema_version,n,x,y,exact,rhs,ratio,regime,source"]
    for n in sorted(estimates["f"]):
        ci = estimates["f"][n]
        lines.append(
            f"1,{n},{x},,{ci.point:.17g},{ci.half_width_95:.17g},,f,montecarlo"
        )
    for n in sorted(estimates["survival"]):
        ci = estimates["survival"][n]
        lines.append(
            f"1,{n},{x},,{ci.point:.17g},{ci.half_width_95:.17g},,survival,montecarlo"
        )
    return "\n".join(lines) + "\n"


def where_sample(sampler, rng, n: int) -> np.ndarray:
    """n increments from rng, as sampler.sample draws them, picking each column by np.where."""
    m = len(sampler._prob)
    u = rng.random(n) * m
    col = u.astype(np.int64)
    np.minimum(col, m - 1, out=col)  # a u m rounded up to m stays on the last column
    u -= col
    out = np.where(u < sampler._prob[col], col, sampler._alias[col])
    tail = np.flatnonzero(out > 2 * _CORE)
    out -= _CORE
    if len(tail):
        minus = out[tail] == _CORE + 2
        r = np.where(minus, sampler.law.rm, sampler.law.rp)
        y = np.floor((_CORE + 1) * (1.0 - rng.random(len(tail))) ** (-1.0 / r)).astype(np.int64)
        out[tail] = np.where(minus, -y, y)
    return out


def masked_first_passage(sampler, x: int, n_grid, cfg) -> dict:
    """estimate_first_passage as a masked loop over every path, stepping the live ones by index.

    It draws from sampler in the estimator's path order, so the two agree bit
    for bit.
    """
    n_grid = sorted(int(n) for n in n_grid)
    horizon = max(n_grid)
    hit_at = np.zeros(horizon + 1)
    alive_at = {n: 0.0 for n in n_grid}
    for rng, m in _chunks(cfg, range(montecarlo._STREAMS)):
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
    return {"f": {n: _binom_ci(hit_at[n], cfg.trials) for n in n_grid},
            "survival": {n: _binom_ci(alive_at[n], cfg.trials) for n in n_grid}}


def masked_conditional_escape(sampler, x: int, y: int, n: int, R: float, cfg):
    """estimate_conditional_escape as a masked loop, as masked_first_passage: (accepted, deep) path counts."""
    accept = deep = 0
    for rng, m in _chunks(cfg, range(montecarlo._STREAMS)):
        pos = np.full(m, int(x), dtype=np.int64)
        ok = np.ones(m, dtype=bool)
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
    return accept, deep
