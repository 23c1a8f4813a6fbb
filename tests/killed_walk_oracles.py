"""Oracles for the DP, for tests only.

dense_killed steps an explicit killed transition matrix on [-W, W] with one
column for the mass that leaves the window upward and one for the mass that
leaves it downward, built from the law's pmf and its exact tails, not from
the FFT stepper or its weights.  As in the DP, a jump longer than W leaves
the window wherever it would land.  It takes the killed sites as a mask, so
it serves free, finite-set and half-line runs alike; dense_half_line is its
half-line form.  full_window_half_line is run_kernel's half-line loop on the
whole window, where the FFT has length next_fast_len(3W + 1): the route
run_kernel took before it stepped only the live sites.  All three return
the arrays of a KernelTable kept at every step, with green summed before
each kill over the whole window: run_kernel's green equals it on the live
sites and is 0 below them.  stepwise_ledgers steps each row as its own
single-start run and forms the ledgers step by step, with the formulas
run_kernel used before it recorded raw per-step reads and formed its
ledgers once per run.  two_run_ladder is
ladder_renewals from two single-law half-line runs, the route it took
before it stepped both rows in one batch; beside its tables it returns
U_ds and V_as by the classical renewal recursion over the same runs' ladder
pmfs (Spitzer, Principles of Random Walk, 1964, sections 17-19), whose
truncation defect compounds with x.
"""
import numpy as np

from stablewalk.killed_walk import (
    HALF_LE_0,
    _fft_stepper,
    _is_per_row,
    _ladder_pmf,
    _ladder_tables,
    _state_buffer,
    default_window,
    normalize_killing,
    run_kernel,
)


def _start(starts, n_max: int, W: int):
    """Unit states at the starts on [-W, W], in a _state_buffer, and the arrays of a run kept at every step."""
    ns = len(starts)
    state = _state_buffer(ns, 2 * W + 1, W)
    state[np.arange(ns), np.array(starts) + W] = 1.0
    return state, {"values": [state.copy()], "green": [state.copy()], "step_killed": np.zeros((ns, n_max + 1)),
                   "escaped": np.zeros((ns, n_max + 1))}


def dense_killed(law, killed, starts, n_max: int, W: int, below_killed: bool) -> dict:
    """values, green, step_killed, escaped of the walk killed on the sites killed marks.

    killed is a boolean mask over [-W, W].  Mass leaving the window downward
    is a kill when below_killed (a half-line) and escapes otherwise.  On the
    killed sites green[n] holds the mass that landed there by step n, plus
    1 at a start there.
    """
    sites = np.arange(-W, W + 1)
    jump = sites[None, :] - sites[:, None]                                # site x -> site y
    move = np.where(np.abs(jump) <= W, law.pmf(jump), 0.0)
    # X > W, or X <= W and x + X > W; X < -W, or X >= -W and x + X < -W
    up = np.array([law.cumulative_plus(W + 1 - max(x, 0)) for x in sites])
    down = np.array([law.cumulative_minus(W + 1 + min(x, 0)) for x in sites])
    state, out = _start(starts, n_max, W)
    for n in range(1, n_max + 1):
        nxt = state @ move
        jump_dn = state @ down
        if below_killed:
            out["escaped"][:, n] = out["escaped"][:, n - 1] + state @ up
            out["step_killed"][:, n] = nxt[:, killed].sum(axis=1) + jump_dn
        else:
            out["escaped"][:, n] = out["escaped"][:, n - 1] + state @ up + jump_dn
            out["step_killed"][:, n] = nxt[:, killed].sum(axis=1)
        out["green"].append(out["green"][-1] + nxt)
        nxt[:, killed] = 0.0
        state = nxt
        out["values"].append(state.copy())
    return out


def dense_half_line(law, b: int, starts, n_max: int, W: int) -> dict:
    """dense_killed on (-inf, b]."""
    return dense_killed(law, np.arange(-W, W + 1) <= b, starts, n_max, W, below_killed=True)


def full_window_half_line(law, b: int, starts, n_max: int, W: int) -> dict:
    """The same arrays from the half-line loop stepping the whole window [-W, W]."""
    step, esc_p, esc_m = _fft_stepper(law, W)
    states, out = _start(starts, n_max, W)
    cut = max(b + W + 1, 0)  # indices [0, cut) are killed states
    escaped_cum = np.zeros(len(starts))
    for n in range(1, n_max + 1):
        alive = states.sum(axis=1)
        states, below, above = step(states)
        kill_now = states[:, :cut].sum(axis=1) + below + alive * esc_m
        out["green"].append(out["green"][-1] + states)
        states[:, :cut] = 0.0
        escaped_cum += above + alive * esc_p
        out["step_killed"][:, n] = kill_now
        out["escaped"][:, n] = escaped_cum
        out["values"].append(states.copy())
    return out


def stepwise_ledgers(law, B, starts, n_max: int, W: int, entrance_depth: int = 0, dual_starts=()) -> dict:
    """step_killed, escaped and the in-window mass of run_kernel's rows, each ledger formed at its step.

    The arguments are run_kernel's.  Each row steps alone, on the live sites
    of its single-start run, under law or, for dual_starts, law.reversed().
    After each step its kill is the mass on its killed live sites, plus,
    on a half-line, the mass pushed below the live sites and the jump mass
    below the window; every other mass that leaves the window adds to its
    escaped ledger.  mass[:, n] sums each row's state over [-W, W] as
    KernelTable.conservation_defect does.
    """
    starts = [int(x) for x in starts] + [int(x) for x in dual_starts]
    ns = len(starts)
    laws = [law] * (ns - len(dual_starts)) + [law.reversed()] * len(dual_starts)
    sets = [normalize_killing(b) for b in B] if _is_per_row(B) else [normalize_killing(B)] * ns
    out = {key: np.zeros((ns, n_max + 1)) for key in ("step_killed", "escaped", "mass")}
    for i, (row_law, (kind, b), x) in enumerate(zip(laws, sets, starts)):
        step, esc_p, esc_m = _fft_stepper(row_law, W)
        half = kind == "le"
        lo = max(-W, min(b - entrance_depth, x)) if half else -W
        sites = np.arange(lo, W + 1)
        killed = sites <= b if half else np.isin(sites, b)
        states = _state_buffer(1, W - lo + 1, W)
        states[0, x - lo] = 1.0
        full = np.zeros((1, 2 * W + 1))
        full[:, lo + W :] = states
        out["mass"][i, 0] = full.sum(axis=1)[0]
        for n in range(1, n_max + 1):
            alive = states.sum(axis=1)
            states, below, above = step(states)
            jump_up, jump_dn = alive * esc_p, alive * esc_m
            kill_now = states[:, killed].sum(axis=1)
            states[:, killed] = 0.0
            if half:
                kill_now = kill_now + below + jump_dn
                out["escaped"][i, n] = (out["escaped"][i, n - 1] + (above + jump_up))[0]
            else:
                out["escaped"][i, n] = (out["escaped"][i, n - 1] + (below + above + jump_up + jump_dn))[0]
            out["step_killed"][i, n] = kill_now[0]
            full[:, lo + W :] = states
            out["mass"][i, n] = full.sum(axis=1)[0]
    return out


def two_run_ladder(law, x_max: int):
    """(ladder_renewals(law, x_max), (U_ds, V_as) by the renewal recursion).

    Both come from a run of the law from 1 and a separate run of
    law.reversed() from 0.
    """
    N = max(8192, int(4.0 * x_max ** law.spec.alpha))
    half, W = N // 2, default_window(law, N)
    down = run_kernel(law, HALF_LE_0, [1], N, window=W, keep=[N], entrance_depth=x_max, keep_green=[half, N])
    up = run_kernel(law.reversed(), HALF_LE_0, [0], N + 1, window=W, keep=[N], entrance_depth=x_max,
                    keep_green=[half + 1, N, N + 1])
    tables = _ladder_tables((down, 0), (up, 0), N, x_max, law.spec.alpha)
    q_as, _ = _ladder_pmf(up, 0, N, x_max)
    # a strict descent has no zero height: the weak recursion with q(0) = 0
    U_ds = weak_renewal_recursion(np.concatenate([[0.0], tables.q_ds]), x_max)
    return tables, (U_ds, weak_renewal_recursion(q_as, x_max))


def weak_renewal_recursion(q: np.ndarray, x_max: int) -> np.ndarray:
    """V(x) = 1 + sum_{j <= x} q(j) V(x - j) for x <= x_max, the defective ladder pmf q allowed mass at j = 0."""
    q0 = q[0] if len(q) else 0.0
    V = np.zeros(x_max + 1)
    for x in range(x_max + 1):
        acc = 1.0
        for j in range(1, min(x, len(q) - 1) + 1):
            acc += q[j] * V[x - j]
        V[x] = acc / (1.0 - q0)
    return V
