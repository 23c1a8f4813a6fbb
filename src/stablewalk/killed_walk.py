"""Exact finite-n kernels for free, finite-set and half-line-killed walks.

A killing set is ("le", b), the half-line (-inf, b], or ("set", sorted
distinct sites); None is the empty set.  The state lives on the window
[-W, W], and a row steps only its live sites, the last S of the window: all
2W + 1 for a finite set, [max(-W, min(b - entrance_depth, x)), W] for a row
from x killed on (-inf, b], whose state is zero on (-inf, b] after every
kill.  One step convolves the live state with the windowed increment pmf by
a circular FFT of length next_fast_len(S + W), whose wrap-around misses the
live sites; the mass pushed below the live sites or above the window is a
dot product with weights built once from the pmf's cumulative sums.  The
step calls pocketfft's real transforms r2c and c2r directly, the binding
scipy.fft's rfft and irfft end in: the same kernel, normalisation and one
thread, so the same bits, without the public pair's per-call dispatch (see
_fft_stepper).  The public pair stays for the one-off spectra of p and as
the direct pair's test oracle.  Then
the run kills alike for every set: it zeroes its killed live sites and
counts their mass as the step's kill, and a half-line row also kills the
mass pushed below its live sites, which lands in (-inf, b].  Any other mass
that leaves the window goes to the escaped ledger, so

    in-window + killed + escaped = 1

holds to float accumulation error at every step.  A step records only what
it alone can read, into a unit's local arrays: the alive mass before it,
the stepper's below and above masses, and the mass on the killed live
sites.  The kill and escaped ledgers are formed from these once, after the
unit's last step, with whole-array arithmetic in the per-step order of
operations, so they are bit for bit the ledgers formed step by step.

A run records its Green sums, the states of steps 0..n summed before each
kill, at the steps keep_green names, and its values at the steps keep names,
for every row or row by row: off B the Green function G_B(x, .) up to step
n, and on B's live sites P_x[sigma_B <= n, S_sigma = .] plus 1 at a start
there (the first-entrance split).  run_kernel is the only DP loop: the
ladder pmfs and renewal functions are the Green sums of one two-row
half-line batch.

On a window law.reversed()'s B-killed step matrix is the law's transposed:
its {0}-killed run from 0 gives f^x_W(n) for every x, and its A-killed run
from z in A holds P_x[sigma_A = n, S_n = z] at site x, so cor3 and finite
read the space-time hitting law of A off the reversed A-killed runs, with
the forward run's Green sums on A as oracle.  A batch's rows may carry
either law: run_kernel's dual_starts rows step under law.reversed() beside
the starts' rows under law.  The rows of a batch share one killing set, or
each has its own, and they step in groups: every finite-set row (the empty
set among them) on the whole window, and the rows of each half-line
(-inf, b] by their live sites, which only the row's own start sets, so rows
that differ in law, set and kept steps still share one stepper call per
group and step.  Every row equals, bit for bit, the single-start run of its
law and killing set, in any batch.

Rows never interact, so a call steps its groups in units, block by
block, on one lane or two through lanes.run_lanes: the calling thread
steps one and a helper thread the other, joined before the call returns.
A group of more than _BLOCK_ROWS rows is cut into blocks of _BLOCK_ROWS
rows, on either lane count.  For two lanes a smaller group of 4 or more
rows splits into two halves at an even row (pocketfft transforms rows in
SIMD pairs, so a lone row costs more per row than a pair, and _BLOCK_ROWS
is even), and the units go to the lighter lane, largest FFT work (rows x
L) first.  Both lanes are used only when lanes.two_lanes passes each
lane's summed FFT points per step (more than one CPU, and each lane at the
floor); otherwise the same loop steps one lane.  Each unit is one _unit
generator, which yields once per step, and a lane chains its units, each
through all its steps.  A unit's state buffer (a _state_buffer), Green
sums and raw-read arrays are locals of its generator, made when its turn
starts and freed when it ends, so a call's working memory is that of at
most two blocks, not of its whole batch: oracle_bp15's 1025-row batch at
W = 512 peaks at 14.3 MB under tracemalloc, 8.4 MB of it the kept table,
where two 512-row halves peaked at 48.8 MB.  Every unit has its own
stepper, built on the calling thread, and the lanes fill the one
KernelTable's arrays, each at its own rows.  The Fourier oracle splits its
tau blocks over the same two lanes, by lanes.alternate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
# the pocketfft binding scipy.fft's rfft and irfft end in, for the per-step pair
from scipy.fft._pocketfft.pypocketfft import c2r, r2c

from .errors import ResolutionTooCoarse, TruncationTooCoarse, WindowTooSmall
from .lanes import alternate, run_lanes, two_lanes
from .output import csv_text
from .special import gk_panels, omexp, panel_breaks
from .walk_model import WalkLaw

_TAU_ROWS = 512  # tau rows per block of the Fourier oracle's theta integral
_BLOCK_ROWS = 64  # rows per DP block of a wider row group; even, so pocketfft's SIMD pairs stay whole
_LADDER_TAIL_BUDGET = 0.2  # largest ladder-pmf mass the step truncation may miss

# ---------------------------------------------------------------------------
# killing-set descriptors
# ---------------------------------------------------------------------------

HALF_LE_0 = ("le", 0)     # (-inf, 0]


def normalize_killing(B):
    """("le", b) for (-inf, b], else ("set", sorted distinct sites); None is the empty set."""
    if isinstance(B, tuple) and len(B) == 2 and B[0] == "le":
        return ("le", int(B[1]))
    if isinstance(B, tuple) and len(B) == 2 and B[0] == "set":
        B = B[1]
    return ("set", tuple(sorted({int(z) for z in (() if B is None else B)})))


def default_window(law: WalkLaw, n_max: int, mult: float = 8.0) -> int:
    """W = max(mult * n_max^{1/alpha}, 512)."""
    return int(max(mult * n_max ** (1.0 / law.spec.alpha), 512))


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------


@dataclass
class KernelTable:
    """Killed/free n-step kernel slices with a conservation ledger.

    starts holds each row's start: the run's starts, then its dual_starts,
    whose rows step under the reversed law; killing is the run's killing
    set, or the list of its rows' sets.
    values[n] is an array (rows kept at n, 2W+1), and rows_at[n] maps each
    of those rows, in row order, to its place there: every row to itself
    where one keep list serves all.  Steps that keep the same rows share one
    map, built once per run, and every per-step reader pairs values[n]'s
    rows with their rows through it.  green[n] (n_rows,
    2W+1) is the sum of the states of steps 0..n before each kill, at the
    steps keep_green names: on B's live sites the mass that entered there by
    step n, plus 1 at a start there.  A row from x killed on (-inf, b] lives
    on [max(-W, min(b - entrance_depth, x)), W], whatever the other rows,
    and its green is 0 below.  step_killed is the per-step kill mass
    (the first-passage mass into B at that step), and escaped and killed
    (derived from step_killed) are the cumulative per-start ledgers indexed
    by step.
    """

    killing: object
    window: int
    n_max: int
    starts: list
    values: dict = field(default_factory=dict)
    rows_at: dict = field(default_factory=dict)
    green: dict = field(default_factory=dict)
    step_killed: np.ndarray | None = None
    escaped: np.ndarray | None = None

    @property
    def killed(self) -> np.ndarray:
        return np.cumsum(self.step_killed, axis=1)

    def kept(self, row: int) -> dict:
        """{n: the row's values at n} over the steps it kept."""
        return {n: arr[self.rows_at[n][row]] for n, arr in self.values.items() if row in self.rows_at[n]}

    def conservation_defect(self, n: int) -> np.ndarray:
        """|in-window + killed + escaped - 1| at step n of each row kept at n, in row order."""
        rows = list(self.rows_at[n])
        total = self.values[n].sum(axis=1) + self.killed[rows, n] + self.escaped[rows, n]
        return np.abs(total - 1.0)

    def to_csv(self, n: int) -> str:
        arr, W = self.values[n], self.window
        rows = [(n, self.starts[i], j - W, arr[k][j])
                for i, k in self.rows_at[n].items() for j in np.nonzero(arr[k])[0]]
        return csv_text(("n", "x", "y", "value"), rows)


def _fft_length(S: int, W: int) -> int:
    """The circular FFT length of a step on S live sites of [-W, W]."""
    return sfft.next_fast_len(S + W, real=True)


def _state_buffer(rows: int, S: int, W: int) -> np.ndarray:
    """Zeros as the first S columns of a (rows, _fft_length(S, W)) buffer: the states a step on S sites of [-W, W] takes."""
    return np.zeros((rows, _fft_length(S, W)))[:, :S]


def _fft_stepper(law, W: int):
    """(step, P[X > W], P[X < -W]) for the DP on [-W, W].

    step maps a (n_rows, S) batch living on the last S sites of the
    window, [W - S + 1, W], to (states on those sites one step later, mass
    pushed below them, mass pushed above the window) for jumps |X| <= W.
    Its circular FFT has length L = _fft_length(S, W), whose wrap-around
    misses the kept sites; S = 2W + 1 is the whole window.  The states are
    the first S columns of a zero-padded (n_rows, L) buffer, as
    _state_buffer lays them out: rfft reads that buffer as it is, with no
    padded copy per step, and the step writes its result back there and
    returns that same view.  Any other states raise ValueError, checked
    where the spectrum for S is first built, so later steps pay nothing.

    The per-step rfft and irfft are pocketfft's r2c and c2r, the calls that
    sfft.rfft(buf, axis=1) and sfft.irfft(spec, L, axis=1) end in, made
    directly: each step skips the public pair's dispatch (uarray, dtype and
    shape checks), about 3-4 us a call.  For one row at L = 1600, rfft takes
    8.0 us through scipy.fft and 5.2 us direct, irfft 9.1 and 5.4 us; a lone
    {0}-killed sp15 row's step takes 14.0 us at W = 512 and 22.6 us at
    W = 812, where it took 20.9 and 29.9 us (best of 7, 2-vCPU VM).
    tests/test_killed_walk.py::test_direct_transforms_match_scipy_fft pins
    the pair to the public one, bit for bit.

    law is one WalkLaw, whose kernel spectrum and dot weights every row
    shares and whose escape masses are floats, or a sequence of one WalkLaw
    per row: then the rows still take one rfft and one irfft, each times its
    own law's spectrum and dotted with its own weights, and the escape masses
    are per-row arrays.  Either way a row steps bit for bit as in a
    single-law batch, and as in any batch: run_kernel builds one stepper per
    unit (a row group, a half or a block of one), and may step them on two
    threads.
    """
    if isinstance(law, WalkLaw):
        p = law.pmf_window(W)
        esc_p, esc_m = law.escaped_split(W)
    else:
        p = np.array([row.pmf_window(W) for row in law])
        esc_p, esc_m = np.array([row.escaped_split(W) for row in law]).T
    # from full-window index i, mass p[j] lands below the window iff i + j < W and
    # above it iff i + j > 3W; on the last S sites, below them iff i' + j < W
    zeros = np.zeros(p.shape[:-1] + (W + 1,))
    w_below = np.concatenate([np.cumsum(p[..., :W], axis=-1)[..., ::-1], zeros], axis=-1)
    w_above = np.concatenate([zeros, np.cumsum(p[..., ::-1][..., :W], axis=-1)], axis=-1)
    spectra = {}  # S -> (FFT length, rfft of p, the dot weights on S sites)

    def step(states: np.ndarray):
        rows, S = states.shape
        if S not in spectra:
            nfft, buf = _fft_length(S, W), states.base
            if not (isinstance(buf, np.ndarray) and buf.shape == (rows, nfft) and buf.strides == states.strides
                    and buf.ctypes.data == states.ctypes.data):
                raise ValueError(f"states are not the first {S} columns of a ({rows}, {nfft}) buffer: see _state_buffer")
            spectra[S] = nfft, sfft.rfft(p, nfft), w_below[..., :S], w_above[..., -S:]
        nfft, pf, wb, wa = spectra[S]
        # one dot per row, as states @ w for one row: no ledger depends on the batch
        below, above = np.vecdot(states, wb), np.vecdot(states, wa)
        # sfft.rfft(buf, axis=1) and sfft.irfft(spec, nfft, axis=1): forward
        # unscaled, inverse scaled by 1/nfft (inorm 2), one thread
        spec = r2c(states.base, (1,), True, 0, None, 1)
        spec *= pf
        states[:] = c2r(spec, (1,), nfft, False, 2, None, 1)[:, W : W + S]
        return states, below, above

    return step, esc_p, esc_m


def _is_per_row(arg) -> bool:
    """Whether a killing set or keep argument is a list with one entry per row (sets, or step lists)."""
    return isinstance(arg, list) and any(not isinstance(a, (int, np.integer)) for a in arg)


def _unit(rows: list, lo: int, stepper: tuple, killing: list, starts: list, table: KernelTable):
    """Step rows of one killing kind, live sites [lo, W], through steps 0..n_max in one turn, one item per step.

    stepper is their (step, esc_p, esc_m).  The turn's working arrays are
    locals, made when it starts and freed when it ends: the _state_buffer,
    the Green sums and each step's raw reads (the alive mass before it, the
    below and above masses, the mass on the killed live sites).  Each step
    writes its kept values and Green sums into the table at these rows only,
    so two lanes never write the same element.  After the last step the
    rows' step_killed and escaped are formed from the raw reads: a half-line
    row also kills the mass pushed below its live sites, by overflow or by a
    jump past the window, which lands in B; any other mass that leaves the
    window escapes.  Each sum adds in the order of a per-step update and the
    cumulative sum in step order, so every ledger is bit for bit the one a
    step-by-step loop forms.
    """
    W, n_max = table.window, table.n_max
    step, esc_p, esc_m = stepper
    half_le = killing[rows[0]][0] == "le"
    # (local rows, index of their killed live sites) per killing set; no live site
    # is killed when b lies below the window, nor by the empty set
    if half_le:
        kills = [(slice(None), (slice(None), slice(0, max(killing[rows[0]][1] - lo + 1, 0))))]
    else:
        by_set = {}
        for j, i in enumerate(rows):
            by_set.setdefault(killing[i][1], []).append(j)
        kills = []
        for sites, local in by_set.items():
            cols = [z - lo for z in sites if abs(z) <= W]
            if cols:
                local = slice(None) if len(local) == len(rows) else np.array(local)
                # adjacent sites as a slice, a view where an index array would copy
                if cols[-1] - cols[0] == len(cols) - 1:
                    index = (local, slice(cols[0], cols[-1] + 1))
                else:
                    index = (local if isinstance(local, slice) else local[:, None], np.array(cols, dtype=np.int64))
                kills.append((local, index))
    # {n: (local rows kept at n, their places in values[n])}, read once per place map,
    # which the steps keeping the same rows share
    by_map, places = {}, {}
    for n, at in table.rows_at.items():
        if id(at) not in by_map:
            pairs = [(j, at[i]) for j, i in enumerate(rows) if i in at]
            by_map[id(at)] = tuple(np.array(v, dtype=np.int64) for v in zip(*pairs)) if pairs else None
        if by_map[id(at)] is not None:
            places[n] = by_map[id(at)]

    rows, off = np.array(rows, dtype=np.int64), lo + W
    states = _state_buffer(len(rows), W - lo + 1, W)
    states[np.arange(len(rows)), np.array([starts[i] for i in rows], dtype=np.int64) - lo] = 1.0
    green = states.copy() if table.green else None
    # step m's raw reads at [m]; step 0 reads nothing, so its ledgers are 0
    alive, below, above, killed = np.zeros((4, n_max + 1, len(rows)))
    for n in range(n_max + 1):
        if n:
            states.sum(axis=1, out=alive[n])
            states, below[n], above[n] = step(states)
            if green is not None:
                green += states  # before the kill: the killed live sites keep what entered them
            for local, index in kills:
                killed[n][local] = states[index].sum(axis=1)
                states[index] = 0.0
        if n in places:
            local, dest = places[n]
            table.values[n][dest, off:] = states[local]
        if n in table.green:
            table.green[n][rows, off:] = green
        yield
    jump_up, jump_dn = alive * esc_p, alive * esc_m
    if half_le:
        kill = killed + below + jump_dn
        gone = above + jump_up
    else:
        kill = killed
        gone = below + above + jump_up + jump_dn
    table.step_killed[rows] = kill.T
    table.escaped[rows] = np.cumsum(gone, axis=0).T


def _groups(killing: list, starts: list, W: int, entrance_depth: int) -> list:
    """(rows, lo) of each row group: the finite-set rows on the whole window, and the half-line rows by (b, lo).

    A row killed on (-inf, b] is zero on (-inf, b] after each kill, so it
    needs live sites there only for its entrance strip [b - depth, b] and
    its start x: lo = max(-W, min(b - depth, x)), the live sites of its
    single-start run.
    """
    by_kind = {}
    for i, b in enumerate(killing):
        half = b[0] == "le"
        lo = max(-W, min(b[1] - entrance_depth, starts[i])) if half else -W
        by_kind.setdefault((b if half else "set", lo), []).append(i)
    return [(rows, lo) for (_, lo), rows in by_kind.items()]


def _lanes(groups: list, W: int) -> list:
    """The units to step, as one lane, or as two when lanes.two_lanes says they pay; a lane is a list of (rows, lo).

    A group of more than _BLOCK_ROWS rows is cut into blocks of
    _BLOCK_ROWS rows, on one lane or two, so that a unit's working arrays
    do not grow with the batch.  For two lanes a smaller group of 4 or more
    rows splits into two halves at an even row (pocketfft steps rows in SIMD
    pairs), and the units go to the lighter lane, largest FFT work (rows x
    L) first.  A lane's load is its FFT points per step.
    """
    def work(unit):
        rows, lo = unit
        return len(rows) * _fft_length(W - lo + 1, W)

    one_lane, units = [], []
    for rows, lo in groups:
        blocks = [(rows[k : k + _BLOCK_ROWS], lo) for k in range(0, len(rows), _BLOCK_ROWS)]
        one_lane += blocks
        if len(blocks) == 1:
            cut = 2 * ((len(rows) + 2) // 4) if len(rows) >= 4 else len(rows)
            blocks = [(part, lo) for part in (rows[:cut], rows[cut:]) if part]
        units += blocks
    lanes, loads = ([], []), [0, 0]
    for unit in sorted(units, key=work, reverse=True):
        k = loads.index(min(loads))
        lanes[k].append(unit)
        loads[k] += work(unit)
    return list(lanes) if two_lanes(loads) else [one_lane]


def run_kernel(
    law: WalkLaw,
    B,
    starts,
    n_max: int,
    window: int | None = None,
    keep: list | None = None,
    entrance_depth: int = 0,
    escape_budget: float | None = None,
    dual_starts=(),
    keep_green=(),
) -> KernelTable:
    """Dynamic programming for p^n_B(x, .) from each start, with ledgers.

    B: ("le", b), ("set", sites), an iterable of sites, or None (no killing),
    for every row; or a list of killing sets (("le", b), ("set", sites), a
    tuple of sites or None), one per row.
    window: W, the half-width of [-W, W]; None selects default_window(law,
    n_max), and a W below 1 or a start outside [-W, W] raises WindowTooSmall.
    keep: steps n to store values for (default: all n <= n_max), or a list
    of such steps, one per row.
    keep_green: steps n to store the Green sums for (default: none).
    entrance_depth: for half-line 'le' killing, keep b, ..., b - entrance_depth
    live, so green holds the entrance law there, as on a finite set's sites.
    dual_starts: starts of further rows, stepped under law.reversed() in the
    same batch; the table's starts are starts then dual_starts, one per row.
    """
    dual_starts = [int(x) for x in dual_starts]
    starts = [int(x) for x in starts] + dual_starts
    ns = len(starts)
    W = default_window(law, n_max) if window is None else window
    if W < 1:
        raise WindowTooSmall(f"window {W} below 1")
    if any(abs(x) > W for x in starts):
        raise WindowTooSmall(f"start {max(starts, key=abs)} outside window {W}")
    per_row = _is_per_row(B)
    killing = [normalize_killing(b) for b in B] if per_row else normalize_killing(B)
    row_sets = killing if per_row else [killing] * ns
    if len(row_sets) != ns:
        raise ValueError("a killing set per row needs one for each of the rows")
    if entrance_depth and any(b[0] != "le" for b in row_sets):
        raise ValueError("entrance_depth needs half-line killing")
    if _is_per_row(keep):
        if len(keep) != ns:
            raise ValueError("a keep list per row needs one for each of the rows")
        kept = [set(k) for k in keep]
        rows_at = {n: tuple(i for i in range(ns) if n in kept[i]) for n in sorted(set().union(*kept))}
    else:
        rows_at = dict.fromkeys(range(n_max + 1) if keep is None else sorted(keep), tuple(range(ns)))
    # one row -> place map per set of kept rows, shared by every step that keeps them
    places = {rows: {i: k for k, i in enumerate(rows)} for rows in set(rows_at.values())}
    rows_at = {n: places[rows] for n, rows in rows_at.items() if 0 <= n <= n_max}
    table = KernelTable(killing=killing, window=W, n_max=n_max, starts=starts, rows_at=rows_at,
                        values={n: np.zeros((len(rows), 2 * W + 1)) for n, rows in rows_at.items()},
                        green={n: np.zeros((ns, 2 * W + 1)) for n in sorted(keep_green) if 0 <= n <= n_max},
                        step_killed=np.zeros((ns, n_max + 1)), escaped=np.zeros((ns, n_max + 1)))

    laws = [law] * (ns - len(dual_starts)) + ([law.reversed()] * len(dual_starts) if dual_starts else [])
    # each unit steps under its rows' one law, or one law per row, with a stepper built on this thread
    lanes = [[_unit(rows, lo, _fft_stepper(laws[rows[0]] if all(laws[i] is laws[rows[0]] for i in rows)
                                           else [laws[i] for i in rows], W), row_sets, starts, table)
              for rows, lo in lane]
             for lane in _lanes(_groups(row_sets, starts, W, entrance_depth), W)]
    run_lanes([(item for unit in lane for item in unit) for lane in lanes])
    if escape_budget is not None and table.escaped[:, n_max].max() > escape_budget:
        raise WindowTooSmall(
            f"escaped mass {table.escaped[:, n_max].max():.3e} above budget {escape_budget:.1e} at W={W}"
        )
    return table


# ---------------------------------------------------------------------------
# first passage
# ---------------------------------------------------------------------------


@dataclass
class FirstPassageLaw:
    f: np.ndarray            # f[n] = P[sigma = n]


def first_passage(
    law: WalkLaw, B, x: int, n_max: int, window: int | None = None
) -> FirstPassageLaw:
    """f^x_B(n) for n <= n_max from the kill ledger: `table --kind fp` and perfbench call it."""
    table = run_kernel(law, B, [x], n_max, window=window, keep=[n_max])
    return FirstPassageLaw(f=table.step_killed[0].copy())


# ---------------------------------------------------------------------------
# Fourier-inversion oracle for f^x(n), killing at the origin
# ---------------------------------------------------------------------------


def fourier_first_passage_batch(law: WalkLaw, xs, n: int) -> np.ndarray:
    """f^x(n) for several x at one n.

    The outer tau integral uses half-period panels of cos(n tau); the inner
    theta integral shares phi(theta) across the whole tau grid.  pi_y(tau) is
    formed for y = 0 and every -x at once, in blocks of _TAU_ROWS tau rows,
    so no (tau nodes, theta nodes) matrix is ever held whole: a lane forms
    each block's 1/D in place in its one (_TAU_ROWS, theta nodes) buffer.
    Each block writes its own rows of pi_y, so the blocks run on two lanes,
    lane k taking blocks k, k + 2, ..., when lanes.two_lanes passes each
    lane's smallest block (its tau x theta cells; lanes.alternate).  Every
    value is bit for bit that of one lane.
    """
    xs = [int(x) for x in xs]
    if n < 1:
        raise ValueError("n >= 1")
    # outer tau panels: pi/n length, with geometric refinement against the
    # |tau|^{1-1/alpha} cusp of 1/pi_0 at the origin
    tau, wtau, _, _ = gk_panels(panel_breaks(math.pi, n + 1, 33, math.pi / n))
    # inner theta panels: t0, 2 t0, ... up to pi, resolving the 1/(|tau| + theta^alpha) peak;
    # m counts the breaks t0 2^k <= pi exactly (t0 >= 1e-7 ends the count by k = 25)
    t0 = max(min(tau.min() ** (1.0 / law.spec.alpha) / 8.0, 0.05), 1e-7)
    m = next(k for k in range(64) if t0 * 2.0 ** k > math.pi)
    th, wth, _, _ = gk_panels(panel_breaks(math.pi, 2, m, t0 * 2.0 ** m))
    omc = law.one_minus_char(th)           # 1 - phi(theta), theta > 0
    omc_m = np.conj(omc)                   # 1 - phi(-theta)

    # D(tau, theta) = (1 - e^{i tau}) + e^{i tau} (1 - phi(theta)), and
    # pi_y(tau) = (1/2pi) int e^{-iy theta}/D dtheta  (split +-theta)
    eit = np.exp(1j * tau)
    om_t = omexp(tau)                                      # 1 - e^{i tau}
    ys = np.array([0] + [-x for x in xs], dtype=float)
    ph = np.exp(-1j * np.outer(th, ys)) * wth[:, None]     # e^{-iy theta} w
    ph_m = np.conj(ph)                                      # e^{+iy theta} w
    pi = np.empty((len(tau), len(ys)), dtype=complex)
    blocks = [slice(lo, min(lo + _TAU_ROWS, len(tau))) for lo in range(0, len(tau), _TAU_ROWS)]

    def lane(blocks):
        inv = np.empty((_TAU_ROWS, len(th)), dtype=complex)  # the lane's one (tau, theta) buffer
        for rows in blocks:
            d = inv[: rows.stop - rows.start]
            terms = []
            for c, w in ((omc, ph), (omc_m, ph_m)):
                # d = 1 / (om_t + eit c) in place, the bits of that expression
                np.multiply(eit[rows, None], c[None, :], out=d)
                d += om_t[rows, None]
                np.divide(1.0, d, out=d)
                terms.append(d @ w)
            pi[rows] = (terms[0] + terms[1]) / (2.0 * math.pi)
            yield

    run_lanes([lane(part) for part in alternate(blocks, lambda b: (b.stop - b.start) * len(th))])

    pi0 = pi[:, 0]
    cos_n = np.cos(n * tau)
    out = np.empty(len(xs))
    for j, x in enumerate(xs):
        f_hat = pi[:, j + 1] / pi0
        if x == 0:
            f_hat = f_hat - 1.0 / pi0
        out[j] = float((f_hat.real * cos_n) @ wtau) * 2.0 / math.pi
    return out


# ---------------------------------------------------------------------------
# ladder structure
# ---------------------------------------------------------------------------


@dataclass
class LadderTables:
    """Ladder-height pmfs and renewal functions.

    One two-row half-line batch of run_kernel, killed on (-inf, 0], gives
    all of them.  Row 0, the law from 1, enters (-inf, 0] at its first
    strict descending ladder height, and its Green sums are the renewal
    measure
        nu_as(y) = g_{(-inf,0]}(1, 1+y).
    Row 1, the reversed law from 0, enters (-inf, 0] at the mirror image of
    the first weak ascending ladder height, and after its first step it
    holds mu(z) = p(-z), z >= 1, so its Green sums are
        u_ds(y) = sum_m [mu Phat^m_{(-inf,0]}](y).
    Both pmfs are the rows' Green sums on the strip 0, -1, ..., -x_max.
    Each row is bit for bit the single-law run of its law, so the tables
    equal those of two separate half-line runs.
    Both Green sums get a power-tail extrapolation of the step truncation.
    """

    q_ds: np.ndarray          # strictly descending ladder height pmf, |Z| = 1..len
    q_ds_tail: float
    q_as_tail: float          # missing mass of the weakly ascending ladder height pmf
    V_as: np.ndarray          # cumulative: V_as[x] = sum_{y<=x} nu_as(y)
    U_ds: np.ndarray          # cumulative: U_ds[x] = 1 + sum_{y<=x} u_ds(y)
    green_tail_rel: float     # relative size of the extrapolated Green tail

    def mean_descending(self) -> float:
        ys = np.arange(1, len(self.q_ds) + 1, dtype=float)
        return float((ys * self.q_ds).sum() / max(self.q_ds.sum(), 1e-300))


def _ladder_pmf(table: KernelTable, row: int, n: int, depth: int) -> tuple[np.ndarray, float]:
    """A row's entrance law by depth by step n: its Green sums on 0..-depth less a start's unit; and the rest."""
    W = table.window
    q = table.green[n][row, W - depth : W + 1][::-1] - (np.arange(depth + 1) == -table.starts[row])
    tail = table.values[n][row].sum() + table.escaped[row, n] + table.killed[row, n] - q.sum()
    return q, float(tail)


def _green_sites(table: KernelTable, row: int, n_late: int, n: int, n_sites: int, alpha: float):
    """Green sums of a row at sites 1..n_sites over steps <= n, with power-tail extrapolation.

    Step contributions at a fixed site fall off like m^{-1-1/alpha} once
    m >> site^alpha, so the remainder beyond n is estimated from the steps
    after n_late = n/2: tail = late / (2^{1/alpha} - 1).
    """
    W = table.window
    sl = slice(W + 1, W + 1 + n_sites)
    green = table.green[n][row, sl]
    tail = (green - table.green[n_late][row, sl]) / (2.0 ** (1.0 / alpha) - 1.0)
    total = green + tail
    return total, float(tail.sum() / max(total.sum(), 1e-300))


def ladder_renewals(law: WalkLaw, x_max: int = 256) -> LadderTables:
    """Ladder-height pmfs and renewal functions from one two-row half-line DP.

    The Green sum at level y needs of order y^alpha steps before its tail
    enters the m^{-1-1/alpha} regime, so both rows take N = 4 * x_max^alpha
    steps (at least 8192), the reversed law's row one more.  Both rows live
    on [-x_max, W] and share one stepper call per step.
    """
    alpha = law.spec.alpha
    N = max(8192, int(4.0 * x_max ** alpha))
    half = N // 2
    W = default_window(law, N)

    # row 0, the law from 1: entering (-inf, 0] at depth d is a strict descent |Z| = d + 1
    # row 1, the reversed law from 0: entering at depth d is a weak ascent Z = d; its
    # state after step m + 1 is mu Phat^m, hence N + 1 steps for m <= N
    runs = run_kernel(
        law, HALF_LE_0, [1], N + 1, window=W, keep=[N, N + 1], entrance_depth=x_max, dual_starts=[0],
        keep_green=[half, half + 1, N, N + 1],
    )
    return _ladder_tables((runs, 0), (runs, 1), N, x_max, alpha)


def _ladder_tables(down: tuple, up: tuple, N: int, x_max: int, alpha: float) -> LadderTables:
    """LadderTables from the (table, row) of the law's run from 1 and of the reversed law's from 0."""
    half = N // 2
    q_ds, q_ds_tail = _ladder_pmf(*down, N, x_max)
    _, q_as_tail = _ladder_pmf(*up, N, x_max)
    if max(q_ds_tail, q_as_tail) > _LADDER_TAIL_BUDGET:
        raise TruncationTooCoarse(
            f"ladder pmf truncation tails ({q_ds_tail:.3f}, {q_as_tail:.3f}) above {_LADDER_TAIL_BUDGET}"
        )

    nu_as, rel1 = _green_sites(*down, half, N, x_max + 1, alpha)
    u_ds, rel2 = _green_sites(*up, half + 1, N + 1, x_max, alpha)
    V_as = np.cumsum(nu_as)
    U_ds = 1.0 + np.concatenate([[0.0], np.cumsum(u_ds)])
    return LadderTables(q_ds=q_ds, q_ds_tail=q_ds_tail, q_as_tail=q_as_tail, V_as=V_as, U_ds=U_ds,
                        green_tail_rel=max(rel1, rel2))


# ---------------------------------------------------------------------------
# scaled half-line kernel estimate of K_t(eta)
# ---------------------------------------------------------------------------


def k_starts(law: WalkLaw, n: int) -> list:
    """k_estimate's two half-line starts at n: x1 = max(1, round(n^{1/alpha}/32)) and 2 x1."""
    x1 = max(1, int(round(n ** (1.0 / law.spec.alpha) / 32.0)))
    return [x1, 2 * x1]


def k_estimate(law: WalkLaw, runs, ys, n: int) -> tuple[np.ndarray, np.ndarray]:
    """K_{c_circ}(y n^{-1/alpha}) ~ n^{1/alpha} p^n_{(-inf,0]}(x, y) / x_n at lattice sites y.

    runs are the half-line DPs from the two k_starts(law, n), each {m: row
    slice at step m} with the slice's .slice over [-W, W] and its .window W.
    Returns the estimates averaged over the two starts and their relative
    spreads.
    """
    ys = np.asarray(ys, dtype=int)
    if ys.min() < 1:
        raise ResolutionTooCoarse(f"site y = {ys.min()} < 1")
    scale = n ** (1.0 / law.spec.alpha)
    vals = [scale * run[n].slice[ys + run[n].window] / (x / scale) for x, run in zip(k_starts(law, n), runs)]
    est = 0.5 * (vals[0] + vals[1])
    spread = np.abs(vals[0] - vals[1]) / np.maximum(np.abs(est), 1e-300)
    return est, spread
