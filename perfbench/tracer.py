"""Span tracer for the stablewalk layers, installed from outside the package.

`Tracer.install()` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent) per call.  Modules bind each
other's functions with ``from ... import``, so a wrapper is written into every
stablewalk module attribute that holds the original function, not only into
the defining module; `unreached()` lists any binding that still holds an
original.  Spans stay in memory until `metrics()` folds them into per-layer
numbers.  A span's layer is the text of its name before the first dot, and
its self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "walk_model",
    "stable_numerics",
    "potential_theory",
    "killed_walk",
    "montecarlo",
    "asymptotics",
    "cli",
    "cache",
    "special",
)

# (module, attribute) -> span name; methods are given as "Class.method"
SPANS = {
    ("walk_model", "build_walk_law"): "walk_model.build_walk_law",
    ("walk_model", "WalkLaw.one_minus_char"): "walk_model.one_minus_char",
    ("walk_model", "WalkLaw.from_json"): "walk_model.from_json",
    ("stable_numerics", "density_grid"): "stable_numerics.density_grid",
    ("stable_numerics", "density_series_far"): "stable_numerics.density_series_far",
    ("stable_numerics", "hitting_density"): "stable_numerics.hitting_density",
    ("stable_numerics", "constants"): "stable_numerics.constants",
    ("stable_numerics", "density_at_zero"): "stable_numerics.density_at_zero",
    ("potential_theory", "potential_a_grid"): "potential_theory.potential_a_grid",
    ("potential_theory", "PotentialTable.fill"): "potential_theory.PotentialTable.fill",
    ("potential_theory", "FiniteSetPotential.__init__"): "potential_theory.FiniteSetPotential.init",
    ("potential_theory", "FiniteSetPotential.u"): "potential_theory.FiniteSetPotential.u",
    ("potential_theory", "c_plus"): "potential_theory.c_plus",
    ("killed_walk", "run_kernel"): "killed_walk.run_kernel",
    ("killed_walk", "first_passage"): "killed_walk.first_passage",
    ("killed_walk", "fourier_first_passage_batch"): "killed_walk.fourier_first_passage_batch",
    ("killed_walk", "ladder_renewals"): "killed_walk.ladder_renewals",
    ("killed_walk", "k_estimate"): "killed_walk.k_estimate",
    ("montecarlo", "estimate_first_passage"): "montecarlo.estimate_first_passage",
    ("asymptotics", "LawContext.build"): "asymptotics.LawContext.build",
    ("cli", "main"): "cli.main",
    ("cache", "load"): "cache.load",
    ("cache", "store"): "cache.store",
    ("special", "omexp"): "special.omexp",
}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stablewalk" or name.startswith("stablewalk."))]


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self._stack = []
        self._originals = []
        self.counts = defaultdict(int)
        # W -> [single-start steps, seconds]; a step of a batch of k starts counts k
        self.step_time = defaultdict(lambda: [0, 0.0])
        self._kernel_keys = set()

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _rebind(self, orig, new) -> None:
        self._originals.append(orig)
        for mod in _modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    def _patch(self, module, attr, new_for):
        if "." in attr:
            cls = getattr(module, attr.split(".")[0])
            meth = attr.split(".")[1]
            orig = cls.__dict__[meth]
            if isinstance(orig, (classmethod, staticmethod)):
                self._originals.append(orig.__func__)
                setattr(cls, meth, type(orig)(new_for(orig.__func__)))
            else:
                self._originals.append(orig)
                setattr(cls, meth, new_for(orig))
        else:
            orig = getattr(module, attr)
            self._rebind(orig, new_for(orig))

    def install(self) -> None:
        import stablewalk.cli  # noqa: F401  (imports every layer but montecarlo)
        import stablewalk.montecarlo  # noqa: F401

        mods = {m.__name__.split(".")[-1]: m for m in _modules()}
        after = {
            "killed_walk.run_kernel": self._after_run_kernel,
            "potential_theory.potential_a_grid": self._count_points("potential_theory.potential_a_grid"),
            "stable_numerics.density_grid": self._count_points("stable_numerics.density_grid"),
            "cache.load": self._after_load,
            "cache.store": self._after_store,
        }
        for (mod, attr), name in SPANS.items():
            self._patch(mods[mod], attr, lambda fn, name=name: self.wrap(name, fn, after.get(name)))

        kw = mods["killed_walk"]
        self._patch(kw, "_fft_stepper", self._timed_stepper)
        self._patch(kw, "KernelTable.__init__", self._counted_init)
        self._patch(mods["montecarlo"], "IncrementSampler.sample", self._counted_sample)
        self._patch(mods["cli"], "_registry", self._traced_registry)
        self._cache_dir = mods["cache"].cache_dir
        self._run_kernel_sig = inspect.signature(kw.run_kernel.__wrapped__)

    def reset(self) -> None:
        """Drop what was recorded so far (set-up), keeping the wrappers."""
        self.spans.clear()
        self.counts.clear()
        self.step_time.clear()
        self._kernel_keys.clear()

    def unreached(self) -> list:
        """Module attributes that still hold an unwrapped original."""
        ids = {id(o) for o in self._originals}
        return [f"{m.__name__}.{a}" for m in _modules() for a, v in vars(m).items() if id(v) in ids]

    # -- counters ----------------------------------------------------------

    def _after_run_kernel(self, args, kwargs, table):
        bound = self._run_kernel_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        key = (a["law"].law_hash(), str(table.killing), tuple(table.starts), table.n_max,
               table.window, None if a["keep"] is None else tuple(a["keep"]),
               a["entrance_depth"], a["escape_budget"])
        c = self.counts
        c["run_kernel.dup_calls"] += key in self._kernel_keys
        self._kernel_keys.add(key)
        steps = table.n_max * len(table.starts)
        c["run_kernel.steps"] += steps
        c["run_kernel.cells"] += steps * (2 * table.window + 1)

    def _count_points(self, name):
        def after(args, kwargs, result):
            # potential_a_grid returns the values, density_grid (values, errors)
            self.counts[name + ".points"] += len(result[0] if isinstance(result, tuple) else result)
        return after

    def _after_load(self, args, kwargs, result):
        if self._cache_dir() is not None:     # with no cache directory, load is a bypass
            self.counts["cache.hits" if result is not None else "cache.misses"] += 1

    def _after_store(self, args, kwargs, result):
        root = self._cache_dir()
        if root is not None:
            path = Path(root) / f"{args[0]}.npz"
            if path.exists():
                self.counts["cache.bytes_written"] += path.stat().st_size

    def _timed_stepper(self, orig):
        step_time = self.step_time

        @functools.wraps(orig)
        def stepper(law, W):
            step, esc_p, esc_m = orig(law, W)
            acc = step_time[W]

            def timed_step(states):
                t = time.perf_counter()
                out = step(states)
                acc[1] += time.perf_counter() - t
                acc[0] += len(states)
                return out

            return timed_step, esc_p, esc_m

        return stepper

    def _counted_init(self, orig):
        counts = self.counts

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            counts["kernel_tables_built"] += 1
            orig(obj, *args, **kwargs)

        return init

    def _counted_sample(self, orig):
        counts = self.counts

        @functools.wraps(orig)
        def sample(obj, rng, n):
            counts["montecarlo.path_steps"] += n
            return orig(obj, rng, n)

        return sample

    def _traced_registry(self, orig):
        @functools.wraps(orig)
        def registry(*args, **kwargs):
            reg = orig(*args, **kwargs)
            return {tid: self.wrap(f"asymptotics.{tid}", fn) for tid, fn in reg.items()}

        return registry

    # -- folding -----------------------------------------------------------

    def metrics(self, wall_s: float, theorem_ids=()) -> dict:
        """Per-layer metrics of the spans recorded so far; wall_s is the traced body."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_by_name = defaultdict(float)
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        top = 0.0
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            self_by_name[name] += dur - child[i]
            self_by_layer[name.split(".")[0]] += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:          # outermost span of this name
                incl[name] += dur
            if parent < 0:
                top += dur
        c = self.counts
        m = {}
        m["walk_model.one_minus_char.calls"] = calls["walk_model.one_minus_char"]
        m["walk_model.one_minus_char.s"] = incl["walk_model.one_minus_char"]
        rk = "killed_walk.run_kernel"
        m[f"{rk}.calls"] = calls[rk]
        m[f"{rk}.dup_calls"] = c["run_kernel.dup_calls"]
        m[f"{rk}.steps"] = c["run_kernel.steps"]
        m[f"{rk}.cells"] = c["run_kernel.cells"]
        m[f"{rk}.self_s"] = self_by_name[rk]
        m[f"{rk}.us_per_cell"] = 1e6 * self_by_name[rk] / c["run_kernel.cells"] if c["run_kernel.cells"] else 0.0
        m["killed_walk.kernel_tables_built"] = c["kernel_tables_built"]
        m["killed_walk.step_us"] = {W: 1e6 * s / n for W, (n, s) in sorted(self.step_time.items()) if n}
        m["killed_walk.steps"] = {W: n for W, (n, s) in sorted(self.step_time.items())}
        for name in ("ladder_renewals", "fourier_first_passage_batch", "k_estimate"):
            m[f"killed_walk.{name}.s"] = incl[f"killed_walk.{name}"]
        m["killed_walk.first_passage.calls"] = calls["killed_walk.first_passage"]
        pa = "potential_theory.potential_a_grid"
        m[f"{pa}.calls"] = calls[pa]
        m[f"{pa}.points"] = c[f"{pa}.points"]
        m[f"{pa}.s"] = incl[pa]
        m[f"{pa}.us_per_point"] = 1e6 * incl[pa] / c[f"{pa}.points"] if c[f"{pa}.points"] else 0.0
        m["special.omexp.s"] = incl["special.omexp"]
        fu = "potential_theory.FiniteSetPotential.u"
        m[f"{fu}.calls"] = calls[fu]
        m[f"{fu}.s"] = incl[fu]
        dg = "stable_numerics.density_grid"
        m[f"{dg}.calls"] = calls[dg]
        m[f"{dg}.points"] = c[f"{dg}.points"]
        m[f"{dg}.s"] = incl[dg]
        hd = "stable_numerics.hitting_density"
        m[f"{hd}.calls"] = calls[hd]
        m[f"{hd}.s"] = incl[hd]
        mc = "montecarlo.estimate_first_passage"
        m[f"{mc}.s"] = incl[mc]
        m["montecarlo.path_steps_per_s"] = c["montecarlo.path_steps"] / incl[mc] if incl[mc] else 0.0
        m["asymptotics.LawContext.build.calls"] = calls["asymptotics.LawContext.build"]
        for tid in theorem_ids:
            m[f"asymptotics.{tid}.s"] = incl[f"asymptotics.{tid}"]
        m["cache.hits"] = c["cache.hits"]
        m["cache.misses"] = c["cache.misses"]
        m["cache.load_s"] = incl["cache.load"]
        m["cache.store_s"] = incl["cache.store"]
        m["cache.bytes_written"] = c["cache.bytes_written"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        m["trace.spans"] = len(spans)
        m["trace.wall_s"] = wall_s
        m["trace.unaccounted_s"] = wall_s - top
        return m
