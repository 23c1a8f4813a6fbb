"""The package names the benchmark (perfbench/) wraps and calls must exist.

A rename then fails here instead of crashing a benchmark run.  The tracer
module is loaded, and installed only in a subprocess, whose patched modules
die with it; the workload module is only parsed.
"""
import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOAD = PERFBENCH / "workload.py"

# hooks the tracer patches besides its SPANS table
EXTRA_HOOKS = (
    ("killed_walk", "_fft_stepper"),
    ("killed_walk", "KernelTable.__init__"),
    ("montecarlo", "IncrementSampler.sample"),
    ("cli", "_registry"),
)

# attributes the workload body reads off the objects it gets back
WORKLOAD_ATTRS = (
    ("killed_walk", "KernelTable", "killed"),
    ("killed_walk", "KernelTable", "conservation_defect"),
    ("potential_theory", "PotentialTable", "to_csv"),
    ("potential_theory", "FiniteSetPotential", "u"),
)


def _tracer_spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def _attr(module: str, name: str):
    """module.name, importing it first when it is a submodule not imported yet; None if absent."""
    mod = importlib.import_module(module)
    if not hasattr(mod, name) and importlib.util.find_spec(f"{module}.{name}") is not None:
        importlib.import_module(f"{module}.{name}")
    return getattr(mod, name, None)


def _resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(f"stablewalk.{module}")
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        # the tracer patches methods through the class __dict__
        cls = getattr(obj, cls_name, None)
        return isinstance(cls, type) and name in cls.__dict__
    return callable(getattr(obj, name, None))


def test_tracer_hooks_resolve():
    hooks = list(_tracer_spans()) + list(EXTRA_HOOKS)
    missing = [f"{m}.{a}" for m, a in hooks if not _resolves(m, a)]
    assert not missing


def test_workload_imports_resolve():
    """Every `from stablewalk... import name` and `stablewalk.name` in the workload exists."""
    tree = ast.parse(WORKLOAD.read_text())
    wanted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stablewalk":
            wanted += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "stablewalk":
            wanted.append(("stablewalk", node.attr))
    assert len(wanted) > 5
    missing = [f"{m}.{a}" for m, a in wanted if _attr(m, a) is None]
    assert not missing


def test_workload_attributes_exist():
    missing = [
        f"{m}.{c}.{a}"
        for m, c, a in WORKLOAD_ATTRS
        if not hasattr(getattr(importlib.import_module(f"stablewalk.{m}"), c), a)
    ]
    assert not missing


def _workload_callees(tree) -> dict:
    """Local name in the workload -> the stablewalk object it is bound to."""
    bound = {"stablewalk": importlib.import_module("stablewalk")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stablewalk":
            for alias in node.names:
                bound[alias.asname or alias.name] = _attr(node.module, alias.name)
    return bound


def _callee(func, bound):
    """The stablewalk object a call's func names (name or stablewalk.name / module.name), or None."""
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and inspect.ismodule(bound.get(func.value.id)):
        return getattr(bound[func.value.id], func.attr, None)
    return None


def test_workload_calls_bind_to_signatures():
    """Each call the workload makes into stablewalk binds to the callee's signature.

    A keyword or positional argument the package no longer takes then fails
    here, not in a benchmark run.
    """
    tree = ast.parse(WORKLOAD.read_text())
    bound = _workload_callees(tree)
    checked, unbound = [], []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _callee(node.func, bound)
        if target is None or inspect.ismodule(target):
            continue
        args = [None] * len(node.args)
        kwargs = {kw.arg: None for kw in node.keywords}
        assert not any(isinstance(a, ast.Starred) for a in node.args) and None not in kwargs
        try:
            inspect.signature(target).bind(*args, **kwargs)
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
        checked.append(ast.unparse(node.func))
    assert not unbound
    assert {"SimConfig", "run_kernel", "estimate_first_passage", "cli.main", "stablewalk.TailSpec"} <= set(checked)


def test_run_kernel_takes_the_traced_arguments():
    from stablewalk.killed_walk import run_kernel

    params = inspect.signature(run_kernel).parameters
    assert {"law", "keep", "entrance_depth", "escape_budget"} <= set(params)


def test_potential_a_grid_returns_one_window(sym15):
    """The tracer counts a(x) points as len(result): one 1-D float array over [-X, X]."""
    from stablewalk.potential_theory import potential_a_grid

    out = potential_a_grid(sym15, 8)
    assert isinstance(out, np.ndarray) and out.ndim == 1 and out.dtype == np.float64
    assert len(out) == 17


def test_fft_stepper_keeps_the_call_shape_the_tracer_wraps(sym15):
    """The tracer wraps _fft_stepper as stepper(law, W) -> (step, esc_p, esc_m) and step as timed_step(states).

    The live sites are read from states.shape[1], so one argument serves the
    whole window and the half window of a half-line run.
    """
    from stablewalk.killed_walk import _fft_stepper, _state_buffer

    W = 64
    inspect.signature(_fft_stepper).bind(sym15, W)
    step, esc_p, esc_m = _fft_stepper(sym15, W)
    assert isinstance(esc_p, float) and isinstance(esc_m, float)
    assert len(inspect.signature(step).parameters) == 1
    for S in (2 * W + 1, W + 1):
        states = _state_buffer(2, S, W)
        states[:, -1] = 1.0
        inside, below, above = step(states)
        assert inside.shape == (2, S) and below.shape == (2,) and above.shape == (2,)


_TRACED_DUAL_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
tracer.install()
from stablewalk import Family, TailSpec, build_walk_law, killed_walk
law = build_walk_law(TailSpec(alpha=1.5, family=Family("two_sided_pareto"), B=0.4, q_plus=0.7, q_minus=0.3))
tracer.reset()
table = killed_walk.run_kernel(law, killed_walk.HALF_LE_0, [1, 3], 32, window=64, dual_starts=[0])
m = tracer.metrics(1.0)
print(json.dumps({"rows": len(table.starts), "calls": m["killed_walk.run_kernel.calls"],
                  "steps": m["killed_walk.run_kernel.steps"], "stepped": m["killed_walk.steps"],
                  "step_us": m["killed_walk.step_us"]}))
"""


def test_tracer_counts_a_dual_row_run():
    """The installed tracer wraps a run_kernel batch with rows of law and of law.reversed().

    It binds run_kernel's signature, hashes the one law it is given and wraps
    _fft_stepper as stepper(law, W), so a batch whose stepper takes one law
    per row must pass through all three and be counted row by row.
    """
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    env.pop("STABLEWALK_CACHE", None)
    out = subprocess.run([sys.executable, "-c", _TRACED_DUAL_RUN, str(TRACER)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["rows"] == 3 and got["calls"] == 1
    assert got["steps"] == 3 * 32
    assert got["stepped"] == {"64": 3 * 32}
    assert set(got["step_us"]) == {"64"} and got["step_us"]["64"] > 0


_TRACED_SPLIT_RUN = """
import ast, hashlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
tracer.install()
from stablewalk import Family, TailSpec, build_walk_law, killed_walk, lanes
lanes._cpus = lambda: 2
lanes_used = []
run_lanes = killed_walk.run_lanes
killed_walk.run_lanes = lambda parts: lanes_used.append(len(parts)) or run_lanes(parts)
law = build_walk_law(TailSpec(alpha=1.5, family=Family("two_sided_pareto"), B=0.5))
B, starts, kwargs = ast.literal_eval(sys.argv[2])
tracer.reset()
table = killed_walk.run_kernel(law, B, starts, 8, **kwargs)
m = tracer.metrics(1.0)
parts = [table.values[n] for n in sorted(table.values)] + [table.step_killed, table.escaped]
print(json.dumps({"rows": len(table.starts), "lanes": lanes_used, "calls": m["killed_walk.run_kernel.calls"],
                  "tables": m["killed_walk.kernel_tables_built"], "unreached": tracer.unreached(),
                  "stepped": list(m["killed_walk.steps"]),
                  "sha256": hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()}))
"""

# (B, starts, keywords) of a batch in the form LawContext._run passes it: one
# killing set and one sorted tuple of kept steps per row
_SPLIT_BATCH = ([("set", (0,)), ("set", (-1, 0, 2))] * 3 + [("set", (0,)), ("le", 0)], [3, -2, 5],
                {"window": 1024, "keep": [(8,), (4, 8), (8,), (2, 8), (8,), (1, 2, 4, 8), (8,), (4, 8)],
                 "dual_starts": [0, 1, -1, 4, 2]})


def test_traced_split_batch_builds_one_table():
    """A batch stepped on two lanes is one run_kernel call and one KernelTable under the tracer.

    The benchmark's traced run requires run_kernel.calls == kernel_tables_built,
    so the lanes fill the one table's arrays; their steppers are built on the
    calling thread through the wrapped _fft_stepper.  The batch passes a
    killing set and a tuple of kept steps per row, as LawContext._run does;
    the tracer binds and hashes them, and the table has the bytes of the
    untraced call.
    """
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    env.pop("STABLEWALK_CACHE", None)
    out = subprocess.run([sys.executable, "-c", _TRACED_SPLIT_RUN, str(TRACER), repr(_SPLIT_BATCH)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["rows"] == 8 and got["lanes"] == [2]
    assert got["calls"] == got["tables"] == 1
    assert got["unreached"] == [] and got["stepped"] == [1024]
    from stablewalk import Family, TailSpec, build_walk_law, killed_walk

    B, starts, kwargs = _SPLIT_BATCH
    law = build_walk_law(TailSpec(alpha=1.5, family=Family("two_sided_pareto"), B=0.5))
    table = killed_walk.run_kernel(law, B, starts, 8, **kwargs)
    parts = [table.values[n] for n in sorted(table.values)] + [table.step_killed, table.escaped]
    assert got["sha256"] == hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


_TRACED_BLOCKED_RUN = """
import hashlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
tracer.install()
from stablewalk import Family, TailSpec, build_walk_law, killed_walk, lanes
lanes._cpus = lambda: int(sys.argv[2])
lanes_used = []
run_lanes = killed_walk.run_lanes
killed_walk.run_lanes = lambda parts: lanes_used.append(len(parts)) or run_lanes(parts)
law = build_walk_law(TailSpec(alpha=1.5, family=Family("bounded_potential"), B=0.25))
rows = 2 * killed_walk._BLOCK_ROWS + 3
tracer.reset()
table = killed_walk.run_kernel(law, ("set", (0,)), range(-(rows // 2), rows - rows // 2), 12, window=256, keep=[12])
m = tracer.metrics(1.0)
digest = hashlib.sha256(b"".join(a.tobytes() for a in (table.values[12], table.step_killed, table.escaped)))
print(json.dumps({"rows": len(table.starts), "lanes": lanes_used, "calls": m["killed_walk.run_kernel.calls"],
                  "tables": m["killed_walk.kernel_tables_built"], "unreached": tracer.unreached(),
                  "stepped": m["killed_walk.steps"], "sha256": digest.hexdigest()}))
"""


def test_traced_blocked_batch_builds_one_table():
    """A batch of more than _BLOCK_ROWS rows, stepped block by block, is one run_kernel call and one KernelTable under the tracer.

    The benchmark's traced run requires run_kernel.calls == kernel_tables_built.
    Every row's steps pass through the wrapped steppers, and the table has
    the same bytes on two lanes as on one.
    """
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    env.pop("STABLEWALK_CACHE", None)
    got = []
    for cpus in (1, 2):
        out = subprocess.run([sys.executable, "-c", _TRACED_BLOCKED_RUN, str(TRACER), str(cpus)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        got.append(json.loads(out.stdout.splitlines()[-1]))
    for cpus, run in zip((1, 2), got):
        assert run["rows"] == 131 and run["lanes"] == [cpus]
        assert run["calls"] == run["tables"] == 1
        assert run["unreached"] == [] and run["stepped"] == {"256": 131 * 12}
    assert got[0]["sha256"] == got[1]["sha256"]


def test_increment_sampler_takes_the_counted_arguments(sym15, monkeypatch):
    """The tracer wraps IncrementSampler.sample as sample(obj, rng, n) and counts n as path-steps.

    So the estimators must draw n for exactly the live paths of each step:
    summed over the steps, that is the trials alive before each one.
    """
    from stablewalk import montecarlo

    assert list(inspect.signature(montecarlo.IncrementSampler.sample).parameters) == ["self", "rng", "n"]
    orig = montecarlo.IncrementSampler.sample
    drawn = []

    def sample(obj, rng, n):
        drawn.append(n)
        return orig(obj, rng, n)

    monkeypatch.setattr(montecarlo.IncrementSampler, "sample", sample)
    monkeypatch.setattr(montecarlo, "_STREAMS", 2)
    cfg = montecarlo.SimConfig(trials=5000, n_horizon=12, seed=3)
    est = montecarlo.estimate_first_passage(sym15, 1, range(1, 13), cfg)
    alive = [cfg.trials] + [round(est["survival"][n].point * cfg.trials) for n in range(1, 12)]
    assert sum(drawn) == sum(alive) < 12 * cfg.trials
