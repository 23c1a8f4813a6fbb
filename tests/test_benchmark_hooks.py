"""The package names the benchmark (perfbench/) wraps and calls must exist.

A rename then fails here instead of crashing a benchmark run.  The tracer
module is only loaded, never installed; the workload module is only parsed.
"""
import ast
import importlib
import importlib.util
import inspect
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
    missing = [f"{m}.{a}" for m, a in wanted if not hasattr(importlib.import_module(m), a)]
    assert not missing


def test_workload_attributes_exist():
    missing = [
        f"{m}.{c}.{a}"
        for m, c, a in WORKLOAD_ATTRS
        if not hasattr(getattr(importlib.import_module(f"stablewalk.{m}"), c), a)
    ]
    assert not missing


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
