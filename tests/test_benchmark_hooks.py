"""The package names the benchmark tracer (perfbench/tracer.py) wraps must exist.

A rename then fails here instead of crashing a traced benchmark run.  The
tracer module is only loaded, never installed.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# hooks the tracer patches besides its SPANS table
EXTRA_HOOKS = (
    ("killed_walk", "_fft_stepper"),
    ("killed_walk", "KernelTable.__init__"),
    ("montecarlo", "IncrementSampler.sample"),
    ("cli", "_registry"),
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


def test_run_kernel_takes_the_traced_arguments():
    from stablewalk.killed_walk import run_kernel

    params = inspect.signature(run_kernel).parameters
    assert {"law", "keep", "entrance_depth", "escape_budget"} <= set(params)
