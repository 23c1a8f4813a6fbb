"""The package exports nothing it does not use.

Parses ``src/stablewalk/*.py`` with ``ast`` and fails on a module-level
import the module never reads, on a public top-level function or class
that nothing in ``src/`` or ``perfbench/*.py`` references outside its own
definition, on a defaulted parameter no call there ever passes, and on a
class field nothing in ``src/``, ``perfbench/`` or ``tests/`` reads.  Code
only tests need belongs in a ``tests/`` oracle module; a setting no caller
changes is a module constant.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "stablewalk").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# public names with no caller in src/ or perfbench/, each kept for a reason
ALLOWED = {
    ("errors", "DegenerateDenominator"): "raised by the two-point hitting oracle in tests/",
    ("montecarlo", "estimate_conditional_escape"): "the Monte Carlo leg of the three-oracle rule",
}

# defaulted parameters no call in src/ or perfbench/ passes, each kept for a reason
ALLOWED_UNSET = {
    ("killed_walk", "run_kernel.escape_budget"): "the tracer binds it, and ROADMAP item 4 turns on a default",
    ("asymptotics", "rhs_thm2_small.prefactor"): "tests check the finite-set form through it",
}

# class fields nothing reads, each kept for a reason
ALLOWED_UNREAD = {
    ("montecarlo", "SimConfig.n_horizon"): "perfbench/workload.py passes it",
    ("stable_numerics", "ConstantsTable.p1_zero"): "written to constants.json through as_dict",
}


def _names(tree, strings: bool = False) -> Counter:
    """Identifiers read in tree: names, attributes, imported names (and string constants)."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            seen.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            # the tracer names what it wraps as "name" or "Class.method"
            seen[node.value.split(".")[0]] += 1
    return seen


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _dunder_all(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_module_imports():
    unused = []
    for path in SRC:
        tree = _parse(path)
        imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        read = Counter()
        for node in tree.body:
            if node not in imports:
                read.update(_names(node))
        exported = _dunder_all(tree) if path.name == "__init__.py" else set()
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not read[bound] and bound not in exported:
                    unused.append(f"{path.stem}: {alias.name}")
    assert not unused, f"module-level imports never used: {unused}"


def test_every_public_name_has_a_caller():
    trees = {path: _parse(path) for path in SRC}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_names(tree))
    for path in PERFBENCH:
        everywhere.update(_names(_parse(path), strings=True))
    orphans = set()
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if everywhere[node.name] <= _names(node)[node.name]:
                    orphans.add((path.stem, node.name))
    unlisted = sorted(f"{m}.{name}" for m, name in orphans - set(ALLOWED))
    assert not unlisted, f"public names nothing in src/ or perfbench/ uses: {unlisted}"
    # an allowlisted name that gained a caller (or was removed) leaves the list
    assert set(ALLOWED) <= orphans


def _public_defaults(path: Path, tree):
    """(module, "func.param", callee name, positional index or None) per defaulted parameter.

    Covers public functions, public methods and __init__ (called by its class
    name); the index of a method parameter does not count self.
    """
    for cls in [None] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for fn in (tree.body if cls is None else cls.body):
            if not isinstance(fn, ast.FunctionDef) or (fn.name.startswith("_") and fn.name != "__init__"):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            shift = 1 if cls is not None and not static else 0
            callee = cls.name if fn.name == "__init__" else fn.name
            qual = fn.name if cls is None else f"{cls.name}.{fn.name}"
            pos = fn.args.posonlyargs + fn.args.args
            for i in range(len(pos) - len(fn.args.defaults), len(pos)):
                yield path.stem, f"{qual}.{pos[i].arg}", callee, i - shift
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield path.stem, f"{qual}.{arg.arg}", callee, None


def test_every_defaulted_parameter_is_passed():
    """A default that no caller overrides is a constant, not a parameter."""
    passed = set()  # (callee name, keyword) and (callee name, positional index)
    for path in SRC + PERFBENCH:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update((name, kw.arg) for kw in node.keywords)
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.add((name, i))
    unset = set()
    for path in SRC:
        for module, param, callee, index in _public_defaults(path, _parse(path)):
            if (callee, param.rpartition(".")[2]) not in passed and (callee, index) not in passed:
                unset.add((module, param))
    unlisted = sorted(f"{m}.{p}" for m, p in unset - set(ALLOWED_UNSET))
    assert not unlisted, f"defaulted parameters no call in src/ or perfbench/ passes: {unlisted}"
    # an allowlisted parameter that gained a caller (or was removed) leaves the list
    assert set(ALLOWED_UNSET) <= unset


def test_every_class_field_is_read():
    """Each annotated class field in src/ is read in src/, perfbench/ or tests/.

    A read is an attribute load that is not a call, or a tracer name string
    "Class.field".  Reads are matched by name, so a name two classes share
    counts as read for both.
    """
    read = Counter()
    for path in SRC + PERFBENCH + TESTS:
        tree = _parse(path)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in called:
                read[node.attr] += 1
            elif path in PERFBENCH and isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "." in node.value:
                    read[node.value.rpartition(".")[2]] += 1
    unread = set()
    for path in SRC:
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        if not read[node.target.id]:
                            unread.add((path.stem, f"{cls.name}.{node.target.id}"))
    unlisted = sorted(f"{m}.{f}" for m, f in unread - set(ALLOWED_UNREAD))
    assert not unlisted, f"class fields nothing reads: {unlisted}"
    # an allowlisted field that gained a reader (or was removed) leaves the list
    assert set(ALLOWED_UNREAD) <= unread
