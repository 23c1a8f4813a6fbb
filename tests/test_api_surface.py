"""The package exports nothing it does not use.

Parses ``src/stablewalk/*.py`` with ``ast`` and fails on a module-level
import the module never reads, on a public top-level function or class
that nothing in ``src/`` or ``perfbench/*.py`` references outside its own
definition, on a defaulted parameter no call there passes from outside the
function's own body, on a public method nothing there calls from outside
its own body, and on a class field nothing there reads.  Reads and calls in
``tests/`` do not count: code only tests need belongs in a ``tests/``
oracle module, and a setting no caller changes is a module constant.
"""
import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "stablewalk").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# public names with no caller in src/ or perfbench/, each kept for a reason
ALLOWED = {
    ("montecarlo", "estimate_conditional_escape"): "the Monte Carlo leg of the three-oracle rule",
}

# defaulted parameters no call in src/ or perfbench/ passes, each kept for a reason
ALLOWED_UNSET = {
    ("killed_walk", "run_kernel.escape_budget"): "the tracer binds it, and ROADMAP item 8 turns on a default",
}

# public methods no call in src/ or perfbench/ reaches, each kept for a reason
ALLOWED_UNCALLED = {}

# class fields nothing in src/ or perfbench/ reads, each kept for a reason
ALLOWED_UNREAD = {
    ("montecarlo", "EstimateCI.half_width_95"): "read by covers and estimates_to_csv in tests/montecarlo_oracles.py",
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


def _scoped_calls(path: Path, tree):
    """(call, scope) per call in tree; scope holds (module, "func" or "Class.method") of each def around it."""

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                qual = f"{owner}.{child.name}" if owner else child.name
                yield from visit(child, scope | {(path.stem, qual)}, None)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, scope, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield child, scope
                yield from visit(child, scope, owner)

    yield from visit(tree, frozenset(), None)


def _from_outside(scopes, module: str, qual: str) -> bool:
    """Whether any of the calls with these scopes lies outside the body of module.qual."""
    return any((module, qual) not in scope for scope in scopes)


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
    """A default that no caller overrides is a constant, not a parameter.

    A call inside the function's own body (a recursion handing the parameter
    on) does not count as passing it.
    """
    passed = defaultdict(list)  # (callee name, keyword or positional index) -> scopes of the calls
    for path in SRC + PERFBENCH:
        for call, scope in _scoped_calls(path, _parse(path)):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for kw in call.keywords:
                passed[(name, kw.arg)].append(scope)
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    break
                passed[(name, i)].append(scope)
    unset = set()
    for path in SRC:
        for module, param, callee, index in _public_defaults(path, _parse(path)):
            qual, _, arg = param.rpartition(".")
            scopes = passed[(callee, arg)] + passed[(callee, index)]
            if not _from_outside(scopes, module, qual):
                unset.add((module, param))
    unlisted = sorted(f"{m}.{p}" for m, p in unset - set(ALLOWED_UNSET))
    assert not unlisted, f"defaulted parameters no call in src/ or perfbench/ passes: {unlisted}"
    # an allowlisted parameter that gained a caller (or was removed) leaves the list
    assert set(ALLOWED_UNSET) <= unset


def test_every_public_method_is_called():
    """Each public method of a src/ class is called in src/ or perfbench/, or traced by name.

    Calls are matched by method name, outside the method's own body; the
    tracer names what it wraps as "Class.method".  Properties are fields.
    """
    called = defaultdict(list)  # method name -> scopes of the calls
    traced = set()
    for path in SRC + PERFBENCH:
        tree = _parse(path)
        for call, scope in _scoped_calls(path, tree):
            if isinstance(call.func, ast.Attribute):
                called[call.func.attr].append(scope)
        if path in PERFBENCH:
            traced.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    uncalled = set()
    for path in SRC:
        for cls in (n for n in _parse(path).body if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if any(getattr(d, "id", None) == "property" for d in fn.decorator_list):
                    continue
                qual = f"{cls.name}.{fn.name}"
                if qual not in traced and not _from_outside(called[fn.name], path.stem, qual):
                    uncalled.add((path.stem, qual))
    unlisted = sorted(f"{m}.{q}" for m, q in uncalled - set(ALLOWED_UNCALLED))
    assert not unlisted, f"public methods nothing in src/ or perfbench/ calls: {unlisted}"
    # an allowlisted method that gained a caller (or was removed) leaves the list
    assert set(ALLOWED_UNCALLED) <= uncalled


def test_every_class_field_is_read():
    """Each annotated class field in src/ is read in src/ or perfbench/.

    A read is an attribute load that is not a call, or a tracer name string
    "Class.field".  A load on the right of an assignment to the same
    attribute name only updates the field and is not a read.  Reads are
    matched by name, so a name two classes share counts as read for both.  A
    class that reads its own __dataclass_fields__ (a serializer such as
    ConstantsTable.as_dict) reads every field it has.
    """
    read = Counter()
    for path in SRC + PERFBENCH:
        tree = _parse(path)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        updates = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.attr for t in targets if isinstance(t, ast.Attribute)}
                updates.update(id(n) for n in ast.walk(node.value) if isinstance(n, ast.Attribute) and n.attr in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) not in called and id(node) not in updates:
                    read[node.attr] += 1
            elif path in PERFBENCH and isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "." in node.value:
                    read[node.value.rpartition(".")[2]] += 1
    unread = set()
    for path in SRC:
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef):
                serializes = any(getattr(n, "attr", None) == "__dataclass_fields__" for n in ast.walk(cls))
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        if not read[node.target.id] and not serializes:
                            unread.add((path.stem, f"{cls.name}.{node.target.id}"))
    unlisted = sorted(f"{m}.{f}" for m, f in unread - set(ALLOWED_UNREAD))
    assert not unlisted, f"class fields nothing in src/ or perfbench/ reads: {unlisted}"
    # an allowlisted field that gained a reader (or was removed) leaves the list
    assert set(ALLOWED_UNREAD) <= unread


# the only callers of run_kernel in asymptotics.py, each with its reason
RUN_KERNEL_CALLERS = {
    "LawContext._run": "the context steps each batch of the rows drivers read once, and keeps what they read",
    "tunneling_check": "an entrance-law run whose Green sums only it reads",
}


def test_run_kernel_only_through_the_context():
    """No driver in asymptotics.py runs a DP around LawContext, so none can run one twice."""
    path = ROOT / "src" / "stablewalk" / "asymptotics.py"
    callers = set()
    for call, scope in _scoped_calls(path, _parse(path)):
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "run_kernel":
            callers.update(qual for _, qual in scope)
    assert callers <= set(RUN_KERNEL_CALLERS), f"run_kernel called around LawContext by: {sorted(callers - set(RUN_KERNEL_CALLERS))}"
    # a listed caller that stopped calling run_kernel leaves the list
    assert set(RUN_KERNEL_CALLERS) <= callers


# the only callers of LawContext.read in src/, each with its reason
CONTEXT_READERS = {
    "_reads": "a driver reads the rows it yields, and only those, so plan sees every row it reads",
    "tunneling_check": "tests call it with their own (R, n, x, y); verify_prop22 yields its rows first",
}


def test_no_driver_reads_around_its_declaration():
    """In src/, only the _reads wrapper and tunneling_check call LawContext.read."""
    readers = [{qual for _, qual in scope} for path in SRC for call, scope in _scoped_calls(path, _parse(path))
               if getattr(call.func, "attr", None) == "read"]
    around = [sorted(quals) for quals in readers if not quals & set(CONTEXT_READERS)]
    assert not around, f"LawContext.read called outside the _reads wrapper by: {around}"
    # a listed reader that stopped calling read leaves the list
    assert set(CONTEXT_READERS) <= set().union(*readers)


def test_a_failed_guard_declares_no_rows():
    """A guarded driver raises before its yield: on sym15 it declares no row, so plan steps none for it."""
    from conftest import get_ctx
    from stablewalk.asymptotics import declared_rows
    from stablewalk.cli import _drivers

    guarded = [fn for tid in ("thm3", "thm5", "thm6", "cor2", "kest") for fn in _drivers()[tid]]
    assert declared_rows(get_ctx("sym15"), guarded, True) == []
    for fn in guarded:
        assert declared_rows(get_ctx("bp15" if fn.__name__ == "verify_thm6" else "sp15"), [fn], True)


def test_only_law_context_reaches_its_run():
    """Nothing outside LawContext reads LawContext._run, so no caller hands the memo a run it did not key."""
    reached = []
    for path in SRC + PERFBENCH + sorted((ROOT / "tests").glob("*.py")):
        tree = _parse(path)
        own = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "LawContext"
               and path.stem == "asymptotics" for node in ast.walk(cls)}
        reached += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "_run" and id(node) not in own]
    assert not reached, f"LawContext._run reached from outside the class: {reached}"


def test_csv_headers_only_in_the_writer_module():
    """Every CSV table goes through output.csv_text: no other src/ string spells out a header."""
    spelled = [
        f"{path.stem}:{node.lineno}"
        for path in SRC
        if path.stem != "output"
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "schema_version," in node.value
    ]
    assert not spelled, f"CSV layouts written outside stablewalk/output.py: {spelled}"


def test_one_thread_runner():
    """Only stablewalk/lanes.py starts threads or processes: every other module hands its lanes to run_lanes."""
    spawners = {"threading", "concurrent", "multiprocessing", "_thread"}
    imported = sorted(
        path.stem
        for path in SRC
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and spawners & {(alias.name if isinstance(node, ast.Import) else node.module or "").split(".")[0]
                        for alias in node.names}
    )
    assert imported == ["lanes"], f"modules that import a thread or process module: {imported}"
