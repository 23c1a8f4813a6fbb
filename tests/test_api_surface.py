"""The package exports nothing it does not use.

Parses ``src/stablewalk/*.py`` with ``ast`` and fails on a module-level
import the module never reads, or on a public top-level function or class
that nothing in ``src/`` or ``perfbench/*.py`` references outside its own
definition.  Code only tests need belongs in a ``tests/`` oracle module.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "stablewalk").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# public names with no caller in src/ or perfbench/, each kept for a reason
ALLOWED = {
    ("errors", "DegenerateDenominator"): "raised by the two-point hitting oracle in tests/",
    ("montecarlo", "estimate_conditional_escape"): "the Monte Carlo leg of the three-oracle rule",
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
