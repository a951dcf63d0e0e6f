"""Every module-level function and class in src/crooked, and every method
of such a class, has a caller.

A definition counts as used when some code outside its own body loads its
name: a name, an attribute or an import anywhere in src/, or an identifier
or a TARGETS string in perfbench/.  Tests do not count, so a helper that
only its own tests call fails here.  Dunder methods are exempt, since the
language calls them.  The declared independent oracles are the exceptions:
they exist to check the library from outside it.

A method named like an attribute of a builtin type (`values`, `join`,
`count`, ...) is loaded wherever a dict, str or list uses that attribute,
so a load of its name proves no caller.  Each such method must be listed in
SHARED_NAMES with the library function that calls it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLES = {
    "eval_bruteforce", "check_monotone", "search_her_indec_cover",
    "check_contimage_conditions",
}
# method -> (module, function) of its library caller
SHARED_NAMES = {
    "ClosedSet.split": ("metric_graph.py", "extract_sublattice"),
    "ConstantRegistry.count": ("sigma.py", "remaining"),
}
BUILTIN_NAMES = set().union(
    *(dir(t) for t in (dict, set, frozenset, list, tuple, str, int, bytes))
)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _trees(directory: str) -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / directory).glob("*.py"))
    }


def _loads(node) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def _definitions(tree):
    """(label, node) for every module-level function and class, and every
    method of a module-level class that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def _target_names(tree) -> set:
    """The parts of every string in a module-level TARGETS assignment, so
    ("tower", "Tower.composed_map", None) names Tower and composed_map."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.update(sub.value.split("."))
    return names


def test_every_library_definition_has_a_caller():
    src = _trees("src/crooked")
    bench = _trees("perfbench")
    src_loads = sum((_loads(tree) for tree in src.values()), Counter())
    bench_names = set()
    for tree in bench.values():
        bench_names |= set(_loads(tree)) | _target_names(tree)
    dead = []
    for module, tree in src.items():
        for label, node in _definitions(tree):
            if node.name in ORACLES:
                continue
            outside = src_loads[node.name] - _loads(node)[node.name]
            if outside == 0 and node.name not in bench_names:
                dead.append(f"{module}:{label}")
    assert not dead, f"defined but never called: {dead}"


def test_methods_sharing_a_builtin_name_are_declared():
    src = _trees("src/crooked")
    shared = {
        label for tree in src.values() for label, node in _definitions(tree)
        if "." in label and node.name in BUILTIN_NAMES
    }
    assert shared == set(SHARED_NAMES), "declare each with its caller in SHARED_NAMES"
    for label, (module, caller) in SHARED_NAMES.items():
        bodies = [node for node in ast.walk(src[module])
                  if isinstance(node, FUNCTIONS) and node.name == caller]
        assert any(_loads(body)[label.split(".")[1]] for body in bodies), (label, caller)
