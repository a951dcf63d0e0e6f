"""Every module-level function, class and constant in src/crooked, and
every method of such a class, has a caller.

A definition counts as used when some code outside its own body loads its
name: a name, an attribute or an import anywhere in src/, or an identifier
or a TARGETS string in perfbench/.  Tests do not count, so a helper that
only its own tests call fails here.  Dunder methods are exempt, since the
language calls them.  The declared independent oracles are the exceptions:
they exist to check the library from outside it.  A definition earns that
exemption only when some test compares library output against it, and each
name in ORACLES must still be defined in src/.

A parameter default is a setting, so some call in src/ or perfbench/ must
set the parameter, by keyword, by position or through `*`/`**`; a default
that no library or benchmark call changes is a knob only tests turn.  The
exceptions are the seams in DEFAULT_SEAMS, each with its reason.

A method named like an attribute of a builtin type (`values`, `join`,
`count`, ...) is loaded wherever a dict, str or list uses that attribute,
so a load of its name proves no caller.  Each such method must be listed in
SHARED_NAMES with the library function that calls it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLES = {"eval_bruteforce", "check_monotone", "search_her_indec_cover", "image_point"}
# function.parameter -> why a default that src/ and perfbench/ never change stays
DEFAULT_SEAMS = {
    "main.argv": "tests drive the CLI through it",
    "search_dim_cover.cap": "acceptance criterion 7 runs the oracle with a larger cell cap",
    "search_her_indec_cover.cap": "acceptance criterion 7 runs the oracle with a larger cell cap",
    "eval_bruteforce.consts": "an oracle, which tests call as they need",
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


def test_every_library_constant_is_read():
    # a module-level assignment in src/ that nothing in src/ or perfbench/ loads
    src = _trees("src/crooked")
    loaded = set().union(*map(_loads, (*src.values(), *_trees("perfbench").values())))
    dead = [
        f"{module}:{target.id}"
        for module, tree in src.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id not in loaded
    ]
    assert not dead, f"assigned but never read: {dead}"


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _sets(call: ast.Call, param: str, position) -> bool:
    """Whether `call` may set `param`, the `position`-th positional argument
    (None when keyword-only): by `*`/`**`, by keyword or by position."""
    return (
        any(isinstance(a, ast.Starred) for a in call.args)
        or any(k.arg in (None, param) for k in call.keywords)
        or (position is not None and len(call.args) > position)
    )


def _defaulted_parameters(tree):
    """(called name, parameter, positional index) for every default-valued
    parameter of a module-level function, or of a method of a module-level
    class.  A method call passes `self` implicitly, and `__init__` is
    called by its class name."""
    for node in tree.body:
        funcs = [(node, node.name, 0)] if isinstance(node, FUNCTIONS) else []
        if isinstance(node, ast.ClassDef):
            funcs = [
                (sub, node.name if sub.name == "__init__" else sub.name,
                 0 if any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list) else 1)
                for sub in node.body if isinstance(sub, FUNCTIONS)
            ]
        for func, called, implicit in funcs:
            args = func.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            for i, param in enumerate(positional[first:], first):
                yield called, param.arg, i - implicit
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield called, param.arg, None


def test_every_parameter_default_is_changed_by_some_caller():
    src = _trees("src/crooked")
    calls: dict = {}
    for tree in (*src.values(), *_trees("perfbench").values()):
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                calls.setdefault(_callee(call), []).append(call)
    never = sorted(
        f"{called}.{param}"
        for tree in src.values()
        for called, param, position in _defaulted_parameters(tree)
        if not any(_sets(call, param, position) for call in calls.get(called, ()))
    )
    assert never == sorted(DEFAULT_SEAMS), f"defaults no caller changes: {never}"


def test_every_oracle_is_defined():
    defined = {
        node.name for tree in _trees("src/crooked").values()
        for _, node in _definitions(tree)
    }
    assert ORACLES <= defined, f"stale ORACLES entries: {sorted(ORACLES - defined)}"


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
