"""Command-line front end.

Exit codes: 0 success / property true, 1 property false, 2 usage or input
error, 3 internal failure (an invariant violation or an exceeded cap).
Every report embeds the tool version; all outputs are deterministic for
fixed inputs.  Models are decided on cell bitmasks, the quantified conn(t)
lines by Birkhoff duality, so no command closes a lattice to build or check
a model and none takes a `--cap`.  The only lattices closed are those of
lattice files given as input, under the default element cap.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import (
    CrookedError, InputError, InvariantViolationError, ResourceLimitError, read_input,
)
from .folang import LIBRARY, eval_formula, parse, print_formula
from .lattice import load_lattice
from .metric_graph import dump_graph, dump_json, load_graph
from .render import render_svg
from .sigma import SigmaGenerator, dump_sentences, fragment, parse_sentence_dump
from .surgery import base_interpretation, witness_fragment
from .tower import (
    build_tower, load_tower, save_tower, verify_tower, weak_confluence_witness,
)
from .wallman import is_hausdorff_like, is_T1, space_dump, wallman_space


def _header(args, extra: dict | None = None) -> str:
    fields = {"tool": f"crooked {__version__}"}
    if getattr(args, "budget", None) is not None:
        fields["budget"] = args.budget
    fields.update(extra or {})
    return "\n".join(f"{k}: {v}" for k, v in fields.items())


def _report(args, extra: dict, lines) -> tuple[str, bool]:
    """A verification report (the header, one pass/FAIL line per (label, ok)
    in `lines`, the all-true line) and whether every line holds."""
    ok = all(good for _, good in lines)
    body = [f"{'pass' if good else 'FAIL'}: {label}" for label, good in lines]
    return "\n".join([_header(args, extra), *body, f"all-true: {ok}"]) + "\n", ok


def _write(path: str | None, text: str) -> None:
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _element_repr(points) -> str:
    return "{" + ",".join(str(p) for p in sorted(points)) + "}"


def cmd_lattice_check(args) -> int:
    lattice, names = load_lattice(args.file)
    if args.sentence in LIBRARY:
        formula = LIBRARY[args.sentence]
    else:
        formula = parse(args.sentence, constants=set(names))
    result = eval_formula(formula, lattice, names)
    print(_header(args))
    print(f"sentence: {print_formula(formula)}")
    print(f"verdict: {'true' if result.value else 'false'}")
    if result.assignment:
        role = "witness" if result.value else "counterexample"
        for var in sorted(result.assignment):
            print(f"{role} {var}: {_element_repr(result.assignment[var])}")
    return 0 if result.value else 1


def cmd_wallman(args) -> int:
    lattice, _ = load_lattice(args.file)
    space, hom = wallman_space(lattice)
    print(_header(args))
    sys.stdout.write(space_dump(space))
    injective = len(set(hom)) == lattice.size
    disj = eval_formula(LIBRARY["DISJ"], lattice).value
    norm = eval_formula(LIBRARY["NORM"], lattice).value
    print(f"points: {len(space.points)}")
    print(f"T1: {is_T1(space)}")
    print(f"hausdorff-like: {is_hausdorff_like(space)}")
    print(f"disjunctive: {disj}")
    print(f"normal: {norm}")
    label = "isomorphic" if injective else "homomorphic (not disjunctive)"
    print(f"representation: {label}")
    return 0


def cmd_sigma(args) -> int:
    """`sigma-gen`, or `sigma-fragment` when `--size` is given."""
    base, _ = load_lattice(args.base)
    gen = SigmaGenerator(
        base,
        budget=args.budget,
        axiom_cap=args.axiom_cap,
        continuum_constants=args.continuum_constants,
        hat_size=args.hat_size,
    )
    records = gen.generate_through(args.stages)
    extra = {"stages": args.stages}
    if getattr(args, "size", None) is not None:
        records = fragment(records, args.size)
        extra["size"] = args.size
    header = "\n".join(f"# {line}" for line in _header(args, extra).splitlines())
    _write(args.out, header + "\n" + dump_sentences(records))
    return 0


def cmd_sigma_witness(args) -> int:
    base, generators = load_lattice(args.base)
    graph, sets = load_graph(args.graph)
    gen_sets = {}
    first_with_points: dict[frozenset, str] = {}
    for name, points in generators.items():
        if name not in sets:
            raise InputError(
                f"graph file must interpret base generator {name!r} as a closed set"
            )
        gen_sets[name] = sets[name]
        # the lattice keeps one element per point set, so generators with
        # the same points must be the same closed set
        first = first_with_points.setdefault(points, name)
        if gen_sets[first] != gen_sets[name]:
            raise InputError(
                f"base generators {first!r} and {name!r} have the same points "
                f"but different closed sets"
            )
    interp0 = base_interpretation(base, gen_sets, graph)
    for name, s in sets.items():
        if name.startswith("k(-2,"):
            interp0[name] = s
    records = read_input(args.fragment, parse_sentence_dump)
    result = witness_fragment(records, graph, interp0)
    _write(os.path.join(args.out, "model.json"), dump_graph(result.graph, result.interpretation))
    _write(os.path.join(args.out, "trace.json"), dump_json(result.trace))
    text, ok = _report(args, {"fragment": os.path.basename(args.fragment)}, result.report)
    _write(os.path.join(args.out, "report.txt"), text)
    sys.stdout.write(text)
    return 0 if ok else 1


def cmd_tower_build(args) -> int:
    if args.depth < 0:
        raise InputError(f"--depth {args.depth} is negative")
    graph, sets = load_graph(args.graph)
    catalog_names = [n for n in (args.catalog or "").split(",") if n]
    catalog = {}
    for name in catalog_names:
        if name == "whole":
            catalog["whole"] = graph.whole_set()
        elif name in sets:
            catalog[name] = sets[name]
        else:
            raise InputError(f"catalog member {name!r} is not a named closed set")
    tower = build_tower(graph, sets, catalog, args.depth)
    save_tower(tower, args.out)
    text, ok = _report(args, {"depth": args.depth}, verify_tower(tower))
    _write(os.path.join(args.out, "report.txt"), text)
    sys.stdout.write(text)
    return 0 if ok else 1


def cmd_tower_verify(args) -> int:
    tower = load_tower(args.directory)
    text, ok = _report(args, {"depth": tower.depth}, verify_tower(tower))
    sys.stdout.write(text)
    return 0 if ok else 1


def cmd_tower_thread(args) -> int:
    tower = load_tower(args.directory)
    # a thread lifts through onto bondings only; `tower-verify` reports one
    # that is not as a false line, and here it is bad input
    for n in range(1, tower.depth + 1):
        if not tower.stages[n].bonding.is_surjective():
            path = os.path.join(args.directory, f"bonding{n}.json")
            raise InputError(f"{path}: the bonding does not map stage {n} onto stage {n - 1}")
    if args.set == "whole":
        start = tower.graph(0).whole_set()
    elif args.set in tower.catalog:
        start = tower.catalog[args.set][0]
    elif args.set in tower.base(0):
        start = tower.base(0)[args.set]
    else:
        raise InputError(f"no catalog or base set named {args.set!r}")
    thread = weak_confluence_witness(tower, start)
    payload = {
        "set": args.set,
        "stages": [s.to_dict() for s in thread.sets],
    }
    _write(args.out, dump_json(payload))
    return 0


def cmd_render(args) -> int:
    if not args.tower and not args.graph:
        raise InputError("render needs --graph or --tower")
    if args.stage is not None and not args.tower:
        raise InputError("--stage needs --tower")
    if args.tower:
        tower = load_tower(args.tower)
        stage = args.stage if args.stage is not None else tower.depth
        if not 0 <= stage <= tower.depth:
            raise InputError(f"--stage {stage} is outside 0..{tower.depth}")
        graph = tower.graph(stage)
        sets = tower.base(stage)
    else:
        graph, sets = load_graph(args.graph)
    _write(args.out, render_svg(graph, sets))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crooked",
        description="Finite-lattice model checking, Wallman spaces, and "
                    "crooked surgeries on exact-rational metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-check", help="evaluate a sentence on a lattice file")
    p.add_argument("file")
    p.add_argument("sentence", help="library name (DISJ, NORM, CONN1, DIM, HI, ...) or a formula")
    p.set_defaults(func=cmd_lattice_check)

    p = sub.add_parser("wallman", help="Wallman space dump and correspondence report")
    p.add_argument("file")
    p.set_defaults(func=cmd_wallman)

    for name in ("sigma-gen", "sigma-fragment"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} from a base lattice")
        p.add_argument("--base", required=True, help="base lattice file")
        p.add_argument("--stages", type=int, default=5)
        p.add_argument("--budget", type=int, default=16)
        p.add_argument("--axiom-cap", type=int, default=64)
        p.add_argument("--continuum-constants", type=int, default=0)
        p.add_argument("--hat-size", type=int, default=None)
        if name == "sigma-fragment":
            p.add_argument("--size", type=int, required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("sigma-witness", help="build a geometric model of a fragment")
    p.add_argument("--base", required=True)
    p.add_argument("--fragment", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sigma_witness)

    p = sub.add_parser("tower-build", help="build and verify an inverse-sequence tower")
    p.add_argument("--graph", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--catalog", default="", help="comma-separated closed-set names (or 'whole')")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tower_build)

    p = sub.add_parser("tower-verify", help="re-verify a tower directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_tower_verify)

    p = sub.add_parser("tower-thread", help="emit a weak-confluence thread")
    p.add_argument("directory")
    p.add_argument("--set", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tower_thread)

    p = sub.add_parser("render", help="render a graph or tower stage as SVG")
    p.add_argument("--graph", default=None)
    p.add_argument("--tower", default=None)
    p.add_argument("--stage", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InvariantViolationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CrookedError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # bad input is a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
