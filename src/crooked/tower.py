"""Inverse-sequence driver: schedules, alternating dimension/crookedness
stages, weak-confluence threads, and the independent cover-search oracles.

A tower is a finite prefix of the inverse sequence: stage graphs, onto
bonding maps, and named closed-set bases.  A base keeps its predecessor's
names, pulled back, and binds each stage witness once (`Stage.bind`), so an
instance reads its operands from the previous base.  `verify_tower` checks
both facts, the onto bondings and the pulled-back bases, at every stage.
Limit statements are phrased over the normalized base family; no limit
point set is materialized.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .errors import (
    InputError,
    PreconditionError,
    ResourceLimitError,
    UsageError,
    read_input,
)
from .folang import LIBRARY
from .lattice import DEFAULT_ELEMENT_CAP
from .metric_graph import (
    ClosedSet, MetricGraph, PLMap, arrangement_cells, cells_closed_set, _cell_in_set,
    dump_json, extract_sublattice, graph_from_dict, graph_to_dict,
)
from .surgery import (
    GROUND, Stage, instance_sets, instance_stage, lift_through,
    resolve_shortcut, verify_on_sublattice,
)

DEFAULT_CELL_CAP = 64


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------

def triple_enum(n: int) -> tuple[int, int, int]:
    """The n-th triple in the diagonal enumeration of omega^3 (by total sum,
    then lexicographically); onto, with every triple appearing once."""
    if n < 0:
        raise UsageError("schedule index must be nonnegative")
    s = 0
    count = 0
    while True:
        width = (s + 1) * (s + 2) // 2  # number of triples with this sum
        if n < count + width:
            offset = n - count
            for p in range(s + 1):
                for q in range(s - p + 1):
                    if offset == 0:
                        return (p, q, s - p - q)
                    offset -= 1
        count += width
        s += 1


def schedule_s(n: int) -> tuple[int, int]:
    p, q, _ = triple_enum(n)
    return (p, q) if n >= max(p, q) else (0, 0)


def schedule_t(n: int) -> tuple[int, int]:
    _, q, r = triple_enum(n)
    return (q, r) if n >= max(q, r) else (0, 0)


# --------------------------------------------------------------------------
# Cover-search oracles
# --------------------------------------------------------------------------

_ZETA_SUBSETS = (
    frozenset("x"), frozenset("y"), frozenset("z"),
    frozenset("xy"), frozenset("xz"), frozenset("yz"), frozenset("xyz"),
)
_PSI_SUBSETS = (
    frozenset("x"), frozenset("y"), frozenset("z"),
    frozenset("xy"), frozenset("yz"),
)


def _refine_midpoints(cells: list[tuple]) -> list[tuple]:
    """Split every open cell at its midpoint.  Endpoint-only granularity is
    provably too coarse: a crookedness cover may need a cut strictly inside
    a cell (e.g. on the staircase over the identity function, where the only
    interior breakpoint is the pinned-set seam that the cut must avoid)."""
    out: list[tuple] = []
    for cell in cells:
        if cell[0] != "o":
            out.append(cell)
            continue
        _, eid, lo, hi = cell
        mid = (lo + hi) / 2
        out.extend((("o", eid, lo, mid), ("p", eid, mid), ("o", eid, mid, hi)))
    return out


def _search_cover(graph, named, conditions, subsets, cap):
    """Backtracking search for a labeling of the arrangement cells.

    Each cell gets a nonempty subset of {x, y, z}; a 0-cell is effectively in
    every class its own labels or any incident 1-cell's labels put it in
    (cover classes are closed).  `conditions` holds per-cell requirement sets
    ("effective labels must include") and ban sets ("must not contain all
    of"); both are monotone, so partial assignments prune early."""
    cells = _refine_midpoints(arrangement_cells(graph, list(named.values())))
    if len(cells) > cap:
        raise ResourceLimitError(f"{len(cells)} cells exceed the search cap {cap}")
    one_cells = [i for i, cell in enumerate(cells) if cell[0] == "o"]
    zero_cells = [i for i, cell in enumerate(cells) if cell[0] != "o"]
    index_of = {cell: i for i, cell in enumerate(cells)}
    ends: dict[int, tuple[int, int]] = {}   # 1-cell -> its endpoint 0-cells
    incident: dict[int, list[int]] = {}
    for i in one_cells:
        _, eid, lo, hi = cells[i]
        e = graph.edges[eid]
        ends[i] = tuple(
            index_of[("v", e.u)] if t == 0
            else index_of[("v", e.v)] if t == e.length
            else index_of[("p", eid, t)]
            for t in (lo, hi)
        )
        for j in ends[i]:
            incident.setdefault(j, []).append(i)
    requires, bans = conditions(cells, named)
    order = one_cells + zero_cells
    labels: dict[int, frozenset] = {}

    def effective_partial(j: int) -> frozenset:
        eff = labels.get(j, frozenset())
        for i in incident.get(j, ()):
            eff |= labels.get(i, frozenset())
        return eff

    def violates(i: int) -> bool:
        # a 1-cell feeds its endpoints
        for j in (i, *ends.get(i, ())):
            eff = labels[j] if cells[j][0] == "o" else effective_partial(j)
            req = requires.get(j)
            if req is not None and not req <= eff:
                # 1-cells must satisfy their requirement outright; a 0-cell's
                # effective labels are final once it is assigned (all its
                # incident 1-cells come earlier in the order)
                if cells[j][0] == "o" or j == i:
                    return True
            for ban in bans.get(j, ()):
                if ban <= eff:
                    return True
        return False

    def final_check() -> bool:
        for j, req in requires.items():
            eff = labels[j] if cells[j][0] == "o" else effective_partial(j)
            if not req <= eff:
                return False
        return True

    def assign(pos: int) -> bool:
        if pos == len(order):
            return final_check()
        i = order[pos]
        for choice in subsets:
            labels[i] = choice
            if not violates(i):
                if assign(pos + 1):
                    return True
            del labels[i]
        return False

    if not assign(0):
        return None
    return tuple(
        cells_closed_set(graph, (cell for i, cell in enumerate(cells) if letter in labels[i]))
        for letter in "xyz"
    )


def search_dim_cover(graph, a, b, c, cap: int = DEFAULT_CELL_CAP):
    """Exhaustive cell-labeling search for dimension witnesses: a <= x,
    b <= y, c <= z, empty triple intersection, covering the space."""
    if not ((a & b) & c).is_empty():
        raise PreconditionError("dimension search needs an empty triple intersection")

    def conditions(cells, named):
        requires: dict[int, frozenset] = {}
        bans: dict[int, list] = {}
        for i, cell in enumerate(cells):
            req = frozenset()
            if _cell_in_set(cell, named["a"]):
                req |= {"x"}
            if _cell_in_set(cell, named["b"]):
                req |= {"y"}
            if _cell_in_set(cell, named["c"]):
                req |= {"z"}
            if req:
                requires[i] = req
            bans[i] = [frozenset("xyz")]
        return requires, bans

    return _search_cover(graph, {"a": a, "b": b, "c": c}, conditions, _ZETA_SUBSETS, cap)


def search_her_indec_cover(graph, a, b, c, d, cap: int = DEFAULT_CELL_CAP):
    """Cell-labeling search for the three-set crookedness cover; the
    conditions match the crookedness schema so a found cover witnesses the
    ground sentence directly."""
    if not (a & b).is_empty() or not (a & d).is_empty() or not (b & c).is_empty():
        raise PreconditionError("crookedness search hypotheses violated")

    def conditions(cells, named):
        requires: dict[int, frozenset] = {}
        bans: dict[int, list] = {}
        for i, cell in enumerate(cells):
            cell_bans = [frozenset("xz")]
            if _cell_in_set(cell, named["a"]):
                requires[i] = frozenset("x")
                cell_bans.extend((frozenset("y"), frozenset("z")))
            if _cell_in_set(cell, named["b"]):
                requires[i] = frozenset("z")
                cell_bans.extend((frozenset("x"), frozenset("y")))
            if _cell_in_set(cell, named["d"]):
                cell_bans.append(frozenset("xy"))
            if _cell_in_set(cell, named["c"]):
                cell_bans.append(frozenset("yz"))
            bans[i] = cell_bans
        return requires, bans

    return _search_cover(
        graph, {"a": a, "b": b, "c": c, "d": d}, conditions, _PSI_SUBSETS, cap
    )


# --------------------------------------------------------------------------
# Tower structure
# --------------------------------------------------------------------------

@dataclass
class Thread:
    """Per-stage connected sets with exact onto images along the bondings."""
    sets: list[ClosedSet]


class Tower:
    def __init__(self, stages: list[Stage], catalog: dict[str, list[ClosedSet]]):
        self.stages = stages
        self.catalog = catalog

    @property
    def depth(self) -> int:
        return len(self.stages) - 1

    def graph(self, n: int) -> MetricGraph:
        return self.stages[n].graph

    def base(self, n: int) -> dict[str, ClosedSet]:
        return self.stages[n].base

    def composed_map(self, n: int, m: int) -> PLMap:
        """f^n_m: stage n -> stage m for m < n."""
        if not 0 <= m < n <= self.depth:
            raise UsageError("composed map needs m < n within the tower")
        out = self.stages[n].bonding
        for j in range(n - 1, m, -1):
            out = out.then(self.stages[j].bonding)
        return out

    def instances(self) -> list[dict]:
        return [st.instance for st in self.stages if st.instance is not None]


def _scheduled_stage(tower: Tower, n: int, sch: tuple[int, int], kind: str, candidates, cover=None) -> Stage:
    """The stage for instance m of `kind` over the stage-k base, (k, m) =
    `sch`: item m of `candidates(base)`, the operand-name tuples of `kind`
    in order.  The operands are those names' sets in the stage n-1 base,
    which are their pullbacks from stage k because a base binds each name
    once.  A surgery goes through `instance_stage`; every other stage keeps
    the stage n-1 graph and base under the identity bonding: "noop" past the
    candidates' end, "vacuous" or "shortcut" by `resolve_shortcut`, and
    "identity" when `cover` (if given) finds witnesses on that graph."""
    k, m = sch
    prev = tower.stages[n - 1]
    if k >= n:
        raise UsageError("schedule points past the current stage")
    picked = next(itertools.islice(candidates(tower.base(k)), m, None), None)
    if picked is None:
        return Stage(prev.graph, PLMap.identity(prev.graph), dict(prev.base), "noop")
    instance = {
        "stage": n, "kind": kind, "schedule": [k, m],
        "operands": list(picked),
        "witnesses": [f"w{n}.x", f"w{n}.y", f"w{n}.z"],
    }
    ops = [prev.base[nm] for nm in picked]
    resolved = resolve_shortcut(kind, prev.graph, ops)
    if resolved is None and cover is not None:
        try:
            found = cover(prev.graph, *ops)
            resolved = None if found is None else ("existing-cover", found)
        except ResourceLimitError:
            pass
    if resolved is None:
        return instance_stage(prev, instance)
    mode, witnesses = resolved
    instance["mode"] = mode
    stage = Stage(prev.graph, PLMap.identity(prev.graph), dict(prev.base),
                  "identity" if mode == "existing-cover" else mode, instance)
    stage.bind(instance["witnesses"], witnesses)
    return stage


def zeta_candidates(base: dict[str, ClosedSet]):
    """The operand names of the dimension instances over `base`, in schedule
    order: the triples of sorted names in lexicographic order whose three
    sets meet emptily.  Lazy, so taking item m meets only the triples up to
    it."""
    return (t for t in itertools.combinations(sorted(base), 3)
            if (base[t[0]] & base[t[1]] & base[t[2]]).is_empty())


def theta_candidates(base: dict[str, ClosedSet]):
    """The operand names of the crookedness instances over `base`, in
    schedule order: the lexicographic product of the sorted names with
    itself four times, lazily."""
    return itertools.product(sorted(base), repeat=4)


def dim_step(tower: Tower, n: int, sch: tuple[int, int]) -> Stage:
    """One dimension stage: resolve the scheduled item of `zeta_candidates`,
    reuse an existing cover when the oracle finds one, otherwise surger.
    The oracle only spares a surgery, so an arrangement too fine for it is
    surgered too."""
    return _scheduled_stage(tower, n, sch, "zeta", zeta_candidates, cover=search_dim_cover)


def crooked_step_stage(tower: Tower, n: int, sch: tuple[int, int]) -> Stage:
    """One crookedness stage for the scheduled item of `theta_candidates`.
    Unlike the dimension step, satisfiable instances always go through the
    staircase construction; search_her_indec_cover stays an independent
    oracle over the outputs, not a builder shortcut."""
    return _scheduled_stage(tower, n, sch, "theta", theta_candidates)


def build_tower(
    graph0: MetricGraph,
    base0: dict[str, ClosedSet],
    catalog: dict[str, ClosedSet],
    depth: int,
    schedules: tuple = (schedule_s, schedule_t),
) -> Tower:
    """Alternate crookedness (odd) and dimension (even) stages along the
    interleaved schedule, then thread the catalog (`weak_confluence_witness`)."""
    if not graph0.is_connected():
        raise PreconditionError("the base space must be connected")
    for name, s in catalog.items():
        if s.is_empty() or len(graph0.components_of(s)) != 1:
            raise PreconditionError(f"catalog member {name!r} must be a nonempty connected set")
    sched_s, sched_t = schedules
    tower = Tower([Stage(graph0, None, dict(base0), "base")], {})
    for n in range(1, depth + 1):
        if n % 2 == 0:
            stage = dim_step(tower, n, sched_s(n // 2))
        else:
            stage = crooked_step_stage(tower, n, sched_t((n - 1) // 2))
        tower.stages.append(stage)
    tower.catalog = {name: weak_confluence_witness(tower, s).sets for name, s in sorted(catalog.items())}
    return tower


# --------------------------------------------------------------------------
# Verification and threads
# --------------------------------------------------------------------------

def verify_tower(tower: Tower, cap: int = DEFAULT_ELEMENT_CAP) -> list[tuple[str, bool]]:
    """Check what a tower can get wrong, independently of the construction.
    At each stage n >= 1: the bonding is onto, and the base pulls back the
    stage n-1 base, that is it binds each stage n-1 name to the preimage of
    its stage n-1 set, each of the stage's witness names once, and no other
    name; then the stage's instance on its arrangement and again at the
    final stage, on cell footprints.  Per catalog thread: exact images and a
    connected last set.  Last, CONN(1) by Birkhoff duality on the final
    base's footprints.

    The pullbacks are computed here, not by `instance_stage`, one
    `preimage_of` per distinct set.  Sets are keyed by value: a loaded
    tower holds one object per name.  Nothing here closes a sublattice, so
    `cap` is accepted but not read, because perfbench passes it."""
    report: list[tuple[str, bool]] = []
    N = tower.depth
    for n, st in enumerate(tower.stages):
        inst = st.instance
        if n > 0:
            prev = tower.base(n - 1)
            fresh = inst["witnesses"] if inst is not None else []
            report.append((f"stage {n} bonding onto", st.bonding.is_surjective()))
            pre = {s: st.bonding.preimage_of(s) for s in set(prev.values())}
            ok = (st.base.keys() == prev.keys() | set(fresh)
                  and len(st.base) == len(prev) + len(fresh)
                  and all(st.base[name] == pre[s] for name, s in prev.items()))
            report.append((f"stage {n} base pulls back stage {n - 1}", ok))
        if inst is None:
            continue
        kind = inst["kind"]
        for at_stage in sorted({n, N}):
            sets = instance_sets(inst, tower.base(at_stage))
            ok = sets is not None and verify_on_sublattice(GROUND[kind], sets, tower.graph(at_stage))
            label = f"stage {n} {kind} schedule={inst['schedule']} at stage {at_stage}"
            report.append((label, ok))
    for name, sets in tower.catalog.items():
        # a connected S_N with exact images makes every S_n connected, as
        # the image of a connected set
        ok = len(tower.graph(N).components_of(sets[N])) == 1 and all(
            tower.stages[n].bonding.image_of(sets[n]) == sets[n - 1] for n in range(1, N + 1)
        )
        report.append((f"thread {name} exact images", ok))
    conn_ok = extract_sublattice(tower.graph(N), tower.base(N)).decide(LIBRARY["CONN1"])
    report.append((f"CONN(1) on the stage-{N} base sublattice", conn_ok))
    return report


def weak_confluence_witness(tower: Tower, c: ClosedSet) -> Thread:
    """A thread over a connected closed set of the base: at each stage the
    component of the preimage with the exact image (`lift_through`), the
    full preimage at monotone stages."""
    if c.is_empty():
        raise PreconditionError("weak-confluence thread needs a nonempty set")
    if len(tower.graph(0).components_of(c)) != 1:
        raise PreconditionError("weak-confluence thread needs a connected set")
    sets = [c]
    for n in range(1, tower.depth + 1):
        st = tower.stages[n]
        sets.append(lift_through(st, sets[-1], st.bonding.preimage_of(sets[-1])))
    return Thread(sets)


# --------------------------------------------------------------------------
# Tower directory format
# --------------------------------------------------------------------------

def save_tower(tower: Tower, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)

    def write(name: str, obj) -> None:
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(dump_json(obj))

    for n, st in enumerate(tower.stages):
        write(f"stage{n}.json", graph_to_dict(st.graph, st.base))
        if st.bonding is not None:
            write(f"bonding{n}.json", st.bonding.to_dict())
    trace = {
        "depth": tower.depth,
        "stages": [
            {"kind": st.kind, "instance": st.instance, "nudges": st.nudges}
            for st in tower.stages
        ],
        "catalog": {
            name: [s.to_dict() for s in sets] for name, sets in tower.catalog.items()
        },
    }
    write("trace.json", trace)


def load_tower(directory: str) -> Tower:
    def read(name: str):
        return read_input(os.path.join(directory, name))

    trace = read("trace.json")
    try:
        depth = trace["depth"]
        # `type(...) is int`: `bool` subclasses `int`, and `true` is no depth
        if type(depth) is not int or depth < 0:
            raise InputError(f"malformed tower directory {directory}: depth {depth!r}")
        if len(trace["stages"]) != depth + 1:
            raise InputError(
                f"malformed tower directory {directory}: "
                f"{len(trace['stages'])} stage entries for depth {depth}"
            )
        stages: list[Stage] = []
        for n in range(depth + 1):
            graph, base = graph_from_dict(read(f"stage{n}.json"))
            bonding = None
            if n > 0:
                bonding = PLMap.from_dict(graph, stages[n - 1].graph, read(f"bonding{n}.json"))
            meta = trace["stages"][n]
            inst = meta["instance"]
            # an instance is null or the record `verify_tower` reads: its own
            # stage number, and one name per role of its kind.  A missing key,
            # or an instance that is not an object, raises LookupError or
            # TypeError, which the except clause turns into InputError
            if inst is not None and not (
                type(inst["stage"]) is int and inst["stage"] == n
                and inst["kind"] in ("zeta", "theta")
                and isinstance(inst["schedule"], list)
                and [type(k) for k in inst["schedule"]] == [int, int]
                and all(isinstance(inst[key], list) and all(isinstance(x, str) for x in inst[key])
                        for key in ("operands", "witnesses"))
                and len(inst["operands"]) == (3 if inst["kind"] == "zeta" else 4)
                and len(inst["witnesses"]) == 3
            ):
                raise InputError(f"malformed tower directory {directory}: stage {n} instance {inst!r}")
            stages.append(
                Stage(graph, bonding, base, meta["kind"], instance=inst, nudges=meta["nudges"])
            )
        catalog = {
            name: [ClosedSet.from_dict(stages[n].graph, spec) for n, spec in enumerate(specs)]
            for name, specs in trace.get("catalog", {}).items()
        }
        for name, sets in catalog.items():
            if len(sets) != len(stages):
                raise InputError(
                    f"malformed tower directory {directory}: catalog {name!r} has "
                    f"{len(sets)} sets for {len(stages)} stages"
                )
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise InputError(f"malformed tower directory {directory}: {exc!r}") from exc
    return Tower(stages, catalog)
