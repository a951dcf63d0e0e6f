"""Inverse-sequence driver: schedules, alternating dimension/crookedness
stages, weak-confluence threads, and one cover search read off `GROUND`
(the dimension stages' existing-cover probe and the crookedness oracle).

A tower is a finite prefix of the inverse sequence: stage graphs, onto
bonding maps, and named closed-set bases.  A base keeps its predecessor's
names, pulled back, and binds each stage witness once (`Stage.bind`), so an
instance reads its operands from the previous base.  `verify_tower` checks
both facts, the onto bondings and the pulled-back bases, at every stage.
Limit statements are phrased over the normalized base family; no limit
point set is materialized.
"""

from __future__ import annotations

import functools
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
from .folang import LIBRARY, eval_masks
from .lattice import DEFAULT_ELEMENT_CAP
from .metric_graph import (
    ClosedSet, MetricGraph, PLMap, arrangement_cells, cells_closed_set, _cell_in_set,
    GraphReader, dump_json, extract_sublattice, graph_to_dict,
)
from .surgery import GROUND, Stage, instance_sets, instance_stage, lift_through

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
# Cover search
# --------------------------------------------------------------------------

# The class sets a cell may take, as 3-bit ints (x = 1, y = 2, z = 4), in
# search order: x, y, z, xy, xz, yz, xyz.
_LABELS = (1, 2, 4, 3, 5, 6, 7)


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


@functools.cache
def _cell_rules(kind: str, pattern: int) -> tuple[frozenset, frozenset]:
    """The class sets that `GROUND[kind].right` allows at a cell whose
    operand memberships are `pattern` (bit i for role "abcd"[i]), and the
    class sets that some allowed one contains."""
    operands = {r: pattern >> i & 1 for i, r in enumerate("abcd")}
    allowed = frozenset(
        e for e in range(8)
        if eval_masks(GROUND[kind].right, {**operands, "x": e & 1, "y": e >> 1 & 1, "z": e >> 2}, 1)
    )
    return allowed, frozenset(e for e in range(8) if any(e & f == e for f in allowed))


def _search_cover(graph, kind: str, named: dict[str, ClosedSet], cap: int):
    """Backtracking search for witnesses x, y, z of `GROUND[kind].right`
    over the operand roles `named`, as a labeling of the arrangement cells.

    Each cell gets a label from `_LABELS`, and the cover classes are the
    closures of the labeled cells: a 1-cell's classes are its label, a
    0-cell's are its own label plus its incident 1-cells' labels.  Closed
    sets meet and join pointwise, so the conclusion holds exactly when the
    classes at every cell are allowed by `_cell_rules`.  The 1-cells are
    labeled first, by backtracking, each leaving both endpoints' classes so
    far inside an allowed set; a dead end is remembered by its position and
    the classes of the 0-cells still to be fed.  Then each 0-cell takes the
    first label that completes it.  The pruning is sound, so this finds the
    first cover in search order, or None."""
    cells = _refine_midpoints(arrangement_cells(graph, list(named.values())))
    if len(cells) > cap:
        raise ResourceLimitError(f"{len(cells)} cells exceed the search cap {cap}")
    index_of = {cell: i for i, cell in enumerate(cells)}
    ends: dict[int, tuple[int, int]] = {}   # 1-cell -> its endpoint 0-cells
    for i, cell in enumerate(cells):
        if cell[0] == "o":
            _, eid, lo, hi = cell
            e = graph.edges[eid]
            ends[i] = tuple(
                index_of[("v", e.u)] if t == 0
                else index_of[("v", e.v)] if t == e.length
                else index_of[("p", eid, t)]
                for t in (lo, hi)
            )
    rules = [
        _cell_rules(kind, sum(1 << n for n, s in enumerate(named.values()) if _cell_in_set(cell, s)))
        for cell in cells
    ]
    one_cells = list(ends)
    # the 0-cells that the 1-cells from each position on still feed
    live = [sorted({j for i in one_cells[pos:] for j in ends[i]}) for pos in range(len(one_cells))]
    labels = [0] * len(cells)
    classes = [0] * len(cells)  # a 0-cell's incident 1-cell labels so far
    failed: set[tuple] = set()

    def assign(pos: int) -> bool:
        if pos == len(one_cells):
            return True
        key = (pos, *(classes[j] for j in live[pos]))
        if key in failed:
            return False
        i = one_cells[pos]
        j, k = ends[i]
        cj, ck = classes[j], classes[k]
        allowed, below_j, below_k = rules[i][0], rules[j][1], rules[k][1]
        for label in _LABELS:
            if label in allowed and cj | label in below_j and ck | label in below_k:
                labels[i], classes[j], classes[k] = label, cj | label, ck | label
                if assign(pos + 1):
                    return True
                classes[j], classes[k] = cj, ck
        failed.add(key)
        return False

    if not assign(0):
        return None
    for j in range(len(cells)):
        if j not in ends:
            # an allowed set, a label, holds j's classes: pruning or premise
            labels[j] = next(label for label in _LABELS if classes[j] | label in rules[j][0])
    return tuple(
        cells_closed_set(graph, (cell for i, cell in enumerate(cells) if labels[i] & bit))
        for bit in (1, 2, 4)
    )


def search_dim_cover(graph, a, b, c, cap: int = DEFAULT_CELL_CAP):
    """Exhaustive cell-labeling search for dimension witnesses, the
    conclusion of `GROUND["zeta"]`: a <= x, b <= y, c <= z, empty triple
    intersection, covering the space."""
    if not ((a & b) & c).is_empty():
        raise PreconditionError("dimension search needs an empty triple intersection")
    return _search_cover(graph, "zeta", {"a": a, "b": b, "c": c}, cap)


def search_her_indec_cover(graph, a, b, c, d, cap: int = DEFAULT_CELL_CAP):
    """Exhaustive cell-labeling search for the three-set crookedness cover,
    the conclusion of `GROUND["theta"]`, so a found cover witnesses the
    ground sentence directly."""
    if not (a & b).is_empty() or not (a & d).is_empty() or not (b & c).is_empty():
        raise PreconditionError("crookedness search hypotheses violated")
    return _search_cover(graph, "theta", {"a": a, "b": b, "c": c, "d": d}, cap)


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
    once.  The stage starts as the stage n-1 graph and base under the
    identity bonding, "noop" past the candidates' end; the instance step
    `instance_stage`, given `cover`, either joins the instance to it or
    opens a surgery stage after it."""
    k, m = sch
    prev = tower.stages[n - 1]
    if k >= n:
        raise UsageError("schedule points past the current stage")
    picked = next(itertools.islice(candidates(tower.base(k)), m, None), None)
    stage = Stage(prev.graph, PLMap.identity(prev.graph), dict(prev.base), "noop")
    if picked is None:
        return stage
    instance = {
        "stage": n, "kind": kind, "schedule": [k, m],
        "operands": list(picked),
        "witnesses": [f"w{n}.x", f"w{n}.y", f"w{n}.z"],
    }
    return instance_stage(stage, instance, cover)


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
        raise PreconditionError("the base space must be a nonempty connected graph")
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
    `preimage_of` per distinct set.  Sets are keyed by value, so a set
    equal to another but built apart is pulled back once too (a loaded
    stage holds one object per distinct set, a built one need not).  Through
    `PLMap.identity` each line is still computed, on the sets themselves.

    The instance lines and CONN(1) share one arrangement per stage graph,
    over every set they read there, with masks looked up by set value: a
    finer arrangement generates the same lattice.  Nothing here closes a
    sublattice, so `cap` is accepted but not read, as perfbench passes it."""
    report: list[tuple[str, bool]] = []
    lines = []   # (report index, sentence, sets by constant, graph), decided last
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
            if sets is not None:
                lines.append((len(report), GROUND[kind], sets, tower.graph(at_stage)))
            report.append((f"stage {n} {kind} schedule={inst['schedule']} at stage {at_stage}", False))
    for name, sets in tower.catalog.items():
        # a connected S_N with exact images makes every S_n connected, as
        # the image of a connected set
        ok = len(tower.graph(N).components_of(sets[N])) == 1 and all(
            tower.stages[n].bonding.image_of(sets[n]) == sets[n - 1] for n in range(1, N + 1)
        )
        report.append((f"thread {name} exact images", ok))
    lines.append((len(report), LIBRARY["CONN1"], tower.base(N), tower.graph(N)))
    report.append((f"CONN(1) on the stage-{N} base sublattice", False))
    keys: dict[MetricGraph, dict[ClosedSet, str]] = {}
    for _, _, sets, graph in lines:
        key = keys.setdefault(graph, {})
        for s in sets.values():
            key.setdefault(s, str(len(key)))
    found = {g: extract_sublattice(g, {k: s for s, k in key.items()}) for g, key in keys.items()}
    for i, f, sets, graph in lines:
        masks, key = found[graph].masks, keys[graph]
        ok = eval_masks(f, {c: masks[key[s]] for c, s in sets.items()}, found[graph].full)
        report[i] = (report[i][0], ok)
    return report


def weak_confluence_witness(tower: Tower, c: ClosedSet) -> Thread:
    """A thread over a connected closed set of the base: at each stage the
    component of the preimage with the exact image (`lift_through`), the
    full preimage at monotone stages, the set itself through the identity
    (connected, as `c` is checked and every lift is a component)."""
    if c.is_empty():
        raise PreconditionError("weak-confluence thread needs a nonempty set")
    if len(tower.graph(0).components_of(c)) != 1:
        raise PreconditionError("weak-confluence thread needs a connected set")
    sets = [c]
    for n in range(1, tower.depth + 1):
        st, s = tower.stages[n], sets[-1]
        sets.append(s if st.bonding.is_identity else lift_through(st, s, st.bonding.preimage_of(s)))
    return Thread(sets)


# --------------------------------------------------------------------------
# Tower directory format
# --------------------------------------------------------------------------

def save_tower(tower: Tower, directory: str) -> None:
    """Write `stage<n>.json`, `bonding<n>.json` and `trace.json`.  A set
    object is rendered once per run of stages that keep a graph, however
    many names and stages bind it: their stage files share one `to_dict`
    entry per object and one `dump_json` memo, keyed by `id`, which is
    stable because the tower holds every set meanwhile.  A set lives on
    its stage's graph, so a new graph starts them afresh."""
    os.makedirs(directory, exist_ok=True)

    def write(name: str, obj, memo: dict | None = None) -> None:
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(dump_json(obj, memo))

    graph = None
    for n, st in enumerate(tower.stages):
        if st.graph is not graph:
            graph, entries, memo = st.graph, {}, {}
        write(f"stage{n}.json", graph_to_dict(st.graph, st.base, entries), memo)
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


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def load_tower(directory: str) -> Tower:
    """The tower a directory of `save_tower` describes; a malformed one is
    an `InputError`.  A stage whose graph (vertices, edges and meta) is
    stage n-1's loads onto stage n-1's graph object, so the loaded tower
    shares graphs where the built one does.  Closed sets are read once per
    distinct entry per graph (`GraphReader`), over the stage files and the
    catalog: stages that keep a graph share its set objects, and with them
    their hashes and footprints.  Only the current graph's entries are
    held, so a stage's catalog sets are read with the stage.  A bonding on
    stage n-1's graph object whose file is `==` to the identity's `to_dict`
    (all strings, so exact) loads as `PLMap.identity`; any other file goes
    through `PLMap.from_dict`."""
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
        specs = trace.get("catalog", {})
        for name, entries in specs.items():
            if len(entries) != depth + 1:
                raise InputError(
                    f"malformed tower directory {directory}: catalog {name!r} has "
                    f"{len(entries)} sets for {depth + 1} stages"
                )
        catalog: dict[str, list[ClosedSet]] = {name: [] for name in specs}
        stages: list[Stage] = []
        reader = None
        for n in range(depth + 1):
            data = read(f"stage{n}.json")
            if reader is None or not reader.reads(data):
                reader, same = GraphReader(data), None
            graph, base = reader.graph, reader.closed_sets(data)
            for name, entries in specs.items():
                catalog[name].append(reader.closed_set(entries[n]))
            bonding = None
            if n > 0:
                prev, spec = stages[n - 1].graph, read(f"bonding{n}.json")
                if graph is prev:
                    same = same or PLMap.identity(graph).to_dict()
                bonding = (PLMap.identity(graph) if graph is prev and spec == same
                           else PLMap.from_dict(graph, prev, spec))
            meta = trace["stages"][n]
            if not (isinstance(meta["kind"], str) and _is_strings(meta["nudges"])):
                raise InputError(
                    f"malformed tower directory {directory}: stage {n} kind {meta['kind']!r} "
                    f"nudges {meta['nudges']!r}"
                )
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
                and _is_strings(inst["operands"]) and _is_strings(inst["witnesses"])
                and len(inst["operands"]) == (3 if inst["kind"] == "zeta" else 4)
                and len(inst["witnesses"]) == 3
            ):
                raise InputError(f"malformed tower directory {directory}: stage {n} instance {inst!r}")
            stages.append(
                Stage(graph, bonding, base, meta["kind"], instance=inst, nudges=meta["nudges"])
            )
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise InputError(f"malformed tower directory {directory}: {exc!r}") from exc
    return Tower(stages, catalog)
