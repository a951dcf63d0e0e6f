"""The two consistency-witness constructions on metric graphs, and the one
instance step that both drivers take for every instance.

The dimension step inserts a circle fiber at every isolated point whose
normalized distance triple sits at the barycenter and bonds monotonically
back; its witnesses are the pullbacks of the kappa min-regions, less the new
fibers, plus one arc of each fiber.  The crookedness step threads the space
through a five-segment staircase over a separating function, keeps the
unique component that still covers the base, and cuts its witnesses from
pullbacks to one level.  Both return the new space, the bonding map and the
witness sets; the instance step re-checks each surgery independently of the
construction bookkeeping, on the cell footprints of the pulled-back operands
and witnesses.
Sentences are decided there as bitmasks (meet and join are `&` and `|`,
conn(t) by Birkhoff duality), so no sublattice is closed and no element cap
applies, not even for a fragment's hat-mode lines.

Both drivers, `witness_fragment` here and `build_tower` in tower.py, hand
every instance to the instance step (`instance_stage`) and bind each fresh
name once (`Stage.bind`).  An instance that the shortcut table
(`resolve_shortcut`) or a cover probe resolves joins the stage it is given;
a surgery, through the nudge-retry loop `surgery_with_nudges`, opens a new
stage, the one place a stage base crosses a bonding.  One search lifts a
connected set through a bonding (`lift_through`); a tower's threads are
lifted by `weak_confluence_witness`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction as Frac

from .errors import (
    DegeneracyError,
    EvaluationError,
    InputError,
    InvariantViolationError,
    PreconditionError,
    ResourceLimitError,
    UsageError,
)
from .folang import (
    And, Const, Eq, Formula, Implies, Neq, Not, Or,
    constants_of, is_ground, theta, zeta,
)
from .lattice import DEFAULT_ELEMENT_CAP
from .metric_graph import (
    ClosedSet, Edge, MetricGraph, PLFunction, PLMap, Point, distance_to_set,
    extract_sublattice, frac_str, kappa_map, urysohn,
)
from .sigma import SentenceRecord

ARC_LETTERS = ("A", "B", "C")

# The ground instances of the dimension ("zeta") and crookedness ("theta")
# schemata over the operand roles a, b, c (, d) and the witness roles x, y, z.
GROUND = {"zeta": zeta(*map(Const, "abcxyz")), "theta": theta(*map(Const, "abcdxyz"))}


def instance_sets(instance: dict, base: dict[str, ClosedSet]) -> dict[str, ClosedSet] | None:
    """The sets that an instance's operand and witness names have in `base`,
    keyed by their roles in `GROUND`; None when a name is unbound there."""
    roles = [*zip("abcd", instance["operands"]), *zip("xyz", instance["witnesses"])]
    if any(nm not in base for _, nm in roles):
        return None
    return {r: base[nm] for r, nm in roles}


# --------------------------------------------------------------------------
# Ground geometric evaluation: a ClosedSet-algebra oracle for the
# cell-footprint evaluator, which decides every verdict in the library
# --------------------------------------------------------------------------

def _geom_term(t, sets: dict[str, ClosedSet], graph: MetricGraph) -> ClosedSet:
    from .folang import Const as C, Join as J, Meet as M, One as O, Zero as Z

    if isinstance(t, C):
        if t.cid not in sets:
            raise EvaluationError(f"constant {t.cid!r} has no interpretation")
        return sets[t.cid]
    if isinstance(t, Z):
        return graph.empty_set()
    if isinstance(t, O):
        return graph.whole_set()
    if isinstance(t, M):
        return _geom_term(t.left, sets, graph) & _geom_term(t.right, sets, graph)
    if isinstance(t, J):
        return _geom_term(t.left, sets, graph) | _geom_term(t.right, sets, graph)
    raise UsageError(f"not a ground term: {t!r}")


def eval_ground_geometric(f: Formula, sets: dict[str, ClosedSet], graph: MetricGraph) -> bool:
    """A ground sentence in the ClosedSet algebra.  No library code calls it:
    tests compare the cell-footprint evaluator against it, perfbench traces it."""
    if isinstance(f, Eq):
        return _geom_term(f.left, sets, graph) == _geom_term(f.right, sets, graph)
    if isinstance(f, Neq):
        return _geom_term(f.left, sets, graph) != _geom_term(f.right, sets, graph)
    if isinstance(f, Not):
        return not eval_ground_geometric(f.sub, sets, graph)
    if isinstance(f, And):
        return eval_ground_geometric(f.left, sets, graph) and eval_ground_geometric(f.right, sets, graph)
    if isinstance(f, Or):
        return eval_ground_geometric(f.left, sets, graph) or eval_ground_geometric(f.right, sets, graph)
    if isinstance(f, Implies):
        return (not eval_ground_geometric(f.left, sets, graph)) or eval_ground_geometric(f.right, sets, graph)
    raise UsageError("geometric evaluation handles ground sentences only")


def verify_on_sublattice(
    f: Formula, sets: dict[str, ClosedSet], graph: MetricGraph, cap: int = DEFAULT_ELEMENT_CAP
) -> bool:
    """Independent check of a sentence on the cell footprints of the sets it
    mentions.  A call costs one `extract_sublattice` over those sets: the
    edges they cut plus the sets' partial intervals, with each set's edge
    split computed only on the first check that names it.  Its callers are
    `instance_stage`'s check of a surgery, perfbench's fragment verify and
    the tests; `verify_tower` shares one arrangement per graph instead.
    `cap` is accepted but not read, because perfbench passes it."""
    named = {cid: sets[cid] for cid in constants_of(f)}
    return extract_sublattice(graph, named, cap=cap).decide(f)


# --------------------------------------------------------------------------
# Point tokens and nudges
# --------------------------------------------------------------------------

def point_token(p: Point) -> str:
    if p[0] == "v":
        return p[1]
    return f"{p[1]}@{frac_str(p[2])}"


def _isolated_points(s: ClosedSet, what: str) -> list[Point]:
    """The points of a finite closed set: its vertices, then its edge points,
    each in sorted order.  A subedge in `s` is a degeneracy, named after the
    first edge that holds one."""
    for eid, items in s.intervals.items():
        if any(lo != hi for lo, hi in items):
            raise DegeneracyError(f"{what} contains a subedge of {eid!r}", eid)
    return [("v", v) for v in sorted(s.vertices)] + [
        ("e", eid, lo) for eid, items in s.intervals.items() for lo, _ in items
    ]


def nudge_edge_length(graph: MetricGraph, eid: str) -> MetricGraph:
    """The smallest denominator-doubling length change: p/q -> (2p+1)/(2q)."""
    e = graph.edges[eid]
    new_len = Frac(2 * e.length.numerator + 1, 2 * e.length.denominator)
    edges = [
        Edge(x.eid, x.u, x.v, new_len if x.eid == eid else x.length)
        for x in graph.edges.values()
    ]
    return MetricGraph(graph.vertices, edges, dict(graph.meta))


def stretch_map(nudged: MetricGraph, original: MetricGraph) -> PLMap:
    """The homeomorphism squeezing a lengthened edge back onto the original:
    identity elsewhere, affine on the nudged edge."""
    edge_map = {}
    for e2 in nudged.edges.values():
        target_len = original.edges[e2.eid].length
        edge_map[e2.eid] = ("affine", e2.eid, 0, target_len)
    return PLMap(nudged, original, {v: ("v", v) for v in nudged.vertices}, edge_map)


# --------------------------------------------------------------------------
# Triangle (dimension) step
# --------------------------------------------------------------------------

@dataclass
class TriangleStep:
    output_graph: MetricGraph
    bonding: PLMap                     # output -> input, monotone and closed
    witnesses: dict[str, ClosedSet]    # keys "x", "y", "z" on the output
    locus: list[Point]
    kind: str = "triangle"


def _one_sided_slope(fn: PLFunction, eid: str, t: Frac, direction: int) -> Frac:
    bp = fn.per_edge[eid]
    for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
        if direction > 0 and x0 <= t < x1:
            return (y1 - y0) / (x1 - x0)
        if direction < 0 and x0 < t <= x1:
            return -(y1 - y0) / (x1 - x0)
    raise UsageError(f"no slope at {t} on {eid!r}")


def _branch_attachment(km, eid: str, t: Frac, direction: int) -> str:
    """Which circle vertex a branch closes up at: the radial projection of
    the outgoing kappa direction.  Distance slopes away from a positive-level
    point are +-1, so the exit is a side midpoint (one decreasing distance)
    or a corner (two decreasing)."""
    slopes = tuple(
        _one_sided_slope(fn, eid, t, direction) for fn in (km.d_a, km.d_b, km.d_c)
    )
    minus = [i for i, s in enumerate(slopes) if s < 0]
    if len(minus) == 1:
        return f"m{ARC_LETTERS[minus[0]]}"
    if len(minus) == 2:
        rest = ({0, 1, 2} - set(minus)).pop()
        return f"v{ARC_LETTERS[rest]}"
    raise DegeneracyError(
        f"barycenter locus continues along edge {eid!r}", edge_id=eid
    )


def _fiber_complex(idx: int) -> tuple[list[str], list[Edge], dict[str, list[str]]]:
    """A 6-vertex, 6-edge circle: corners vA,vB,vC and side midpoints
    mA,mB,mC; arc A runs vB-mA-vC and carries the x-witness, etc."""
    p = f"fib{idx}."
    verts = [p + n for n in ("vA", "vB", "vC", "mA", "mB", "mC")]
    sixth = Frac(1, 6)
    edges = [
        Edge(p + "A0", p + "vB", p + "mA", sixth),
        Edge(p + "A1", p + "mA", p + "vC", sixth),
        Edge(p + "B0", p + "vC", p + "mB", sixth),
        Edge(p + "B1", p + "mB", p + "vA", sixth),
        Edge(p + "C0", p + "vA", p + "mC", sixth),
        Edge(p + "C1", p + "mC", p + "vB", sixth),
    ]
    arcs = {
        "A": [p + "A0", p + "A1"],
        "B": [p + "B0", p + "B1"],
        "C": [p + "C0", p + "C1"],
    }
    return verts, edges, arcs


def triangle_step(
    graph: MetricGraph,
    a: ClosedSet,
    b: ClosedSet,
    c: ClosedSet,
) -> TriangleStep:
    """Make the dimension witnesses exist: each isolated barycenter point of
    the distance triple is blown up into a circle fiber, and x, y, z are the
    pullbacks of the minimal-coordinate regions, less the new fibers, each
    with its arc of every fiber.  `kappa_map` checks the premises (a, b, c
    nonempty with an empty triple meet, all on `graph`).  The bonding is
    checked onto; the schema is checked only by `instance_stage`."""
    km = kappa_map(graph, a, b, c)
    locus = _isolated_points(km.barycenter_locus, "barycenter locus")
    regions = km.min_regions

    if not locus:
        out = graph
        bonding = PLMap.identity(graph)
        witnesses = {"x": regions[0], "y": regions[1], "z": regions[2]}
    else:
        locus_vertices = {p[1] for p in locus if p[0] == "v"}
        cuts: dict[str, list[Frac]] = {}
        for p in locus:
            if p[0] == "e":
                cuts.setdefault(p[1], []).append(p[2])  # ascending, as in the locus
        # fiber numbers skip any already present from earlier surgeries
        used_fibers = {
            int(m.group(1))
            for name in (*graph.vertices, *graph.edges)
            for m in [re.match(r"fib(\d+)\.", name)]
            if m
        }
        fiber_of_point: dict[Point, int] = dict(
            zip(locus, (i for i in itertools.count() if i not in used_fibers))
        )
        new_vertices: list[str] = [v for v in graph.vertices if v not in locus_vertices]
        new_edges: list[Edge] = []
        vertex_map: dict[str, Point] = {v: ("v", v) for v in new_vertices}
        edge_map: dict[str, tuple] = {}
        arc_edges: list[dict[str, list[str]]] = []
        for p in locus:
            verts, edges, arcs = _fiber_complex(fiber_of_point[p])
            new_vertices.extend(verts)
            new_edges.extend(edges)
            arc_edges.append(arcs)
            for v in verts:
                vertex_map[v] = p
            for e in edges:
                edge_map[e.eid] = ("const", p)
        # the new fibers, known by what this call built and not by name:
        # fibers of earlier surgeries carry the same prefix
        fiber_vertices = {v for v, p in vertex_map.items() if p in fiber_of_point}
        fiber_edges = set(edge_map)

        def end_name(eid: str, t: Frac, direction: int) -> str:
            """A segment's end at `t` on `eid`: its vertex, or at a locus
            point the fiber vertex the branch leaving in `direction` meets."""
            p = graph.point(eid, t)
            if p not in fiber_of_point:
                return p[1]
            return f"fib{fiber_of_point[p]}.{_branch_attachment(km, eid, t, direction)}"

        for eid, e in sorted(graph.edges.items()):
            marks = [Frac(0)] + cuts.get(eid, []) + [e.length]
            for k, (lo, hi) in enumerate(zip(marks, marks[1:])):
                seg_id = eid if len(marks) == 2 else f"{eid}.{k}"
                new_edges.append(Edge(seg_id, end_name(eid, lo, +1), end_name(eid, hi, -1), hi - lo))
                edge_map[seg_id] = ("affine", eid, lo, hi)
        out = MetricGraph(new_vertices, new_edges, dict(graph.meta))
        out.meta["fibers"] = [
            {"center": point_token(p), "edges": sorted(sum(arcs.values(), []))}
            for p, arcs in zip(locus, arc_edges)
        ]
        bonding = PLMap(out, graph, vertex_map, edge_map)

        # the normal form keeps an attachment vertex where a pulled-back
        # interval reaches a segment's end
        witnesses = {}
        for wname, region, letter in zip("xyz", regions, ARC_LETTERS):
            pre = bonding.preimage_of(region)
            witnesses[wname] = ClosedSet(
                out,
                {eid: items for eid, items in pre.intervals.items() if eid not in fiber_edges},
                pre.vertices - fiber_vertices,
                whole=[eid for arcs in arc_edges for eid in arcs[letter]],
            )

    if not bonding.is_surjective():
        raise InvariantViolationError("triangle bonding is not onto")
    return TriangleStep(
        output_graph=out,
        bonding=bonding,
        witnesses=witnesses,
        locus=locus,
    )


def check_monotone(step: TriangleStep) -> bool:
    """Every bonding fiber is connected: full circles over the blown-up
    points, singletons over sampled regular points."""
    g = step.bonding.codomain
    sample: list[Point] = [("v", v) for v in g.vertices]
    sample.extend(step.locus)
    for eid, e in g.edges.items():
        cuts = sorted(
            {p[2] for p in step.locus if p[0] == "e" and p[1] == eid}
            | {Frac(0), e.length}
        )
        for lo, hi in zip(cuts, cuts[1:]):
            sample.append(("e", eid, (lo + hi) / 2))
    locus = set(step.locus)
    for p in sample:
        p = g.normalize_point(p)
        fiber = step.bonding.preimage_of(g.point_closed_set([p]))
        comps = step.output_graph.components_of(fiber)
        if len(comps) != 1:
            return False
        length = sum(
            (hi - lo for items in fiber.intervals.values() for lo, hi in items),
            Frac(0),
        )
        if p in locus:
            if length != 1:  # the whole unit-circumference fiber circle
                return False
        else:
            point_count = len(fiber.vertices) + sum(
                len(items) for items in fiber.intervals.values()
            )
            if length != 0 or point_count != 1:
                return False
    return True


# --------------------------------------------------------------------------
# Crooked (hereditary-indecomposability) step
# --------------------------------------------------------------------------

@dataclass
class CrookedStep:
    output_graph: MetricGraph          # the unique onto component
    bonding: PLMap                     # output -> input (the projection)
    separating: PLFunction             # the Urysohn function on the input
    witnesses: dict[str, ClosedSet]
    component_count: int
    staircase_graph: MetricGraph = None
    kind: str = "crooked"


class _Copy:
    """One horizontal level of the staircase: a subdivided copy of a closed
    region of the base graph."""

    def __init__(self, graph: MetricGraph, region: ClosedSet, cut_points: list[Point], prefix: str):
        self.prefix = prefix
        cut_params: dict[str, set] = {}
        for p in cut_points:
            if p[0] == "e":
                cut_params.setdefault(p[1], set()).add(p[2])
        self.vertices: dict[str, Point] = {}
        self.edges: list[tuple] = []  # (eid, u, v, length, base_eid, p, q)
        for v in sorted(region.vertices):
            self.vertices[f"{prefix}|{v}"] = ("v", v)
        for eid in sorted(region.intervals):
            for lo, hi in region.intervals[eid]:
                if lo == hi:
                    name = self._vertex_name(("e", eid, lo))
                    self.vertices.setdefault(name, ("e", eid, lo))
                    continue
                marks = [lo] + sorted(
                    t for t in cut_params.get(eid, ()) if lo < t < hi
                ) + [hi]
                points = [graph.point(eid, t) for t in marks]
                names = [self._vertex_name(p) for p in points]
                for name, point in zip(names, points):
                    self.vertices.setdefault(name, point)
                for k, (p, q) in enumerate(zip(marks, marks[1:])):
                    seg_id = f"{self.prefix}|{eid}:{k}:{frac_str(p)}"
                    self.edges.append((seg_id, names[k], names[k + 1], q - p, eid, p, q))

    def _vertex_name(self, p: Point) -> str:
        return f"{self.prefix}|{point_token(p)}"

    def vertex_for(self, p: Point) -> str:
        name = self._vertex_name(p)
        if name not in self.vertices:
            raise InvariantViolationError(f"level point {p} missing from copy {self.prefix}")
        return name


def crooked_step(
    graph: MetricGraph,
    a: ClosedSet,
    b: ClosedSet,
    c: ClosedSet,
    d: ClosedSet,
) -> CrookedStep:
    """Thread the space through the five-segment staircase over the Urysohn
    function from a to b, at most 1/2 on c and at least 1/2 on d, and keep
    the unique component that still projects onto the whole input.  The
    staircase levels, the two level sets and the witness bands are all cut
    from sublevel and superlevel sets of that function, each of the eight it
    needs (at 1/3, 2/3, 3/8 and 5/8) taken once.  `urysohn` checks a#b, a#d,
    b#c and the graph; an empty endpoint, which it answers with a constant,
    is checked here.  The schema is checked only by `instance_stage`."""
    if a.is_empty() or b.is_empty():
        raise PreconditionError("empty endpoint set; the caller must use the shortcut")
    f = urysohn(graph, a, b, pin_low=c, pin_high=d)
    third, two_thirds = Frac(1, 3), Frac(2, 3)
    low, high = f.sublevel_set(two_thirds), f.superlevel_set(third)
    mid = low & high
    levels = {
        third: _isolated_points(f.sublevel_set(third) & high, f"level set f={third}"),
        two_thirds: _isolated_points(
            low & f.superlevel_set(two_thirds), f"level set f={two_thirds}"
        ),
    }
    c14 = _Copy(graph, low, levels[two_thirds], "t14")
    c12 = _Copy(graph, mid, levels[third] + levels[two_thirds], "t12")
    c34 = _Copy(graph, high, levels[third], "t34")

    vertices: list[str] = []
    edges: list[Edge] = []
    vertex_map: dict[str, Point] = {}
    edge_map: dict[str, tuple] = {}
    for copy in (c14, c12, c34):
        for name, base_pt in copy.vertices.items():
            vertices.append(name)
            vertex_map[name] = base_pt
        for seg_id, u, v, length, base_eid, p, q in copy.edges:
            edges.append(Edge(seg_id, u, v, length))
            edge_map[seg_id] = ("affine", base_eid, p, q)
    for level, pair in ((two_thirds, (c14, c12)), (third, (c12, c34))):
        tag = "h23" if level == two_thirds else "h13"
        for p in levels[level]:
            eid = f"{tag}|{point_token(p)}"
            u = pair[0].vertex_for(p)
            v = pair[1].vertex_for(p)
            edges.append(Edge(eid, u, v, Frac(1, 4)))
            edge_map[eid] = ("const", p)
    staircase = MetricGraph(vertices, edges)
    projection = PLMap(staircase, graph, vertex_map, edge_map)

    comps = staircase.components_of(staircase.whole_set())
    onto = [
        comp for comp in comps
        if projection.image_of(comp) == graph.whole_set()
    ]
    if len(onto) != 1:
        raise InvariantViolationError(
            f"staircase has {len(onto)} onto components; expected exactly one"
        )
    comp = onto[0]
    out = MetricGraph(comp.vertices, [e for e in edges if e.eid in comp.intervals], dict(graph.meta))
    _attach_staircase_layout(out, graph, vertex_map)
    bonding = projection.restrict(out)
    if not bonding.is_surjective():
        raise InvariantViolationError("selected component lost surjectivity")

    def part(*tags: str) -> ClosedSet:
        """The closed part of `out` made of the edges and vertices whose
        names start with one of `tags`."""
        whole = [eid for eid in out.edges if eid.split("|", 1)[0] in tags]
        return ClosedSet(out, {}, {v for v in out.vertices if v.split("|", 1)[0] in tags}, whole)

    # Witness bands cut along the separating values: the x/y boundary sits at
    # value 3/8 on the low level and the y/z boundary at 5/8 on the high one,
    # so the pinned sets c and d stay clear of the double intersections.  On
    # each level `bonding` is the projection, so a band there is the pullback
    # of the base band cut to that level.
    t14, t34 = part("t14"), part("t34")
    witnesses = {
        "x": bonding.preimage_of(f.sublevel_set(Frac(3, 8))) & t14,
        "y": (bonding.preimage_of(low & f.superlevel_set(Frac(3, 8))) & t14)
        | part("t12", "h23", "h13")
        | (bonding.preimage_of(f.sublevel_set(Frac(5, 8)) & high) & t34),
        "z": bonding.preimage_of(f.superlevel_set(Frac(5, 8))) & t34,
    }
    return CrookedStep(
        output_graph=out,
        bonding=bonding,
        separating=f,
        witnesses=witnesses,
        component_count=len(comps),
        staircase_graph=staircase,
    )


def _attach_staircase_layout(out, base, vertex_map) -> None:
    """Cosmetic position hints: horizontal = the staircase parameter,
    vertical = an arc-length linearization of the base graph."""
    offsets: dict[str, Frac] = {}
    run = Frac(0)
    for eid in sorted(base.edges):
        offsets[eid] = run
        run += base.edges[eid].length

    def lin(p: Point) -> Frac:
        if p[0] == "e":
            return offsets[p[1]] + p[2]
        eid, end = base.adjacency[p[1]][0]  # a copied base vertex has an edge
        return offsets[eid] + (Frac(0) if end == 0 else base.edges[eid].length)

    # every staircase vertex is a copy's, so it has a level prefix
    t_of_prefix = {"t14": Frac(1, 4), "t12": Frac(1, 2), "t34": Frac(3, 4)}
    out.meta["pos"] = {
        v: (frac_str(t_of_prefix[v.split("|", 1)[0]]), frac_str(lin(vertex_map[v])))
        for v in out.vertices
    }


# --------------------------------------------------------------------------
# Connected lifts
# --------------------------------------------------------------------------

def lift_through(stage, s: ClosedSet, pre: ClosedSet) -> ClosedSet:
    """A connected onto lift of a nonempty `s` through one bonding: the
    component of `pre`, the preimage of `s`, with the exact image.  Works
    from the bonding alone, so a built or loaded `Stage`, a `TriangleStep`
    and a `CrookedStep` lift alike."""
    bonding = stage.bonding
    for comp in bonding.domain.components_of(pre):
        if bonding.image_of(comp) == s:
            return comp
    raise InvariantViolationError("no component of the preimage maps onto the set")


def lift_connected(step, s: ClosedSet, pre: ClosedSet) -> ClosedSet:
    """A connected closed set in the new space mapping exactly onto `s`,
    given `pre`, the preimage of `s` that the caller has already pulled back.

    Monotone (triangle) bondings lift by full preimage, which must be one
    component; crooked bondings keep the component of the preimage with the
    exact image, which the construction guarantees to exist."""
    if len(step.bonding.codomain.components_of(s)) != 1:
        raise PreconditionError("lift_connected needs a connected set")
    lifted = lift_through(step, s, pre)
    if step.kind == "triangle" and lifted != pre:
        raise InvariantViolationError("monotone bonding produced a disconnected preimage")
    return lifted


# --------------------------------------------------------------------------
# Fresh sets of the sentences that need no surgery
# --------------------------------------------------------------------------

def normal_cocover(
    graph: MetricGraph, mn: ClosedSet, mx: ClosedSet
) -> tuple[ClosedSet, ClosedSet]:
    """The normality co-cover `(k1, k2)` of `mn` and `mx`: k1 misses mx, k2
    misses mn, cut along the distance bisector.  Both empty when the sets
    meet (a vacuous premise)."""
    if not (mx & mn).is_empty():
        return graph.empty_set(), graph.empty_set()
    if mx.is_empty():
        return graph.whole_set(), graph.empty_set()
    if mn.is_empty():
        return graph.empty_set(), graph.whole_set()
    d_mx = distance_to_set(graph, mx)
    d_mn = distance_to_set(graph, mn)
    diff = d_mx - d_mn
    return diff.superlevel_set(0), diff.sublevel_set(0)


def disjunctivity_point(graph: MetricGraph, big: ClosedSet, small: ClosedSet) -> ClosedSet:
    """A point of `big` outside `small`; empty when `big` lies inside
    `small` (a vacuous premise)."""
    if big.is_subset_of(small):
        return graph.empty_set()
    return graph.point_closed_set([_point_outside(graph, big, small)])


# --------------------------------------------------------------------------
# Instance resolution, shared by both drivers
# --------------------------------------------------------------------------

MAX_NUDGES = 8

# Per instance kind: the operand whose emptiness allows a shortcut, and the
# witnesses x, y, z it takes ("1" the whole space, "0" the empty set).
_SHORTCUTS = {
    "zeta": ((0, "011"), (1, "101"), (2, "110")),
    "theta": ((0, "001"), (1, "100")),
}


def premise_holds(kind: str, ops: list[ClosedSet]) -> bool:
    """Whether the premise of `GROUND[kind]` holds of the operand sets."""
    if kind == "zeta":
        a, b, c = ops
        return ((a & b) & c).is_empty()
    a, b, c, d = ops
    return (a & b).is_empty() and (a & d).is_empty() and (b & c).is_empty()


def resolve_shortcut(kind: str, graph: MetricGraph, ops: list[ClosedSet]):
    """The witnesses of a dimension ("zeta") or crookedness ("theta")
    instance that needs no surgery, as `(mode, (x, y, z))`: all empty when
    the premise fails ("vacuous"), whole and empty sets when an operand is
    empty ("shortcut").  None when the instance needs surgery."""
    if not premise_holds(kind, ops):
        return "vacuous", (graph.empty_set(),) * 3
    for i, pattern in _SHORTCUTS[kind]:
        if ops[i].is_empty():
            return "shortcut", tuple(
                graph.whole_set() if bit == "1" else graph.empty_set() for bit in pattern
            )
    return None


def surgery_with_nudges(kind: str, graph: MetricGraph, ops: list[ClosedSet]):
    """Run the instance's surgery (a triangle step for "zeta", a crooked step
    for "theta"), retrying after minimal edge-length nudges.

    Each nudge is a genuine reparametrization: the operands are pulled back
    through `renorm`, one stretch from the nudged space onto `graph`, so a
    bonding chain stays exact.  Nudge targets rotate so symmetric
    configurations get broken even when the degenerate edge itself is not
    the culprit.  Returns the step, its bonding onto `graph` (the step's own
    bonding followed by `renorm`), and the nudged edge ids."""
    candidates = None
    nudged: list[str] = []
    space, space_ops, renorm = graph, ops, None
    while True:
        try:
            step = (triangle_step if kind == "zeta" else crooked_step)(space, *space_ops)
            bonding = step.bonding if renorm is None else step.bonding.then(renorm)
            return step, bonding, nudged
        except DegeneracyError as exc:
            if len(nudged) >= MAX_NUDGES:
                raise
            if candidates is None:
                candidates = [exc.edge_id] + sorted(
                    eid for eid in graph.edges if eid != exc.edge_id
                )
            target = candidates[len(nudged) % len(candidates)]
            space = nudge_edge_length(space, target)
            renorm = stretch_map(space, graph)
            space_ops = [renorm.preimage_of(s) for s in ops]
            nudged.append(target)


# --------------------------------------------------------------------------
# Stages: one instance step, shared by both drivers
# --------------------------------------------------------------------------

@dataclass
class Stage:
    """A stage of either driver.  `kind` and `instance` are its last
    instance's: a stage that several instances join records only the last
    one's, and the witnesses of every one stay in `base`."""
    graph: MetricGraph
    bonding: PLMap | None              # stage n -> stage n-1; None at stage 0
    base: dict[str, ClosedSet]
    kind: str                          # base|identity|triangle|crooked|shortcut|vacuous|noop
    instance: dict | None = None
    nudges: list = field(default_factory=list)

    def bind(self, names, sets) -> None:
        """Add each name to the base; a name already bound is an input error."""
        for name, s in zip(names, sets):
            if name in self.base:
                raise InputError(f"{name!r} is already bound in the stage base")
            self.base[name] = s


def instance_stage(stage: Stage, instance: dict, cover=None) -> Stage:
    """The one step of a dimension ("zeta") or crookedness ("theta")
    instance in either driver, on the sets that the names
    `instance["operands"]` have in `stage.base`.  An instance that needs no
    surgery joins `stage`, which is returned: "vacuous" or "shortcut" by
    `resolve_shortcut`, else "existing-cover" (stage kind "identity") when
    `cover(graph, *operands)`, if given, finds witnesses there (a
    `ResourceLimitError` means none); its `kind` and `instance` replace the
    stage's, so a stage that several instances join records only the last
    one's.  Otherwise the surgery, with any nudges folded into the bonding,
    opens a stage over `stage.base` pulled back through that bonding: the
    only place a base crosses a bonding.  Either way the witnesses join the
    base under the names `instance["witnesses"]`, and `instance["mode"]`
    records the path.

    The one check of a surgery is the conclusion `GROUND[kind].right` on
    the new base's cell footprints (the premise held before the surgery, so
    a faulty pullback cannot pass vacuously).

    The pullback costs one `preimage_of` per distinct point set, not per
    name: every name bound to a set shares its one preimage object.  Sets
    are keyed by value, and a set hashes once.  A bonding is onto, so
    distinct sets keep distinct preimages and equal names stay one object."""
    kind = instance["kind"]
    ops = [stage.base[name] for name in instance["operands"]]
    resolved = resolve_shortcut(kind, stage.graph, ops)
    if resolved is None and cover is not None:
        try:
            found = cover(stage.graph, *ops)
        except ResourceLimitError:
            found = None
        resolved = None if found is None else ("existing-cover", found)
    if resolved is not None:
        instance["mode"], witnesses = resolved
        stage.kind = "identity" if instance["mode"] == "existing-cover" else instance["mode"]
        stage.instance = instance
        stage.bind(instance["witnesses"], witnesses)
        return stage
    step, bonding, nudged = surgery_with_nudges(kind, stage.graph, ops)
    pulled = {s: bonding.preimage_of(s) for s in dict.fromkeys(stage.base.values())}
    base = {cid: pulled[s] for cid, s in stage.base.items()}
    instance["mode"] = "surgery"
    stage = Stage(step.output_graph, bonding, base, step.kind, instance=instance, nudges=nudged)
    stage.bind(instance["witnesses"], [step.witnesses[role] for role in "xyz"])
    if not verify_on_sublattice(GROUND[kind].right, instance_sets(instance, stage.base), stage.graph):
        raise InvariantViolationError(f"{step.kind} surgery failed its schema on the cell footprints")
    return stage


# --------------------------------------------------------------------------
# Fragment witnessing
# --------------------------------------------------------------------------

def base_interpretation(
    base, generator_sets: dict[str, ClosedSet], graph: MetricGraph
) -> dict[str, ClosedSet]:
    """Interpret every base-lattice constant geometrically by replaying each
    element's derivation (generator, bottom, top, meet, join) over the named
    generator sets.  Faithfulness (distinct elements to distinct sets) is the
    caller's responsibility; the diagram evaluation reports any failure."""
    from .sigma import constant_id

    realized: list[ClosedSet] = []
    for deriv in base.derivations:
        tag = deriv[0]
        if tag == "gen":
            name = deriv[1]
            if name not in generator_sets:
                raise InputError(f"no closed set named {name!r} for a base generator")
            realized.append(generator_sets[name])
        elif tag == "bottom":
            realized.append(graph.empty_set())
        elif tag == "top":
            total = graph.empty_set()
            for s in generator_sets.values():
                total = total | s
            realized.append(total)
        elif tag == "meet":
            realized.append(realized[deriv[1]] & realized[deriv[2]])
        elif tag == "join":
            realized.append(realized[deriv[1]] | realized[deriv[2]])
        else:
            raise UsageError(f"unknown derivation {deriv!r}")
    return {constant_id(-1, i): s for i, s in enumerate(realized)}


@dataclass
class WitnessResult:
    graph: MetricGraph
    interpretation: dict[str, ClosedSet]
    trace: list[dict]
    report: list[tuple[str, bool]]
    ok: bool


def witness_fragment(
    records: list[SentenceRecord],
    graph0: MetricGraph,
    interp0: dict[str, ClosedSet],
    cap: int = DEFAULT_ELEMENT_CAP,
) -> WitnessResult:
    """Process a well-ordered fragment, building a model sentence by
    sentence: fresh sets for the bookkeeping stages, a triangle step per
    satisfiable dimension instance, a crooked step per satisfiable
    crookedness instance; `hat-conn` constants are lifted as connected sets,
    and a `hat-zero` line binds its constant to the empty set once.
    Each surgery re-checks the ground sentences processed so far, and the
    report re-evaluates every sentence on one arrangement of all fragment
    constants, both on cell footprints, so no lattice is closed and `cap` is
    accepted but not read, because perfbench passes it.  A `hat-conn` line
    also needs its constant to be connected in the final graph."""
    if not graph0.is_connected():
        raise PreconditionError("the base space must be a nonempty connected graph")
    for cid, s in interp0.items():
        if s.graph is not graph0:
            raise UsageError(f"interpretation of {cid!r} is not on the base graph")
    stage = Stage(graph0, None, dict(interp0), "base")
    connected: set[str] = set()  # hat-conn constants, bound in every later base
    trace: list[dict] = []
    # the ground sentences processed so far and their constants, which each
    # surgery re-checks
    ground: list[SentenceRecord] = []
    ground_cids: set[str] = set()

    def need(cid: str) -> ClosedSet:
        if cid not in stage.base:
            raise EvaluationError(
                f"constant {cid!r} is not interpreted; the fragment is not processed in order"
            )
        return stage.base[cid]

    for rec in records:
        kind = rec.kind
        if kind.startswith("diagram") or kind in ("idem", "assoc", "distrib", "absorb", "guard", "hat-mono"):
            pass
        elif kind == "hat-conn":
            k2 = rec.operands[0]
            if k2 not in stage.base:
                raise InputError(
                    f"catalog constant {k2!r} needs an interpretation in the input"
                )
            connected.add(k2)
        elif kind == "hat-zero":
            stage.bind(rec.operands, [stage.graph.empty_set()])
        elif kind in ("meet", "join"):
            a, b = (need(cid) for cid in rec.operands)
            stage.bind(rec.fresh, [(a & b) if kind == "meet" else (a | b)])
        elif kind == "normal":
            mn, mx = (need(cid) for cid in rec.operands)
            stage.bind(rec.fresh, normal_cocover(stage.graph, mn, mx))
        elif kind in ("disj0", "disj1"):
            big, small = (need(cid) for cid in rec.operands)
            stage.bind(rec.fresh, [disjunctivity_point(stage.graph, big, small)])
        elif kind in GROUND:
            for cid in rec.operands:
                need(cid)
            prev = stage
            stage = instance_stage(prev, {"kind": kind, "operands": rec.operands, "witnesses": rec.fresh})
            if stage is not prev:
                for cid in sorted(connected):
                    if not prev.base[cid].is_empty():
                        try:
                            stage.base[cid] = lift_connected(stage, prev.base[cid], stage.base[cid])
                        except PreconditionError:
                            pass  # not connected after all; the report will say so
                trace.extend(
                    {"action": "nudge", "edge": eid, "sentence": rec.line()}
                    for eid in stage.nudges
                )
                trace.append(
                    {
                        "action": stage.kind,
                        "sentence": rec.line(),
                        "operands": list(rec.operands),
                        "witnesses": list(rec.fresh),
                    }
                )
                check = extract_sublattice(stage.graph, {cid: need(cid) for cid in ground_cids})
                for r in ground:
                    if not check.decide(r.formula):
                        raise InvariantViolationError(
                            f"a previously satisfied sentence became false: {r.line()}"
                        )
        else:
            raise UsageError(f"fragment contains an unknown sentence kind {kind!r}")
        if is_ground(rec.formula):
            ground.append(rec)
            ground_cids.update(constants_of(rec.formula))

    # One arrangement over every fragment constant decides the whole report:
    # refining the cells keeps each verdict.
    all_cids = sorted({cid for r in records for cid in constants_of(r.formula)})
    final = extract_sublattice(stage.graph, {cid: need(cid) for cid in all_cids})
    report = []
    for rec in records:
        ok = final.decide(rec.formula)
        if ok and rec.kind == "hat-conn":
            # conn(t) in the lattice of the named sets misses a split that no
            # named set makes, so the constant's own components count too
            ok = len(stage.graph.components_of(need(rec.operands[0]))) <= 1
        report.append((rec.line(), ok))
    return WitnessResult(stage.graph, stage.base, trace, report, all(v for _, v in report))


def _point_outside(graph: MetricGraph, big: ClosedSet, small: ClosedSet) -> Point:
    """A deterministic point of big \\ small."""
    for v in sorted(big.vertices):
        if v not in small.vertices:
            return ("v", v)
    for eid in sorted(big.intervals):
        for lo, hi in big.intervals[eid]:
            marks = {lo, hi}
            for slo, shi in small.intervals.get(eid, ()):
                for t in (slo, shi):
                    if lo <= t <= hi:
                        marks.add(t)
            marks = sorted(marks)
            candidates = list(marks)
            candidates.extend(
                (p + q) / 2 for p, q in zip(marks, marks[1:])
            )
            for t in sorted(candidates):
                p = graph.normalize_point(("e", eid, t))
                if big.contains_point(p) and not small.contains_point(p):
                    return p
    raise InvariantViolationError("no point outside despite strict inclusion failing")
