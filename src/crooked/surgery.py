"""The two consistency-witness constructions on metric graphs, and the one
instance step both drivers build their stages with.

The dimension step inserts a circle fiber at every isolated point whose
normalized distance triple sits at the barycenter, reinterprets the three
witnesses by the radial-projection rule, and bonds monotonically back.  The
crookedness step threads the space through a five-segment staircase over a
separating function and keeps the unique component that still covers the
base.  Both return the new space, the bonding map, the witness sets, and the
lifted interpretation; every postcondition is re-checked by the independent
formula evaluator on an extracted sublattice, never by construction
bookkeeping.

Both drivers, `witness_fragment` here and `build_tower` in tower.py, resolve a
scheduled instance through the same shortcut table (`resolve_shortcut`), turn
it into a new `Stage` through the same step (`instance_stage`, which runs the
nudge-retry loop `surgery_with_nudges`), and lift connected sets through its
bonding by the same component search (`lift_through`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction as Frac

from .errors import (
    DegeneracyError,
    EvaluationError,
    InputError,
    InvariantViolationError,
    PreconditionError,
    UsageError,
)
from .folang import (
    And, Const, Eq, Formula, Implies, Neq, Not, Or, Zero, One,
    eval_formula, is_ground, psi, theta, zeta,
)
from .lattice import DEFAULT_ELEMENT_CAP
from .metric_graph import (
    ClosedSet, Edge, MetricGraph, PLFunction, PLMap, Point, distance_to_set,
    extract_sublattice, frac_str, kappa_map, urysohn,
)
from .sigma import SentenceRecord

ARC_LETTERS = ("A", "B", "C")

# The ground instances of the dimension, crookedness and theta schemata over
# the operand roles a, b, c (, d) and the witness roles x, y, z.
ZETA_GROUND = zeta(*(Const(r) for r in ("a", "b", "c", "x", "y", "z")))
PSI_GROUND = psi(*(Const(r) for r in ("a", "b", "c", "d", "x", "y", "z")))
THETA_GROUND = theta(*(Const(r) for r in ("a", "b", "c", "d", "x", "y", "z")))


# --------------------------------------------------------------------------
# Ground geometric evaluation (used for premise tests and fast re-checks;
# final verdicts always go through the lattice evaluator instead)
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
    """Independent check: extract the sublattice generated by the mentioned
    sets and run the formula evaluator on it."""
    from .folang import constants_of

    named = {cid: sets[cid] for cid in constants_of(f)}
    res = extract_sublattice(graph, named, cap=cap)
    return eval_formula(f, res.lattice, res.interpretation).value


# --------------------------------------------------------------------------
# Point tokens and nudges
# --------------------------------------------------------------------------

def point_token(p: Point) -> str:
    if p[0] == "v":
        return p[1]
    return f"{p[1]}@{frac_str(p[2])}"


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
    input_graph: MetricGraph
    output_graph: MetricGraph
    bonding: PLMap                     # output -> input, monotone and closed
    witnesses: dict[str, ClosedSet]    # keys "x", "y", "z" on the output
    interpretation: dict[str, ClosedSet]
    locus: list[Point]
    fibers: list[dict]
    kind: str = "triangle"


def triangle_radial(xi: tuple, t) -> tuple:
    """The radial homotopy of the barycentric triangle: boundary point xi at
    parameter 0, the barycenter at parameter 1."""
    t = Frac(t)
    third = Frac(1, 3)
    return tuple(x * (1 - t) + t * third for x in (Frac(c) for c in xi))


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
    interpretation: dict[str, ClosedSet],
    cap: int = DEFAULT_ELEMENT_CAP,
) -> TriangleStep:
    """Make the dimension witnesses exist: each isolated barycenter point of
    the distance triple is blown up into a circle fiber, and x, y, z are the
    minimal-coordinate regions together with their fiber arcs."""
    for name, s in (("a", a), ("b", b), ("c", c)):
        if s.graph is not graph:
            raise UsageError(f"set {name} is not on the input graph")
        if s.is_empty():
            raise PreconditionError(
                f"set {name} is empty; the caller must use the constant-witness shortcut"
            )
    if not ((a & b) & c).is_empty():
        raise PreconditionError("triangle step requires an empty triple intersection")
    km = kappa_map(graph, a, b, c)
    locus_set = km.barycenter_locus()
    for eid, items in locus_set.intervals.items():
        for lo, hi in items:
            if lo != hi:
                raise DegeneracyError(
                    f"barycenter locus contains a subedge of {eid!r}", edge_id=eid
                )
    locus: list[Point] = [("v", v) for v in sorted(locus_set.vertices)]
    for eid in sorted(locus_set.intervals):
        for lo, _ in locus_set.intervals[eid]:
            locus.append(("e", eid, lo))
    regions = [km.min_region(i) for i in range(3)]

    if not locus:
        out = graph
        bonding = PLMap.identity(graph)
        witnesses = {"x": regions[0], "y": regions[1], "z": regions[2]}
        new_interp = dict(interpretation)
        fibers: list[dict] = []
    else:
        locus_vertices = {p[1] for p in locus if p[0] == "v"}
        cuts: dict[str, list[Frac]] = {}
        for p in locus:
            if p[0] == "e":
                cuts.setdefault(p[1], []).append(p[2])
        for eid in cuts:
            cuts[eid].sort()
        # fiber numbers skip any already present from earlier surgeries
        used_fibers = {
            int(m.group(1))
            for name in (*graph.vertices, *graph.edges)
            for m in [re.match(r"fib(\d+)\.", name)]
            if m
        }
        fiber_ids: list[int] = []
        candidate = 0
        while len(fiber_ids) < len(locus):
            if candidate not in used_fibers:
                fiber_ids.append(candidate)
            candidate += 1
        fiber_of_point: dict[Point, int] = {
            p: fiber_ids[i] for i, p in enumerate(locus)
        }
        fibers = []
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
            fibers.append({"center": point_token(p), "arcs": arcs})
            for v in verts:
                vertex_map[v] = p
            for e in edges:
                edge_map[e.eid] = ("const", p)

        def attachment(p: Point, eid: str, t: Frac, direction: int) -> str:
            tag = _branch_attachment(km, eid, t, direction)
            return f"fib{fiber_of_point[p]}.{tag}"

        segments: dict[str, list[tuple]] = {}
        for eid, e in sorted(graph.edges.items()):
            marks = [Frac(0)] + cuts.get(eid, []) + [e.length]
            segs = []
            for k, (lo, hi) in enumerate(zip(marks, marks[1:])):
                seg_id = eid if len(marks) == 2 else f"{eid}.{k}"
                if lo == 0:
                    if e.u in locus_vertices:
                        u_name = attachment(("v", e.u), eid, Frac(0), +1)
                    else:
                        u_name = e.u
                else:
                    u_name = attachment(("e", eid, lo), eid, lo, +1)
                if hi == e.length:
                    if e.v in locus_vertices:
                        v_name = attachment(("v", e.v), eid, e.length, -1)
                    else:
                        v_name = e.v
                else:
                    v_name = attachment(("e", eid, hi), eid, hi, -1)
                new_edges.append(Edge(seg_id, u_name, v_name, hi - lo))
                edge_map[seg_id] = ("affine", eid, lo, hi)
                segs.append((seg_id, lo, hi))
            segments[eid] = segs
        out = MetricGraph(new_vertices, new_edges, dict(graph.meta))
        out.meta = dict(graph.meta)
        out.meta["fibers"] = [
            {"center": f["center"], "edges": sorted(sum(f["arcs"].values(), []))}
            for f in fibers
        ]
        bonding = PLMap(out, graph, vertex_map, edge_map)

        cut_params = {eid: set(ts) for eid, ts in cuts.items()}

        def transport_without_fibers(s: ClosedSet) -> ClosedSet:
            intervals: dict[str, list] = {}
            verts = {v for v in s.vertices if v not in locus_vertices}
            for eid, items in s.intervals.items():
                for seg_id, lo, hi in segments[eid]:
                    for slo, shi in items:
                        plo, phi = max(slo, lo), min(shi, hi)
                        if plo > phi:
                            continue
                        if plo == phi and plo in cut_params.get(eid, ()):
                            continue  # the removed barycenter point itself
                        intervals.setdefault(seg_id, []).append((plo - lo, phi - lo))
            return ClosedSet(out, intervals, verts)

        witnesses = {}
        for wname, widx in (("x", 0), ("y", 1), ("z", 2)):
            w = transport_without_fibers(regions[widx])
            arc_letter = ARC_LETTERS[widx]
            intervals = dict()
            for arcs in arc_edges:
                for arc_eid in arcs[arc_letter]:
                    intervals[arc_eid] = [(Frac(0), Frac(1, 6))]
            w = w | ClosedSet(out, intervals, frozenset())
            witnesses[wname] = w
        new_interp = {
            cid: bonding.preimage_of(s) for cid, s in interpretation.items()
        }

    step = TriangleStep(
        input_graph=graph,
        output_graph=out,
        bonding=bonding,
        witnesses=witnesses,
        interpretation=new_interp,
        locus=locus,
        fibers=fibers,
    )
    _check_triangle_post(step, a, b, c, cap)
    return step


def _check_triangle_post(step: TriangleStep, a, b, c, cap: int) -> None:
    out = step.output_graph
    x, y, z = (step.witnesses[k] for k in ("x", "y", "z"))
    a2 = step.bonding.preimage_of(a)
    b2 = step.bonding.preimage_of(b)
    c2 = step.bonding.preimage_of(c)
    if not (a2.is_subset_of(x) and b2.is_subset_of(y) and c2.is_subset_of(z)):
        raise InvariantViolationError("triangle witnesses do not cover the inputs")
    if not ((x & y) & z).is_empty():
        raise InvariantViolationError("triangle witnesses have a common point")
    if ((x | y) | z) != out.whole_set():
        raise InvariantViolationError("triangle witnesses do not cover the space")
    sets = {"a": a2, "b": b2, "c": c2, "x": x, "y": y, "z": z}
    if not verify_on_sublattice(ZETA_GROUND, sets, out, cap):
        raise InvariantViolationError("dimension schema failed on the extracted sublattice")
    if not step.bonding.is_surjective():
        raise InvariantViolationError("triangle bonding is not onto")


def check_monotone(step: TriangleStep) -> bool:
    """Every bonding fiber is connected: full circles over the blown-up
    points, singletons over sampled regular points."""
    g = step.input_graph
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
    input_graph: MetricGraph
    output_graph: MetricGraph          # the unique onto component
    bonding: PLMap                     # output -> input (the projection)
    separating: PLFunction             # the Urysohn function on the input
    witnesses: dict[str, ClosedSet]
    interpretation: dict[str, ClosedSet]
    component_count: int
    staircase_graph: MetricGraph = None
    kind: str = "crooked"


class _Copy:
    """One horizontal level of the staircase: a subdivided copy of a closed
    region of the base graph."""

    def __init__(self, graph: MetricGraph, region: ClosedSet, cut_points: list[Point], prefix: str):
        self.graph = graph
        self.region = region
        self.prefix = prefix
        cut_params: dict[str, set] = {}
        for p in cut_points:
            if p[0] == "e":
                cut_params.setdefault(p[1], set()).add(p[2])
        self.vertices: dict[str, Point] = {}
        self.edges: list[tuple] = []  # (eid, u, v, length, base_eid, p, q)
        self.segments: dict[str, list[tuple]] = {}
        for v in sorted(region.vertices):
            self.vertices[f"{prefix}|{v}"] = ("v", v)
        for eid in sorted(region.intervals):
            e = graph.edges[eid]
            segs = []
            for lo, hi in region.intervals[eid]:
                if lo == hi:
                    name = self._vertex_name(("e", eid, lo))
                    self.vertices.setdefault(name, ("e", eid, lo))
                    continue
                marks = [lo] + sorted(
                    t for t in cut_params.get(eid, ()) if lo < t < hi
                ) + [hi]
                for k, (p, q) in enumerate(zip(marks, marks[1:])):
                    u = self._vertex_name(graph.normalize_point(("e", eid, p)))
                    v = self._vertex_name(graph.normalize_point(("e", eid, q)))
                    self.vertices.setdefault(u, graph.normalize_point(("e", eid, p)))
                    self.vertices.setdefault(v, graph.normalize_point(("e", eid, q)))
                    seg_id = f"{self.prefix}|{eid}:{k}:{frac_str(p)}"
                    self.edges.append((seg_id, u, v, q - p, eid, p, q))
                    segs.append((seg_id, p, q))
            if segs:
                self.segments[eid] = segs

    def _vertex_name(self, p: Point) -> str:
        return f"{self.prefix}|{point_token(p)}"

    def vertex_for(self, p: Point) -> str:
        name = self._vertex_name(p)
        if name not in self.vertices:
            raise InvariantViolationError(f"level point {p} missing from copy {self.prefix}")
        return name

    def transport(self, s: ClosedSet, target: MetricGraph) -> ClosedSet:
        """The copy of s ∩ region, in copy coordinates on `target`."""
        intervals: dict[str, list] = {}
        verts = {
            self._vertex_name(("v", v))
            for v in (s.vertices & self.region.vertices)
        }
        for eid, segs in self.segments.items():
            for slo, shi in s.intervals.get(eid, ()):
                for seg_id, p, q in segs:
                    lo, hi = max(slo, p), min(shi, q)
                    if lo <= hi:
                        intervals.setdefault(seg_id, []).append((lo - p, hi - p))
        # isolated points of the region carried as bare vertices
        for name, base_pt in self.vertices.items():
            if base_pt[0] == "e" and s.contains_point(base_pt):
                verts.add(name)
        return ClosedSet(target, intervals, verts)


def crooked_step(
    graph: MetricGraph,
    a: ClosedSet,
    b: ClosedSet,
    c: ClosedSet,
    d: ClosedSet,
    interpretation: dict[str, ClosedSet],
    separating: PLFunction | None = None,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> CrookedStep:
    """Thread the space through the five-segment staircase over a separating
    function and keep the unique component that still projects onto the
    whole input."""
    for name, s in (("a", a), ("b", b), ("c", c), ("d", d)):
        if s.graph is not graph:
            raise UsageError(f"set {name} is not on the input graph")
    if not (a & b).is_empty() or not (a & d).is_empty() or not (b & c).is_empty():
        raise PreconditionError("crooked step requires a#b, a#d, b#c disjoint")
    if a.is_empty() or b.is_empty():
        raise PreconditionError("empty endpoint set; the caller must use the shortcut")
    f = separating if separating is not None else urysohn(graph, a, b, pin_low=c, pin_high=d)
    third, two_thirds = Frac(1, 3), Frac(2, 3)
    levels: dict[Frac, list[Point]] = {}
    for level in (third, two_thirds):
        ls = f.level_set(level)
        for eid, items in ls.intervals.items():
            for lo, hi in items:
                if lo != hi:
                    raise DegeneracyError(
                        f"level set f={level} contains a subedge of {eid!r}", edge_id=eid
                    )
        pts = [("v", v) for v in sorted(ls.vertices)]
        for eid in sorted(ls.intervals):
            pts.extend(("e", eid, lo) for lo, _ in ls.intervals[eid])
        levels[level] = [graph.normalize_point(p) for p in pts]

    low = f.sublevel_set(two_thirds)
    mid = f.band(third, two_thirds)
    high = f.superlevel_set(third)
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
    h_edges: list[str] = []
    for level, pair in ((two_thirds, (c14, c12)), (third, (c12, c34))):
        tag = "h23" if level == two_thirds else "h13"
        for p in levels[level]:
            eid = f"{tag}|{point_token(p)}"
            u = pair[0].vertex_for(p)
            v = pair[1].vertex_for(p)
            edges.append(Edge(eid, u, v, Frac(1, 4)))
            edge_map[eid] = ("const", p)
            h_edges.append(eid)
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
    comp_edges = set(comp.intervals)
    comp_vertices = set(comp.vertices)
    out = MetricGraph(
        sorted(comp_vertices),
        [e for e in edges if e.eid in comp_edges],
        dict(graph.meta),
    )
    _attach_staircase_layout(out, graph, vertex_map, edge_map)
    bonding = PLMap(
        out,
        graph,
        {v: vertex_map[v] for v in comp_vertices},
        {eid: edge_map[eid] for eid in comp_edges},
    )
    if not bonding.is_surjective():
        raise InvariantViolationError("selected component lost surjectivity")

    def restrict(s: ClosedSet) -> ClosedSet:
        return ClosedSet(
            out,
            {eid: items for eid, items in s.intervals.items() if eid in comp_edges},
            s.vertices & comp_vertices,
        )

    def on_out(pieces: list[ClosedSet]) -> ClosedSet:
        total = None
        for piece in pieces:
            total = piece if total is None else total | piece
        return total if total is not None else staircase.empty_set()

    # Witness bands cut along the separating values: the x/y boundary sits at
    # value 3/8 on the low level and the y/z boundary at 5/8 on the high one,
    # so the pinned sets c and d stay clear of the double intersections.
    x_plus = c14.transport(f.sublevel_set(Frac(3, 8)), staircase)
    z_plus = c34.transport(f.superlevel_set(Frac(5, 8)), staircase)
    y_pieces = [
        c14.transport(f.band(Frac(3, 8), two_thirds), staircase),
        c12.transport(mid, staircase),
        c34.transport(f.band(third, Frac(5, 8)), staircase),
        ClosedSet(
            staircase,
            {eid: [(Frac(0), Frac(1, 4))] for eid in h_edges},
            frozenset(),
        ),
    ]
    witnesses = {
        "x": restrict(x_plus),
        "y": restrict(on_out(y_pieces)),
        "z": restrict(z_plus),
    }
    new_interp = {cid: bonding.preimage_of(s) for cid, s in interpretation.items()}
    step = CrookedStep(
        input_graph=graph,
        output_graph=out,
        bonding=bonding,
        separating=f,
        witnesses=witnesses,
        interpretation=new_interp,
        component_count=len(comps),
        staircase_graph=staircase,
    )
    _check_crooked_post(step, a, b, c, d, cap)
    return step


def _attach_staircase_layout(out, base, vertex_map, edge_map) -> None:
    """Cosmetic position hints: horizontal = the staircase parameter,
    vertical = an arc-length linearization of the base graph."""
    offsets: dict[str, Frac] = {}
    run = Frac(0)
    for eid in sorted(base.edges):
        offsets[eid] = run
        run += base.edges[eid].length
    vpos: dict[str, Frac] = {}
    for i, v in enumerate(sorted(base.vertices)):
        vpos[v] = run + i  # vertices after all edge spans; only used if isolated

    def lin(p: Point) -> Frac:
        if p[0] == "e":
            return offsets[p[1]] + p[2]
        v = p[1]
        for eid, end in base.adjacency[v]:
            e = base.edges[eid]
            return offsets[eid] + (Frac(0) if end == 0 else e.length)
        return vpos[v]

    t_of_prefix = {"t14": Frac(1, 4), "t12": Frac(1, 2), "t34": Frac(3, 4)}
    pos = {}
    for v in out.vertices:
        prefix = v.split("|", 1)[0]
        t = t_of_prefix.get(prefix)
        if t is None:
            continue
        pos[v] = (frac_str(t), frac_str(lin(vertex_map[v])))
    out.meta["pos"] = pos


def _check_crooked_post(step: CrookedStep, a, b, c, d, cap: int) -> None:
    out = step.output_graph
    lifted = {
        "a": step.bonding.preimage_of(a),
        "b": step.bonding.preimage_of(b),
        "c": step.bonding.preimage_of(c),
        "d": step.bonding.preimage_of(d),
    }
    sets = dict(lifted)
    sets.update(step.witnesses)
    if not verify_on_sublattice(PSI_GROUND, sets, out, cap):
        raise InvariantViolationError(
            "crookedness schema failed on the extracted sublattice"
        )


# --------------------------------------------------------------------------
# Connected lifts
# --------------------------------------------------------------------------

def lift_through(stage, s: ClosedSet) -> ClosedSet:
    """A connected onto lift through one bonding: the component of the
    preimage with the exact image.  Works from the bonding alone, so a built
    or loaded `Stage`, a `TriangleStep` and a `CrookedStep` lift alike."""
    bonding = stage.bonding
    if s.is_empty():
        return bonding.domain.empty_set()
    pre = bonding.preimage_of(s)
    for comp in bonding.domain.components_of(pre):
        if bonding.image_of(comp) == s:
            return comp
    raise InvariantViolationError("no component of the preimage maps onto the set")


def lift_connected(step, s: ClosedSet) -> ClosedSet:
    """A connected closed set in the new space mapping exactly onto `s`.

    Monotone (triangle) bondings lift by full preimage, which must be one
    component; crooked bondings keep the component of the preimage with the
    exact image, which the construction guarantees to exist."""
    if not s.is_empty() and len(step.bonding.codomain.components_of(s)) != 1:
        raise PreconditionError("lift_connected needs a connected set")
    lifted = lift_through(step, s)
    if step.kind == "triangle" and lifted != step.bonding.preimage_of(s):
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
    if (big & small) == big:
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


def _premise_holds(kind: str, ops: list[ClosedSet]) -> bool:
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
    if not _premise_holds(kind, ops):
        return "vacuous", (graph.empty_set(),) * 3
    for i, pattern in _SHORTCUTS[kind]:
        if ops[i].is_empty():
            return "shortcut", tuple(
                graph.whole_set() if bit == "1" else graph.empty_set() for bit in pattern
            )
    return None


def surgery_with_nudges(
    kind: str,
    graph: MetricGraph,
    ops: list[ClosedSet],
    interpretation: dict[str, ClosedSet],
    cap: int,
):
    """Run the instance's surgery (a triangle step for "zeta", a crooked step
    for "theta"), retrying after minimal edge-length nudges.

    Each nudge is a genuine reparametrization: every set is transported
    through `stretch_map`, and the maps compose into `renorm` (nudged space
    -> `graph`, None without nudges), so a bonding chain stays exact.  Nudge
    targets rotate so symmetric configurations get broken even when the
    degenerate edge itself is not the culprit.  Returns the step, `renorm`,
    the nudged edge ids, and the interpretation on `step.input_graph`."""
    candidates = None
    nudged: list[str] = []
    renorm: PLMap | None = None
    while True:
        try:
            if kind == "zeta":
                step = triangle_step(graph, *ops, interpretation, cap=cap)
            else:
                step = crooked_step(graph, *ops, interpretation, cap=cap)
            return step, renorm, nudged, interpretation
        except DegeneracyError as exc:
            if len(nudged) >= MAX_NUDGES or exc.edge_id is None:
                raise
            if candidates is None:
                candidates = [exc.edge_id] + sorted(
                    eid for eid in graph.edges if eid != exc.edge_id
                )
            target = candidates[len(nudged) % len(candidates)]
            lengthened = nudge_edge_length(graph, target)
            stretch = stretch_map(lengthened, graph)
            ops = [stretch.preimage_of(s) for s in ops]
            interpretation = {
                name: stretch.preimage_of(s) for name, s in interpretation.items()
            }
            renorm = stretch if renorm is None else stretch.then(renorm)
            graph = lengthened
            nudged.append(target)


# --------------------------------------------------------------------------
# Stages: one instance step, shared by both drivers
# --------------------------------------------------------------------------

@dataclass
class Stage:
    graph: MetricGraph
    bonding: PLMap | None              # stage n -> stage n-1; None at stage 0
    base: dict[str, ClosedSet]
    kind: str                          # base|identity|triangle|crooked|shortcut|vacuous|noop
    instance: dict | None = None
    nudges: list = field(default_factory=list)


def instance_stage(prev: Stage, instance: dict, ops: list, resolved, cap: int) -> Stage:
    """The stage for one dimension ("zeta") or crookedness ("theta")
    instance: its witnesses on the previous graph when `resolved` is
    `(mode, (x, y, z))`, otherwise the surgery with any nudges folded into
    the bonding.  The witnesses join the base under the names
    `instance["witnesses"]`, and `instance["mode"]` records the resolution."""
    nudged: list[str] = []
    if resolved is not None:
        mode, witnesses = resolved
        graph, bonding, base = prev.graph, PLMap.identity(prev.graph), prev.base
        kind = "identity" if mode == "existing-cover" else mode
    else:
        step, renorm, nudged, _ = surgery_with_nudges(instance["kind"], prev.graph, ops, prev.base, cap)
        mode, witnesses = "surgery", (step.witnesses["x"], step.witnesses["y"], step.witnesses["z"])
        graph, base, kind = step.output_graph, step.interpretation, step.kind
        bonding = step.bonding if renorm is None else step.bonding.then(renorm)
    instance["mode"] = mode
    base_n = dict(base)
    base_n.update(zip(instance["witnesses"], witnesses))
    return Stage(graph, bonding, base_n, kind, instance=instance, nudges=nudged)


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
    for idx, deriv in enumerate(base.derivations):
        if deriv is None:
            raise UsageError("base lattice carries no derivations; build it with generate_sublattice")
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
    connected_cids: tuple[str, ...] = (),
    cap: int = DEFAULT_ELEMENT_CAP,
) -> WitnessResult:
    """Process a well-ordered fragment, building a model sentence by
    sentence: fresh sets for the bookkeeping stages, a triangle step per
    satisfiable dimension instance, a crooked step per satisfiable
    crookedness instance.  The result carries a report in which every
    fragment sentence is re-evaluated by the lattice evaluator on extracted
    sublattices."""
    if not graph0.is_connected():
        raise PreconditionError("the base space must be connected")
    for cid, s in interp0.items():
        if s.graph is not graph0:
            raise UsageError(f"interpretation of {cid!r} is not on the base graph")
    stage = Stage(graph0, None, dict(interp0), "base")
    connected = set(connected_cids)
    trace: list[dict] = []
    processed: list[SentenceRecord] = []

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
            stage.base[rec.operands[0]] = stage.graph.empty_set()
        elif kind in ("meet", "join"):
            a, b = (need(cid) for cid in rec.operands)
            stage.base[rec.fresh[0]] = (a & b) if kind == "meet" else (a | b)
        elif kind == "normal":
            mn, mx = (need(cid) for cid in rec.operands)
            stage.base.update(zip(rec.fresh, normal_cocover(stage.graph, mn, mx)))
        elif kind in ("disj0", "disj1"):
            big, small = (need(cid) for cid in rec.operands)
            stage.base[rec.fresh[0]] = disjunctivity_point(stage.graph, big, small)
        elif kind in ("zeta", "theta"):
            ops = [need(cid) for cid in rec.operands]
            resolved = resolve_shortcut(kind, stage.graph, ops)
            if resolved is not None:
                stage.base.update(zip(rec.fresh, resolved[1]))
            else:
                prev = stage
                stage = instance_stage(prev, {"kind": kind, "witnesses": rec.fresh}, ops, None, cap)
                for cid in sorted(connected):
                    if cid in prev.base and not prev.base[cid].is_empty():
                        try:
                            stage.base[cid] = lift_connected(stage, prev.base[cid])
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
                for r in processed:
                    if is_ground(r.formula) and not eval_ground_geometric(
                        r.formula, stage.base, stage.graph
                    ):
                        raise InvariantViolationError(
                            f"a previously satisfied sentence became false: {r.line()}"
                        )
        else:
            raise UsageError(f"fragment contains an unknown sentence kind {kind!r}")
        processed.append(rec)

    report: list[tuple[str, bool]] = []
    full_extract = None
    from .folang import constants_of

    for rec in records:
        f = rec.formula
        for cid in sorted(constants_of(f)):
            need(cid)
        if is_ground(f):
            ok = verify_on_sublattice(f, stage.base, stage.graph, cap)
        else:
            if full_extract is None:
                all_cids = sorted(
                    {cid for r in records for cid in constants_of(r.formula)}
                )
                full_extract = extract_sublattice(
                    stage.graph, {cid: stage.base[cid] for cid in all_cids}, cap=cap
                )
            ok = eval_formula(f, full_extract.lattice, full_extract.interpretation).value
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
