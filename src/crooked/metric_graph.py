"""Exact-rational PL 1-complexes: metric graphs, closed sets, PL functions
and maps between graphs.

Everything here is exact: edge lengths, interval endpoints, function
breakpoints and distances are Fractions, so no tolerance policy exists
anywhere downstream.  The intrinsic path metric uses the declared edge
lengths, not any ambient embedding.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from operator import sub
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    InputError,
    InvariantViolationError,
    PreconditionError,
    UsageError,
    read_input,
)
from .folang import Formula, eval_masks
from .lattice import DEFAULT_ELEMENT_CAP, FiniteLattice, generate_sublattice

Frac = Fraction
ZERO = Frac(0)
NO_EDGES: frozenset[str] = frozenset()  # shared: each empty frozenset takes 216 bytes

# A graph point is ("v", vertex_id) or ("e", edge_id, param) with
# 0 < param < length; edge endpoints normalize to their vertices.
Point = tuple


def frac(value) -> Frac:
    if isinstance(value, Frac):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Frac(value)
    if isinstance(value, str):
        try:
            if "e" not in value and "E" not in value and len(value) <= 4300:
                return Frac(value)  # then neither part has more digits
            # Fraction computes 10**exponent first, so five exponent digits
            # are refused unread; `frac_str` raises on a result it cannot write
            exponent = value.upper().partition("E")[2].replace("_", "").strip().lstrip("+-0")
            if len(exponent) <= 4 and frac_str(parsed := Frac(value)):
                return parsed
        except (ValueError, ZeroDivisionError):
            pass
        raise InputError(f"not an exact rational of at most 4300 digits: {value!r}")
    raise InputError(f"not an exact rational: {value!r}")


def frac_str(value: Frac) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Edge:
    eid: str
    u: str
    v: str
    length: Frac


class MetricGraph:
    """A 1-complex with positive rational edge lengths."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge], meta: dict | None = None):
        self.vertices: tuple[str, ...] = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        self.edges: dict[str, Edge] = {}
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for e in sorted(edges, key=lambda e: e.eid):
            if e.eid in self.edges:
                raise InputError(f"duplicate edge id {e.eid!r}")
            if e.eid == "vertices":
                # a closed set's file entry keys its intervals by edge id
                # beside its "vertices" list
                raise InputError("edge id 'vertices' is reserved")
            if e.u not in vset or e.v not in vset:
                raise InputError(f"edge {e.eid!r} references an unknown vertex")
            if e.u == e.v:
                raise InputError(f"edge {e.eid!r} is a loop; subdivide it")
            if e.length <= 0:
                raise InputError(f"edge {e.eid!r} must have positive length")
            self.edges[e.eid] = e
            adj[e.u].append((e.eid, 0))
            adj[e.v].append((e.eid, 1))
        self.adjacency: dict[str, tuple[tuple[str, int], ...]] = {
            v: tuple(sorted(lst)) for v, lst in adj.items()
        }
        self.meta: dict = meta or {}

    @cached_property
    def _vertex_bit(self) -> dict[str, int]:
        """Each vertex's cell index; vertex cells come first in every
        arrangement, in `vertices` order."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _edge_bit(self) -> dict[str, int]:
        """Each edge's cell index in `_uncut_cells`, after the vertices."""
        return {eid: i for i, eid in enumerate(self.edges, len(self.vertices))}

    @cached_property
    def _whole_items(self) -> dict[str, tuple]:
        """Per edge, the intervals of every set that covers it whole."""
        return {eid: ((ZERO, e.length),) for eid, e in self.edges.items()}

    @cached_property
    def _whole_entries(self) -> dict[str, list]:
        """Per edge, the file entry of every set that covers it whole.  The
        one list is shared, never mutated: `dump_json` renders it once per
        depth and `ClosedSet.from_dict` knows it by one comparison."""
        return {eid: [["0/1", frac_str(e.length)]] for eid, e in self.edges.items()}

    @cached_property
    def _uncut_cells(self) -> tuple[tuple, ...]:
        """The arrangement of no cuts: the vertex cells, then one open cell
        ("o", eid, 0, length) per edge in edge-id order."""
        return (*(("v", v) for v in self.vertices),
                *(("o", eid, ZERO, e.length) for eid, e in self.edges.items()))

    # ---------------------------------------------------------------- points

    def point(self, eid: str, t) -> Point:
        t = frac(t)
        e = self.edges[eid]
        if t < 0 or t > e.length:
            raise InputError(f"parameter {t} outside edge {eid!r}")
        if t == 0:
            return ("v", e.u)
        if t == e.length:
            return ("v", e.v)
        return ("e", eid, t)

    def normalize_point(self, p: Point) -> Point:
        if p[0] == "v":
            if p[1] not in self.adjacency:
                raise InputError(f"unknown vertex {p[1]!r}")
            return ("v", p[1])
        return self.point(p[1], p[2])

    # ------------------------------------------------------------ structure

    def is_connected(self) -> bool:
        """One component: a graph with no vertices is not connected."""
        return len(self.components_of(self.whole_set())) == 1

    # -------------------------------------------------------------- closures

    def empty_set(self) -> "ClosedSet":
        return ClosedSet(self, {}, frozenset())

    def whole_set(self) -> "ClosedSet":
        return ClosedSet(self, {}, self.vertices, whole=self.edges)

    def point_closed_set(self, points: Iterable[Point]) -> "ClosedSet":
        intervals: dict[str, list] = {}
        verts = set()
        for p in points:
            p = self.normalize_point(p)
            if p[0] == "v":
                verts.add(p[1])
            else:
                intervals.setdefault(p[1], []).append((p[2], p[2]))
        return ClosedSet(self, intervals, frozenset(verts))

    def components_of(self, s: "ClosedSet") -> list["ClosedSet"]:
        """Connected components of a closed set, each as a closed set."""
        if s.graph is not self:
            raise UsageError("closed set belongs to a different graph")
        nodes: list[tuple] = [("v", v) for v in sorted(s.vertices)]
        for eid in sorted(s.intervals):
            for k, _ in enumerate(s.intervals[eid]):
                nodes.append(("i", eid, k))
        parent = {n: n for n in nodes}

        def find(n):
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            return n

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for eid in sorted(s.intervals):
            e = self.edges[eid]
            for k, (lo, hi) in enumerate(s.intervals[eid]):
                if lo == 0 and ("v", e.u) in parent:
                    union(("i", eid, k), ("v", e.u))
                if hi == e.length and ("v", e.v) in parent:
                    union(("i", eid, k), ("v", e.v))
        groups: dict[tuple, list[tuple]] = {}
        for n in nodes:
            groups.setdefault(find(n), []).append(n)
        comps = []
        for root in sorted(groups):
            intervals: dict[str, list] = {}
            verts = set()
            for n in groups[root]:
                if n[0] == "v":
                    verts.add(n[1])
                else:
                    _, eid, k = n
                    intervals.setdefault(eid, []).append(s.intervals[eid][k])
            comps.append(ClosedSet(self, intervals, frozenset(verts)))
        return comps

    def __repr__(self) -> str:
        return f"<MetricGraph V={len(self.vertices)} E={len(self.edges)}>"


class ClosedSet:
    """A closed subset: per-edge disjoint closed subintervals plus vertices.

    Normal form: intervals sorted and merged, endpoint-degenerate intervals
    converted to vertex membership, interval endpoints at 0/length implying
    the incident vertex is a member.  Each point set has one normal form,
    so equality and hashing compare `vertices` and `intervals` directly.

    `whole` holds the edges covered entirely, exactly those whose normal
    form is `((0, length),)` in `intervals`.  A producer passes such an edge
    by id, with no Fraction work; intervals that merge to it count too.

    A set is immutable, so its hash is computed once, on first use, and so
    is its footprint in the arrangement of no cuts (`split`), on the first
    extraction that names it; every extraction then pays a few shifts per
    edge that extraction cuts and bisection of the set's partial intervals
    only."""

    __slots__ = ("graph", "intervals", "vertices", "whole", "_split", "_hash")

    def __init__(self, graph: MetricGraph, intervals: Mapping[str, Sequence], vertices,
                 whole: Iterable[str] = ()):
        self.graph = graph
        verts = set(vertices)
        whole = set(whole)
        full = graph._whole_items
        norm: dict[str, tuple] = {}
        for eid in sorted({*intervals, *whole}):
            if eid not in graph.edges:
                raise InputError(f"unknown edge {eid!r} in closed set")
            e = graph.edges[eid]
            if eid in whole:
                verts.update((e.u, e.v))
                norm[eid] = full[eid]
                continue
            items = []
            for lo, hi in intervals[eid]:
                lo, hi = frac(lo), frac(hi)
                if lo > hi:
                    raise InputError(f"inverted interval on edge {eid!r}")
                if lo < 0 or hi > e.length:
                    raise InputError(f"interval outside edge {eid!r}")
                items.append((lo, hi))
            items.sort()
            merged: list[tuple] = []
            for lo, hi in items:
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            final = []
            for lo, hi in merged:
                if lo == 0:
                    verts.add(e.u)
                if hi == e.length:
                    verts.add(e.v)
                if lo == hi and (lo == 0 or hi == e.length):
                    continue  # endpoint point = the vertex itself
                final.append((lo, hi))
            if final == [(0, e.length)]:
                whole.add(eid)
                norm[eid] = full[eid]
            elif final:
                norm[eid] = tuple(final)
        unknown = verts.difference(graph._vertex_bit)
        if unknown:
            raise InputError(f"unknown vertices in closed set: {sorted(unknown)}")
        self.intervals: dict[str, tuple] = norm
        self.vertices: frozenset[str] = frozenset(verts)
        self.whole: frozenset[str] = frozenset(whole) if whole else NO_EDGES
        self._split = None
        self._hash = None

    @property
    def split(self) -> tuple[int, tuple[tuple, ...]]:
        """(bitmask of its vertices and whole edges as cells of no cuts, and
        per other edge (eid, its intervals, their endpoints inside the
        edge)), computed on first use."""
        if self._split is None:
            self._split = self._edge_split()
        return self._split

    def _edge_split(self) -> tuple[int, tuple[tuple, ...]]:
        vertex_bit, edge_bit = self.graph._vertex_bit, self.graph._edge_bit
        mask = 0
        for v in self.vertices:
            mask |= 1 << vertex_bit[v]
        for eid in self.whole:
            mask |= 1 << edge_bit[eid]
        partial = []
        for eid, items in self.intervals.items():
            if eid not in self.whole:
                L = self.graph.edges[eid].length
                inner = frozenset(t for lo, hi in items for t in (lo, hi) if 0 < t < L)
                partial.append((eid, items, inner))
        return mask, tuple(partial)

    def is_empty(self) -> bool:
        return not self.vertices and not self.intervals

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClosedSet)
            and other.graph is self.graph
            and other.vertices == self.vertices
            and other.intervals == self.intervals
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((id(self.graph), self.vertices, frozenset(self.intervals.items())))
        return self._hash

    def _check(self, other: "ClosedSet") -> None:
        if not isinstance(other, ClosedSet) or other.graph is not self.graph:
            raise UsageError("closed sets belong to different graphs")

    def __or__(self, other: "ClosedSet") -> "ClosedSet":
        self._check(other)
        intervals: dict[str, list] = {}
        for src in (self.intervals, other.intervals):
            for eid, items in src.items():
                intervals.setdefault(eid, []).extend(items)
        return ClosedSet(self.graph, intervals, self.vertices | other.vertices,
                         self.whole | other.whole)

    def __and__(self, other: "ClosedSet") -> "ClosedSet":
        self._check(other)
        intervals: dict[str, list] = {}
        whole = self.whole & other.whole
        for eid in (set(self.intervals) & set(other.intervals)) - whole:
            # both sides are sorted and disjoint: one merge walk, stepping
            # past whichever interval ends first
            xs, ys = self.intervals[eid], other.intervals[eid]
            out = []
            i = j = 0
            while i < len(xs) and j < len(ys):
                (lo1, hi1), (lo2, hi2) = xs[i], ys[j]
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo <= hi:
                    out.append((lo, hi))
                if hi1 < hi2:
                    i += 1
                else:
                    j += 1
            if out:
                intervals[eid] = out
        return ClosedSet(self.graph, intervals, self.vertices & other.vertices, whole)

    def is_subset_of(self, other: "ClosedSet") -> bool:
        return (self & other) == self

    def contains_point(self, p: Point) -> bool:
        p = self.graph.normalize_point(p)
        if p[0] == "v":
            return p[1] in self.vertices
        _, eid, t = p
        return any(lo <= t <= hi for lo, hi in self.intervals.get(eid, ()))

    def to_dict(self) -> dict:
        entries = self.graph._whole_entries
        payload: dict = {
            eid: entries[eid] if eid in self.whole
            else [[frac_str(lo), frac_str(hi)] for lo, hi in items]
            for eid, items in self.intervals.items()
        }
        payload["vertices"] = sorted(self.vertices)
        return payload

    @staticmethod
    def from_dict(graph: MetricGraph, data: Mapping,
                  parse: Callable[[object], Frac] = frac) -> "ClosedSet":
        """The set a file entry describes, each endpoint read by `parse`; an
        edge entry spelled as `to_dict` writes a whole edge is taken by id."""
        if not isinstance(data, dict):
            raise InputError(f"a closed set must be an object, not {data!r}")
        verts = data.get("vertices", [])
        if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
            raise InputError(f"closed-set vertices must be a list of strings: {verts!r}")
        entries = graph._whole_entries
        intervals, whole = {}, []
        for key, value in data.items():
            if key == "vertices":
                continue
            if value == entries.get(key):
                whole.append(key)
                continue
            if not isinstance(value, list) or not all(
                isinstance(item, list) and len(item) == 2 for item in value
            ):
                raise InputError(f"intervals on edge {key!r} must be [lo, hi] pairs: {value!r}")
            intervals[key] = [(parse(lo), parse(hi)) for lo, hi in value]
        return ClosedSet(graph, intervals, verts, whole)

    def __repr__(self) -> str:
        return f"<ClosedSet verts={sorted(self.vertices)} intervals={dict(self.intervals)}>"


# --------------------------------------------------------------------------
# Piecewise-linear breakpoint lists: [(x0,y0), ..., (xn,yn)], x strictly
# increasing, linear in between.
# --------------------------------------------------------------------------

def _bp_simplify(bp: list[tuple]) -> tuple:
    out = [bp[0]]
    for pt in bp[1:]:
        if pt[0] == out[-1][0]:
            if pt[1] != out[-1][1]:
                raise InvariantViolationError("discontinuous breakpoint list")
            continue
        out.append(pt)
    i = 1
    while i + 1 < len(out):
        (x0, y0), (x1, y1), (x2, y2) = out[i - 1], out[i], out[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            del out[i]
        else:
            i += 1
    return tuple(out)


def _bp_eval(bp: Sequence[tuple], x: Frac) -> Frac:
    if x <= bp[0][0]:
        return bp[0][1]
    for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return bp[-1][1]


def _bp_walk(bp: Sequence[tuple], xs: Sequence[Frac]) -> list[Frac]:
    """`_bp_eval` at each of the increasing `xs`, in one forward walk."""
    out = []
    i, last = 0, len(bp) - 1
    for x in xs:
        while i < last and bp[i + 1][0] < x:
            i += 1
        x0, y0 = bp[i]
        if x <= x0 or i == last:
            out.append(y0)
            continue
        x1, y1 = bp[i + 1]
        out.append(y1 if x == x1 else y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def _bp_combine(a: Sequence[tuple], b: Sequence[tuple], fn: Callable) -> tuple:
    xs = sorted({x for x, _ in a} | {x for x, _ in b})
    return _bp_simplify(list(zip(xs, map(fn, _bp_walk(a, xs), _bp_walk(b, xs)))))


def _bp_min(a: Sequence[tuple], b: Sequence[tuple]) -> tuple:
    xs = sorted({x for x, _ in a} | {x for x, _ in b})
    ya, yb = _bp_walk(a, xs), _bp_walk(b, xs)
    pts = [(xs[0], min(ya[0], yb[0]))]
    for k in range(1, len(xs)):
        d0, d1 = ya[k - 1] - yb[k - 1], ya[k] - yb[k]
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            # both are linear on [xs[k-1], xs[k]] and cross once inside it
            w = d0 / (d0 - d1)
            pts.append((xs[k - 1] + (xs[k] - xs[k - 1]) * w, ya[k - 1] + (ya[k] - ya[k - 1]) * w))
        pts.append((xs[k], min(ya[k], yb[k])))
    return _bp_simplify(pts)


def _bp_affine(bp: Sequence[tuple], mul: Frac, add: Frac) -> tuple:
    return _bp_simplify([(x, y * mul + add) for x, y in bp])


def _bp_clamp(bp: Sequence[tuple], lo: Frac, hi: Frac) -> tuple:
    xs = {x for x, _ in bp}
    for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
        for level in (lo, hi):
            if (y0 - level) * (y1 - level) < 0:
                xs.add(x0 + (x1 - x0) * (level - y0) / (y1 - y0))
    xs = sorted(xs)
    return _bp_simplify([(x, min(hi, max(lo, y))) for x, y in zip(xs, _bp_walk(bp, xs))])


class PLFunction:
    """A continuous PL function on a metric graph, one breakpoint list per
    edge over its arc-length parameter.  Its regions are its sublevel and
    superlevel sets; a caller intersects them for a level set or a band, so
    a half-set that two regions share is computed once."""

    __slots__ = ("graph", "per_edge")

    def __init__(self, graph: MetricGraph, per_edge: Mapping[str, Sequence[tuple]]):
        self.graph = graph
        pe: dict[str, tuple] = {}
        for eid, e in graph.edges.items():
            if eid not in per_edge:
                raise InputError(f"PL function missing edge {eid!r}")
            bp = [(frac(x), frac(y)) for x, y in per_edge[eid]]
            if bp[0][0] != 0 or bp[-1][0] != e.length:
                raise InputError(f"breakpoints must span edge {eid!r}")
            if any(x1 <= x0 for (x0, _), (x1, _) in zip(bp, bp[1:])):
                raise InputError(f"breakpoints not increasing on edge {eid!r}")
            pe[eid] = _bp_simplify(bp)
        self.per_edge = pe
        for vid in graph.vertices:
            vals = {self._end_value(eid, end) for eid, end in graph.adjacency[vid]}
            if len(vals) > 1:
                raise InputError(f"PL function discontinuous at vertex {vid!r}")

    def _end_value(self, eid: str, end: int) -> Frac:
        bp = self.per_edge[eid]
        return bp[0][1] if end == 0 else bp[-1][1]

    @staticmethod
    def constant(graph: MetricGraph, value) -> "PLFunction":
        value = frac(value)
        return PLFunction(
            graph,
            {eid: [(Frac(0), value), (e.length, value)] for eid, e in graph.edges.items()},
        )

    def eval(self, p: Point) -> Frac:
        p = self.graph.normalize_point(p)
        if p[0] == "v":
            adj = self.graph.adjacency[p[1]]
            if not adj:
                raise UsageError(f"isolated vertex {p[1]!r} has no function value")
            return self._end_value(*adj[0])
        return _bp_eval(self.per_edge[p[1]], p[2])

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        if other.graph is not self.graph:
            raise UsageError("PL functions on different graphs")
        return PLFunction(
            self.graph,
            {eid: _bp_combine(self.per_edge[eid], other.per_edge[eid], sub)
             for eid in self.per_edge},
        )

    def affine(self, mul, add) -> "PLFunction":
        mul, add = frac(mul), frac(add)
        return PLFunction(
            self.graph,
            {eid: _bp_affine(bp, mul, add) for eid, bp in self.per_edge.items()},
        )

    def clamp(self, lo, hi) -> "PLFunction":
        lo, hi = frac(lo), frac(hi)
        return PLFunction(
            self.graph,
            {eid: _bp_clamp(bp, lo, hi) for eid, bp in self.per_edge.items()},
        )

    def _region(self, level: Frac, side: str) -> ClosedSet:
        intervals: dict[str, list] = {}
        whole = []
        for eid, bp in self.per_edge.items():
            # each breakpoint compared with the level once
            ok = [y <= level for _, y in bp] if side == "le" else [y >= level for _, y in bp]
            if all(ok):
                whole.append(eid)  # linear between breakpoints
                continue
            pieces = []
            for (x0, y0), (x1, y1), ok0, ok1 in zip(bp, bp[1:], ok, ok[1:]):
                if ok0 and ok1:
                    pieces.append((x0, x1))
                elif ok0 or ok1:
                    xc = x0 + (x1 - x0) * (level - y0) / (y1 - y0)
                    pieces.append((x0, xc) if ok0 else (xc, x1))
            if pieces:
                intervals[eid] = pieces
        return ClosedSet(self.graph, intervals, frozenset(), whole)

    def sublevel_set(self, level) -> ClosedSet:
        return self._region(frac(level), "le")

    def superlevel_set(self, level) -> ClosedSet:
        return self._region(frac(level), "ge")

    def extrema_over(self, s: ClosedSet) -> tuple[Frac, Frac]:
        """Exact (min, max) over a nonempty closed set; PL extremes occur at
        interval ends, breakpoints, and member vertices."""
        if s.is_empty():
            raise UsageError("extrema over the empty set")
        vals = [self.eval(("v", v)) for v in s.vertices]
        for eid, items in s.intervals.items():
            bp = self.per_edge[eid]
            for lo, hi in items:
                vals.append(_bp_eval(bp, lo))
                vals.append(_bp_eval(bp, hi))
                vals.extend(y for x, y in bp if lo < x < hi)
        return min(vals), max(vals)

    def min_over(self, s: ClosedSet) -> Frac:
        return self.extrema_over(s)[0]

    def max_over(self, s: ClosedSet) -> Frac:
        return self.extrema_over(s)[1]


# --------------------------------------------------------------------------
# Distances
# --------------------------------------------------------------------------

def distance_to_set(graph: MetricGraph, target: ClosedSet) -> PLFunction:
    """x -> rho(x, target): multi-source shortest path with in-edge interval
    sources, exact everywhere."""
    if target.graph is not graph:
        raise UsageError("closed set belongs to a different graph")
    if target.is_empty():
        raise PreconditionError("distance to the empty set is undefined")
    dist: dict[str, Frac] = {}
    heap: list[tuple] = []
    counter = 0

    def push(v: str, d: Frac) -> None:
        nonlocal counter
        if v not in dist or d < dist[v]:
            counter += 1
            heapq.heappush(heap, (d, counter, v))

    for v in target.vertices:
        push(v, Frac(0))
    for eid, items in target.intervals.items():
        e = graph.edges[eid]
        push(e.u, items[0][0])
        push(e.v, e.length - items[-1][1])
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for eid, end in graph.adjacency[v]:
            e = graph.edges[eid]
            w = e.v if end == 0 else e.u
            if w not in dist:
                push(w, d + e.length)
    missing = set(graph.vertices) - set(dist)
    if missing:
        raise PreconditionError(
            f"target unreachable from vertices {sorted(missing)}; graph disconnected"
        )
    per_edge: dict[str, tuple] = {}
    for eid, e in graph.edges.items():
        L = e.length
        candidates = [
            ((Frac(0), dist[e.u]), (L, dist[e.u] + L)),
            ((Frac(0), dist[e.v] + L), (L, dist[e.v])),
        ]
        envelope = _bp_simplify(list(candidates[0]))
        envelope = _bp_min(envelope, list(candidates[1]))
        for lo, hi in target.intervals.get(eid, ()):
            local: list[tuple] = []
            if lo > 0:
                local.append((Frac(0), lo))
            local.append((lo, Frac(0)))
            if hi != lo:
                local.append((hi, Frac(0)))
            if hi < L:
                local.append((L, L - hi))
            envelope = _bp_min(envelope, _bp_simplify(local))
        per_edge[eid] = envelope
    return PLFunction(graph, per_edge)


@dataclass(frozen=True)
class KappaMap:
    """The distances toward a, b, c, and the two sets the kappa triple
    makes: `barycenter_locus`, where all three distances agree (the triple
    is the barycenter (1/3, 1/3, 1/3)), and `min_regions`, per coordinate
    the closed region where that distance is minimal, which is the
    radial-projection preimage of the triangle side opposite it."""
    d_a: PLFunction
    d_b: PLFunction
    d_c: PLFunction
    barycenter_locus: ClosedSet
    min_regions: tuple[ClosedSet, ClosedSet, ClosedSet]


def kappa_map(graph: MetricGraph, a: ClosedSet, b: ClosedSet, c: ClosedSet) -> KappaMap:
    """The triple of normalized distance quotients toward a, b, c, with its
    locus and regions read off the six half-sets at 0 of the three pairwise
    differences d_a - d_b, d_b - d_c, d_c - d_a, each taken once.

    Requires a, b, c nonempty with empty triple intersection so the shared
    denominator never vanishes; callers handle empty inputs with the
    constant-witness shortcut instead."""
    for name, s in (("a", a), ("b", b), ("c", c)):
        if s.is_empty():
            raise PreconditionError(f"kappa input {name} is empty; use the shortcut")
    if not ((a & b) & c).is_empty():
        raise PreconditionError("kappa inputs must have empty triple intersection")
    ds = [distance_to_set(graph, s) for s in (a, b, c)]
    diffs = [ds[i] - ds[(i + 1) % 3] for i in range(3)]
    le = [d.sublevel_set(0) for d in diffs]
    ge = [d.superlevel_set(0) for d in diffs]
    # d_i is minimal where d_i - d_(i+1) <= 0 and d_(i-1) - d_i >= 0
    regions = tuple(le[i] & ge[i - 1] for i in range(3))
    return KappaMap(*ds, le[0] & ge[0] & le[1] & ge[1], regions)


# --------------------------------------------------------------------------
# Urysohn separation
# --------------------------------------------------------------------------

def urysohn(
    graph: MetricGraph,
    zero_set: ClosedSet,
    one_set: ClosedSet,
    pin_low: ClosedSet,
    pin_high: ClosedSet,
) -> PLFunction:
    """An exact PL function that is 0 on `zero_set`, 1 on `one_set`, at most
    1/2 on `pin_low` and at least 1/2 on `pin_high`; pass an empty set for a
    side with no pin.

    Built as a clamped affine image of d(., zero u pin_low) - d(., one u
    pin_high); the slope is chosen exactly so the clamps engage on the
    mandatory sets.  Postconditions are verified before returning."""
    low = zero_set | pin_low
    high = one_set | pin_high
    if not (zero_set & one_set).is_empty():
        raise PreconditionError("zero and one sets must be disjoint")
    if not (zero_set & pin_high).is_empty():
        raise PreconditionError("zero set meets the high pin")
    if not (one_set & pin_low).is_empty():
        raise PreconditionError("one set meets the low pin")
    if low.is_empty() and high.is_empty():
        return PLFunction.constant(graph, Frac(1, 2))
    if high.is_empty():
        return PLFunction.constant(graph, 0)
    if low.is_empty():
        return PLFunction.constant(graph, 1)
    d_low = distance_to_set(graph, low)
    d_high = distance_to_set(graph, high)
    bounds = []
    if not zero_set.is_empty():
        m = d_high.min_over(zero_set)
        if m <= 0:
            raise PreconditionError("zero set touches the high side")
        bounds.append(Frac(1, 2) / m)
    if not one_set.is_empty():
        m = d_low.min_over(one_set)
        if m <= 0:
            raise PreconditionError("one set touches the low side")
        bounds.append(Frac(1, 2) / m)
    lam = max(bounds) if bounds else Frac(1)
    f = (d_low - d_high).affine(lam, Frac(1, 2)).clamp(0, 1)
    _urysohn_check(f, zero_set, one_set, pin_low, pin_high)
    return f


def _urysohn_check(f, zero_set, one_set, pin_low, pin_high) -> None:
    if not zero_set.is_empty() and f.max_over(zero_set) != 0:
        raise InvariantViolationError("urysohn: not 0 on the zero set")
    if not one_set.is_empty() and f.min_over(one_set) != 1:
        raise InvariantViolationError("urysohn: not 1 on the one set")
    if not pin_low.is_empty():
        if f.max_over(pin_low) > Frac(1, 2):
            raise InvariantViolationError("urysohn: low pin violated")
    if not pin_high.is_empty():
        if f.min_over(pin_high) < Frac(1, 2):
            raise InvariantViolationError("urysohn: high pin violated")


# --------------------------------------------------------------------------
# Piecewise-linear maps between graphs
# --------------------------------------------------------------------------

class PLMap:
    """A PL map described per domain edge: constant onto a point, or affine
    onto a segment of one codomain edge.

    A map is immutable after construction: `preimage_of` reads an inverse
    index built from `vertex_map` and `edge_map` on first use and never
    rebuilt, so neither may change afterwards."""

    def __init__(
        self,
        domain: MetricGraph,
        codomain: MetricGraph,
        vertex_map: Mapping[str, Point],
        edge_map: Mapping[str, tuple],
    ):
        """Checks every entry; continuity at an edge's two ends is read off
        the entry itself: its point, or its `s0` and `s1`."""
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = {
            v: codomain.normalize_point(p) for v, p in vertex_map.items()
        }
        if set(self.vertex_map) != set(domain.vertices):
            raise InputError("vertex map must cover every domain vertex")
        self.edge_map: dict[str, tuple] = {}
        for eid, e in domain.edges.items():
            if eid not in edge_map:
                raise InputError(f"edge map missing edge {eid!r}")
            entry = edge_map[eid]
            if entry[0] == "const":
                got_u = got_v = codomain.normalize_point(entry[1])
                entry = ("const", got_u)
            elif entry[0] == "affine":
                _, target, s0, s1 = entry
                s0, s1 = frac(s0), frac(s1)
                te = codomain.edges[target]
                if not (0 <= s0 <= te.length and 0 <= s1 <= te.length):
                    raise InputError(f"affine image outside edge {target!r}")
                if s0 == s1:
                    raise InputError("degenerate affine entry; use const")
                entry = ("affine", target, s0, s1)
                got_u, got_v = codomain.point(target, s0), codomain.point(target, s1)
            else:
                raise InputError(f"unknown edge map kind {entry[0]!r}")
            self.edge_map[eid] = entry
            if got_u != self.vertex_map[e.u] or got_v != self.vertex_map[e.v]:
                raise InputError(f"edge map discontinuous at edge {eid!r}")

    @staticmethod
    def identity(graph: MetricGraph) -> "PLMap":
        return PLMap(
            graph,
            graph,
            {v: ("v", v) for v in graph.vertices},
            {eid: ("affine", eid, 0, e.length) for eid, e in graph.edges.items()},
        )

    def image_point(self, p: Point) -> Point:
        p = self.domain.normalize_point(p)
        if p[0] == "v":
            return self.vertex_map[p[1]]
        entry = self.edge_map[p[1]]
        if entry[0] == "const":
            return entry[1]
        _, target, s0, s1 = entry
        return self.codomain.point(target, s0 + (s1 - s0) * p[2] / self.domain.edges[p[1]].length)

    def image_of(self, s: ClosedSet) -> ClosedSet:
        if s.graph is not self.domain:
            raise UsageError("closed set not on the domain")
        intervals: dict[str, list] = {}
        verts: set[str] = set()
        whole: set[str] = set()

        def add_point(p: Point) -> None:
            if p[0] == "v":
                verts.add(p[1])
            else:
                intervals.setdefault(p[1], []).append((p[2], p[2]))

        for v in s.vertices:
            add_point(self.vertex_map[v])
        for eid, items in s.intervals.items():
            entry = self.edge_map[eid]
            if entry[0] == "const":
                add_point(entry[1])
                continue
            _, target, s0, s1 = entry
            if eid in s.whole and sorted((s0, s1)) == [0, self.codomain.edges[target].length]:
                whole.add(target)
                continue
            L = self.domain.edges[eid].length
            for lo, hi in items:
                a = s0 + (s1 - s0) * lo / L
                b = s0 + (s1 - s0) * hi / L
                intervals.setdefault(target, []).append((min(a, b), max(a, b)))
        return ClosedSet(self.codomain, intervals, verts, whole)

    @cached_property
    def _fibres(self) -> tuple[dict, dict]:
        """The inverse index behind `preimage_of`, built once per map on
        first use.  Per codomain vertex: the domain vertices and `const`
        edges over it.  Per codomain edge: the domain vertices and `const`
        edges over its interior points, with the point's parameter, and its
        `affine` pieces as (edge, s0, length / (s1 - s0), min(s0, s1),
        max(s0, s1))."""
        at_vertex: dict[str, tuple[list, list]] = {}
        at_edge: dict[str, tuple[list, list, list]] = {}

        def vertex_slot(w: str) -> tuple[list, list]:
            return at_vertex.setdefault(w, ([], []))

        def edge_slot(eid: str) -> tuple[list, list, list]:
            return at_edge.setdefault(eid, ([], [], []))

        for v, p in self.vertex_map.items():
            if p[0] == "v":
                vertex_slot(p[1])[0].append(v)
            else:
                edge_slot(p[1])[0].append((p[2], v))
        for eid, entry in self.edge_map.items():
            if entry[0] == "const":
                p = entry[1]
                if p[0] == "v":
                    vertex_slot(p[1])[1].append(eid)
                else:
                    edge_slot(p[1])[1].append((p[2], eid))
                continue
            _, target, s0, s1 = entry
            L = self.domain.edges[eid].length
            edge_slot(target)[2].append((eid, s0, L / (s1 - s0), min(s0, s1), max(s0, s1)))
        return at_vertex, at_edge

    def preimage_of(self, t: ClosedSet) -> ClosedSet:
        """The closed set of domain points mapped into `t`.

        Costs the fibres of `t` only: the domain pieces over its vertices
        and over the edges it has intervals on, read from an index built
        once per map, not a scan of every domain vertex and edge.  A domain
        edge that lands inside `t` is passed on whole, by id."""
        if t.graph is not self.codomain:
            raise UsageError("closed set not on the codomain")
        at_vertex, at_edge = self._fibres
        intervals: dict[str, list] = {}
        verts: set[str] = set()
        whole: set[str] = set()
        for w in t.vertices:
            if w in at_vertex:
                vids, consts = at_vertex[w]
                verts.update(vids)
                whole.update(consts)
        for target, items in t.intervals.items():
            if target not in at_edge:
                continue
            points, consts, pieces = at_edge[target]
            if target in t.whole:
                # everything over a whole edge lands in t
                verts.update(v for _, v in points)
                whole.update(eid for _, eid in consts)
                whole.update(piece[0] for piece in pieces)
                continue
            for s, v in points:
                if any(lo <= s <= hi for lo, hi in items):
                    verts.add(v)
            for s, eid in consts:
                if any(lo <= s <= hi for lo, hi in items):
                    whole.add(eid)
            for eid, s0, scale, lo_t, hi_t in pieces:
                for lo, hi in items:
                    if lo <= lo_t and hi_t <= hi:
                        # t covers the piece's whole image, either orientation
                        whole.add(eid)
                    elif lo <= hi_t and lo_t <= hi:
                        a = (max(lo, lo_t) - s0) * scale
                        b = (min(hi, hi_t) - s0) * scale
                        intervals.setdefault(eid, []).append((min(a, b), max(a, b)))
        return ClosedSet(self.domain, intervals, verts, whole)

    def then(self, g: "PLMap") -> "PLMap":
        """Composition g after self."""
        if g.domain is not self.codomain:
            raise UsageError("maps do not compose")
        vmap = {v: g.image_point(p) for v, p in self.vertex_map.items()}
        emap: dict[str, tuple] = {}
        for eid, entry in self.edge_map.items():
            if entry[0] == "const":
                emap[eid] = ("const", g.image_point(entry[1]))
                continue
            _, target, s0, s1 = entry
            inner = g.edge_map[target]
            if inner[0] == "const":
                emap[eid] = ("const", inner[1])
                continue
            _, t2, r0, r1 = inner
            L = g.domain.edges[target].length
            u0 = r0 + (r1 - r0) * s0 / L
            u1 = r0 + (r1 - r0) * s1 / L
            if u0 == u1:
                emap[eid] = ("const", g.codomain.point(t2, u0))
            else:
                emap[eid] = ("affine", t2, u0, u1)
        return PLMap(self.domain, g.codomain, vmap, emap)

    def is_surjective(self) -> bool:
        return self.image_of(self.domain.whole_set()) == self.codomain.whole_set()

    def to_dict(self) -> dict:
        def pt(p):
            return {"v": p[1]} if p[0] == "v" else {"e": p[1], "t": frac_str(p[2])}

        edges = {}
        for eid, entry in sorted(self.edge_map.items()):
            if entry[0] == "const":
                edges[eid] = {"kind": "const", "point": pt(entry[1])}
            else:
                edges[eid] = {
                    "kind": "affine",
                    "edge": entry[1],
                    "s0": frac_str(entry[2]),
                    "s1": frac_str(entry[3]),
                }
        return {
            "vertex_map": {v: pt(p) for v, p in sorted(self.vertex_map.items())},
            "edge_map": edges,
        }

    @staticmethod
    def from_dict(domain: MetricGraph, codomain: MetricGraph, data: Mapping) -> "PLMap":
        def pt(d):
            return ("v", d["v"]) if "v" in d else ("e", d["e"], frac(d["t"]))

        try:
            vmap = {v: pt(p) for v, p in data["vertex_map"].items()}
            emap = {}
            for eid, entry in data["edge_map"].items():
                if entry["kind"] == "const":
                    emap[eid] = ("const", pt(entry["point"]))
                else:
                    emap[eid] = (entry["kind"], entry["edge"], frac(entry["s0"]), frac(entry["s1"]))
            return PLMap(domain, codomain, vmap, emap)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise InputError(f"malformed map file: {exc!r}") from exc


# --------------------------------------------------------------------------
# Sublattice extraction
# --------------------------------------------------------------------------

class ExtractResult:
    """The arrangement of a family of named closed sets on one graph.

    `cells` are the arrangement cells and `masks` each named set's footprint
    as an int bitmask over them (bit i stands for `cells[i]`); `full` is the
    whole graph.  `decide` works on the masks alone and closes no lattice.
    `.interpretation` is each name's footprint as a set of cell indices, read
    off its mask.  `.lattice`, the finite sublattice the footprints generate
    with the whole graph adjoined as top, is an oracle for tests and
    perfbench, closed under `cap` when first read; nothing else reads `cap`."""

    def __init__(self, graph: MetricGraph, cells: list[tuple], masks: dict[str, int], cap: int):
        self.graph = graph
        self.cells = cells
        self.masks = masks
        self.full = (1 << len(cells)) - 1
        self.cap = cap

    @cached_property
    def interpretation(self) -> dict[str, frozenset]:
        return {name: _bits(mask) for name, mask in sorted(self.masks.items())}

    @cached_property
    def lattice(self) -> FiniteLattice:
        cells = range(len(self.cells))
        return generate_sublattice(
            cells, [*self.interpretation.values(), frozenset(cells)],
            names=[*self.interpretation, "__whole__"], cap=self.cap,
        )

    def decide(self, f: Formula) -> bool:
        """A sentence over the named sets, decided on the masks: ground
        sentences and conn(t) (see `eval_masks`); other quantifiers raise."""
        return eval_masks(f, self.masks, self.full)


def _bits(mask: int) -> frozenset:
    return frozenset(i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")


def _arrangement(graph: MetricGraph, splits: Iterable[tuple]) -> tuple[list[tuple], dict]:
    """`arrangement_cells` of the sets with these splits, and per cut edge,
    in cell order, its cell index with no cuts, its first cell index, its
    cell count and its breakpoints with both ends.  Only the cut edges are
    laid out; the uncut cells between them are copied as slices."""
    cuts: dict[str, set] = {}
    for _, partial in splits:
        for eid, _, inner in partial:
            cuts.setdefault(eid, set()).update(inner)
    uncut, edge_bit = graph._uncut_cells, graph._edge_bit
    cells: list[tuple] = []
    layout: dict[str, tuple[int, int, int, list]] = {}
    done = 0
    for eid in sorted(cuts, key=edge_bit.__getitem__):
        pos = edge_bit[eid]
        cells += uncut[done:pos]
        marks = [ZERO, *sorted(cuts[eid]), uncut[pos][3]]
        layout[eid] = (pos, len(cells), 2 * len(marks) - 3, marks)
        cells.extend(("p", eid, t) for t in marks[1:-1])
        cells.extend(("o", eid, lo, hi) for lo, hi in zip(marks, marks[1:]))
        done = pos + 1
    cells += uncut[done:]
    return cells, layout


def arrangement_cells(graph: MetricGraph, sets: Iterable[ClosedSet]) -> list[tuple]:
    """Cells of the common refinement of all interval endpoints: vertices,
    then per edge its interior 0-cells followed by the open 1-cells between
    consecutive breakpoints."""
    return _arrangement(graph, [s.split for s in sets])[0]


def cells_closed_set(graph: MetricGraph, cells: Iterable[tuple]) -> ClosedSet:
    """The union of these arrangement cells, each taken with its closure."""
    intervals: dict[str, list] = {}
    verts: set[str] = set()
    for cell in cells:
        if cell[0] == "v":
            verts.add(cell[1])
        elif cell[0] == "p":
            intervals.setdefault(cell[1], []).append((cell[2], cell[2]))
        else:
            intervals.setdefault(cell[1], []).append((cell[2], cell[3]))
    return ClosedSet(graph, intervals, verts)


def _cell_in_set(cell: tuple, s: ClosedSet) -> bool:
    if cell[0] == "v":
        return cell[1] in s.vertices
    if cell[0] == "p":
        return any(lo <= cell[2] <= hi for lo, hi in s.intervals.get(cell[1], ()))
    _, eid, lo, hi = cell
    return any(ilo <= lo and hi <= ihi for ilo, ihi in s.intervals.get(eid, ()))


def _footprint(split: tuple, layout: dict) -> int:
    """The cells inside the set with this split as a bitmask.  From the
    highest cut edge down, the bit of each cut edge widens into its run of
    cells, carrying the bits above it up; then for a partial interval, whose
    endpoints are all breakpoints, a contiguous run of its edge's 0-cells
    and another of its 1-cells is found by bisection."""
    mask, partial = split
    for pos, _, count, _ in reversed(layout.values()):
        high = mask >> pos  # the cut edge's bit and every bit above it
        if high:
            run = (1 << count) - 1 if high & 1 else 0
            mask ^= (high ^ (high >> 1 << count | run)) << pos
    for eid, items, _ in partial:
        # the 0-cell at marks[j] is bit start + j - 1, the 1-cell after it
        # bit start + points + j
        _, start, _, marks = layout[eid]
        points = len(marks) - 2
        for lo, hi in items:
            i, k = bisect_left(marks, lo), bisect_left(marks, hi)
            first, last = max(i, 1), min(k, points)
            if first <= last:
                mask |= ((1 << (last - first + 1)) - 1) << (start + first - 1)
            if i < k:
                mask |= ((1 << (k - i)) - 1) << (start + points + i)
    return mask


def extract_sublattice(
    graph: MetricGraph,
    named_sets: Mapping[str, ClosedSet],
    cap: int = DEFAULT_ELEMENT_CAP,
) -> ExtractResult:
    """The named sets at arrangement granularity: the cell decomposition
    induced by all interval endpoints, and each set's cell footprint as a
    bitmask.  `cap` bounds the sublattice closure, which happens only if the
    result's lattice is read (see ExtractResult); deciding never reads it.

    Each set's `split` is computed once per set, not per call; a call costs
    the edges its sets cut, laid out between slices of the uncut cells, and,
    per distinct set object, a few shifts per cut edge and bisection of its
    partial intervals.  Edges no set cuts cost no Python-level work."""
    names = sorted(named_sets)
    for name in names:
        if named_sets[name].graph is not graph:
            raise UsageError(f"set {name!r} lives on a different graph")
    splits = [named_sets[name].split for name in names]
    distinct = {id(split): split for split in splits}
    cells, layout = _arrangement(graph, distinct.values())
    footprints = {key: _footprint(split, layout) for key, split in distinct.items()}
    masks = {name: footprints[id(split)] for name, split in zip(names, splits)}
    return ExtractResult(graph, cells, masks, cap)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def graph_to_dict(graph: MetricGraph, closed_sets: Mapping[str, ClosedSet] | None = None) -> dict:
    """The file object of a graph and its named sets.  Names bound to one
    set object share one entry, which `dump_json` renders once."""
    entries: dict[int, dict] = {}
    for cs in (closed_sets or {}).values():
        if id(cs) not in entries:
            entries[id(cs)] = cs.to_dict()
    payload: dict = {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": eid, "u": e.u, "v": e.v, "len": frac_str(e.length)}
            for eid, e in sorted(graph.edges.items())
        ],
        "closed_sets": {name: entries[id(cs)] for name, cs in sorted((closed_sets or {}).items())},
    }
    if graph.meta:
        payload["meta"] = graph.meta
    return payload


def _edge_from_dict(e: Mapping, parse: Callable[[object], Frac]) -> Edge:
    names = [e[key] for key in ("id", "u", "v")]
    for key, name in zip(("id", "u", "v"), names):
        if not isinstance(name, str):
            raise InputError(f"edge {key} must be a string, not {name!r}")
    return Edge(*names, parse(e["len"]))


def graph_from_dict(data: Mapping) -> tuple[MetricGraph, dict[str, ClosedSet]]:
    """The graph and named sets of a file object.  Equal closed-set entries
    load as one `ClosedSet`, so a set bound to many names is parsed, hashed
    and laid out once."""
    parsed = cache(frac)  # each distinct string of the file is parsed once

    def parse(value) -> Frac:
        return parsed(value) if isinstance(value, str) else frac(value)

    try:
        vertices = data["vertices"]
        edges = [_edge_from_dict(e, parse) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed graph file: {exc}") from exc
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError(f"vertices must be a list of strings, not {vertices!r}")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError(f"meta must be an object, not {meta!r}")
    graph = MetricGraph(vertices, edges, dict(meta))
    specs = data.get("closed_sets", {})
    if not isinstance(specs, dict):
        raise InputError(f"closed_sets must be an object, not {specs!r}")
    # entries met so far, bucketed by their length and vertex count and told
    # apart by `==`; an entry the key cannot read goes to `from_dict`, which
    # rejects it or reads it as a one-off
    loaded: dict[tuple[int, int], list[tuple[dict, ClosedSet]]] = {}
    sets = {}
    for name, spec in specs.items():
        verts = spec.get("vertices") if isinstance(spec, dict) else None
        bucket = loaded.setdefault((len(spec), len(verts)), []) if isinstance(verts, list) else []
        for seen, cs in bucket:
            if seen == spec:
                break
        else:
            cs = ClosedSet.from_dict(graph, spec, parse)
            bucket.append((spec, cs))
        sets[name] = cs
    return graph, sets


def load_graph(path: str) -> tuple[MetricGraph, dict[str, ClosedSet]]:
    return graph_from_dict(read_input(path))


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(o) -> str:
    """A leaf as `json.dumps` writes it, tested in json.encoder's order."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _JSON_NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """The JSON text of every file the package writes: byte for byte
    `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, whose pure-Python
    indenting encoder is several times slower.  A list or dict that recurs
    at one depth (a shared whole-edge entry, a set bound to several names)
    is rendered once."""
    breaks = ["\n"]  # newline plus the indent of each depth
    memo: dict[tuple[int, int], str] = {}

    def emit(o, depth: int) -> str:
        if not isinstance(o, (dict, list, tuple)):
            return _json_scalar(o)
        key = (id(o), depth)
        text = memo.get(key)
        if text is None:
            while len(breaks) <= depth + 1:
                breaks.append(breaks[-1] + "  ")
            sep = "," + breaks[depth + 1]
            # one flat list of pieces, joined once, so that no child's text
            # is copied before the join
            pieces: list[str] = []
            if isinstance(o, dict):
                ends = "{}"
                for k, v in sorted(o.items()):
                    name = encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k))
                    pieces += (sep, name, ": ", emit(v, depth + 1))
            else:
                ends = "[]"
                for v in o:
                    pieces += (sep, encode_basestring_ascii(v) if isinstance(v, str)
                               else emit(v, depth + 1))
            if pieces:
                pieces[0] = ends[0] + breaks[depth + 1]
                pieces.append(breaks[depth] + ends[1])
            text = memo[key] = "".join(pieces) or ends
        return text

    text = emit(obj, 0)
    memo.clear()  # the top depths' texts are most of the file: free them before the copy
    return text + "\n"


def dump_graph(graph: MetricGraph, closed_sets=None) -> str:
    return dump_json(graph_to_dict(graph, closed_sets))


def unit_segment() -> MetricGraph:
    """The unit interval as the one edge "seg"; the bundled base space."""
    return MetricGraph(["a", "b"], [Edge("seg", "a", "b", Frac(1))])
