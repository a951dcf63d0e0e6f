"""The benchmark's workloads: seeded input pools, pinned schedules, and one
checked operation per input.

Every workload runs the same pipeline a CLI user runs, in phases:
- build: the construction (`witness_fragment` or `build_tower`);
- io: write the artifact the CLI writes and read it back
  (model.json + trace.json, or the tower directory);
- verify: check the artifact read back with the independent evaluator
  (every fragment sentence on the reloaded model, or `verify_tower`);
- thread: towers only, `weak_confluence_witness` over every catalog set.

The library only sees the generated inputs.  Each input is named by a key;
the seed picks the order in which a run visits the keys of the pool.  The
canonical bytes of every output must match the digest recorded for its key
in digests.json.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

# --------------------------------------------------------------------------
# Pinned schedules
# --------------------------------------------------------------------------


def _diagonal_triple(n: int) -> tuple[int, int, int]:
    """The n-th triple of omega^3 by total sum, then lexicographically."""
    s = 0
    while n >= (s + 1) * (s + 2) // 2:
        n -= (s + 1) * (s + 2) // 2
        s += 1
    for p in range(s + 1):
        if n <= s - p:
            return (p, n, s - p - n)
        n -= s - p + 1
    raise AssertionError("unreachable")


def diagonal_s(n: int) -> tuple[int, int]:
    p, q, _ = _diagonal_triple(n)
    return (p, q) if n >= max(p, q) else (0, 0)


def diagonal_t(n: int) -> tuple[int, int]:
    _, q, r = _diagonal_triple(n)
    return (q, r) if n >= max(q, r) else (0, 0)


# tower-crooked always schedules the phi-quad (a, b, a, b) of the stage-0
# base, whose names sort as [a, b]; quad_by_index reads the index as base-2
# digits, so (a, b, a, b) is 0101 = 5.  A stage-0 base of two names has no
# triples, so every dimension stage is a no-op.
PHI_QUAD = ("a", "b", "a", "b")
PHI_QUAD_INDEX = 5


def _pinned_phi_quad(n: int) -> tuple[int, int]:
    return (0, PHI_QUAD_INDEX)


def _no_dimension_instance(n: int) -> tuple[int, int]:
    return (0, 0)


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

ELEMENT_CAP = 4096   # the CLI default sublattice cap


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _max_den_bits(graph, sets) -> int:
    values = [e.length for e in graph.edges.values()]
    for s in sets.values():
        for items in s.intervals.values():
            for lo, hi in items:
                values.extend((lo, hi))
    return max(Fraction(v).denominator.bit_length() for v in values)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class Outcome:
    """What one operation produced: its digest, the failed checks, and the
    counts that must repeat exactly."""

    def __init__(self):
        self.digest = None
        self.problems: list[str] = []
        self.counts: dict[str, float] = {}

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


# --------------------------------------------------------------------------
# fragment-surgery
# --------------------------------------------------------------------------


class FragmentSurgery:
    """`witness_fragment` on the diagram-through-stage-5 fragment of the base
    {0},{2},{0,1,2} at budget 400 on the unit segment.  The key places the
    points g0 and g1 at eighths of the segment, three to five eighths apart.
    At that distance every placement makes the same surgeries (2 triangle,
    5 crooked) and the same final size (V = E = 244), so the work does not
    depend on the seed; closer or farther placements end smaller."""

    name = "fragment-surgery"
    sequence_length = 16
    min_triangles = 2
    min_crooked = 5

    def pool(self) -> list[str]:
        return [f"g0={i}/8,g1={j}/8" for i in range(9) for j in range(9) if 3 <= abs(i - j) <= 5]

    def prepare_shared(self, lib):
        base = lib.lattice.generate_sublattice(
            {0, 1, 2}, [{0}, {2}, {0, 1, 2}], names=["g0", "g1", "g2"]
        )
        records = lib.sigma.SigmaGenerator(base, budget=400).generate_through(5)
        usable = sum(1 for r in records if not r.ignorable)
        return base, lib.sigma.fragment(records, usable)

    def prepare(self, lib, shared, key: str):
        base, frag = shared
        g0, g1 = (int(part.split("=")[1].split("/")[0]) for part in key.split(","))
        g = lib.metric_graph.unit_segment()
        point = lambda k: g.normalize_point(("e", "seg", Fraction(k, 8)))  # noqa: E731
        gen_sets = {
            "g0": g.point_closed_set([point(g0)]),
            "g1": g.point_closed_set([point(g1)]),
            "g2": g.whole_set(),
        }
        return frag, g, lib.surgery.base_interpretation(base, gen_sets, g)

    def produce(self, lib, inp, workdir, phase):
        """Build, then write the CLI's model.json and trace.json."""
        frag, g, interp0 = inp
        with phase("build"):
            result = lib.surgery.witness_fragment(frag, g, interp0, cap=ELEMENT_CAP)
        paths = [os.path.join(workdir, "model.json"), os.path.join(workdir, "trace.json")]
        with phase("io"):
            _write(paths[0], lib.metric_graph.dump_graph(result.graph, result.interpretation))
            _write(paths[1], json.dumps(result.trace, indent=2, sort_keys=True) + "\n")
        return result, paths

    def run(self, lib, inp, workdir, phase) -> Outcome:
        out = Outcome()
        frag = inp[0]
        result, paths = self.produce(lib, inp, workdir, phase)
        with phase("io"):
            graph, sets = lib.metric_graph.load_graph(paths[0])
        with phase("verify"):
            verdicts = self.verify_model(lib, frag, graph, sets)
        out.digest = digest_files(paths)
        out.require(result.ok, "WitnessResult.ok is false")
        out.require(all(verdicts), f"{verdicts.count(False)} sentences false on the reloaded model")
        actions = [t["action"] for t in result.trace]
        triangles, crooked = actions.count("triangle"), actions.count("crooked")
        out.require(triangles >= self.min_triangles, f"only {triangles} triangle surgeries")
        out.require(crooked >= self.min_crooked, f"only {crooked} crooked surgeries")
        instances = sum(1 for r in frag if r.kind in ("zeta", "theta"))
        out.counts = {
            "surgery.surgeries": triangles + crooked,
            "surgery.nudges": actions.count("nudge"),
            "surgery.useful_ratio": (triangles + crooked) / instances if instances else 0.0,
            "final.vertices": len(result.graph.vertices),
            "final.edges": len(result.graph.edges),
            "final.max_den_bits": _max_den_bits(result.graph, result.interpretation),
        }
        return out

    @staticmethod
    def verify_model(lib, frag, graph, sets) -> list[bool]:
        """Every fragment sentence, re-evaluated by the lattice evaluator on
        sublattices extracted from the reloaded model."""
        folang = lib.folang
        verdicts = []
        full = None
        for rec in frag:
            f = rec.formula
            if folang.is_ground(f):
                verdicts.append(lib.surgery.verify_on_sublattice(f, sets, graph, ELEMENT_CAP))
                continue
            if full is None:
                cids = sorted({c for r in frag for c in folang.constants_of(r.formula)})
                full = lib.metric_graph.extract_sublattice(
                    graph, {c: sets[c] for c in cids}, cap=ELEMENT_CAP
                )
            verdicts.append(folang.eval_formula(f, full.lattice, full.interpretation).value)
        return verdicts


# --------------------------------------------------------------------------
# Tower workloads
# --------------------------------------------------------------------------

SURGERY_KINDS = ("triangle", "crooked")
MODES = ("surgery", "shortcut", "vacuous", "identity", "noop")


class TowerWorkload:
    """build_tower -> save_tower/load_tower -> verify_tower ->
    weak_confluence_witness over the catalog, as tower-build, tower-verify
    and tower-thread run them."""

    depth: int
    schedules: tuple

    def prepare_shared(self, lib):
        return None

    def prepare(self, lib, shared, key: str):
        g = lib.metric_graph.unit_segment()
        sets, catalog_names = self.base_sets(lib, g, key)
        catalog = {n: g.whole_set() if n == "whole" else sets[n] for n in catalog_names}
        return g, sets, catalog

    def produce(self, lib, inp, workdir, phase):
        g, sets, catalog = inp
        with phase("build"):
            tower = lib.tower.build_tower(g, sets, catalog, self.depth, schedules=self.schedules)
        with phase("io"):
            lib.tower.save_tower(tower, workdir)
        paths = [os.path.join(workdir, f) for f in os.listdir(workdir)]
        return tower, paths

    def run(self, lib, inp, workdir, phase) -> Outcome:
        out = Outcome()
        tower, paths = self.produce(lib, inp, workdir, phase)
        out.digest = digest_files(paths)
        with phase("io"):
            loaded = lib.tower.load_tower(workdir)
        with phase("verify"):
            report = lib.tower.verify_tower(loaded, cap=ELEMENT_CAP)
        with phase("thread"):
            threads = {
                name: lib.tower.weak_confluence_witness(loaded, sets[0])
                for name, sets in loaded.catalog.items()
            }
        failed = [label for label, ok in report if not ok]
        out.require(not failed, f"verify_tower lines false: {failed[:3]}")
        out.require(all(len(t.sets) == loaded.depth + 1 for t in threads.values()),
                    "a thread does not reach the last stage")
        self.check_job(loaded, out)
        kinds = [st.kind for st in loaded.stages[1:]]
        surgeries = sum(kinds.count(k) for k in SURGERY_KINDS)
        instances = len(loaded.instances())
        last = loaded.depth
        out.counts = {
            "surgery.surgeries": surgeries,
            "surgery.nudges": sum(len(st.nudges) for st in loaded.stages),
            "surgery.useful_ratio": surgeries / instances if instances else 0.0,
            **{f"tower.modes.{m}": (surgeries if m == "surgery" else kinds.count(m)) for m in MODES},
            "final.vertices": len(loaded.graph(last).vertices),
            "final.edges": len(loaded.graph(last).edges),
            "final.max_den_bits": _max_den_bits(loaded.graph(last), loaded.base(last)),
        }
        return out


class TowerDeep(TowerWorkload):
    """The acceptance-6 base at depth 30 along today's diagonal schedules.
    The key places the point `pt` at a sixteenth of the segment."""

    name = "tower-deep"
    sequence_length = 8
    depth = 30
    schedules = (diagonal_s, diagonal_t)

    def pool(self) -> list[str]:
        return [f"pt={k}/16" for k in range(1, 16)]

    def base_sets(self, lib, g, key):
        ClosedSet, F = lib.metric_graph.ClosedSet, Fraction
        k = int(key.split("=")[1].split("/")[0])
        interval = lambda lo, hi: ClosedSet(g, {"seg": [(lo, hi)]}, set())  # noqa: E731
        sets = {
            "p": interval(F(0), F(1, 4)),
            "q": interval(F(3, 4), F(1)),
            "r": interval(F(3, 8), F(5, 8)),
            "left": interval(F(0), F(1, 2)),
            "right": interval(F(1, 2), F(1)),
            "mid": interval(F(1, 4), F(1, 2)),
            "pt": g.point_closed_set([("e", "seg", F(k, 16))]),
        }
        return sets, ("whole", "mid")

    def check_job(self, tower, out: Outcome) -> None:
        surgeries = [st.kind for st in tower.stages if st.kind in SURGERY_KINDS]
        out.require(not surgeries, f"tower-deep ran surgeries: {surgeries}")


class TowerCrooked(TowerWorkload):
    """Depth-4 towers on the unit segment over two disjoint intervals a < b
    with endpoints at sixteenths (the key), the crooked stages pinned to the
    phi-quad (a, b, a, b): two staircase surgeries per tower, E = 1, 5, 13.

    Depth 4 because deeper towers hit the known sublattice-closure defect
    (ROADMAP item C), which stays visible here: at depth 5 verify_tower
    takes ~15 s per tower, and at depth 7 build_tower raises
    ResourceLimitError (closure beyond the 4096-element cap)."""

    name = "tower-crooked"
    sequence_length = 128
    depth = 4
    schedules = (_no_dimension_instance, _pinned_phi_quad)
    crooked_surgeries = 2

    def pool(self) -> list[str]:
        return [f"a={a0}-{a1}/16,b={b0}-{b1}/16"
                for a0, a1, b0, b1 in itertools.combinations(range(17), 4)]

    def base_sets(self, lib, g, key):
        ClosedSet = lib.metric_graph.ClosedSet
        a_part, b_part = key.split(",")
        sets = {}
        for part in (a_part, b_part):
            name, spec = part.split("=")
            lo, hi = (int(x) for x in spec.split("/")[0].split("-"))
            sets[name] = ClosedSet(g, {"seg": [(Fraction(lo, 16), Fraction(hi, 16))]}, set())
        return sets, ("whole", "a", "b")

    def check_job(self, tower, out: Outcome) -> None:
        crooked = [st for st in tower.stages if st.kind == "crooked"]
        out.require(len(crooked) == self.crooked_surgeries,
                    f"{len(crooked)} crooked surgeries, expected {self.crooked_surgeries}")
        out.require(all(tuple(st.instance["operands"]) == PHI_QUAD for st in crooked),
                    "a crooked stage did not use the pinned phi-quad")


WORKLOADS = {w.name: w for w in (FragmentSurgery(), TowerDeep(), TowerCrooked())}


def sequence(workload, seed: int) -> list[str]:
    """The keys a run visits, in order: a seeded sample of the pool."""
    pool = workload.pool()
    return random.Random(seed).sample(pool, min(workload.sequence_length, len(pool)))
