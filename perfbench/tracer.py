"""In-memory span tracer that instruments the library from the outside.

`install` replaces a function or method with a wrapper that opens a span,
calls the original, and closes the span.  A module-level function is
replaced under every name that binds it in the package, so a caller that
did `from .metric_graph import extract_sublattice` is traced as well.

Spans are folded into per-(phase, name) statistics when they close:
- the phase is the name of the outermost open span (a benchmark phase such
  as "build" or "verify");
- self time is the span's duration minus the durations of its direct
  children, so the self times under a root sum to the root's duration;
- total time is added only for the outermost span of a name, so recursion
  does not count the same interval twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (phase, name) -> [calls, self seconds, total seconds]
        self.stats: dict[tuple[str, str], list] = {}
        # observer key -> largest value seen, or a running count
        self.observed: dict[str, float] = {}
        self._stack: list[list] = []   # open spans: [name, start, child seconds]
        self._open: Counter = Counter()

    def _push(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def _pop(self) -> None:
        end = self.clock()
        name, start, children = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        phase = self._stack[0][0] if self._stack else name
        entry = self.stats.setdefault((phase, name), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - children
        if not self._open[name]:
            entry[2] += duration
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self._push(name)
        try:
            yield
        finally:
            self._pop()

    def observe_max(self, key: str, value) -> None:
        self.observed[key] = max(self.observed.get(key, 0), value)

    def observe_count(self, key: str, value) -> None:
        self.observed[key] = self.observed.get(key, 0) + value

    def wrap(self, name: str, fn, observer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if observer is not None:
                observer(tracer, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ summaries

    def by_name(self) -> dict[str, list]:
        """Statistics per span name, summed over phases."""
        out: dict[str, list] = {}
        for (_, name), (calls, self_s, total_s) in self.stats.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        return out

    def phase_total(self, phase: str) -> float:
        return self.stats.get((phase, phase), [0, 0.0, 0.0])[2]

    def phase_self(self, phase: str, accept) -> float:
        """Self time inside `phase` of the spans whose name `accept` takes."""
        return sum(
            entry[1] for (ph, name), entry in self.stats.items()
            if ph == phase and name != phase and accept(name)
        )


def metric_name(module: str, qualname: str) -> str:
    """`ClosedSet.__and__` -> `metric_graph.ClosedSet.and`."""
    return module + "." + ".".join(part.strip("_") for part in qualname.split("."))


def install(tracer: Tracer, package: str, targets) -> list:
    """Wrap every `(module, qualname, observer)` target of `package`; return
    the undo list for `uninstall`.  A target the package no longer has
    raises LookupError before anything is wrapped: a renamed function must be
    re-pointed on purpose, not read as zero cost."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == package or n.startswith(package + ".")) and m is not None]
    resolved = []
    for module_name, qualname, observer in targets:
        module = sys.modules.get(f"{package}.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
        else:
            owner, original = None, getattr(module, attr, None)
        if original is None:
            raise LookupError(f"{package}.{module_name} has no {qualname} to trace")
        resolved.append((owner, attr, original, metric_name(module_name, qualname), observer))
    undo: list = []
    for owner, attr, original, name, observer in resolved:
        wrapped = tracer.wrap(name, original, observer)
        if owner is not None:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, binding, original))
                    setattr(mod, binding, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
