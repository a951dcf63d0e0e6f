from functools import cached_property

import pytest

from crooked import lattice, metric_graph


@pytest.fixture
def closure_calls(monkeypatch):
    """A list that gains one entry per `generate_sublattice` call, through
    either module binding, for the rest of the test."""
    calls = []
    generate = lattice.generate_sublattice

    def counting(*args, **kwargs):
        calls.append(1)
        return generate(*args, **kwargs)

    for module in (lattice, metric_graph):
        monkeypatch.setattr(module, "generate_sublattice", counting)
    return calls


@pytest.fixture
def fibre_builds(monkeypatch):
    """A list that gains the map itself each time a `PLMap` builds the
    inverse index behind `preimage_of`, for the rest of the test."""
    builds = []
    build = metric_graph.PLMap._fibres.func

    def counting(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(metric_graph.PLMap, "_fibres")
    monkeypatch.setattr(metric_graph.PLMap, "_fibres", prop)
    return builds


@pytest.fixture
def split_builds(monkeypatch):
    """A list that gains the set itself each time a `ClosedSet` computes the
    split behind its cell footprints, for the rest of the test."""
    builds = []
    build = metric_graph.ClosedSet._edge_split

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(metric_graph.ClosedSet, "_edge_split", counting)
    return builds
