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
