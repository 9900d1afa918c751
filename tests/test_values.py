"""The value types' contract: equality, hashing, order, repr, immutability,
and what ``import permdet`` loads."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import corpus
import pytest
from permdet import (
    Cycle,
    DisjointFamily,
    Graph,
    PermanentReport,
    VertexSet,
    bipartition,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
    permanent_auto,
    permanent_theorem1,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_code_generation_modules():
    # -S keeps site (and any .pth file) from preloading modules such as
    # typing, and the snapshot taken just before the import leaves out
    # what the interpreter itself starts with.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import permdet\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    added = set(json.loads(done.stdout))
    assert "permdet" in added
    assert not added & {"dataclasses", "inspect", "typing"}, sorted(added)


def test_graph_equality_and_hash_ignore_neighbors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = Graph(4, ((0, 1), (1, 2), (2, 3)))
    object.__setattr__(h, "neighbors", ())
    assert g == h and hash(g) == hash(h)
    assert g != Graph(5, g.edges)
    assert g != Graph(4, g.edges[:2])
    assert repr(g) == "Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))"


def test_vertexset_sorts_by_mask_and_keys_a_dict():
    sets = [VertexSet(6), VertexSet(1), VertexSet(4)]
    assert [s.mask for s in sorted(sets)] == [1, 4, 6]
    assert VertexSet(1) < VertexSet(2) <= VertexSet(2) < VertexSet(3)
    assert VertexSet(3) > VertexSet(2) >= VertexSet(2)
    assert VertexSet() == VertexSet(0)
    table = {VertexSet(5): "a"}
    assert table[VertexSet.from_indices([0, 2])] == "a"
    assert VertexSet(5) != 5
    with pytest.raises(TypeError):
        VertexSet(1) < 2
    assert repr(VertexSet(5)) == "VertexSet(mask=5)"


def test_cycle_equality_ignores_vertex_set():
    c = Cycle.from_labels([1, 2, 3, 4])
    same = Cycle._from_search(c.vertices, 0)
    assert same.vertex_set != c.vertex_set
    assert c == same and hash(c) == hash(same)
    assert c == Cycle.from_labels([2, 1, 4, 3])
    assert c != Cycle.from_labels([1, 2, 3, 4, 5, 6])
    assert repr(c) == "Cycle(vertices=(0, 1, 2, 3))"


@pytest.mark.parametrize(
    "value, field",
    [
        (VertexSet(3), "mask"),
        (Cycle.from_labels([1, 2, 3, 4]), "vertices"),
        (Cycle.from_labels([1, 2, 3, 4]), "vertex_set"),
        (PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing"), "value"),
        (Graph.from_edges(2, [(0, 1)]), "n"),
    ],
)
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_slotted_values_have_no_instance_dict():
    g = corpus.cycle_graph(4)
    c = Cycle.from_labels([1, 2, 3, 4])
    fam = DisjointFamily((0,), c.vertex_set)
    for value in (VertexSet(1), c, fam, bipartition(g), permanent_auto(g)):
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_permanent_report_repr_and_defaults():
    report = PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing")
    assert (report.num_cycles, report.pieces) == (0, ())
    text = repr(report)
    assert text.startswith("PermanentReport(value=4, ")
    assert "path_taken='pfaffian_signing'" in text
    assert report == PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing", num_cycles=0)
    assert report != PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing", num_cycles=1)


def test_values_survive_pickle_and_copy():
    g = corpus.example10()
    c4k = four_k_cycles(enumerate_cycles(g))
    values = [
        g,
        VertexSet(9),
        c4k[0],
        enumerate_disjoint_families(c4k)[-1],
        bipartition(g),
        permanent_auto(g),
        permanent_theorem1(g),
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)
    assert pickle.loads(pickle.dumps(g)).neighbors == g.neighbors
    assert pickle.loads(pickle.dumps(c4k[0])).vertex_set == c4k[0].vertex_set
