"""The value types' contract: equality, hashing, no order, repr, immutability,
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
    classify_efficient,
    enumerate_cycles,
    enumerate_disjoint_families,
    enumerate_sachs,
    four_k_cycles,
    permanent_auto,
    permanent_theorem1,
    verify_theorem2,
)
from permdet.graphs import Frozen

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


def test_vertexset_keys_a_dict_and_has_no_order():
    table = {VertexSet(5): "a"}
    assert table[VertexSet(0b101)] == "a"
    assert VertexSet(5) != 5
    with pytest.raises(TypeError):
        VertexSet(1) < VertexSet(2)
    assert repr(VertexSet(5)) == "VertexSet(mask=5)"


def test_cycle_equality_reads_vertices_and_mask():
    c = Cycle((0, 1, 2, 3), 0b1111)
    same = Cycle((0, 1, 2, 3), 0b1111)
    assert c == same and hash(c) == hash(same)
    assert c != Cycle(c.vertices, 0)
    assert c != Cycle((0, 1, 2, 3, 4, 5), 0b111111)
    assert c != Cycle((0, 1, 3, 2), 0b1111)
    assert repr(c) == "Cycle(vertices=(0, 1, 2, 3), mask=15)"


def test_cycle_keeps_its_mask_through_pickle_and_copy():
    c = Cycle((0, 2, 5, 3), 0b101101)
    for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert twin == c and hash(twin) == hash(c) and type(twin) is Cycle
        assert twin.mask == 0b101101


@pytest.mark.parametrize(
    "value, field",
    [
        (VertexSet(3), "mask"),
        (Cycle((0, 1, 2, 3), 0b1111), "vertices"),
        (Cycle((0, 1, 2, 3), 0b1111), "mask"),
        (PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing", ()), "value"),
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
    c = Cycle((0, 1, 2, 3), 0b1111)
    fam = DisjointFamily((0,), VertexSet(c.mask))
    for value in (VertexSet(1), c, fam, bipartition(g), permanent_auto(g)):
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_permanent_report_repr_and_defaults():
    report = PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing", ())
    text = repr(report)
    assert text.startswith("PermanentReport(value=4, ")
    assert "path_taken='pfaffian_signing', pieces=()" in text
    assert report != PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing", (report,))
    # No field has a default, and none is passed by keyword.
    with pytest.raises(TypeError):
        PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing")
    with pytest.raises(TypeError):
        PermanentReport(4, 4, 0, 1, 1, "pfaffian_signing", pieces=())
    with pytest.raises(TypeError):
        VertexSet()


def test_only_graph_has_a_constructor_of_its_own():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = {cls.__name__: cls for cls in subclasses(Frozen)}
    assert {"VertexSet", "Cycle", "PermanentReport", "Theorem2Report"} <= found.keys()
    assert [name for name, cls in found.items() if "__init__" in cls.__dict__] == ["Graph"]


def test_values_survive_pickle_and_copy():
    g = corpus.example10()
    c4k = four_k_cycles(enumerate_cycles(g))
    report = permanent_auto(g)
    table = permanent_theorem1(g)
    # One value of each type the library returns.
    values = [
        g,
        VertexSet(9),
        c4k[0],
        enumerate_disjoint_families(c4k)[-1],
        bipartition(g),
        report,
        report.pieces[0],
        table,
        table.per_family_terms[-1],
        classify_efficient(g),
        enumerate_sachs(g, g.n)[0],
        verify_theorem2(corpus.cycle_graph(4), 0),
        verify_theorem2(corpus.cycle_graph(4), 1),
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)
        # Pickling rebuilds a value from its fields, one positional value
        # each, and one too few is a TypeError.
        fields = value._key()
        assert type(value)(*fields) == value
        with pytest.raises(TypeError):
            type(value)(*fields[:-1])
    assert pickle.loads(pickle.dumps(g)).neighbors == g.neighbors
