import random

import corpus
import pytest
from permdet import (
    DEFAULT_FAMILY_CAP,
    Cycle,
    CycleCapExceeded,
    DisjointFamily,
    EnumerationCapExceeded,
    Graph,
    VertexSet,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
    four_k_plus_two_cycles,
    max_disjoint,
)


def test_cycle_canonical_form_ignores_rotation_and_direction():
    base = Cycle.from_vertices((0, 1, 2, 3))
    assert Cycle.from_vertices((2, 3, 0, 1)) == base
    assert Cycle.from_vertices((3, 2, 1, 0)) == base
    assert Cycle.from_vertices((1, 0, 3, 2)) == base
    assert base.vertices[0] == min(base.vertices)


def test_cycle_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Cycle.from_vertices((0, 1))
    with pytest.raises(ValueError):
        Cycle.from_vertices((0, 1, 1))


def test_cycle_labels_and_length():
    cy = Cycle.from_labels((1, 2, 3, 4))
    assert cy.length == 4
    assert cy.is_4k
    assert cy.labels() == (1, 2, 3, 4)
    assert not Cycle.from_labels((1, 2, 3, 4, 5, 6)).is_4k


@pytest.mark.parametrize("n", [4, 6, 8])
def test_single_cycle_graphs(n):
    found = enumerate_cycles(corpus.cycle_graph(n))
    assert len(found) == 1
    assert found[0].length == n


def test_example10_cycle_inventory():
    cycles = enumerate_cycles(corpus.example10())
    assert [(c.labels(), c.length) for c in cycles] == [
        ((1, 2, 3, 4), 4),
        ((3, 4, 5, 6), 4),
        ((7, 8, 9, 10), 4),
        ((1, 2, 3, 6, 5, 4), 6),
    ]
    assert len(four_k_cycles(cycles)) == 3
    assert len(four_k_plus_two_cycles(cycles)) == 1


def test_k4_has_seven_cycles():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    cycles = enumerate_cycles(k4)
    assert sorted(c.length for c in cycles) == [3, 3, 3, 3, 4, 4, 4]


def test_k23_has_three_squares():
    cycles = enumerate_cycles(corpus.complete_bipartite(2, 3))
    assert [c.length for c in cycles] == [4, 4, 4]


def test_trees_have_no_cycles():
    rng = random.Random(7)
    for _ in range(10):
        assert enumerate_cycles(corpus.random_tree(rng.randint(1, 12), rng)) == []


def test_enumeration_is_relabeling_invariant():
    g = corpus.example10()
    rng = random.Random(21)
    base = {c.vertices for c in enumerate_cycles(g)}
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = corpus.relabel(g, perm)
        mapped = {
            Cycle.from_vertices(tuple(perm[v] for v in cy)).vertices for cy in base
        }
        assert {c.vertices for c in enumerate_cycles(h)} == mapped


def test_cycle_cap_raises():
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(corpus.example10(), cap=2)


def test_max_len_filter():
    cycles = enumerate_cycles(corpus.example10(), max_len=4)
    assert [c.length for c in cycles] == [4, 4, 4]


def test_disjoint_families_example10():
    c4k = four_k_cycles(enumerate_cycles(corpus.example10()))
    fams = enumerate_disjoint_families(c4k)
    assert [f.size for f in fams] == [0, 1, 1, 1, 2, 2]
    assert max_disjoint(fams) == 2
    for fam in fams:
        covered = 0
        for idx in fam.cycle_indices:
            assert covered & c4k[idx].vertex_set.mask == 0
            covered |= c4k[idx].vertex_set.mask
        assert covered == fam.covered.mask


def test_disjoint_families_two_squares():
    g = corpus.load_fixture("two_disjoint_c4.edges")
    fams = enumerate_disjoint_families(four_k_cycles(enumerate_cycles(g)))
    assert [f.size for f in fams] == [0, 1, 1, 2]


def test_disjoint_families_empty_input():
    fams = enumerate_disjoint_families([])
    assert len(fams) == 1
    assert fams[0].size == 0
    assert max_disjoint(fams) == 0


def rescanning_families(c4k) -> list:
    """Reference enumerator: every family rescans every later cycle.

    The package's first implementation, kept as the oracle for the
    bitset search; it costs O(families * cycles).
    """
    masks = [c.vertex_set.mask for c in c4k]
    families = []

    def extend(start, chosen, covered):
        families.append(DisjointFamily(tuple(chosen), VertexSet(covered)))
        for i in range(start, len(masks)):
            if covered & masks[i] == 0:
                chosen.append(i)
                extend(i + 1, chosen, covered | masks[i])
                chosen.pop()

    extend(0, [], 0)
    families.sort(key=lambda f: (f.size, f.cycle_indices))
    return families


def _c4k_lists(*graphs):
    return [four_k_cycles(enumerate_cycles(g)) for g in graphs]


@pytest.mark.parametrize(
    "c4k_lists",
    [
        pytest.param(lambda: _c4k_lists(*corpus.connected_bipartite_upto(8)), id="connected_upto_8"),
        pytest.param(lambda: _c4k_lists(*corpus.random_corpus()), id="random_corpus"),
        pytest.param(
            lambda: _c4k_lists(corpus.grid_graph(4, 4), corpus.grid_graph(4, 5)), id="grids_4x4_4x5"
        ),
        pytest.param(lambda: _c4k_lists(corpus.bridged_c8_chain(6)), id="bridged_c8_chain_6"),
        pytest.param(lambda: _c4k_lists(corpus.example10()), id="example10"),
        pytest.param(lambda: [[]], id="empty"),
    ],
)
def test_disjoint_families_match_rescanning_oracle(c4k_lists):
    # DisjointFamily equality compares cycle_indices and covered; list
    # equality adds the order.
    for c4k in c4k_lists():
        assert enumerate_disjoint_families(c4k) == rescanning_families(c4k)


def test_family_cap_raises(monkeypatch):
    from permdet import cycles

    c4k = four_k_cycles(enumerate_cycles(corpus.grid_graph(4, 4)))
    count = len(enumerate_disjoint_families(c4k))
    assert count < DEFAULT_FAMILY_CAP
    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", count)
    assert len(enumerate_disjoint_families(c4k)) == count
    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", count - 1)
    with pytest.raises(EnumerationCapExceeded, match="disjoint family") as info:
        enumerate_disjoint_families(c4k)
    assert info.value.cap == count - 1
    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", 0)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_disjoint_families([])
