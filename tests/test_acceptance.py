"""Acceptance suite: one test per shipping criterion.

Each test emits a single PASS or FAIL verdict line; conftest echoes the
collected lines after the run so the log always shows them regardless of
capture mode.  Criteria with stated time budgets measure wall time and
assert it.
"""

import json
import random
import time
from contextlib import contextmanager

import corpus
import pytest
from permdet import (
    SizeGuardExceeded,
    VertexSet,
    cli,
    check_parity_identity,
    check_removal_identity,
    count_perfect_matchings,
    det_after_removal,
    det_via_sachs,
    determinant,
    enumerate_cycles,
    enumerate_disjoint_families,
    enumerate_sachs,
    four_k_cycles,
    graph_from_biadjacency,
    per_ryser,
    per_via_sachs,
    permanent_auto,
    permanent_theorem1,
    verify_theorem2,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        line = f"criterion {number}: FAIL - {description}"
        corpus.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"criterion {number}: PASS - {description}"
    corpus.ACCEPTANCE_LINES.append(line)
    print(line)


def _cli_records(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


def test_criterion_1_example10_end_to_end(capsys):
    with criterion(1, "10-vertex example end-to-end: per 36, cycle dets, m=2, "
                      "counts (exact, <1s)"):
        start = time.perf_counter()

        fixture = str(corpus.FIXTURE_DIR / "example10.edges")
        code, recs = _cli_records(capsys, "per", fixture, "--output", "records",
                                  "--show-terms")
        assert code == 0
        head = recs[0]
        assert head["value"] == 36
        # the engine certifies both elementary pieces and expands no cycle;
        # the paper's m = 2 is the reference table's largest family
        assert head["m"] == 0
        assert max(r["z"] for r in recs if r["record"] == "zgroup") == 2

        g = corpus.example10()
        assert determinant(g.adj) == 0
        cycles = enumerate_cycles(g)
        c4k = four_k_cycles(cycles)
        assert len(c4k) == 3
        assert [cy.length for cy in cycles if not cy.is_4k] == [6]
        dets = [det_after_removal(g, VertexSet(cy.mask)) for cy in c4k]
        assert dets == [0, 0, -1]  # C1, C2, C3 in canonical order

        # ordered-tuple sums recovered from the reported term table
        zgroups = {r["z"]: r for r in recs if r["record"] == "zgroup"}
        assert zgroups[1]["ordered_det_sum"] == -1
        assert zgroups[2]["ordered_det_sum"] == -4

        code, recs = _cli_records(capsys, "det", fixture, "--output", "records")
        assert code == 0 and recs[0]["value"] == 0

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_sachs_counts():
    with criterion(2, "Sachs subgraph counts on the 10-vertex example: 94/51/12 (exact, <5s)"):
        start = time.perf_counter()
        g = corpus.example10()
        assert len(enumerate_sachs(g, 6)) == 94
        assert len(enumerate_sachs(g, 4)) == 51
        assert len(enumerate_sachs(g, 2)) == 12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_oracle_triangle():
    with criterion(3, "engine = Ryser = Sachs per, det = Sachs det on 254 exhaustive "
                      "+ 500 random graphs (exact, <5min)"):
        start = time.perf_counter()
        exhaustive = corpus.connected_bipartite_upto(8)
        assert len(exhaustive) == 254
        randoms = corpus.random_corpus(500)
        for g in exhaustive + randoms:
            value = permanent_theorem1(g).value
            assert permanent_auto(g).value == value, g.edges
            assert value == per_ryser(g.adj), g.edges
            assert value == per_via_sachs(g), g.edges
            assert determinant(g.adj) == det_via_sachs(g), g.edges
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_4_corollary_fast_path():
    with criterion(4, "200 4k-cycle-free graphs: per = (-1)^(n/2) det via the "
                      "corollary fast path, Ryser-confirmed"):
        graphs = corpus.four_k_free_corpus(200)
        assert len(graphs) >= 200
        for g in graphs:
            report = permanent_auto(g)
            assert report.path_taken == "corollary_fast_path", g.edges
            sign = -1 if (g.n // 2) % 2 else 1
            assert report.value == sign * determinant(g.adj), g.edges
            assert report.value == per_ryser(g.adj), g.edges


def test_criterion_5_theorem2_converse():
    with criterion(5, "truncated expansion holds at the true max m and fails at "
                      "m-1 on every corpus graph with n <= 10"):
        graphs = [g for g in corpus.connected_bipartite_upto(8)]
        graphs += [corpus.example10(), corpus.load_fixture("two_disjoint_c4.edges"),
                   corpus.load_fixture("c4.edges"), corpus.load_fixture("c8.edges")]
        converse_checked = 0
        for g in graphs:
            assert g.n <= 10
            fams = enumerate_disjoint_families(four_k_cycles(enumerate_cycles(g)))
            true_m = max(f.size for f in fams)
            assert verify_theorem2(g, true_m).holds_for_all, g.edges
            if true_m >= 1:
                report = verify_theorem2(g, true_m - 1)
                assert not report.holds_for_all, g.edges
                assert report.violating_subset is not None
                converse_checked += 1
        # the worked example specifically: passes at 2, fails at 1
        assert verify_theorem2(corpus.example10(), 2).holds_for_all
        assert not verify_theorem2(corpus.example10(), 1).holds_for_all
        assert converse_checked >= 100


def test_criterion_6_matching_count_identity():
    with criterion(6, "200+ random 0/1 matrices up to 6x6: pm count = per(b) and "
                      "per(A(G_b)) = per(b)^2"):
        rng = random.Random(60606)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 6)
            density = rng.choice((0.3, 0.5, 0.7))
            b = tuple(
                tuple(1 if rng.random() < density else 0 for _ in range(n))
                for _ in range(n)
            )
            count = count_perfect_matchings(b)
            reference = per_ryser(b)
            assert count == reference, b
            doubled = graph_from_biadjacency(b)
            assert per_ryser(doubled.adj) == reference**2, b
            checked += 1
        # a few non-square shapes: zero matchings by definition
        for p, q in ((1, 3), (4, 2), (2, 5)):
            b = tuple(tuple(1 for _ in range(q)) for _ in range(p))
            assert count_perfect_matchings(b) == 0
        # an all-zero column: an isolated vertex on the columns' side
        b = ((1, 0, 1), (1, 0, 0), (0, 0, 1))
        assert count_perfect_matchings(b) == per_ryser(b) == 0


def test_criterion_7_parity_and_removal_identities():
    with criterion(7, "parity and cycle-removal identities hold on every corpus "
                      "graph with n <= 12"):
        graphs = list(corpus.connected_bipartite_upto(8))
        graphs += list(corpus.random_corpus(500))
        graphs += [corpus.example10(), corpus.load_fixture("cactus40.edges")]
        checked = 0
        for g in graphs:
            if g.n > 12:
                continue
            assert check_parity_identity(g), g.edges
            assert check_removal_identity(g), g.edges
            checked += 1
        assert checked > 700


def test_criterion_8_cactus_performance(capsys):
    with criterion(8, "40-vertex cactus: engine finishes in <5s where Ryser's "
                      "2^40 loop is guard-blocked"):
        g = corpus.load_fixture("cactus40.edges")
        assert g.n == 40

        start = time.perf_counter()
        report = permanent_auto(g)
        elapsed = time.perf_counter() - start
        assert report.value == 1024  # per(C8)^5 = 4^5
        assert report.num_4k_cycles == 5
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

        with pytest.raises(SizeGuardExceeded):
            per_ryser(g.adj)

        code = cli.main(["verify", str(corpus.FIXTURE_DIR / "cactus40.edges")])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "engine-agreement: ok (1024)" in out
        assert "ryser: skipped(guard)" in out
        assert "sachs-per: skipped(guard)" in out
