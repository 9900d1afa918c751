import io
import json

import corpus
import pytest
from permdet import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(corpus.FIXTURE_DIR / name)


def records(out):
    return [json.loads(line) for line in out.splitlines()]


def test_per_example10(capsys):
    code, out, _ = run(capsys, "per", fixture("example10.edges"))
    assert code == 0
    assert "permanent: 36" in out
    assert "path: theorem1_expansion" in out
    assert "m: 2" in out


def test_per_show_terms_text(capsys):
    code, out, _ = run(capsys, "per", fixture("example10.edges"), "--show-terms")
    assert code == 0
    assert "signed total: 36" in out
    assert "covered={7,8,9,10} det=-1" in out


def test_per_records(capsys):
    code, out, _ = run(capsys, "per", fixture("example10.edges"),
                       "--output", "records", "--show-terms")
    assert code == 0
    recs = records(out)
    head = recs[0]
    assert head == {"record": "permanent", "value": 36, "n": 10, "m": 2,
                    "num_4k_cycles": 3, "path": "theorem1_expansion"}
    zgroups = {r["z"]: r for r in recs if r["record"] == "zgroup"}
    assert zgroups[1]["ordered_det_sum"] == -1
    assert zgroups[2]["ordered_det_sum"] == -4
    terms = [r for r in recs if r["record"] == "term"]
    assert len(terms) == 6


def test_per_adjacency_format(capsys):
    code, out, _ = run(capsys, "per", fixture("example10.adj"),
                       "--format", "adjacency")
    assert code == 0
    assert "permanent: 36" in out


def test_per_biadjacency_format(capsys):
    # the biadjacency expands to the full 10-vertex graph, so per is 36
    code, out, _ = run(capsys, "per", fixture("example10.biadj"),
                       "--format", "biadjacency")
    assert code == 0
    assert "permanent: 36" in out


def test_per_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(corpus.fixture_text("c6.edges")))
    code, out, _ = run(capsys, "per", "-")
    assert code == 0
    assert "permanent: 4" in out
    assert "path: corollary_fast_path" in out


def test_det(capsys):
    code, out, _ = run(capsys, "det", fixture("example10.edges"))
    assert code == 0
    assert out == "determinant: 0\n"
    code, out, _ = run(capsys, "det", fixture("c6.edges"), "--output", "records")
    assert records(out) == [{"record": "determinant", "value": -4, "n": 6}]


def test_cycles(capsys):
    code, out, _ = run(capsys, "cycles", fixture("example10.edges"))
    assert code == 0
    assert "cycles: 4" in out
    assert "C1: (1,2,3,4) length=4 4k" in out
    assert "C4: (1,2,3,6,5,4) length=6" in out
    assert "4k-cycles: 3" in out
    assert "4k+2-cycles: 1" in out
    assert "m: 2" in out


def test_cycles_records(capsys):
    code, out, _ = run(capsys, "cycles", fixture("example10.edges"),
                       "--output", "records")
    recs = records(out)
    assert recs[-1]["record"] == "cycle-summary"
    assert recs[-1]["num_4k"] == 3
    assert recs[-1]["num_families"] == 6
    assert [r["vertices"] for r in recs if r["record"] == "cycle"][0] == [1, 2, 3, 4]


def test_pm_count(capsys):
    code, out, _ = run(capsys, "pm-count", fixture("k33.biadj"))
    assert code == 0
    assert out == "perfect-matchings: 6\n"
    code, out, _ = run(capsys, "pm-count", fixture("example10.biadj"),
                       "--output", "records")
    assert records(out) == [{"record": "pm-count", "value": 6, "rows": 5, "cols": 5}]


def test_verify_pass_on_tree(capsys):
    code, out, _ = run(capsys, "verify", fixture("p4.edges"))
    assert code == 0
    assert "path: corollary_fast_path" in out
    assert "verify: PASS" in out
    assert "mismatch" not in out


def test_verify_pass_on_example10(capsys):
    code, out, _ = run(capsys, "verify", fixture("example10.edges"),
                       "--guard-naive", "8")
    assert code == 0
    assert "ryser: ok (36)" in out
    assert "naive: skipped(guard)" in out
    assert "theorem2(m=2): ok" in out


def test_verify_skips_guarded_oracles_on_big_input(capsys):
    code, out, _ = run(capsys, "verify", fixture("cactus40.edges"))
    assert code == 0
    assert "ryser: skipped(guard)" in out
    assert "sachs-per: skipped(guard)" in out
    assert "verify: PASS" in out


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "per_ryser", lambda *a, **k: 999)
    code, out, err = run(capsys, "verify", fixture("c6.edges"))
    assert code == 4
    assert "ryser: mismatch" in out
    assert "verify: FAIL" in out
    assert "checks failed" in err


def test_verify_records(capsys):
    code, out, _ = run(capsys, "verify", fixture("c4.edges"),
                       "--output", "records")
    assert code == 0
    recs = records(out)
    assert recs[-1] == {"record": "verify", "passed": True}
    names = {r["name"] for r in recs if r["record"] == "check"}
    assert "ryser" in names and "parity-identity" in names


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", fixture("example10.edges"))
    assert code == 0
    assert "is-cactus: no" in out
    assert "condition-holds: no" in out
    code, out, _ = run(capsys, "classify", fixture("cactus40.edges"),
                       "--output", "records")
    assert records(out) == [{"record": "classify", "is_cactus": True, "girth": 8,
                             "n": 40, "c": 5, "condition_holds": True}]


def test_bench_skips_guarded(capsys):
    code, out, _ = run(capsys, "bench", fixture("cactus40.edges"))
    assert code == 0
    assert "engine" in out and "1024" in out
    assert out.count("skipped(guard)") == 2


def test_bench_small_graph_runs_all(capsys):
    code, out, _ = run(capsys, "bench", fixture("c8.edges"), "--output", "records")
    assert code == 0
    recs = records(out)
    values = {r["method"]: r.get("value") for r in recs if r["record"] == "bench"}
    assert values == {"engine": 4, "ryser": 4, "sachs-per": 4}
    for r in recs:
        if r["record"] == "bench":
            # plain decimal, never scientific notation
            assert "e" not in r["seconds"]
            assert float(r["seconds"]) >= 0.0


def test_exit_code_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("bogus\n"))
    code, _, err = run(capsys, "per", "-")
    assert code == 1
    assert "line 1" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "per", "/nonexistent/input.edges")
    assert code == 1
    assert err


def test_exit_code_not_bipartite(capsys):
    code, _, err = run(capsys, "per", fixture("triangle.edges"))
    assert code == 2
    assert "odd cycle witness" in err


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run(capsys, "per", fixture("example10.edges"), "--cycle-cap", "1")
    assert code == 3
    assert "cap" in err


def test_exit_code_family_cap_exceeded(capsys, monkeypatch):
    from permdet import cycles

    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", 2)
    code, out, err = run(capsys, "per", fixture("example10.edges"))
    assert code == 3
    assert out == ""
    assert "disjoint family enumeration exceeded cap of 2" in err


def test_exit_code_internal_invariant(capsys, monkeypatch):
    from permdet import engine

    monkeypatch.setattr(engine, "biadjacency_det_after_removal", lambda *args: -1)
    code, out, err = run(capsys, "per", fixture("c4.edges"))
    assert code == 5
    assert out == ""
    assert "negative permanent" in err
