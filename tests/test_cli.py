import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import corpus
import pytest
from permdet import SizeGuardExceeded, cli, render_edge_list


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
    # example10 splits into elementary pieces of 6 and 4 vertices, each
    # certified by a Pfaffian signing, so no cycle is expanded
    assert "path: pfaffian_signing" in out
    assert "m: 0" in out


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
    assert head == {"record": "permanent", "value": 36, "n": 10, "m": 0,
                    "num_4k_cycles": 3, "path": "pfaffian_signing"}
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


def test_per_past_128_vertices(capsys, monkeypatch):
    chain = render_edge_list(corpus.bridged_c8_chain(20))
    monkeypatch.setattr("sys.stdin", io.StringIO(chain))
    code, out, _ = run(capsys, "per", "-")
    assert code == 0
    assert "permanent: 1099511627776" in out


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


def test_verify_truncation_uses_the_full_expansion_m(capsys, monkeypatch):
    # The only perfect matching is 1-4 2-5 3-6, so every edge is its own
    # piece and the pieces' m sums to 0, while the 4-cycle 2-4-3-5 gives
    # the whole graph m = 1.  Theorem 2 fails at m = 0 here.
    text = "6 6\n1 4\n2 4\n2 5\n3 4\n3 5\n3 6\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    # every piece is a single edge: no signing, no bad cycle, the corollary
    assert "path: corollary_fast_path" in out
    assert "theorem2(m=1): ok" in out
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


def test_bench_counts_sum_over_pieces(capsys):
    code, out, _ = run(capsys, "bench", fixture("example10.edges"),
                       "--output", "records")
    assert code == 0
    counts = records(out)[-1]
    assert counts["path"] == "pfaffian_signing"
    # both pieces are certified: the empty family and one determinant each
    assert counts["num_families"] == 2
    assert list(counts) == ["record", "n", "num_cycles", "num_4k_cycles",
                            "num_families", "path"]


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
    # cubic20 has no Pfaffian signing; its bad alternating cycles make 32
    # families
    code, out, err = run(capsys, "per", fixture("cubic20.edges"))
    assert code == 3
    assert out == ""
    assert "disjoint family enumeration exceeded cap of 2" in err


def test_exit_code_internal_invariant(capsys, monkeypatch):
    from permdet import engine

    monkeypatch.setattr(engine, "signed_block_det", lambda *args: 0)
    code, out, err = run(capsys, "per", fixture("c4.edges"))
    assert code == 5
    assert out == ""
    assert "zero permanent from pfaffian_signing" in err


@pytest.mark.parametrize(
    "argv",
    [("per", "cactus40.edges", "--show-terms"), ("bench", "c8.edges")],
)
def test_closed_stdout_exits_quietly(argv):
    # The reader closes the pipe before the command has started, so every
    # write fails; with stdout block-buffered the failure comes at the
    # final flush.  The command must stop with no traceback and no
    # "Exception ignored" message.
    command, name, *flags = argv
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "permdet.cli", command, fixture(name), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


@pytest.mark.parametrize(
    "error,code",
    [(ValueError("bad matrix"), 1), (SizeGuardExceeded("per_ryser", 31, 30), 3)],
)
def test_exit_code_table(capsys, monkeypatch, error, code):
    def failing(args, text):
        raise error

    monkeypatch.setitem(cli._DISPATCH, "det", failing)
    got, out, err = run(capsys, "det", fixture("c4.edges"))
    assert got == code
    assert out == ""
    assert err == f"error: {error}\n"


# Whole stdout of the text renderer, line for line: a moved, dropped or
# reworded line fails here even where the substring tests above still pass.
GOLDEN = {
    ("per", "example10.edges", "--show-terms"): """\
permanent: 36
path: pfaffian_signing
n: 10
4k-cycles: 3
m: 0
families:
  z=0 covered={} det=0
  z=1 covered={1,2,3,4} det=0
  z=1 covered={3,4,5,6} det=0
  z=1 covered={7,8,9,10} det=-1
  z=2 covered={1,2,3,4,7,8,9,10} det=-1
  z=2 covered={3,4,5,6,7,8,9,10} det=-1
term table:
  z  families  det-sum  coeff  contribution  ordered-det-sum
  0  1  0  1  0  0
  1  3  -1  4  -4  -1
  2  2  -2  16  -32  -4
sign: -1
unsigned total: -36
signed total: 36
""",
    # an odd graph has no family, so no families or term-table header
    ("per", "p3.edges", "--show-terms"): """\
permanent: 0
path: odd_shortcut
n: 3
4k-cycles: 0
m: 0
sign: -1
unsigned total: 0
signed total: 0
""",
    ("cycles", "example10.edges"): """\
C1: (1,2,3,4) length=4 4k
C2: (3,4,5,6) length=4 4k
C3: (7,8,9,10) length=4 4k
C4: (1,2,3,6,5,4) length=6
cycles: 4
4k-cycles: 3
4k+2-cycles: 1
disjoint-4k-families (incl. empty): 6
m: 2
""",
    ("verify", "example10.edges"): """\
path: pfaffian_signing
engine-agreement: ok (36)
ryser: ok (36)
naive: ok (36)
sachs-per: ok (36)
sachs-det: ok (0)
parity-identity: ok
removal-identity: ok
theorem2(m=2): ok
verify: PASS
""",
    ("classify", "example10.edges"): """\
is-cactus: no
girth: 4
n: 10
girth-cycles: 3
condition-holds: no
""",
    ("det", "example10.edges"): "determinant: 0\n",
    ("pm-count", "example10.biadj"): "perfect-matchings: 6\n",
    ("bench", "c8.edges"): """\
method     value                    time_s
engine     4                        T
ryser      4                        T
sachs-per  4                        T
n=8 cycles=1 4k-cycles=1 families=1 path=pfaffian_signing
""",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_text_output_golden(capsys, argv):
    command, name, *flags = argv
    code, out, err = run(capsys, command, fixture(name), *flags)
    assert (code, err) == (0, "")
    # bench timings vary from run to run
    assert re.sub(r"\d+\.\d{4}$", "T", out, flags=re.M) == GOLDEN[argv]


def test_per_records_total(capsys):
    code, out, _ = run(capsys, "per", fixture("example10.edges"),
                       "--output", "records", "--show-terms")
    assert code == 0
    assert records(out)[-1] == {"record": "total", "sign": -1, "unsigned": -36,
                                "signed": 36}


def test_cycles_records_index(capsys):
    code, out, _ = run(capsys, "cycles", fixture("example10.edges"),
                       "--output", "records")
    assert code == 0
    cycles = [r for r in records(out) if r["record"] == "cycle"]
    assert [r["index"] for r in cycles] == [1, 2, 3, 4]
    assert cycles[3] == {"record": "cycle", "index": 4, "vertices": [1, 2, 3, 6, 5, 4],
                         "length": 6, "is_4k": False}


@pytest.mark.parametrize(
    "argv",
    [("per", "--bogus", "c4.edges"), ("det", "c4.edges", "--cycle-cap", "3"),
     ("pm-count", "k33.biadj", "--cycle-cap", "3"), ("per", "c4.edges", "--cycle-cap", "-5"),
     ("verify", "c4.edges", "--m", "-1"), ("verify", "c4.edges", "--guard-subsets", "-1"),
     ("bench", "c4.edges", "--guard-ryser", "-1"), ()],
    ids=["unknown flag", "removed flag", "removed pm-count flag", "negative cycle cap",
         "negative m", "negative verify guard", "negative bench guard", "no command"],
)
def test_usage_error_exits_1(capsys, argv):
    # 2 means "not bipartite", so a bad command line must not exit 2
    argv = [fixture(a) if a.endswith((".edges", ".biadj")) else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_PARSE == 1
    assert out == ""
    assert err.startswith("usage: permdet")


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "per", "-h")
    assert code == 0
    assert out.startswith("usage: permdet per")
