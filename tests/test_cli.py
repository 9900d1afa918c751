import io
import json
import os
import subprocess
import sys
from pathlib import Path

import corpus
import pytest
from permdet import (
    EnumerationCapExceeded,
    SizeGuardExceeded,
    cli,
    cycles,
    matching,
    oracles,
    parse_edge_list,
    per_naive,
    per_ryser,
    permanent_auto,
    sachs_sums,
    verify_theorem2,
)


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
    assert head == {"record": "permanent", "value": 36, "n": 10, "m": 0, "families": 2,
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
    g = corpus.bridged_c8_chain(20)
    chain = f"{g.n} {len(g.edges)}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in g.edges)
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


def test_verify_pass_on_example10(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "NAIVE_GUARD", 8)
    code, out, _ = run(capsys, "verify", fixture("example10.edges"))
    assert code == 0
    assert "ryser: ok (36)" in out
    assert "naive: skipped(guard)" in out
    assert "theorem2(m=2): ok" in out


def test_verify_lists_the_spanning_sachs_subgraphs_once(capsys, monkeypatch):
    # The four Sachs checks read one pass over one list.
    calls = []
    listed = oracles.enumerate_sachs
    monkeypatch.setattr(oracles, "enumerate_sachs", lambda g, i: calls.append(i) or listed(g, i))
    code, out, _ = run(capsys, "verify", fixture("example10.edges"))
    assert code == 0
    assert calls == [10]
    assert {"sachs-per: ok (36)", "sachs-det: ok (0)", "parity-identity: ok",
            "removal-identity: ok"} <= set(out.splitlines())


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


@pytest.mark.parametrize(
    "text, m",
    [
        ("5 4\n1 2\n2 3\n3 4\n4 1\n", 1),
        ("9 8\n1 2\n2 3\n3 4\n4 1\n5 6\n6 7\n7 8\n8 5\n", 2),
    ],
    ids=["c4_plus_vertex", "two_c4_plus_vertex"],
)
def test_verify_takes_theorem2_m_from_the_families_on_odd_n(capsys, monkeypatch, text, m):
    # The reference table of an odd graph is empty, and its m is 0; the
    # truncation at 0 drops the 4-cycles' terms and fails on the even
    # subgraphs that hold them.  Theorem 2 holds at the largest family.
    g = parse_edge_list(text)
    assert not verify_theorem2(g, m - 1).holds_for_all
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert f"theorem2(m={m}): ok" in out
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


def test_per_families_sum_over_pieces(capsys):
    code, out, _ = run(capsys, "per", fixture("example10.edges"), "--output", "records")
    assert code == 0
    head = records(out)[0]
    assert head["path"] == "pfaffian_signing"
    # both pieces are certified: the empty family and one determinant each
    assert head["families"] == 2
    code, out, _ = run(capsys, "per", fixture("cubic20.edges"))
    assert code == 0
    # one piece with bad alternating cycles: 32 families expanded
    assert "families: 32" in out


def test_exit_code_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("bogus\n"))
    code, _, err = run(capsys, "per", "-")
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize(
    "argv,text,token,line_no",
    [
        (("per", "-"), "1_0 0\n", "1_0", 1),
        (("pm-count", "-"), "1 1\n\u0661\n", "\u0661", 2),
        (("per", "--format", "adjacency", "-"), "0 \u0661\n\u0661 0\n", "\u0661", 1),
    ],
    ids=["edge-list underscore", "biadjacency arabic-indic one", "adjacency arabic-indic one"],
)
def test_integers_are_ascii_decimals(capsys, monkeypatch, argv, text, token, line_no):
    # int() alone reads "1_0" as 10 and an Arabic-Indic one as 1.
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: line {line_no}: non-integer token {token!r}\n"


@pytest.mark.parametrize("line", ["1", "1 2 3"])
def test_edge_line_needs_exactly_two_tokens(capsys, monkeypatch, line):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"3 1\n{line}\n"))
    code, out, err = run(capsys, "per", "-")
    assert (code, out) == (1, "")
    assert err == f"error: line 2: expected 'u v', got {line!r}\n"


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "per", "/nonexistent/input.edges")
    assert code == 1
    assert err


def test_exit_code_not_bipartite(capsys):
    code, _, err = run(capsys, "per", fixture("triangle.edges"))
    assert code == 2
    assert "odd cycle witness" in err


def test_exit_code_not_bipartite_on_a_five_cycle(capsys, monkeypatch):
    # Colouring the triangle from vertex 1 meets the odd cycle at an edge
    # between two vertices of the other colour; the 5-cycle meets it at
    # the edge 3-4, both of vertex 1's colour.
    monkeypatch.setattr("sys.stdin", io.StringIO("5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"))
    code, out, err = run(capsys, "per", "-")
    assert (code, out) == (2, "")
    assert "odd cycle witness" in err


def test_exit_code_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setattr(cycles, "DEFAULT_CYCLE_CAP", 1)
    code, _, err = run(capsys, "per", fixture("example10.edges"))
    assert code == 3
    assert "cap" in err


def test_exit_code_family_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", 2)
    # cubic20 has no Pfaffian signing; its bad alternating cycles make 32
    # families
    code, out, err = run(capsys, "per", fixture("cubic20.edges"))
    assert code == 3
    assert out == ""
    assert "disjoint family enumeration exceeded cap of 2" in err


def test_exit_code_internal_invariant(capsys, monkeypatch, tmp_path):
    from permdet import engine

    monkeypatch.setattr(engine, "signed_block_det", lambda *args: 0)
    # The 2 x 3 ladder: one piece, whose signing has a negative edge.  (A
    # lone cycle is solved in closed form, with no determinant.)
    ladder = corpus.grid_graph(2, 3)
    path = tmp_path / "ladder.edges"
    lines = [f"{ladder.n} {len(ladder.edges)}"] + [f"{u + 1} {v + 1}" for u, v in ladder.edges]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "per", str(path))
    assert code == 5
    assert out == ""
    assert "zero permanent from pfaffian_signing" in err


@pytest.mark.parametrize(
    "argv",
    [("per", "cactus40.edges", "--show-terms"), ("cycles", "cactus40.edges")],
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
families: 2
reference terms:
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
    # an odd graph has no family, so no reference-terms or term-table header
    ("per", "p3.edges", "--show-terms"): """\
permanent: 0
path: odd_shortcut
n: 3
4k-cycles: 0
m: 0
families: 0
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
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_text_output_golden(capsys, argv):
    command, name, *flags = argv
    code, out, err = run(capsys, command, fixture(name), *flags)
    assert (code, err) == (0, "")
    assert out == GOLDEN[argv]


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
     ("verify", "c4.edges", "--m", "2"), ("verify", "c4.edges", "--guard-subsets", "-1"),
     ("bench", "c4.edges", "--guard-ryser", "-1"), (),
     # caps and guards are module constants, not flags, and bench is gone
     ("bench", "c8.edges"), ("per", "c4.edges", "--cycle-cap", "3"),
     ("cycles", "c4.edges", "--cycle-cap", "3"), ("classify", "c4.edges", "--cycle-cap", "3"),
     ("verify", "c4.edges", "--cycle-cap", "3"), ("verify", "c4.edges", "--guard-ryser", "30"),
     ("verify", "c4.edges", "--guard-naive", "8"), ("verify", "c4.edges", "--guard-sachs", "14"),
     ("verify", "c4.edges", "--guard-removal", "12"),
     ("verify", "c4.edges", "--guard-subsets", "14")],
    ids=["unknown flag", "removed flag", "removed pm-count flag", "negative cycle cap",
         "removed m", "negative verify guard", "negative bench guard", "no command",
         "removed bench", "removed per cycle cap", "removed cycles cycle cap",
         "removed classify cycle cap", "removed verify cycle cap", "removed guard-ryser",
         "removed guard-naive", "removed guard-sachs", "removed guard-removal",
         "removed guard-subsets"],
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


def test_biadjacency_with_one_empty_side_exits_1(capsys, monkeypatch):
    # A 0 x 5 matrix has no perfect matching and its graph 5 vertices, so
    # reading it as the empty matrix (pm 1, n 0) would be wrong.
    for argv in (("pm-count", "-"), ("per", "--format", "biadjacency", "-")):
        for header in ("0 5\n", "3 0\n"):
            monkeypatch.setattr("sys.stdin", io.StringIO(header))
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            shape = header.split()
            assert f"{shape[0]} x {shape[1]} matrix" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    assert run(capsys, "pm-count", "-") == (0, "perfect-matchings: 1\n", "")


# Each bound on exponential work is a module constant read at call time.
# Patched below example10's size, the library call raises, and the CLI
# exits 3 (a cap) or reports the oracle as skipped (a size guard).
BOUNDS = [
    (cycles, "DEFAULT_CYCLE_CAP", 3, permanent_auto, EnumerationCapExceeded, "per", None),
    # example10's whole-graph cycle search makes 12 path extensions.
    (cycles, "DEFAULT_PATH_CAP", 11, permanent_auto, EnumerationCapExceeded, "per", None),
    # example10's pieces need 2 and 1 path extensions; the cap is per piece.
    (matching, "DEFAULT_SIGNING_CAP", 1, permanent_auto, EnumerationCapExceeded, "per", None),
    # Theorem 2's check is bounded by SUBSET_GUARD alone, not by Ryser's.
    (oracles, "RYSER_GUARD", 9, lambda g: per_ryser(g.adj), SizeGuardExceeded,
     "verify", ("ryser: skipped(guard)", "theorem2(m=2): ok")),
    (oracles, "NAIVE_GUARD", 9, lambda g: per_naive(g.adj), SizeGuardExceeded,
     "verify", ("naive: skipped(guard)",)),
    (oracles, "SACHS_GUARD", 9, sachs_sums, SizeGuardExceeded,
     "verify", ("sachs-per: skipped(guard)",)),
    (oracles, "SUBSET_GUARD", 9, lambda g: verify_theorem2(g, 2), SizeGuardExceeded,
     "verify", ("theorem2(m=2): skipped(guard)",)),
    (oracles, "DEFAULT_SACHS_CAP", 1, sachs_sums, EnumerationCapExceeded, "verify", None),
    # The one Sachs pass serves the removal check too, which its guard
    # skips as well, hence its own id.
    (oracles, "SACHS_GUARD", 9, sachs_sums, SizeGuardExceeded,
     "verify", ("removal-identity: skipped(guard)",)),
]
BOUND_IDS = [b[1] for b in BOUNDS[:-1]] + ["SACHS_GUARD-removal"]


@pytest.mark.parametrize("module,name,value,call,error,argv,expected", BOUNDS, ids=BOUND_IDS)
def test_bound_constants_apply_at_call_time(
    capsys, monkeypatch, module, name, value, call, error, argv, expected
):
    g = corpus.example10()
    call(g)
    monkeypatch.setattr(module, name, value)
    with pytest.raises(error):
        call(g)
    code, out, err = run(capsys, argv, fixture("example10.edges"))
    if expected is None:
        assert (code, out) == (3, "")
        assert f"cap of {value}" in err
    else:
        assert code == 0
        assert set(expected) <= set(out.splitlines())
