"""Command-line interface.

Subcommands: per, det, cycles, pm-count, verify, classify, bench.
Input is a file path or "-" for stdin, in one of three formats
(edge-list, adjacency, biadjacency).  Output is plain text or JSON
records, one object per line.

Exit codes: 0 success, 1 parse error, 2 not bipartite, 3 cap or size
guard exceeded, 4 verification mismatch, 5 internal invariant broken,
141 standard output closed before all of it was written (128 + SIGPIPE,
as a shell reports a writer that a closed pipe stopped).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .cycles import (
    DEFAULT_CYCLE_CAP,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
    four_k_plus_two_cycles,
)
from .determinant import determinant
from .engine import classify_efficient, count_perfect_matchings, permanent_auto
from .errors import (
    CycleCapExceeded,
    EnumerationCapExceeded,
    InternalInvariantError,
    NotBipartiteError,
    ParseError,
    PermdetError,
    SizeGuardExceeded,
    VerificationMismatch,
)
from .graphs import (
    Graph,
    graph_from_biadjacency,
    parse_adjacency_matrix,
    parse_biadjacency,
    parse_edge_list,
)
from .oracles import (
    NAIVE_GUARD,
    REMOVAL_GUARD,
    RYSER_GUARD,
    SACHS_GUARD,
    SUBSET_GUARD,
    check_parity_identity,
    check_removal_identity,
    det_via_sachs,
    per_naive,
    per_ryser,
    per_via_sachs,
    permanent_theorem1,
    verify_theorem2,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_BIPARTITE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141

# Checked in order; the first kind an error is an instance of sets the code.
_EXIT_CODES = (
    ((ParseError, ValueError), EXIT_PARSE),
    (NotBipartiteError, EXIT_NOT_BIPARTITE),
    ((CycleCapExceeded, EnumerationCapExceeded, SizeGuardExceeded), EXIT_CAP),
    (VerificationMismatch, EXIT_MISMATCH),
    (InternalInvariantError, EXIT_INTERNAL),
)

FORMATS = ("edge-list", "adjacency", "biadjacency")


def _add_common(sp, formats=FORMATS, default_format="edge-list"):
    sp.add_argument("path", nargs="?", default="-",
                    help="input file, or - for stdin (default)")
    sp.add_argument("--format", choices=formats, default=default_format,
                    help=f"input format (default {default_format})")
    sp.add_argument("--output", choices=("text", "records"), default="text",
                    help="text lines or JSON records")
    sp.add_argument("--cycle-cap", type=int, default=DEFAULT_CYCLE_CAP,
                    help="abort cycle enumeration beyond this many cycles")


def _add_guards(sp):
    sp.add_argument("--guard-ryser", type=int, default=RYSER_GUARD)
    sp.add_argument("--guard-naive", type=int, default=NAIVE_GUARD)
    sp.add_argument("--guard-sachs", type=int, default=SACHS_GUARD)
    sp.add_argument("--guard-removal", type=int, default=REMOVAL_GUARD)
    sp.add_argument("--guard-subsets", type=int, default=SUBSET_GUARD)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdet",
        description="Exact permanents of bipartite graphs by determinant "
                    "expansion over disjoint 4k-cycle families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    per = sub.add_parser("per", help="permanent of a bipartite graph")
    _add_common(per)
    per.add_argument("--show-terms", action="store_true",
                     help="also print the reference whole-graph expansion's "
                          "per-family term table")

    det = sub.add_parser("det", help="exact determinant of the adjacency matrix")
    _add_common(det)

    cyc = sub.add_parser("cycles", help="cycle inventory and disjoint 4k families")
    _add_common(cyc)

    pmc = sub.add_parser("pm-count", help="perfect matchings from a biadjacency matrix")
    _add_common(pmc, formats=("biadjacency",), default_format="biadjacency")

    ver = sub.add_parser("verify", help="cross-check the engine against oracles")
    _add_common(ver)
    _add_guards(ver)
    ver.add_argument("--m", type=int, default=None,
                     help="truncation size for the induced-subgraph check "
                          "(default: the full expansion's m)")

    cls = sub.add_parser("classify", help="girth/cactus efficiency condition")
    _add_common(cls)

    ben = sub.add_parser("bench", help="time the engine against the oracles")
    _add_common(ben)
    _add_guards(ben)

    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(text: str, fmt: str) -> Graph:
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "adjacency":
        return parse_adjacency_matrix(text)
    return graph_from_biadjacency(parse_biadjacency(text))


def _set_text(vs) -> str:
    return "{" + ",".join(str(x) for x in vs.labels()) + "}"


def _record(**kw) -> str:
    return json.dumps(kw)


def _cmd_per(args, text: str) -> int:
    g = _load_graph(text, args.format)
    report = permanent_auto(g, cycle_cap=args.cycle_cap)
    # The term table is the whole graph's expansion, never a piecewise one.
    table = permanent_theorem1(g, cycle_cap=args.cycle_cap) if args.show_terms else None
    if args.output == "records":
        print(_record(record="permanent", value=report.value, n=report.n,
                      m=report.m, num_4k_cycles=report.num_4k_cycles,
                      path=report.path_taken))
        if args.show_terms:
            for term in table.per_family_terms:
                print(_record(record="term", z=term.z,
                              covered=list(term.covered.labels()),
                              det=term.det, coefficient=term.coefficient,
                              contribution=term.contribution))
            for line in _zgroup_records(table):
                print(line)
        return EXIT_OK
    print(f"permanent: {report.value}")
    print(f"path: {report.path_taken}")
    print(f"n: {report.n}")
    print(f"4k-cycles: {report.num_4k_cycles}")
    print(f"m: {report.m}")
    if args.show_terms:
        _print_term_table(table)
    return EXIT_OK


def _zgroups(table):
    groups = {}
    for term in table.per_family_terms:
        fams, det_sum = groups.get(term.z, (0, 0))
        groups[term.z] = (fams + 1, det_sum + term.det)
    out = []
    for z in sorted(groups):
        fams, det_sum = groups[z]
        ordered = math.factorial(z) * det_sum
        out.append((z, fams, det_sum, 4**z, (4**z) * det_sum, ordered))
    return out


def _zgroup_records(table):
    for z, fams, det_sum, coeff, contrib, ordered in _zgroups(table):
        yield _record(record="zgroup", z=z, families=fams, det_sum=det_sum,
                      coefficient=coeff, contribution=contrib,
                      ordered_det_sum=ordered)


def _print_term_table(table) -> None:
    print("families:")
    for term in table.per_family_terms:
        print(f"  z={term.z} covered={_set_text(term.covered)} det={term.det}")
    print("term table:")
    print("  z  families  det-sum  coeff  contribution  ordered-det-sum")
    for z, fams, det_sum, coeff, contrib, ordered in _zgroups(table):
        print(f"  {z}  {fams}  {det_sum}  {coeff}  {contrib}  {ordered}")
    sign = -1 if (table.n // 2) % 2 else 1
    unsigned = sum(t.contribution for t in table.per_family_terms)
    print(f"sign: {sign}")
    print(f"unsigned total: {unsigned}")
    print(f"signed total: {sign * unsigned}")


def _cmd_det(args, text: str) -> int:
    g = _load_graph(text, args.format)
    value = determinant(g.adj)
    if args.output == "records":
        print(_record(record="determinant", value=value, n=g.n))
    else:
        print(f"determinant: {value}")
    return EXIT_OK


def _cmd_cycles(args, text: str) -> int:
    g = _load_graph(text, args.format)
    cycles = enumerate_cycles(g, cap=args.cycle_cap)
    c4k = four_k_cycles(cycles)
    c4k2 = four_k_plus_two_cycles(cycles)
    families = enumerate_disjoint_families(c4k)
    m = max((f.size for f in families), default=0)
    if args.output == "records":
        for cy in cycles:
            print(_record(record="cycle", vertices=list(cy.labels()),
                          length=cy.length, is_4k=cy.is_4k))
        print(_record(record="cycle-summary", num_cycles=len(cycles),
                      num_4k=len(c4k), num_4k_plus_2=len(c4k2),
                      num_families=len(families), m=m))
        return EXIT_OK
    print(f"cycles: {len(cycles)}")
    for idx, cy in enumerate(cycles, start=1):
        tag = " 4k" if cy.is_4k else ""
        verts = ",".join(str(x) for x in cy.labels())
        print(f"C{idx}: ({verts}) length={cy.length}{tag}")
    print(f"4k-cycles: {len(c4k)}")
    print(f"4k+2-cycles: {len(c4k2)}")
    print(f"disjoint-4k-families (incl. empty): {len(families)}")
    print(f"m: {m}")
    return EXIT_OK


def _cmd_pm_count(args, text: str) -> int:
    rows = parse_biadjacency(text)
    value = count_perfect_matchings(rows, cycle_cap=args.cycle_cap)
    if args.output == "records":
        print(_record(record="pm-count", value=value, rows=len(rows),
                      cols=len(rows[0]) if rows else 0))
    else:
        print(f"perfect-matchings: {value}")
    return EXIT_OK


def _cmd_verify(args, text: str) -> int:
    g = _load_graph(text, args.format)
    report = permanent_auto(g, cycle_cap=args.cycle_cap)
    full = permanent_theorem1(g, cycle_cap=args.cycle_cap)
    checks = []

    def record(name, ok, value=None):
        checks.append((name, "ok" if ok else "mismatch", value))

    def skipped(name):
        checks.append((name, "skipped(guard)", None))

    record("engine-agreement", full.value == report.value, report.value)

    if g.n <= args.guard_ryser:
        record("ryser", per_ryser(g.adj, guard=args.guard_ryser) == report.value,
               report.value)
    else:
        skipped("ryser")

    if g.n <= args.guard_naive:
        record("naive", per_naive(g.adj, guard=args.guard_naive) == report.value,
               report.value)
    else:
        skipped("naive")

    if g.n <= args.guard_sachs:
        record("sachs-per", per_via_sachs(g, guard=args.guard_sachs) == report.value,
               report.value)
        det_value = determinant(g.adj)
        record("sachs-det", det_via_sachs(g, guard=args.guard_sachs) == det_value,
               det_value)
        record("parity-identity", check_parity_identity(g, guard=args.guard_sachs))
    else:
        skipped("sachs-per")
        skipped("sachs-det")
        skipped("parity-identity")

    if g.n <= args.guard_removal:
        record("removal-identity", check_removal_identity(g, guard=args.guard_removal))
    else:
        skipped("removal-identity")

    # A decomposed report's m sums the pieces' families and can fall below
    # the whole graph's largest family, which Theorem 2 is about.
    m = args.m if args.m is not None else full.m
    if g.n <= args.guard_subsets:
        t2 = verify_theorem2(g, m, guard=args.guard_subsets)
        record(f"theorem2(m={m})", t2.holds_for_all)
    else:
        skipped(f"theorem2(m={m})")

    failed = [name for name, status, _ in checks if status == "mismatch"]
    if args.output == "records":
        print(_record(record="verify-path", path=report.path_taken))
        for name, status, value in checks:
            print(_record(record="check", name=name, status=status, value=value))
        print(_record(record="verify", passed=not failed))
    else:
        print(f"path: {report.path_taken}")
        for name, status, value in checks:
            suffix = f" ({value})" if status == "ok" and value is not None else ""
            print(f"{name}: {status}{suffix}")
        print(f"verify: {'PASS' if not failed else 'FAIL'}")
    if failed:
        raise VerificationMismatch(f"checks failed: {', '.join(failed)}")
    return EXIT_OK


def _cmd_classify(args, text: str) -> int:
    g = _load_graph(text, args.format)
    rec = classify_efficient(g, cycle_cap=args.cycle_cap)
    if args.output == "records":
        print(_record(record="classify", is_cactus=rec.is_cactus, girth=rec.girth,
                      n=rec.n, c=rec.c, condition_holds=rec.condition_holds))
        return EXIT_OK
    print(f"is-cactus: {'yes' if rec.is_cactus else 'no'}")
    print(f"girth: {rec.girth if rec.girth is not None else 'none'}")
    print(f"n: {rec.n}")
    print(f"girth-cycles: {rec.c}")
    print(f"condition-holds: {'yes' if rec.condition_holds else 'no'}")
    return EXIT_OK


def _cmd_bench(args, text: str) -> int:
    g = _load_graph(text, args.format)
    rows = []

    start = time.perf_counter()
    report = permanent_auto(g, cycle_cap=args.cycle_cap)
    rows.append(("engine", report.value, time.perf_counter() - start))

    if g.n <= args.guard_ryser:
        start = time.perf_counter()
        value = per_ryser(g.adj, guard=args.guard_ryser)
        rows.append(("ryser", value, time.perf_counter() - start))
    else:
        rows.append(("ryser", None, None))

    if g.n <= args.guard_sachs:
        start = time.perf_counter()
        value = per_via_sachs(g, guard=args.guard_sachs)
        rows.append(("sachs-per", value, time.perf_counter() - start))
    else:
        rows.append(("sachs-per", None, None))

    if args.output == "records":
        for name, value, seconds in rows:
            if value is None:
                print(_record(record="bench", method=name, status="skipped(guard)"))
            else:
                # fixed-decimal string: json would render tiny floats in
                # scientific notation
                print(_record(record="bench", method=name, value=value,
                              seconds=f"{seconds:.6f}"))
        print(_record(record="bench-counts", n=g.n, num_cycles=report.num_cycles,
                      num_4k_cycles=report.num_4k_cycles,
                      num_families=report.families,
                      cache_hits=report.cache_hits,
                      cache_misses=report.cache_misses,
                      path=report.path_taken))
        return EXIT_OK
    print(f"{'method':<10} {'value':<24} time_s")
    for name, value, seconds in rows:
        if value is None:
            print(f"{name:<10} {'skipped(guard)':<24} -")
        else:
            print(f"{name:<10} {str(value):<24} {seconds:.4f}")
    print(f"n={g.n} cycles={report.num_cycles} 4k-cycles={report.num_4k_cycles} "
          f"families={report.families} "
          f"cache-hits={report.cache_hits} cache-misses={report.cache_misses} "
          f"path={report.path_taken}")
    return EXIT_OK


_DISPATCH = {
    "per": _cmd_per,
    "det": _cmd_det,
    "cycles": _cmd_cycles,
    "pm-count": _cmd_pm_count,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _read_input(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _DISPATCH[args.command](args, text)
    except (PermdetError, ValueError) as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def console_main() -> None:
    try:
        code = main()
        if sys.stdout is not None:
            # A closed pipe shows on this flush, not at interpreter exit.
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (say `| head`).  Point stdout at devnull so
        # the interpreter's last flush of the unwritten rest fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
