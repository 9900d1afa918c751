"""Command-line interface.

Subcommands: per, det, cycles, pm-count, verify, classify.
Input is a file path or "-" for stdin, in one of three formats
(edge-list, adjacency, biadjacency).

Each subcommand returns its result as records: dicts whose first key,
"record", names their kind.  `main` is the one place that prints them,
as JSON objects one a line (`--output records`) or as text, where
`_TEXT` renders each kind and `_HEADERS` adds the line that heads a kind's
first record.  So every fact the text shows is in a record too.

Exit codes: 0 success, 1 parse error (malformed input, unreadable file
or bad command line), 2 not bipartite, 3 cap or size guard exceeded,
4 verification mismatch, 5 internal invariant broken, 141 standard
output closed before all of it was written (128 + SIGPIPE, as a shell
reports a writer that a closed pipe stopped).  Caps and guards are
module constants, not flags (``cycles.DEFAULT_CYCLE_CAP``,
``cycles.DEFAULT_PATH_CAP``, ``oracles.RYSER_GUARD`` and the like).
``verify`` reports an oracle past its size guard as ``skipped(guard)``:
Ryser past 20 vertices, and past 14 the Sachs sums and identity checks,
the four checks that read ``oracles.sachs_sums``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

from .cycles import (
    classify_efficient,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
    largest_disjoint_family,
)
from .determinant import determinant
from .engine import count_perfect_matchings, permanent_auto
from .errors import (
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
from .oracles import per_naive, per_ryser, permanent_theorem1, sachs_sums, verify_theorem2

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
    ((EnumerationCapExceeded, SizeGuardExceeded), EXIT_CAP),
    (VerificationMismatch, EXIT_MISMATCH),
    (InternalInvariantError, EXIT_INTERNAL),
)

FORMATS = ("edge-list", "adjacency", "biadjacency")


def _add_command(sub, name, summary, formats=FORMATS):
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("path", nargs="?", default="-",
                    help="input file, or - for stdin (default)")
    sp.add_argument("--format", choices=formats, default=formats[0],
                    help=f"input format (default {formats[0]})")
    sp.add_argument("--output", choices=("text", "records"), default="text",
                    help="text lines or JSON records")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdet",
        description="Exact permanents of bipartite graphs by determinant "
                    "expansion over disjoint 4k-cycle families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    per = _add_command(sub, "per", "permanent of a bipartite graph")
    per.add_argument("--show-terms", action="store_true",
                     help="also print the reference whole-graph expansion's "
                          "per-family term table")
    _add_command(sub, "det", "exact determinant of the adjacency matrix")
    _add_command(sub, "cycles", "cycle inventory and disjoint 4k families")
    _add_command(sub, "pm-count", "perfect matchings from a biadjacency matrix",
                 formats=("biadjacency",))
    _add_command(sub, "verify", "cross-check the engine against oracles")
    _add_command(sub, "classify", "girth/cactus efficiency condition")
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


def _cmd_per(args, text: str) -> list:
    g = _load_graph(text, args.format)
    report = permanent_auto(g)
    recs = [dict(record="permanent", value=report.value, n=report.n, m=report.m,
                 families=report.families, num_4k_cycles=report.num_4k_cycles,
                 path=report.path_taken)]
    if not args.show_terms:
        return recs
    # The term table is the whole graph's expansion, never a piecewise one.
    table = permanent_theorem1(g)
    groups = {}
    for term in table.per_family_terms:
        recs.append(dict(record="term", z=term.z, covered=list(term.covered.labels()),
                         det=term.det, coefficient=term.coefficient,
                         contribution=term.contribution))
        fams, det_sum = groups.get(term.z, (0, 0))
        groups[term.z] = (fams + 1, det_sum + term.det)
    for z in sorted(groups):
        fams, det_sum = groups[z]
        recs.append(dict(record="zgroup", z=z, families=fams, det_sum=det_sum,
                         coefficient=4**z, contribution=4**z * det_sum,
                         ordered_det_sum=math.factorial(z) * det_sum))
    sign = -1 if (table.n // 2) % 2 else 1
    unsigned = sum(t.contribution for t in table.per_family_terms)
    recs.append(dict(record="total", sign=sign, unsigned=unsigned,
                     signed=sign * unsigned))
    return recs


def _cmd_det(args, text: str) -> list:
    g = _load_graph(text, args.format)
    return [dict(record="determinant", value=determinant(g.adj), n=g.n)]


def _cmd_cycles(args, text: str) -> list:
    g = _load_graph(text, args.format)
    cycles = enumerate_cycles(g)
    c4k = four_k_cycles(cycles)
    families = enumerate_disjoint_families(c4k)
    recs = [dict(record="cycle", index=idx, vertices=list(cy.labels()),
                 length=cy.length, is_4k=cy.is_4k)
            for idx, cy in enumerate(cycles, start=1)]
    recs.append(dict(record="cycle-summary", num_cycles=len(cycles),
                     num_4k=len(c4k), num_4k_plus_2=sum(cy.length % 4 == 2 for cy in cycles),
                     num_families=len(families),
                     m=max((f.size for f in families), default=0)))
    return recs


def _cmd_pm_count(args, text: str) -> list:
    rows = parse_biadjacency(text)
    value = count_perfect_matchings(rows)
    return [dict(record="pm-count", value=value, rows=len(rows),
                 cols=len(rows[0]) if rows else 0)]


def _cmd_verify(args, text: str):
    """Yield the report, then raise on a mismatch, so the report still
    prints before the exit code."""
    g = _load_graph(text, args.format)
    report = permanent_auto(g)
    full = permanent_theorem1(g)
    value = report.value
    det_value = determinant(g.adj)
    checks = []

    def check(name, run):
        """Record ``run() -> (ok, value)``, or skipped(guard) when an
        oracle refuses the input's size."""
        try:
            ok, shown = run()
        except SizeGuardExceeded:
            checks.append(dict(record="check", name=name, status="skipped(guard)",
                               value=None))
            return
        checks.append(dict(record="check", name=name,
                           status="ok" if ok else "mismatch", value=shown))

    check("engine-agreement", lambda: (full.value == value, value))
    check("ryser", lambda: (per_ryser(g.adj) == value, value))
    check("naive", lambda: (per_naive(g.adj) == value, value))
    # One Sachs pass serves four checks: the first runs it, the rest read
    # its cached sums, and a guard refusal raises again at each.
    sums = cache(lambda: sachs_sums(g))
    check("sachs-per", lambda: (sums().per == value, value))
    check("sachs-det", lambda: (sums().det == det_value, det_value))
    check("parity-identity", lambda: (sums().parity_holds, None))
    check("removal-identity", lambda: (sums().removal_holds, None))
    # Theorem 2 is about the whole graph's largest 4k-cycle family, the
    # reference table's m.  On odd n the table is empty and its m is 0,
    # so the largest family is searched for here; no 4k-cycle has fewer
    # than 4 vertices, so a family of n // 4 ends the search.  The
    # engine's m sums the pieces' largest families of bad alternating
    # cycles and can fall below it.
    m = full.m
    if g.n & 1:
        m = largest_disjoint_family(four_k_cycles(enumerate_cycles(g)), g.n // 4)
    check(f"theorem2(m={m})", lambda: (verify_theorem2(g, m).holds_for_all, None))

    failed = [c["name"] for c in checks if c["status"] == "mismatch"]
    yield dict(record="verify-path", path=report.path_taken)
    yield from checks
    yield dict(record="verify", passed=not failed)
    if failed:
        raise VerificationMismatch(f"checks failed: {', '.join(failed)}")


def _cmd_classify(args, text: str) -> list:
    g = _load_graph(text, args.format)
    rec = classify_efficient(g)
    return [dict(record="classify", is_cactus=rec.is_cactus, girth=rec.girth,
                 n=rec.n, c=rec.c, condition_holds=rec.condition_holds)]


_DISPATCH = {
    "per": _cmd_per,
    "det": _cmd_det,
    "cycles": _cmd_cycles,
    "pm-count": _cmd_pm_count,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
}


def _labels(xs) -> str:
    return ",".join(str(x) for x in xs)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _check_text(r) -> str:
    suffix = f" ({r['value']})" if r["status"] == "ok" and r["value"] is not None else ""
    return f"{r['name']}: {r['status']}{suffix}"


def _classify_text(r) -> str:
    girth = r["girth"] if r["girth"] is not None else "none"
    return (f"is-cactus: {_yes(r['is_cactus'])}\ngirth: {girth}\nn: {r['n']}\n"
            f"girth-cycles: {r['c']}\ncondition-holds: {_yes(r['condition_holds'])}")


# Text rendering of each record kind.
_TEXT = {
    "permanent": "permanent: {value}\npath: {path}\nn: {n}\n"
                 "4k-cycles: {num_4k_cycles}\nm: {m}\nfamilies: {families}".format_map,
    "term": lambda r: f"  z={r['z']} covered={{{_labels(r['covered'])}}} det={r['det']}",
    "zgroup": "  {z}  {families}  {det_sum}  {coefficient}  {contribution}  "
              "{ordered_det_sum}".format_map,
    "total": "sign: {sign}\nunsigned total: {unsigned}\nsigned total: {signed}".format_map,
    "determinant": "determinant: {value}".format_map,
    "cycle": lambda r: (f"C{r['index']}: ({_labels(r['vertices'])}) "
                        f"length={r['length']}{' 4k' if r['is_4k'] else ''}"),
    "cycle-summary": "cycles: {num_cycles}\n4k-cycles: {num_4k}\n"
                     "4k+2-cycles: {num_4k_plus_2}\n"
                     "disjoint-4k-families (incl. empty): {num_families}\n"
                     "m: {m}".format_map,
    "pm-count": "perfect-matchings: {value}".format_map,
    "verify-path": "path: {path}".format_map,
    "check": _check_text,
    "verify": lambda r: f"verify: {'PASS' if r['passed'] else 'FAIL'}",
    "classify": _classify_text,
}

# Text lines printed once, before the first record of their kind.
_HEADERS = {
    "term": "reference terms:",
    "zgroup": "term table:\n  z  families  det-sum  coeff  contribution  ordered-det-sum",
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (code 0) or usage and its error; a bad
        # command line is a parse error, not argparse's 2 (not bipartite).
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        text = _read_input(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        last = None
        for rec in _DISPATCH[args.command](args, text):
            kind = rec["record"]
            if args.output == "records":
                print(json.dumps(rec))
                continue
            if kind != last and kind in _HEADERS:
                print(_HEADERS[kind])
            last = kind
            print(_TEXT[kind](rec))
    except (PermdetError, ValueError) as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
    return EXIT_OK


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
