"""Answer and work digest of the engine over one fixed corpus.

Usage, from the repository root:

    python tools/digest.py --check   # compare with tools/digest.json
    python tools/digest.py --write   # rewrite tools/digest.json

Each key is one SHA-256 over one function's outputs on one group of the
corpus, graph by graph in a fixed order, so a changed value or a changed
order shows as a changed key.  The groups are the connected bipartite
graphs on up to 8 vertices, ``random_corpus()``, the grids 2 x 2 to
4 x 6, random cubic bipartite graphs with k = 4..12 from a fixed seed,
bridged 8-cycle chains of 1 to 6 blocks, the even cycles C_4 to C_60,
K_{n,n} for n = 2..5 and every fixture.  The keys come in two kinds:

- *Answer keys* (``answer.*``): ``permanent_auto(g).value``,
  ``count_perfect_matchings`` on the biadjacency of the bipartition,
  ``determinant`` of the adjacency matrix and the ``sachs_sums`` fields
  (on graphs of at most ``SACHS_MAX`` vertices).  They change only in a
  bug fix.
- *Work keys* (``work.*``): the whole ``permanent_auto`` report, every
  field and the pieces' reports included; each elementary piece's
  ``pfaffian_signing`` (its negative edges, sorted, and its bad cycles in
  order); ``cycle_length_counts``; ``classify_efficient``; the
  ``whole_graph_cycles`` stream, each cycle's vertices in the order the
  search yields them; and ``enumerate_cycles``.  A work key may change
  with a recorded reason.

An error is hashed as its type and message, so a graph that stops at a
cap or is not bipartite is in the digest too.  ``enumerate_cycles``
lists the whole stream before it returns, so where the stream stops at a
cap it stops with the same error, and its key hashes that error without
a second search (``fixtures/cubic40.edges`` reaches the path cap after
3.7-7 s).  ``--check`` exits 1 and
names each key that differs from the committed file (or is missing from
it, or only there); ``--write`` rewrites the file.  Both print the time
taken.  It proves sameness, not correctness: the tests compare the
answers with Ryser and closed forms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402
from permdet import (  # noqa: E402
    EnumerationCapExceeded,
    bipartition,
    classify_efficient,
    count_perfect_matchings,
    determinant,
    enumerate_cycles,
    graph_from_biadjacency,
    parse_adjacency_matrix,
    parse_biadjacency,
    parse_edge_list,
    permanent_auto,
    sachs_sums,
)
from permdet.cycles import block_vertices, cycle_length_counts, whole_graph_cycles  # noqa: E402
from permdet.matching import elementary_pieces, perfect_matching, pfaffian_signing  # noqa: E402

DIGEST = Path(__file__).resolve().with_name("digest.json")
CUBIC_SEED = 1301
# sachs_sums lists every spanning Sachs subgraph, so its key takes the
# graphs of at most 12 vertices, as the acceptance tests do (K_{5,5} is
# about 1.5 s of it).
SACHS_MAX = 12


def _fixtures() -> list:
    """Every fixture as ``(graph, biadjacency or None)``, by file name."""
    out = []
    for path in sorted(corpus.FIXTURE_DIR.iterdir()):
        text = path.read_text()
        if path.suffix == ".biadj":
            b = parse_biadjacency(text)
            out.append((graph_from_biadjacency(b), b))
        elif path.suffix == ".adj":
            out.append((parse_adjacency_matrix(text), None))
        else:
            out.append((parse_edge_list(text), None))
    return out


def groups() -> dict:
    """The corpus: group name -> list of ``(graph, biadjacency or None)``."""
    rng = random.Random(CUBIC_SEED)
    plain = {
        "connected8": corpus.connected_bipartite_upto(8),
        "random": corpus.random_corpus(),
        "grids": [corpus.grid_graph(r, c) for r in range(2, 5) for c in range(2, 7)],
        "cubic": [corpus.random_cubic_bipartite(k, rng) for k in range(4, 13)],
        "c8_chains": [corpus.bridged_c8_chain(blocks) for blocks in range(1, 7)],
        "cycles": [corpus.cycle_graph(2 * l) for l in range(2, 31)],
        "complete": [corpus.complete_bipartite(n, n) for n in range(2, 6)],
    }
    out = {name: [(g, None) for g in graphs] for name, graphs in plain.items()}
    out["fixtures"] = _fixtures()
    return out


def _signings(g) -> tuple:
    """Each elementary piece's signing, sorted, and bad cycles, in order."""
    left = bipartition(g).mask
    mate = perfect_matching(g, left)
    if mate is None:
        return None
    out = []
    for piece in elementary_pieces(g, left, mate):
        if piece.bit_count() > 2:
            negative, bad = pfaffian_signing(g, left, mate, piece)
            out.append((piece, sorted(negative.items()), bad))
    return tuple(out)


def _pm_count(g, b):
    if b is None:
        left = bipartition(g).indices()
        b = corpus.biadjacency_of(g, left)
    return count_perfect_matchings(b)


def _sachs(g):
    if g.n > SACHS_MAX:
        return "skipped"
    s = sachs_sums(g)
    return s.per, s.det, s.parity_holds, s.removal_holds


def _cycle_keys() -> dict:
    """The keys of the ``whole_graph_cycles`` stream, each cycle's
    vertices in the order found, and of ``enumerate_cycles``, which
    raises the cap the stream stopped at, by graph, with no second
    search."""
    stops = {}

    def stream(g, b) -> list:
        try:
            return [block_vertices(block, path) for block, path in whole_graph_cycles(g)]
        except EnumerationCapExceeded as exc:
            stops[g] = exc
            raise

    def listed(g, b) -> list:
        if g in stops:
            raise stops[g]
        return enumerate_cycles(g)

    return {"work.cycle_stream": stream, "work.cycle_list": listed}


KEYS = {
    "answer.permanent": lambda g, b: permanent_auto(g).value,
    "answer.pm_count": _pm_count,
    "answer.determinant": lambda g, b: determinant(g.adj),
    "answer.sachs": lambda g, b: _sachs(g),
    "work.report": lambda g, b: permanent_auto(g),
    "work.signing": lambda g, b: _signings(g),
    "work.cycle_counts": lambda g, b: sorted(cycle_length_counts(g).items()),
    "work.classify": lambda g, b: classify_efficient(g),
}


def _outcome(fn, g, b) -> str:
    try:
        return repr(fn(g, b))
    except Exception as exc:  # an error is part of the digest
        return f"{type(exc).__name__}: {exc}"


def digest() -> dict:
    """Key name -> SHA-256 hex digest, over every group and key."""
    out = {}
    keys = {**KEYS, **_cycle_keys()}
    for group, items in groups().items():
        for key, fn in keys.items():
            h = hashlib.sha256()
            for g, b in items:
                h.update(f"{g.n} {g.edges!r} -> {_outcome(fn, g, b)}\n".encode())
            out[f"{group}/{key}"] = h.hexdigest()
    return out


def changed(current: dict) -> list:
    """The keys on which ``current`` and the committed digest differ."""
    committed = json.loads(DIGEST.read_text())
    return sorted(k for k in committed.keys() | current.keys() if committed.get(k) != current.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the committed digest")
    mode.add_argument("--write", action="store_true", help="rewrite the committed digest")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    current = digest()
    took = time.perf_counter() - start
    if args.write:
        DIGEST.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} keys to {DIGEST.name} in {took:.1f}s")
        return 0
    diff = changed(current)
    for key in diff:
        print(f"changed: {key}")
    print(f"{len(current)} keys, {len(diff)} changed, {took:.1f}s")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
