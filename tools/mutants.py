"""Mutation check: every mutant of the engine must fail the tier-1 tests.

Usage: python tools/mutants.py

Each mutant is one ``(file, old, new)`` replacement of text that occurs
exactly once in ``file``.  For each, the repository's ``src``, ``tests``,
``fixtures`` and ``tools`` (for the digest test) and its
``pyproject.toml`` are copied to a temporary directory, the replacement
is made there, and ``python -m pytest -x -q`` runs in the copy: first
on the mutated module's own test files (``tests/test_cycles.py`` for
``src/permdet/cycles.py``, more where ``OWN_TESTS`` names them), where
most mutants fail within seconds, then, if those pass, on the rest of
the suite.  A mutant that passes both runs survives.  The unmutated
copy runs the whole suite first and must pass, so that a failure is the
mutant's.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the unmutated tests fail or a mutant's ``old`` text is not found exactly
once.  A surviving mutant asks for a test, not for its removal.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "tools", "pyproject.toml")
# A module's own test files, where they are more than tests/test_<module>.py.
OWN_TESTS = {"matching": ("tests/test_matching.py", "tests/test_signing.py")}

MUTANTS = (
    # The expansion's weight 4^|T| in place of 2^|T|.
    ("src/permdet/engine.py", "total += d << len(indices)", "total += d << 2 * len(indices)"),
    # A piece that is one cycle gets pm 1, not 2.
    ("src/permdet/engine.py", "return 2, PermanentReport(4,", "return 1, PermanentReport(4,"),
    # ... or the other label: the corollary for n = 0 mod 4.
    ("src/permdet/engine.py", "path = PATH_PFAFFIAN if n % 4 == 0 else", "path = PATH_PFAFFIAN if n % 4 else"),
    # ... or the walk accepts a return to its first vertex before it has
    # visited every left vertex.
    ("src/permdet/engine.py", "            return not steps\n", "            return True\n"),
    # ... or a left vertex's second non-matching neighbour is let through.
    (
        "src/permdet/engine.py",
        "                if x >= 0:\n                    return False\n",
        "",
    ),
    # Pieces of four vertices skipped, not only the single matched edges.
    ("src/permdet/engine.py", "piece.bit_count() > 2]", "piece.bit_count() > 4]"),
    # The signing equation's parity: l in place of l + 1.
    ("src/permdet/matching.py", "row.bit_count() + 1 & 1", "row.bit_count() & 1"),
    # The signing solved from the highest leading bit down.
    ("src/permdet/matching.py", "for top in sorted(basis):", "for top in sorted(basis, reverse=True):"),
    # Every row kept, so no cycle is ever bad.
    ("src/permdet/matching.py", "    return not rhs\n", "    return True\n"),
    # The root's ``after`` mask left full: each cycle from every vertex.
    ("src/permdet/matching.py", "        after ^= x\n", ""),
    # The signing skips its two-arc closures, the piece's 4-cycles.
    (
        "src/permdet/matching.py",
        "        closed.append(row)\n",
        "        if len(path) > 2:\n            closed.append(row)\n",
    ),
    # Elementary pieces merged across finished components.
    ("src/permdet/matching.py", "if on_stack[x] and index[x] < low[u]:", "if index[x] < low[u]:"),
    # No size check before the matching search.
    ("src/permdet/matching.py", "    if 2 * len(rows) != g.n:\n", "    if len(rows) > g.n:\n"),
    # The removal check's one-pass term without its u.s factor.
    ("src/permdet/oracles.py", "term = u.s << (u.s + u.t) >> 1", "term = 1 << (u.s + u.t) >> 1"),
    # Sachs trial cap off-by-one.
    ("src/permdet/oracles.py", "if trials > cap:", "if trials >= cap:"),
    # The parity check reads t alone, without the edge components r.
    ("src/permdet/oracles.py", "(half - (u.t + u.r)) % 2", "(half - u.t) % 2"),
    # The Sachs sums' odd-order shortcut taken on even n too.
    ("src/permdet/oracles.py", "if g.n & 1 and _bipartite(g):", "if _bipartite(g):"),
    # Unsigned entries in the signed block.
    ("src/permdet/determinant.py", "row[k] = -1 if minus >> j & 1 else 1", "row[k] = 1"),
    # The family search skips the first vertex's avoid mask of each cycle.
    ("src/permdet/cycles.py", "        for v in members[i]:", "        for v in members[i][1:]:"),
    # ... or the last vertex's.
    ("src/permdet/cycles.py", "        for v in members[i]:", "        for v in members[i][:-1]:"),
    # The root a candidate off its closers too: paths that are no cycles.
    ("src/permdet/cycles.py", "cands = succ[low] & avail\n", "cands = succ[low] & avail | root\n"),
    # The walk grows on past the root's last closer: only the exact path
    # counts see it.
    ("src/permdet/cycles.py", "cands = root\n", "cands = succ[low] & avail | root\n"),
    # A whole-graph walk may close from its own first step a: two-vertex
    # closures.
    ("src/permdet/cycles.py", "roots.append((1 << j, a, free, above))", "roots.append((1 << j, a, free, above | a))"),
    # The signing's roots close from every free vertex, not only from their
    # predecessors.
    ("src/permdet/matching.py", "free, closers[x]) for x, free in order", "free, free) for x, free in order"),
    # ... or it searches the roots that have no closer: only the exact
    # path counts see it.
    ("src/permdet/matching.py", "for x, free in order if closers[x]]", "for x, free in order]"),
    # The frontier count closes a path into a cycle while another is open.
    (
        "src/permdet/frontier.py",
        "s.count(_UNTOUCHED) - s.count(_DONE) == 2:",
        "s.count(_UNTOUCHED) - s.count(_DONE) >= 2:",
    ),
    # ... or keeps a successor whose freed slot held a path end.
    ("src/permdet/frontier.py", "                    if t[a] >= 0:\n                        break\n", ""),
    # The plan's ties broken by vertex index, not by breadth-first order.
    (
        "src/permdet/frontier.py",
        "    for i, v in enumerate(order):\n        place[v] = 1 << i\n",
        "    order.sort()\n    for i, v in enumerate(order):\n        place[v] = 1 << i\n",
    ),
    # ... or the vertex of most frontier growth placed first.
    ("src/permdet/frontier.py", "for i, m in enumerate(levels):", "for i, m in reversed([*enumerate(levels)]):"),
    # The plan starts in the nearest layer from vertex 0 with a vertex of
    # least degree, not the farthest: vertex 0 itself on a regular graph.
    ("src/permdet/frontier.py", "for layer in reversed(layers):", "for layer in layers:"),
    # ... or from a vertex of greatest degree: K_{p,q} then holds
    # max(p, q) + 1 slots.
    ("src/permdet/frontier.py", "least = min(map(int.bit_count, nbrs))", "least = max(map(int.bit_count, nbrs))"),
    # The gate without its margin, without its floor on mu, without the
    # cost of a successor state (K_{9,9} would take the count) or without
    # that of its value's bits (so would the 2 x 2,000 ladder).
    ("src/permdet/frontier.py", "if MARGIN * bound >= 1 << rank", "if bound >= 1 << rank"),
    ("src/permdet/frontier.py", "if rank < MIN_RANK:", "if rank < 0:"),
    ("src/permdet/frontier.py", "bits = UPDATE_COST + n * (edges + 1)", "bits = n * (edges + 1)"),
    ("src/permdet/frontier.py", "bits = UPDATE_COST + n * (edges + 1)", "bits = UPDATE_COST"),
    # The frontier count's totals fold only the low half of their fields.
    (
        "src/permdet/frontier.py",
        "packed = (packed >> shift) + (packed & ((1 << shift) - 1))",
        "packed = packed & ((1 << shift) - 1)",
    ),
    # verify's family search runs on past its bound.
    ("src/permdet/cycles.py", "if largest >= bound:", "if largest > bound:"),
    # Cap off-by-ones: path extensions, cycles and families.
    ("src/permdet/cycles.py", "if steps < 0:", "if steps <= 0:"),
    (
        "src/permdet/cycles.py",
        '        found += 1\n        if found > cap:',
        '        found += 1\n        if found >= cap:',
    ),
    # ... and the cycle cap on the frontier count's totals.
    ("src/permdet/frontier.py", "field_total(packed, field) > room:", "field_total(packed, field) >= room:"),
    (
        "src/permdet/cycles.py",
        '        if count > cap:\n            raise EnumerationCapExceeded("disjoint family", cap)',
        '        if count >= cap:\n            raise EnumerationCapExceeded("disjoint family", cap)',
    ),
    # Blocks split at the wrong articulation test.
    ("src/permdet/cycles.py", "if low[v] >= disc[parent]:", "if low[v] > disc[parent]:"),
    # The bipartition lets an odd cycle through.
    ("src/permdet/graphs.py", "elif color[v] == side:", "elif color[v] == side == 1:"),
    # The parsers' checks: non-ASCII tokens, edge lines, vertex range.
    ("src/permdet/graphs.py", 'plain = text.isascii() and "_" not in text', "plain = True"),
    ("src/permdet/graphs.py", "if len(tokens) != 2:", "if len(tokens) < 2:"),
    ("src/permdet/graphs.py", "if not (1 <= u <= n and 1 <= v <= n):", "if not (1 <= u <= n and 1 <= v):"),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, *args: str) -> bool:
    """Whether ``python -m pytest -x -q`` with ``args`` passes in ``tree``."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def _run(mutant) -> bool | None:
    """Whether the tests pass on a copy with ``mutant`` applied, its
    module's own test files first, or on an unmutated copy when ``mutant``
    is None.  None when the mutant's ``old`` text is not in its file
    exactly once."""
    with tempfile.TemporaryDirectory(prefix="permdet-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if mutant is None:
            return _pytest(tree)
        name, old, new = mutant
        path = tree / name
        text = path.read_text()
        if text.count(old) != 1:
            return None
        path.write_text(text.replace(old, new))
        own = [f for f in OWN_TESTS.get(path.stem, (f"tests/test_{path.stem}.py",))
               if (tree / f).exists()]
        if not own:
            return _pytest(tree)
        return _pytest(tree, *own) and _pytest(tree, *(f"--ignore={f}" for f in own))


def main() -> int:
    start = time.perf_counter()
    if not _run(None):
        print("the unmutated tests fail", file=sys.stderr)
        return 2
    survived = stale = 0
    for index, mutant in enumerate(MUTANTS):
        name, old, new = mutant
        began = time.perf_counter()
        passed = _run(mutant)
        if passed is None:
            verdict = "STALE"
            stale += 1
        elif passed:
            verdict = "SURVIVED"
            survived += 1
        else:
            verdict = "killed"
        summary = f"{old.strip()!r} -> {new.strip()!r}"
        print(f"{index:2} {verdict:8} {time.perf_counter() - began:5.1f}s  {name}: {summary}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survived} survived, {stale} stale, "
          f"{time.perf_counter() - start:.0f}s")
    if stale:
        return 2
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
