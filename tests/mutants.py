"""The mutation table: how strong the tests are, measured by the mutants
they kill.

Each entry names one file of ``src/surfclass``, an exact source fragment,
its replacement, the test files to run, and the expected result: the
tests kill the mutant, or it is equivalent to the original code, with a
one-line proof.  Each mutant is applied to a fresh copy of ``src/`` in a
temporary directory, never to the working tree, and its tests run there
with ``-x``.  A fragment that does not occur exactly once in its file
fails the run, so the table follows the code.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It prints one line per mutant and exits 1 if any mutant's result is not
the expected one.  Only the standard library is imported here; pytest
does not collect this file, as its name does not start with ``test_``.
A change that adds a shortcut or an oracle adds its mutants here.
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
KILLED = "killed"

# (name, file under src/surfclass, fragment, replacement, test files, expected)
MUTANTS = [
    ("surface_verdict inverted", "simplicial.py",
     "return bordered if bordered.border_circles else closed",
     "return closed if bordered.border_circles else bordered",
     ["test_simplicial.py"], KILLED),
    ("refine drops the border-circle count", "simplicial.py",
     "if not verdict.ok or verdict.border_circles != report.num_contours:",
     "if not verdict.ok:",
     ["test_cli.py"], KILLED),
    ("apply_p2_inverse shared-edge test inverted", "rewrite.py",
     "if first.get(edge, -1) == last.get(edge, -1):",
     "if first.get(edge, -1) != last.get(edge, -1):",
     ["test_rewrite.py"], KILLED),
    ("apply_p2_inverse first and last swapped", "rewrite.py",
     "first, last, face = K._counts[3]",
     "last, first, face = K._counts[3]",
     ["test_rewrite.py", "test_incremental.py"],
     "equivalent: the shared-edge test is an equality and the face test compares a set, "
     "both symmetric in the edge's two slots"),
    ("count_invariants: a one-face inner edge flips on opposite signs", "cellcomplex.py",
     "        elif same:\n            orientable = False",
     "        elif not same:\n            orientable = False",
     ["test_cellcomplex.py"], KILLED),
    ("count_invariants: the null vertex counted twice", "cellcomplex.py",
     "n0 = len(paths) + len(cycles) if nends else 1",
     "n0 = len(paths) + len(cycles) if nends else 2",
     ["test_cellcomplex.py"], KILLED),
    ("certified_key reads Z/2 torsion as orientable", "classify.py",
     "{(2, ()): True, (1, (2,)): False}.get(shape)",
     "{(2, ()): True, (1, (2,)): True}.get(shape)",
     ["test_classify.py"], KILLED),
    ("refined_counts: two new edges per triangle", "simplicial.py",
     "2 * (e + n) + 3 * n, 4 * n",
     "2 * (e + n) + 2 * n, 4 * n",
     ["test_simplicial.py"], KILLED),
    ("smith_normal_form skips the gcd/lcm fold", "intlinalg.py",
     "chain[a], chain[b] = g, chain[a] * chain[b] // g",
     "chain[a], chain[b] = chain[a], chain[b]",
     ["test_intlinalg.py"], KILLED),
    ("cancel_inverse_pairs trims only from three letters", "edgeword.py",
     "while j - i >= 2 and",
     "while j - i >= 3 and",
     ["test_edgeword.py", "test_rewrite.py"],
     "equivalent: after the stack pass no two adjacent letters are inverse, "
     "so a two-letter remainder never trims"),
    ("cancel_inverse_pairs without the end trim", "edgeword.py",
     "while j - i >= 2 and stack[i] == stack[j - 1].inv():",
     "while False:",
     ["test_edgeword.py"], KILLED),
    ("cancel_inverse_pairs' stack cancels x x", "edgeword.py",
     "if stack and stack[-1] == s.inv():",
     "if stack and stack[-1] == s:",
     ["test_edgeword.py"], KILLED),
    ("cancel_inverse_pairs' end trim compares names only", "edgeword.py",
     "stack[i] == stack[j - 1].inv()",
     "stack[i].name == stack[j - 1].name",
     ["test_edgeword.py"], KILLED),
    ("reduce_border_vertices contracts a two-member vertex greater member first", "rewrite.py",
     "x, y = sorted(run, key=sym_key)",
     "x, y = sorted(run, key=sym_key, reverse=True)",
     ["test_golden.py"], KILLED),
    ("eliminate merges into the small face's own slot", "rewrite.py",
     "other = f2 if f1 == small else f1",
     "other = f1 if f1 == small else f2",
     ["test_rewrite.py"], KILLED),
    ("vertices reads each run reversed", "rewrite.py",
     "return [r for k, r in self.complex()._vertex_order[0] if k == kind]",
     "return [r[::-1] for k, r in self.complex()._vertex_order[0] if k == kind]",
     ["test_golden.py", "test_rewrite.py", "test_canonical.py", "test_incremental.py"],
     "equivalent: every reader of the view is blind to reversing a run (member counts, "
     "sets of adjacent pairs, ends, the middle member, a sorted two-member run)"),
    ("scramble_step reads a two-member vertex greater first", "rewrite.py",
     "pairs = (sorted(r, key=sym_key) for",
     "pairs = (sorted(r, key=sym_key, reverse=True) for",
     ["test_golden.py"], KILLED),
    ("_vertex_order keys an inner run by its greatest member", "cellcomplex.py",
     "keyed += [(min(map(sym_key, r)), INNER, r) for r in inners]",
     "keyed += [(max(map(sym_key, r)), INNER, r) for r in inners]",
     ["test_simplicial.py"], KILLED),
    ("_reads_as without the back map", "rewrite.py",
     "if forward.setdefault(s.name, to) != to or back.setdefault(t.name, s.name) != s.name:",
     "if forward.setdefault(s.name, to) != to:",
     ["test_rewrite.py"], KILLED),
    ("_dual_forest steps into a triangle holding the side, not its inverse", "simplicial.py",
     "stack += [(z, y, u), (x, z, u)]",
     "stack += [(y, z, u), (z, x, u)]",
     ["test_simplicial.py"], KILLED),
    ("_iterate's segment check ignores y", "planegeom.py",
     "firsts.append(next((i for i in xeq if ys[i] == ys[i + 1]), n))",
     "firsts.append(next(iter(xeq), n))",
     ["test_planegeom.py"], KILLED),
    ("parse_points' bulk path skips the finiteness test", "fileio.py",
     "if math.isfinite(sum(vs)) or all(map(math.isfinite, vs)):",
     "if True:",
     ["test_fileio.py"], KILLED),
    ("hausdorff's scan stops within twice the bound", "planegeom.py",
     "if best <= bound:",
     "if best <= 2 * bound:",
     ["test_planegeom.py"], KILLED),
    ("smith_normal_form skips the column remainders", "intlinalg.py",
     "rest = [q for q, v in line.items() if v % pv]",
     "rest = []",
     ["test_intlinalg.py"], KILLED),
    ("certified_homology expects H2 = Z on a bordered orientable surface", "classify.py",
     "FgAbelianGroup(int(key[0] and not key[1]), ())",
     "FgAbelianGroup(int(key[0]), ())",
     ["test_classify.py"], KILLED),
    ("refine_to_triangulation splits a one-gon's edges only once", "simplicial.py",
     "for _ in range(2 if min(map(len, faces.values())) == 1 else 1):",
     "for _ in range(1):",
     ["test_simplicial.py"], KILLED),
    ("homology counts one path component in H1's rank", "simplicial.py",
     "ne - (nt - nf) - (nv - c) - r2",
     "ne - (nt - nf) - (nv - 1) - r2",
     ["test_simplicial.py"], KILLED),
    ("winding_number skips the exact side test of a crossing near z0", "planegeom.py",
     "crosses = crosses and (cross > 0) == up",
     "crosses = crosses",
     ["test_planegeom.py"], KILLED),
]


def mutate(src: Path, file: str, fragment: str, replacement: str) -> None:
    path = src / "surfclass" / file
    text = path.read_text(encoding="utf-8")
    n = text.count(fragment)
    if n != 1:
        raise SystemExit(f"{file}: the fragment {fragment!r} occurs {n} times, not once")
    path.write_text(text.replace(fragment, replacement), encoding="utf-8")


def run_tests(src: Path, tests: list) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += [str(ROOT / "tests" / t) for t in tests]
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    table = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in table}
    if unknown:
        raise SystemExit(f"no mutant named {sorted(unknown)}")
    failures = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name, file, fragment, replacement, tests, expected in table:
            src = Path(tmp) / "src"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            mutate(src, file, fragment, replacement)
            t0 = time.perf_counter()
            code = run_tests(src, tests)
            # pytest exits 1 when a test failed, 0 when all passed
            got = {0: "survived", 1: KILLED}.get(code, f"error (pytest exit {code})")
            ok = got == KILLED if expected == KILLED else got == "survived"
            failures += not ok
            verdict = "ok" if ok else "UNEXPECTED"
            print(f"{verdict:10} {got:9} {time.perf_counter() - t0:6.1f} s  {name}", flush=True)
    print(f"{len(table)} mutants, {failures} unexpected, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
