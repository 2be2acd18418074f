"""List the statements of sdckit that neither tier-1 nor the bitwise probe
runs.

    python tools/linetrace.py

Runs the tier-1 tests (pytest with --hypothesis-seed=0) and then the full
tools/bitwise_probe.py, both in this process under one sys.settrace line
tracer, and prints every function-body statement of src/sdckit that never
ran.  A statement is named by its file, its function and its source, so
an entry of ALLOWED survives edits elsewhere in the file.  Exits
1 when tier-1 fails, when an unreached statement is not in ALLOWED, or
when an ALLOWED statement ran.  Code run in a subprocess (the CLI smoke
steps, the benchmark) counts only through the in-process calls.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "sdckit"

# (file, function, statement) of each statement allowed to stay unreached,
# and why.  Safety code stays unreached: certificate checks, named errors
# on input, and the final raise of a loop that fits a budget.
ALLOWED: dict[tuple[str, str, str], str] = {
    ("_chains.py", "nilpotent_jordan_chains",
     "raise errors.StructureMismatch(f'chain extraction at height {p}: found {count}, "
     "expected {expected}')"):
        "a misread kernel filtration (|M| > 1 scales the rank cutoff) now ends in the "
        "inconsistent-filtration raise first",
    ("_chains.py", "nilpotent_jordan_chains",
     "raise errors.StructureMismatch('degenerate chain bottom')"):
        "safety: a chain top whose image vanishes at roundoff level",
    ("asdc.py", "_perturb_singular",
     "raise errors.CertificationFailed('could not fit the border inside the budget')"):
        "final raise of a budget-fit loop",
    ("asdc.py", "_perturb_blocks_attempt",
     "raise errors.StructureMismatch('complex sub-pencil produced real eigenvalues')"):
        "safety for the border: a type 2 eigenvalue read as real has its conjugate within "
        "2 EIG_REAL_TOL, so pencil_canonical raises RepeatedEigenvalues first",
    ("asdc.py", "_border_with_gauge",
     "raise errors.CertificationFailed('gauge conjugation could not fit the budget')"):
        "final raise of a budget-fit loop",
    ("rsdc.py", "_construct",
     "raise errors.CertificationFailed('top-left restriction is not exact')"):
        "certificate: the restriction to the original coordinates",
    ("triples.py", "_split_by",
     "raise errors.CertificationFailed('block split could not fit the budget')"):
        "final raise of a budget-fit loop",
    **{("triples.py", "_nilpotent_flatten", f"return None{k}"):
       "a fallback of flatten to case 2 or case 3; seeded draws reach only the one after "
       "the polynomial fit (#5)"
       for k in ("", " #2", " #3", " #4", " #6")},
    ("triples.py", "_recurse",
     "raise errors.CertificationFailed('triple recursion did not terminate')"):
        "safety: a recursion depth bound",
    ("triples.py", "_recurse",
     "raise errors.StructureMismatch('A^-1 C is not in the Toeplitz commutant of A^-1 B')"):
        "certificate: the validated commutation puts A^-1 C in the commutant",
}


def statements(path: Path) -> dict[int, tuple[str, str]]:
    """{line: (function, statement)} for each statement in a function body
    of the module at path that compiles to code.  Nested functions are
    named outer.inner and methods Class.method; a statement is its first
    line as ast.unparse writes it, which joins a call spread over lines,
    and the k-th repeat of a statement in one function ends in " #k"."""
    source = path.read_text()
    code_lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    found: dict[int, tuple[str, str]] = {}
    seen: dict[tuple[str, str], int] = {}

    def add(line: int, scope: str, text: str) -> None:
        k = seen[scope, text] = seen.get((scope, text), 0) + 1
        found[line] = (scope, text if k == 1 else f"{text} #{k}")

    def visit(node: ast.AST, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if in_function and child.lineno in code_lines:
                    add(child.lineno, scope, f"def {child.name}")
                visit(child, name, not isinstance(child, ast.ClassDef))
                continue
            if in_function and isinstance(child, ast.stmt) and child.lineno in code_lines:
                add(child.lineno, scope, ast.unparse(child).splitlines()[0])
            visit(child, scope, in_function)

    visit(ast.parse(source), "", False)
    return found


def trace(run, root: Path) -> set[tuple[str, int]]:
    """Run run() and return the (file, line) pairs it executed in files
    under root; the tracer that was set before is set again after."""
    prefix = str(root)
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(before)
    return hits


def unreached(paths, hits) -> list[tuple[str, int, str, str]]:
    """(file, line, function, statement) of each statement in paths that
    hits does not hold."""
    out = []
    for path in paths:
        for line, (function, text) in sorted(statements(path).items()):
            if (str(path), line) not in hits:
                out.append((path.name, line, function, text))
    return out


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tools")]
    import bitwise_probe
    import pytest

    status = []

    def run() -> None:
        status.append(pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                                   "--continue-on-collection-errors", "--rootdir", str(REPO),
                                   str(REPO)]))
        with tempfile.TemporaryDirectory() as tmp:
            bitwise_probe.main([str(REPO / "src"), str(Path(tmp) / "digests.json")])

    hits = trace(run, PACKAGE)
    if status != [0]:
        print(f"tier-1 failed (pytest exit {status[0]}), so the trace is incomplete")
        return 1
    missed = unreached(sorted(PACKAGE.glob("*.py")), hits)
    keys = {(name, function, text) for name, _, function, text in missed}
    new = [m for m in missed if (m[0], m[2], m[3]) not in ALLOWED]
    ran = [key for key in ALLOWED if key not in keys]
    total = sum(len(statements(p)) for p in PACKAGE.glob("*.py"))
    print(f"{len(missed)} of {total} function-body statements never ran; "
          f"{len(ALLOWED)} allowed")
    for name, line, function, text in new:
        print(f"unreached: src/sdckit/{name}:{line} {function}: {text}")
    for name, function, text in ran:
        print(f"allowed but ran: src/sdckit/{name} {function}: {text}")
    return 1 if new or ran else 0


if __name__ == "__main__":
    sys.exit(main())
