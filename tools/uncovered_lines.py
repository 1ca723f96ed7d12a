"""Lines inside the function bodies of src/qlr that the Tier-1 suite never runs.

Runs the suite in process through ``pytest.main`` under a ``sys.settrace``
line tracer (standard library only) and prints, per module, every statement
line inside a function or method body of ``src/qlr`` that no test reached,
then the total.  Extra arguments are passed on to pytest.  The suite runs
several times slower under the tracer.  The exit status is pytest's, or 1
when any such statement never ran.

    python tools/uncovered_lines.py
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "qlr"
COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try,
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
NO_CODE = (ast.Pass, ast.Global, ast.Nonlocal)


def statement_spans(tree):
    """The (first, last) line span of each statement inside a function body:
    a compound statement's header only, a simple statement whole, docstrings
    and statements that compile to nothing left out."""
    spans = []

    def visit(body, in_function):
        for i, stmt in enumerate(body):
            is_docstring = (i == 0 and isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str))
            if in_function and not is_docstring and not isinstance(stmt, NO_CODE):
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                last = stmt.body[0].lineno - 1 if isinstance(stmt, COMPOUND) else stmt.end_lineno
                spans.append((first, max(stmt.lineno, last)))
            inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), inner)
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(stmt, "cases", []):
                visit(case.body, inner)

    visit(tree.body, False)
    return spans


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    modules = {str(p): p for p in sorted(SOURCE.glob("*.py"))}
    hits = {path: set() for path in modules}
    seen: dict = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = hits.get(str(Path(name).resolve()))
        lines = seen[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    total = missed = 0
    for path, p in modules.items():
        source = p.read_text()
        spans = statement_spans(ast.parse(source))
        unrun = [first for first, last in spans if not hits[path].intersection(range(first, last + 1))]
        total += len(spans)
        missed += len(unrun)
        if unrun:
            print(f"\n{p.relative_to(ROOT)}: {len(unrun)} never ran")
            for line in unrun:
                print(f"  {line:5d}  {source.splitlines()[line - 1].strip()}")
    print(f"\n{missed} of {total} statement lines in src/qlr function bodies never ran")
    return int(code) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
