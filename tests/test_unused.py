"""Every public function and method of qlr, and every private module-level
helper, is named somewhere besides its def; every name a qlr module imports
is used in it."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "qlr"
READERS = (SOURCE, ROOT / "tests", ROOT / "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def checked_defs():
    """Count the module-level functions and class methods per name, keeping
    the public names and the private module-level helpers (not dunders)."""
    defs = Counter()
    helpers = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in body:
                if isinstance(item, FUNCTIONS):
                    defs[item.name] += 1
            if isinstance(node, FUNCTIONS) and not node.name.startswith("__"):
                helpers.add(node.name)
    return {
        name: n for name, n in defs.items()
        if not name.startswith("_") or name in helpers
    }


def unnamed(paths):
    """The names ``checked_defs`` keeps that the files at ``paths`` name no
    more often than they define them."""
    words = Counter(word for p in paths for word in re.findall(r"\w+", p.read_text()))
    return sorted(name for name, n in checked_defs().items() if words[name] <= n)


def test_no_public_function_is_unused():
    assert unnamed(p for d in READERS for p in d.glob("*.py")) == []


def test_no_import_is_unused():
    # __init__.py is left out: it imports names only to re-export them
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
