"""Every public function and method of qlr, and every private module-level
helper, is named somewhere besides its def; every name a qlr module imports
is used in it; records are namedtuples, bar the one mutable dataclass."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "qlr"
READERS = (SOURCE, ROOT / "tests", ROOT / "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def checked_defs():
    """The names of the module-level functions and class methods, keeping
    the public names and the private module-level helpers (not dunders)."""
    defs = set()
    helpers = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defs.update(item.name for item in body if isinstance(item, FUNCTIONS))
            if isinstance(node, FUNCTIONS) and not node.name.startswith("__"):
                helpers.add(node.name)
    return {name for name in defs if not name.startswith("_") or name in helpers}


def identifiers(path):
    """The identifiers a .py file uses (names, attributes, imported names),
    or the whole identifiers inside the backtick code spans of any other
    file: a token joined to a "-" or to a word character does not count, so
    ``--degree-bound`` names no ``degree``."""
    text = path.read_text()
    if path.suffix != ".py":
        return [word for span in re.findall(r"`+([^`]+)`+", text)
                for word in re.findall(r"(?<![\w-])\w+(?![\w-])", span)]
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.split(".")[-1])
    return out


def unnamed(paths):
    """The names ``checked_defs`` keeps that no file at ``paths`` uses."""
    used = {name for p in paths for name in identifiers(p)}
    return sorted(name for name in checked_defs() if name not in used)


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


def test_only_the_mutable_scan_report_is_a_dataclass():
    decorated = [
        f"{path.stem}.{node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert decorated == ["verify.ScanReport"]
