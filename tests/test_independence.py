"""The engines' independence, pinned: which qlr helpers each pair of routes shares.

The crosscheck compares four engines and the q = 1 oracle, so a fault in a
helper that two routes share can leave both wrong in the same way, and their
comparison sees nothing.  This builds the call graph of src/qlr with ``ast``
and pins, for every pair of routes, the functions both of them reach.  A
change to what two routes share fails here until the pin, and README's
shared-helper table, say so.
"""

import ast
import itertools
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qlr"

# each route's entry in the crosscheck, and its engine's own entry
ROUTES = {
    "A": ("kpoly.k_by_kostant",),
    "B": ("kpoly._k_rec", "kpoly.k_by_recurrence"),
    "C": ("kpoly.series_decomposition", "kpoly.k_by_series"),
    "D": ("kpoly._charge_polys", "kpoly.k_by_charge"),
    "q=1": ("kpoly.lr_product",),
}

# the value types the routes pass around, shared by design: the walk below
# does not enter them, and constants such as ZERO are no functions to pin
SHARED_BY_DESIGN = {"kpoly.QPoly", "kpoly.KIndex", "shapes.RectSequence", "tableaux.Tableau"}

# the functions both routes of a pair reach; the weight checks and block
# offsets are expected, the engines' own steps are not
SHARED = {
    ("A", "B"): {"shapes.is_weakly_decreasing"},
    ("A", "C"): {"shapes.block_starts", "shapes.is_weakly_decreasing", "shapes.perm_sign"},
    ("A", "D"): {"shapes.block_starts", "shapes.is_weakly_decreasing"},
    ("A", "q=1"): {"shapes.is_weakly_decreasing"},
    ("B", "C"): {"shapes.is_partition", "shapes.is_weakly_decreasing", "shapes.rho",
                 "shapes.vec_sub"},
    ("B", "D"): {"shapes.is_partition", "shapes.is_weakly_decreasing", "shapes.pad",
                 "shapes.partitions_containing", "shapes.trim"},
    ("B", "q=1"): {"kpoly.lr_coefficient", "shapes.is_partition", "shapes.is_weakly_decreasing",
                   "shapes.pad", "shapes.partitions_containing", "shapes.trim",
                   "shapes.vec_sub"},
    ("C", "D"): {"shapes.block_starts", "shapes.is_partition", "shapes.is_weakly_decreasing"},
    ("C", "q=1"): {"shapes.is_partition", "shapes.is_weakly_decreasing", "shapes.vec_sub"},
    ("D", "q=1"): {"shapes.is_partition", "shapes.is_weakly_decreasing", "shapes.pad",
                   "shapes.partitions_containing", "shapes.trim"},
}


def _reads(node):
    """The bare names a definition reads, leaving out its annotations and
    the names it binds itself (arguments, assignments, nested defs)."""
    notes = [note for sub in ast.walk(node)
             for note in (getattr(sub, "annotation", None), getattr(sub, "returns", None))
             if isinstance(note, ast.AST)]
    skipped = {id(name) for note in notes for name in ast.walk(note)}
    bound = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            bound.add(sub.id)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub is not node:
            bound.add(sub.name)
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load) and id(sub) not in skipped} - bound


def call_graph():
    """Each module-level definition of src/qlr, as "module.name", mapped to
    the definitions it reads, every name resolved through its module's
    imports, and the set of those definitions that are functions;
    ``__init__`` only re-exports, so it is left out."""
    defs, imports = {}, {}
    for path in SOURCE.glob("*.py"):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[path.stem, alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[path.stem, name.id] = node

    def resolve(module, name):
        while (module, name) in imports:
            module, name = imports[module, name]
        return f"{module}.{name}" if (module, name) in defs else None

    graph = {f"{module}.{name}": {found for read in _reads(node)
                                  if (found := resolve(module, read)) is not None}
             for (module, name), node in defs.items()}
    return graph, {f"{module}.{name}" for (module, name), node in defs.items()
                   if isinstance(node, ast.FunctionDef)}


def reach(graph, entries):
    """Every definition reachable from ``entries``; a value type is reached
    but not entered."""
    seen, stack = set(), list(entries)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            if name not in SHARED_BY_DESIGN:
                stack.extend(graph[name])
    return seen


def test_names_resolve_through_the_module_imports():
    graph, _ = call_graph()
    # a local def and a type in an annotation are no edges
    assert not any(name.endswith(".blocks") for name in graph)
    assert "kpoly.KIndex" not in graph["kpoly.k_by_kostant"]
    # a name a module imports is the definition in the module it comes from
    assert "shapes.perm_sign" in graph["shapes.straighten"]
    assert "kpoly.lr_coefficient" in graph["kpoly.lr_product"]


def test_each_pair_of_routes_shares_only_the_pinned_helpers():
    graph, functions = call_graph()
    reached = {route: reach(graph, entries) & functions for route, entries in ROUTES.items()}
    shared = {(a, b): reached[a] & reached[b] for a, b in itertools.combinations(ROUTES, 2)}
    assert shared == SHARED
