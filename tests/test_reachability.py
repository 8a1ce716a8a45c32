"""Every definition in ``src/feasmass`` is reachable from ``cli.main``.

The name graph is read from the source: a node is a module-level function,
class or constant (dunder names are exempt), and an edge is a name it loads,
a ``module.attr`` through an imported module, or a name imported inside it.
A class is one node, so its methods count as reached with it.
"""
import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "feasmass"

# Definitions with no CLI consumer yet.  The set may only shrink: each one
# either gets a consumer or moves to tests/oracles.py.
KNOWN_UNREACHABLE = {
    "bounds.alpha_star", "bounds.l4_feasible_envelope", "bounds.low_degree_window_size",
    "bounds.ratio_master", "harmonic.low_degree_mass",
}

# Defaulted parameters plus defaulted dataclass fields in ``src``: each is a
# knob a caller can turn.  The count may only shrink, like the set above.
MAX_KNOBS = 29

# Summed line count of src/feasmass/*.py, as ``wc -l`` counts it.  It may
# only shrink too.
MAX_SRC_LINES = 1912


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _imports(nodes) -> dict:
    """Local name -> 'module.name', or 'module' for ``from . import module``,
    for every relative import in ``nodes``."""
    out = {}
    for imp in (n for node in nodes for n in ast.walk(node)):
        if isinstance(imp, ast.ImportFrom) and imp.level == 1:
            for alias in imp.names:
                target = f"{imp.module}.{alias.name}" if imp.module else alias.name
                out[alias.asname or alias.name] = target
    return out


def name_graph() -> tuple:
    """(definitions, edges): qualified names and the names each references.
    An imported name is an edge to its source, so re-exports resolve."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PKG.glob("*.py")}
    defs, edges = set(), {}
    for mod, tree in trees.items():
        module_imports = _imports(s for s in tree.body if isinstance(s, ast.ImportFrom))
        for local, target in module_imports.items():
            edges[f"{mod}.{local}"] = {target}
        for stmt in tree.body:
            scope = dict(module_imports, **_imports([stmt]))
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    target = scope.get(node.id, node.id)
                    refs.add(target if "." in target else f"{mod}.{target}")
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and scope.get(node.value.id) in trees):
                    refs.add(f"{scope[node.value.id]}.{node.attr}")
            for name in _defined_names(stmt):
                if not (name.startswith("__") and name.endswith("__")):
                    defs.add(f"{mod}.{name}")
                edges[f"{mod}.{name}"] = refs
    return defs, edges


def reachable_from(root: str, edges: dict) -> set:
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen or name not in edges:
            continue
        seen.add(name)
        todo.extend(edges[name])
    return seen


def test_every_definition_is_reachable_from_cli_main():
    defs, edges = name_graph()
    unreachable = defs - reachable_from("cli.main", edges)
    assert unreachable <= KNOWN_UNREACHABLE, sorted(unreachable - KNOWN_UNREACHABLE)


def _is_dataclass(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def knob_count() -> int:
    count = 0
    for path in PKG.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def test_defaulted_knobs_do_not_grow():
    count = knob_count()
    assert count <= MAX_KNOBS, f"{count} defaulted parameters and fields, cap {MAX_KNOBS}"


def test_src_lines_do_not_grow():
    count = sum(p.read_bytes().count(b"\n") for p in PKG.glob("*.py"))
    assert count <= MAX_SRC_LINES, f"{count} lines in src/feasmass, cap {MAX_SRC_LINES}"
