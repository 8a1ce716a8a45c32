"""Every definition in ``src/feasmass`` is reachable from ``cli.main``.

The name graph is read from the source: a node is a module-level function,
class or constant (dunder names are exempt), and an edge is a name it loads,
a ``module.attr`` through an imported module, or a name imported inside it.
A class is one node there, so its methods are checked on their own: each is
loaded as an attribute, overrides a base class's, or is read by the benchmark.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "feasmass"

# Defaulted parameters plus defaulted dataclass fields in ``src``: each is a
# knob a caller can turn.  An exact ratchet: a change that drops one lowers it.
MAX_KNOBS = 10

# The module-level MAX_* constants in ``src``: the one memory budget, in
# bytes, and the one cap that is not memory, the int64 label width.
CAP_CONSTANTS = {"MAX_BYTES", "MAX_LABEL_BITS"}

# Summed line count of src/feasmass/*.py, as ``wc -l`` counts it.  An exact
# ratchet too, so the count quoted beside it stays true.
MAX_SRC_LINES = 1841


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
    assert not unreachable, sorted(unreachable)


def _loaded_attributes(paths) -> set:
    """Every ``x.name`` loaded in the files at ``paths``, read as source, never imported."""
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_method_is_reached():
    # the name graph holds a class as one node, so a method nothing calls would pass it
    loaded = _loaded_attributes(PKG.glob("*.py"))
    benchmark = _loaded_attributes((ROOT / "benchmark").glob("*.py"))
    unreached, benchmark_only = [], []
    for path in PKG.glob("*.py"):
        module = importlib.import_module(f"feasmass.{path.stem}")
        for cls in (s for s in ast.parse(path.read_text()).body if isinstance(s, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            for name in (s.name for s in cls.body if isinstance(s, ast.FunctionDef)
                         and not (s.name.startswith("__") and s.name.endswith("__"))):
                if name in loaded or any(hasattr(base, name) for base in bases):
                    continue
                (benchmark_only if name in benchmark else unreached).append(f"{cls.name}.{name}")
    assert not unreached, unreached
    # the benchmark picks its lattice instances by spread; no src code reads it
    assert benchmark_only == ["DiagonalCost.spread"]


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
    assert count == MAX_KNOBS, f"{count} defaulted parameters and fields, ratchet {MAX_KNOBS}"


def test_memory_caps_are_the_one_budget():
    names = {name for path in PKG.glob("*.py") for stmt in ast.parse(path.read_text()).body
             for name in _defined_names(stmt) if name.startswith("MAX_")}
    assert names == CAP_CONSTANTS


def test_src_lines_do_not_grow():
    count = sum(p.read_bytes().count(b"\n") for p in PKG.glob("*.py"))
    assert count == MAX_SRC_LINES, f"{count} lines in src/feasmass, ratchet {MAX_SRC_LINES}"
