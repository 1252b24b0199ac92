"""Every module-level function and class of the library has a production
caller: code in src/, perfbench/ or benchmarks/ that names it outside its own
definition. Tests do not count, so a routine only tests reach fails here and
belongs in tests/oracles.py or nowhere.

A name counts as referenced by an attribute (`ad.linear`), an import
(`from .model import TTSModel`), a string equal to it (perfbench looks some
attributes up by name), or, within its own module, a plain name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hyperadapt"
PRODUCTION = [ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks"]
# reached from outside Python: pyproject.toml's console script
ENTRY_POINTS = {"cli.main"}


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(tree):
    """(qualified, local): the nodes that name something any module may
    reach, and the plain-name loads, each keyed by the name."""
    qualified, local = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            qualified.setdefault(node.attr, []).append(node)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                qualified.setdefault(alias.name, []).append(node)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            qualified.setdefault(node.value, []).append(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            local.setdefault(node.id, []).append(node)
    return qualified, local


def _referenced(definition, path, refs):
    for other, (qualified, local) in refs.items():
        nodes = qualified.get(definition.name, [])
        if other == path:
            nodes = [n for n in nodes + local.get(definition.name, [])
                     if not definition.lineno <= n.lineno <= definition.end_lineno]
        if nodes:
            return True
    return False


def test_every_library_definition_has_a_production_caller():
    trees = {path: ast.parse(path.read_text(), str(path))
             for base in PRODUCTION for path in sorted(base.rglob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = [f"{path.stem}.{d.name} (line {d.lineno})"
              for path in sorted(LIBRARY.glob("*.py"))
              for d in _definitions(trees[path])
              if f"{path.stem}.{d.name}" not in ENTRY_POINTS and not _referenced(d, path, refs)]
    assert not unused, "no production code references: " + ", ".join(unused)
