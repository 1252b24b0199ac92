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


# A parameter with a default that no production call passes is an option
# nothing varies. Only these may stay: the L1-loss gradient tests need a
# smaller finite-difference step at the kink of |x|.
OPTION_ALLOWLIST = {"autodiff.grad_check(eps)"}


def _checked_functions(path, tree):
    """(label, call name, parameter names, defaulted names, is __init__) of
    every module-level function, class __init__ (called by the class name)
    and public method of a library module; self and cls are left out."""
    def entry(label, name, fn, bound):
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args][1 if bound else 0:]
        defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        return label, name, positional, defaulted, fn.name == "__init__"

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield entry(f"{path.stem}.{node.name}", node.name, node, False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    name = node.name
                elif item.name.startswith("_"):
                    continue
                else:
                    name = item.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                yield entry(f"{path.stem}.{node.name}.{item.name}", name, item, not static)


def _uses(tree):
    """(calls, values): the Call nodes keyed by the name they call (a plain
    name or an attribute), and the names loaded other than as the callee of
    a call or a class in an isinstance/issubclass check."""
    calls, skip = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                calls.setdefault(name, []).append(node)
                skip.add(id(func))
            if name in ("isinstance", "issubclass"):
                skip.update(id(n) for arg in node.args[1:] for n in ast.walk(arg))
    values = set()
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            values.add(node.id)
        elif isinstance(node, ast.Attribute):
            values.add(node.attr)
    return calls, values


def _passes(call, positional, param):
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return param in positional and len(call.args) > positional.index(param)


def test_every_default_is_passed_by_production():
    """Every parameter with a default is passed by some production call of
    that name (by keyword, by position or through **kwargs). A function
    (not a class) referenced without a call, as a value, an alias or a
    functools.partial argument, counts as passing all its parameters."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for base in PRODUCTION for path in sorted(base.rglob("*.py"))}
    calls, values = {}, set()
    for tree in trees.values():
        c, v = _uses(tree)
        for name, nodes in c.items():
            calls.setdefault(name, []).extend(nodes)
        values |= v
    unpassed = []
    for path in sorted(LIBRARY.glob("*.py")):
        for label, name, positional, defaulted, init in _checked_functions(path, trees[path]):
            if label in ENTRY_POINTS or (name in values and not init):
                continue
            for param in defaulted:
                if not any(_passes(c, positional, param) for c in calls.get(name, [])):
                    unpassed.append(f"{label}({param})")
    unexpected = sorted(set(unpassed) - OPTION_ALLOWLIST)
    assert not unexpected, "defaults no production call passes: " + ", ".join(unexpected)
    stale = sorted(OPTION_ALLOWLIST - set(unpassed))
    assert not stale, "allowlisted defaults that production now passes: " + ", ".join(stale)
