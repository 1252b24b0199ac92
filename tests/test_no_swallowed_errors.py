"""No library code catches an error and carries on: every `except` handler
in src/hyperadapt ends in a `raise`, so an error on any utterance or input
file reaches cli.main, which maps it to an exit code.
"""

import ast
import pathlib

LIBRARY = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperadapt"
# cli.main maps errors to exit codes; cli._set_dotted keeps a --set value
# that is not JSON as text
ALLOWED = {"cli.main", "cli._set_dotted"}


def _handlers(node, owner):
    """(owner, handler) of every except handler under node; the owner is
    `module.name` of the outermost function or method around it."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner}.{child.name}" if "." not in owner else owner
        if isinstance(child, ast.ExceptHandler):
            yield owner, child
        yield from _handlers(child, inner)


def test_every_library_handler_ends_in_a_raise():
    swallowing = [(owner, handler.lineno)
                  for path in sorted(LIBRARY.glob("*.py"))
                  for owner, handler in _handlers(ast.parse(path.read_text(), str(path)),
                                                  path.stem)
                  if not isinstance(handler.body[-1], ast.Raise)]
    unexpected = [f"{owner} (line {line})" for owner, line in swallowing if owner not in ALLOWED]
    assert not unexpected, "handlers that do not end in a raise: " + ", ".join(unexpected)
    stale = sorted(ALLOWED - {owner for owner, _ in swallowing})
    assert not stale, "allowed handlers that now raise: " + ", ".join(stale)
