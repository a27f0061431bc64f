"""Every module-level private name in the package has a reader.

A private name (``_x``, not a dunder) defined at the top level of a module
under ``src/quenchsim`` must be referenced somewhere in ``src/`` apart from
its own definition: by name, as an attribute, or in an import.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree: ast.Module):
    """(name, line) of each private name bound at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for tgt in node.targets for t in ast.walk(tgt)
                       if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno) for name in targets if _private(name))


def _references(tree: ast.Module) -> Counter:
    """How often each name is read, or imported, in a module."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_module_name_is_referenced():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("quenchsim/**/*.py"))}
    assert trees
    references = sum((_references(tree) for tree in trees.values()), Counter())
    unread = [f"{path.relative_to(SRC)}:{line} {name}"
              for path, tree in trees.items()
              for name, line in _definitions(tree)
              if references[name] == 0]
    assert unread == []
