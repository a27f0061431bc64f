"""Every module-level private name in the package has a reader, and no two
functions share a body.

A private name (``_x``, not a dunder) defined at the top level of a module
under ``src/quenchsim``, or as a method of a top-level class, must be
referenced somewhere in ``src/`` apart from its own definition: by name, as
an attribute, or in an import. Two functions or methods anywhere under
``src/quenchsim`` whose bodies are the same code, docstrings aside, are one
rule written twice.
"""

import ast
import pathlib
from collections import Counter, defaultdict

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _trees() -> dict:
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("quenchsim/**/*.py"))}
    assert trees
    return trees


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree: ast.Module):
    """(name, line) of each private name bound at the top level of a module,
    and of each private method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m.lineno) for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _private(m.name))
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


def _bodies(tree: ast.Module):
    """(code, name, line) of every function and method, nested ones too.

    The code is the AST dump of the body with its docstring dropped, so it
    ignores line numbers, comments and the function's name and arguments.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            yield ast.dump(ast.Module(body=body, type_ignores=[])), node.name, node.lineno


def test_every_private_module_name_is_referenced():
    trees = _trees()
    references = sum((_references(tree) for tree in trees.values()), Counter())
    unread = [f"{path.relative_to(SRC)}:{line} {name}"
              for path, tree in trees.items()
              for name, line in _definitions(tree)
              if references[name] == 0]
    assert unread == []


def test_no_two_functions_share_a_body():
    places = defaultdict(list)
    for path, tree in _trees().items():
        for code, name, line in _bodies(tree):
            places[code].append(f"{path.relative_to(SRC)}:{line} {name}")
    assert [where for where in places.values() if len(where) > 1] == []
