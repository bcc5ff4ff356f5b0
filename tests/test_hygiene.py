"""Every package module uses each name it imports, and the package reads
each private name it defines.

``__init__.py`` is skipped by the import check: it imports names only to
re-export them.  A name counts as used when it is read as code; one that
appears only inside a quoted annotation does not.  A private class,
function, method or module-level name counts as used when the package reads
its name anywhere, as a variable or as an attribute; assigning it is not a
read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cend"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        f"{name} (line {line})"
        for name, line in sorted(_imported(tree).items())
        if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _read_names(tree: ast.Module) -> set[str]:
    """Every name read as a variable or looked up as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _private_defs(tree: ast.Module):
    """(qualified name, name, line) of each private module-level class,
    function or assigned name and each private method of a module-level
    class; dunders are public."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            defs = [("", node.name, node)]
        elif isinstance(node, ast.ClassDef):
            defs = [("", node.name, node)] + [
                (f"{node.name}.", d.name, d) for d in node.body if isinstance(d, funcs)
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs = [("", t.id, t) for t in targets if isinstance(t, ast.Name)]
        else:
            defs = []
        for owner, name, d in defs:
            if name.startswith("_") and not name.startswith("__"):
                yield owner + name, name, d.lineno


def test_package_uses_every_private_function():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_read_names, trees.values()))
    unused = [
        f"{module}: {qual} (line {line})"
        for module, tree in trees.items()
        for qual, name, line in _private_defs(tree)
        if name not in used
    ]
    assert not unused, f"private names nothing in the package reads: {unused}"
