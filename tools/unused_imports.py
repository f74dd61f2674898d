"""List imported names that a module never reads, and unread private names.

Imports: scans every ``.py`` file under ``src/rectfrac``, ``tests`` and
``tools``.  A name bound by ``import`` or ``from ... import`` counts as
read when the module loads or deletes it anywhere (at any scope), uses
it inside a quoted annotation, or lists it in ``__all__``; imports
``from __future__`` are ignored.  Scopes are not told apart: a name
read in one function covers an import of the same name in another.

Private names: a module-level function, class or constant of
``src/rectfrac`` whose name starts with one underscore (dunder names
aside) must be read somewhere under ``src/rectfrac``, ``tests``,
``tools`` or ``bench``.  A read is a loaded ``Name``, an attribute of
that name on any object, or a ``from ... import`` of it; names are
matched across files, not per module.

Run from anywhere: ``python3 tools/unused_imports.py``.  It prints one
``<path>:<line>: <name>`` line per unread import or private name and
exits 1 if there is any, 0 otherwise.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/rectfrac", "tests", "tools")
READERS = (*SCANNED, "bench")


def imported(tree: ast.Module):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(node: ast.AST):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + \
                [args.vararg, args.kwarg]:
            if arg is not None:
                yield arg.annotation
        yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def read_names(tree: ast.AST) -> set[str]:
    """Names the module loads or deletes, quotes in annotations or exports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and \
                not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for ann in _annotations(node):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= read_names(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    return sorted((line, name) for name, line in imported(tree)
                  if name not in read)


def private_definitions(tree: ast.Module):
    """``(name, line)`` of each private module-level def, class, constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno


def references(tree: ast.AST) -> set[str]:
    """Names a file reads: loaded names, attributes and from-imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_private(defining, reading) -> list[tuple[Path, int, str]]:
    """The private definitions in ``defining`` no file of ``reading`` reads."""
    read = set()
    for path in reading:
        read |= references(ast.parse(path.read_text(), filename=str(path)))
    return [(path, line, name) for path in defining
            for name, line in private_definitions(
                ast.parse(path.read_text(), filename=str(path)))
            if name not in read]


def _files(tops) -> list[Path]:
    return [p for top in tops for p in sorted((ROOT / top).rglob("*.py"))]


def main() -> int:
    found = [(path, line, name) for path in _files(SCANNED)
             for line, name in unused(path)]
    found += unread_private(_files(SCANNED[:1]), _files(READERS))
    for path, line, name in found:
        print(f"{path.relative_to(ROOT)}:{line}: {name}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
