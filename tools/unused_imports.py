"""List the imported names that a module never reads.

Scans every ``.py`` file under ``src/rectfrac``, ``tests`` and
``tools``.  A name bound by ``import`` or ``from ... import`` counts as
read when the module loads or deletes it anywhere (at any scope), uses
it inside a quoted annotation, or lists it in ``__all__``; imports
``from __future__`` are ignored.  Scopes are not told apart: a name
read in one function covers an import of the same name in another.

Run from anywhere: ``python3 tools/unused_imports.py``.  It prints one
``<path>:<line>: <name>`` line per unread import and exits 1 if there
is any, 0 otherwise.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/rectfrac", "tests", "tools")


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


def main() -> int:
    found = 0
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused(path):
                print(f"{path.relative_to(ROOT)}:{line}: {name}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
