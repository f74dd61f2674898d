"""The repository scripts under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


unused_imports = _load("unused_imports")

SAMPLE = '''from __future__ import annotations
import os, os.path, sys as system, json
from math import pi, tau as turn, e
__all__ = ["e"]


def f(x: "pi") -> None:
    del json
    return os.getcwd()
'''


def test_unused_imports_reports_only_unread_names(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert unused_imports.unused(path) == [(2, "system"), (3, "turn")]


def test_unused_imports_finds_none_in_the_repository(capsys):
    assert unused_imports.main() == 0
    assert capsys.readouterr().out == ""


DEFINING = '''import functools as _functools
_READ = 1
_UNREAD: int = 2
__version__ = "0"
_A, _B = 3, 4
_STORED = 5


def _called():
    return _READ


def _by_attribute():
    pass


class _Imported:
    pass


class _Unread:
    _method = None


def _recursive(x):
    return _recursive(x)
'''

READING = '''from sample import _Imported
import sample
sample._by_attribute()
_called()
_STORED = None
'''


def test_unread_private_reports_only_unread_definitions(tmp_path):
    sample, reader = tmp_path / "sample.py", tmp_path / "reader.py"
    sample.write_text(DEFINING)
    reader.write_text(READING)
    found = unused_imports.unread_private([sample], [sample, reader])
    # an import is not a definition and a tuple target is skipped; a
    # store elsewhere is no read, and a function reading itself is one
    assert [(line, name) for _, line, name in found] == [
        (3, "_UNREAD"), (6, "_STORED"), (21, "_Unread")]
