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
