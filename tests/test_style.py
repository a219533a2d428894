"""Source layout rules that hold for every module of the package."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "covspec"


def test_source_lines_fit_in_99_columns():
    long = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 99
    ]
    assert long == []


def test_source_stays_below_the_line_baseline():
    # ROADMAP aim 2: net source lines stay at or below the baseline of 2,689.
    total = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert total <= 2689


def test_every_export_exists_and_every_package_import_is_exported():
    # A deletion can leave a name in a module's __all__, or imported by the package
    # from a module that no longer exports it.
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"covspec.{path.stem}")
            assert [name for name in module.__all__ if not hasattr(module, name)] == [], path.name
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"covspec.{node.module}").__all__
            assert [a.name for a in node.names if a.name not in exported] == [], node.module
