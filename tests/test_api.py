"""The package's public surface: ``motivic_betti.__all__``."""

import ast
from pathlib import Path

import motivic_betti

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def demo_imports(path):
    """Names a demo imports from the package, read without running it."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "motivic_betti"
        for alias in node.names
    }


def test_star_import():
    namespace = {}
    exec("from motivic_betti import *", namespace)
    assert set(motivic_betti.__all__) <= set(namespace)


def test_every_name_resolves_once():
    names = motivic_betti.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(motivic_betti, name) is not None, name


def test_surface_stays_small():
    assert len(motivic_betti.__all__) <= 30


def test_demo_imports_are_public():
    assert len(DEMOS) == 5
    for demo in DEMOS:
        missing = demo_imports(demo) - set(motivic_betti.__all__)
        assert not missing, (demo.name, sorted(missing))
