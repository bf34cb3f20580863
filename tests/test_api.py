"""The package's public surface: ``motivic_betti.__all__``."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motivic_betti

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# sha256 of each demo's stdout, taken before motivic.py folded L^(-k) into
# the numerator and built the congruence chain's classes once
DEMO_STDOUT_SHA256 = {
    "01_hilbert_scheme_tables.py":
        "7b421def4d1ed187473f018e4d978ee3281918de357968aaa13be74c1309ed54",
    "02_stable_range.py":
        "f02ba13077ea3755d3a97e68ceb07322f1891b28e9d933ced13f1ae971fe3f5a",
    "03_generators_and_relations.py":
        "9f7584eb44b46bd5ca250ae6affc76ebb998b94fc6c846f740ec0d6c298a9bad",
    "04_moduli_betti_tables.py":
        "74e627a87da8b17212eb14a6b3e2b6fb55edd0d0f80545734d5a4405fc916482",
    "05_congruence_audit.py":
        "29140fab351e56a3d76afdd22197a702a44c663c30524f7bc44c12f1438822b2",
}


def package_imports(path):
    """Names a file imports from the package or its modules, read by AST
    without running it."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "motivic_betti")
        for alias in node.names
    }


def test_every_public_name_has_a_caller():
    # the CLI, the demos and the acceptance gate are the package's users
    users = [ROOT / "src" / "motivic_betti" / "cli.py", ROOT / "tests" / "test_acceptance.py"]
    imported = set().union(*(package_imports(path) for path in users + DEMOS))
    unused = set(motivic_betti.__all__) - imported
    assert not unused, sorted(unused)


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
        missing = package_imports(demo) - set(motivic_betti.__all__)
        assert not missing, (demo.name, sorted(missing))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_stdout_is_pinned(demo, tmp_path):
    # run from an empty directory, importing the package under test
    src = str(Path(motivic_betti.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[demo.name]
