"""The engine core (`permutations`, `qbg`, `chains`, `expansion`) stands alone."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import qpieri

PACKAGE = pathlib.Path(qpieri.__file__).parent
ENGINE = ("permutations", "qbg", "chains", "expansion")


def test_importing_the_package_loads_only_the_engine():
    code = "import sys, qpieri; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qpieri'))"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["qpieri"] + [f"qpieri.{name}" for name in sorted(ENGINE)]


def _package_imports(source: str) -> set[str]:
    """The qpieri modules a module of the package imports, anywhere in its body."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qpieri."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("qpieri.")}
    return {name.split(".")[0] for name in out}


def test_the_engine_imports_only_the_engine():
    # so neither `proofkit`, `verify`, `cli`, `classical`, `golden` nor `render`
    for name in ENGINE:
        imports = _package_imports((PACKAGE / f"{name}.py").read_text())
        assert imports <= set(ENGINE), (name, sorted(imports - set(ENGINE)))
