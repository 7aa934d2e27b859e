"""The library is pure standard library: no module imports a third-party
package, and the package declares no runtime dependency."""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qkdauth"


def imported_top_levels(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("qkdauth" if node.level else node.module.split(".")[0])
    return names


def test_modules_import_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        foreign = imported_top_levels(path) - set(sys.stdlib_module_names) - {"qkdauth"}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_project_declares_no_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_cold_import_loads_no_dataclasses_or_inspect():
    # the CLI runs as one short process per tag or verify, so import is most of its time
    code = ("import qkdauth, qkdauth.cli, qkdauth.poolfile, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
