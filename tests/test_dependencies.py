"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
import tomllib
from importlib.metadata import packages_distributions
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _imported_top_level_modules() -> set:
    names = set()
    for path in (ROOT / "src" / "bandflow").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {_normalized(re.match(r"[A-Za-z0-9_.-]+", req).group())
                for req in project["dependencies"]}
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"bandflow"}
    assert third_party >= {"numpy", "orjson"}
    dists = packages_distributions()
    missing = {m for m in third_party
               if not {_normalized(d) for d in dists.get(m, [m])} & declared}
    assert not missing, f"imported but not in pyproject.toml dependencies: {sorted(missing)}"
