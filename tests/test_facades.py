"""The package facades: the twelve ``__init__`` modules resolve their
public names on first use (PEP 562), each from one table that maps a
defining module to the names it gives the package."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

FACADES = (
    "repro",
    "repro.adversaries",
    "repro.analysis",
    "repro.blockings",
    "repro.core",
    "repro.experiments",
    "repro.graphs",
    "repro.lint",
    "repro.obs",
    "repro.paging",
    "repro.reliability",
    "repro.service",
)

#: Run in a fresh interpreter, so each name is first looked up through
#: the facade's ``__getattr__`` (or ``from … import *``), not read from
#: a value an earlier test left in the facade's globals.
CONTRACT = """
import importlib, sys
for package in sys.argv[1:]:
    facade = importlib.import_module(package)
    table = facade._EXPORTS
    names = [name for names in table.values() for name in names]
    assert sorted(facade.__all__) == sorted(names), package
    assert set(facade.__all__) <= set(dir(facade)), package
    star = {}
    exec(f"from {package} import *", star)
    assert set(facade.__all__) <= set(star), (package, set(facade.__all__) - set(star))
    for module, exported in table.items():
        for name in exported:
            value = getattr(importlib.import_module(module), name)
            assert getattr(facade, name) is value, (package, name)
            assert star[name] is value, (package, name)
    try:
        facade.no_such_name
    except AttributeError as exc:
        assert str(exc) == f"module {package!r} has no attribute 'no_such_name'", exc
    else:
        raise AssertionError(f"{package}.no_such_name resolved")
"""


def static_listing(package: str) -> dict[str, tuple[str, ...]]:
    """What a type checker sees the facade re-export: each
    ``from M import X as X`` under its ``if TYPE_CHECKING:``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    listing: dict[str, tuple[str, ...]] = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not (isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"):
            continue
        for statement in node.body:
            if isinstance(statement, ast.ImportFrom) and statement.module.startswith("repro"):
                names = [(alias.name, alias.asname) for alias in statement.names]
                assert all(name == asname for name, asname in names), path
                listing[statement.module] = tuple(name for name, _ in names)
    return listing


def module_names() -> list[str]:
    """Every module under ``src/repro``, packages included."""
    names = []
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return sorted(names)


def test_facade_contract():
    """Every facade name is the defining module's object, ``dir()`` and
    ``from pkg import *`` cover ``__all__``, an unknown name is an
    ``AttributeError`` naming the package, and the runtime table names
    what the ``TYPE_CHECKING`` imports name, module by module."""
    for package in FACADES:
        facade = importlib.import_module(package)
        assert static_listing(package) == facade._EXPORTS, package
    done = subprocess.run(
        [sys.executable, "-c", CONTRACT, *FACADES],
        capture_output=True, text=True, env=ENV,
    )
    assert done.returncode == 0, done.stderr
    packages = {name for name in module_names() if SRC.joinpath(*name.split(".")).is_dir()}
    assert packages == set(FACADES)


def test_every_module_imports_first_with_warnings_as_errors():
    """Each module imports as the first import of a fresh interpreter
    under ``-W error``: an import cycle that only one entry order
    exposes fails here, whichever module a program starts from."""

    def first_import(module: str) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            [sys.executable, "-W", "error", "-c", f"import {module}"],
            capture_output=True, text=True, env=ENV,
        )

    modules = module_names()
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(first_import, modules))
    failed = {
        module: done.stderr.strip().splitlines()[-1]
        for module, done in zip(modules, results)
        if done.returncode != 0
    }
    assert not failed
