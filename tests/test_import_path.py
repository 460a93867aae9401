"""Import-path contract: what importing the package costs, and what may import what.

scipy (~1.4 s to import) and networkx have no place on the import path:
scipy loads on the first MILP solve or fig-5 correlation only. The data
plane (``repro.preprocessing``, ``repro.ingest``) must not import the
control plane (``repro.core``, ``repro.milp``, ``repro.experiments``)
when it loads. Ingest shares the data plane's batch codec
(``repro.preprocessing.shm``) rather than reaching into the multi-core
engine, and no module imports a kernel library (numba, numexpr): the
``ops.py`` kernels are the only kernel table.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
HEAVY_LIBRARIES = ("scipy", "networkx")
DATA_PLANE = ("repro.preprocessing", "repro.ingest")
CONTROL_PLANE = ("repro.core", "repro.milp", "repro.experiments")
KERNEL_LIBRARIES = ("numba", "numexpr")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _load_time_statements(body: list[ast.stmt]):
    """Statements that run when the module is imported.

    Descends into ``if``/``try``/``with``/class bodies, but not into
    function bodies or ``if TYPE_CHECKING:`` blocks.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                yield from _load_time_statements(node.body)
            yield from _load_time_statements(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _load_time_statements(block)
            for handler in node.handlers:
                yield from _load_time_statements(handler.body)
        elif isinstance(node, (ast.With, ast.ClassDef)):
            yield from _load_time_statements(node.body)


def _imported_names(path: Path, nodes) -> set[str]:
    """Absolute names of the modules the import statements in ``nodes`` import."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module
            names.add(prefix)
            # ``from pkg import sub`` may import the submodule ``pkg.sub``.
            names.update(f"{prefix}.{alias.name}" for alias in node.names)
    return names


def _load_time_imports(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports when it loads."""
    return _imported_names(path, _load_time_statements(ast.parse(path.read_text()).body))


def _all_imports(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports anywhere, functions included."""
    return _imported_names(path, ast.walk(ast.parse(path.read_text())))


def _within(name: str, roots: tuple[str, ...]) -> bool:
    return any(name == root or name.startswith(root + ".") for root in roots)


def test_module_level_imports_respect_layering():
    heavy, layering = [], []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = _module_name(path)
        for name in sorted(_load_time_imports(path)):
            if _within(name, HEAVY_LIBRARIES):
                heavy.append(f"{module} imports {name}")
            if _within(module, DATA_PLANE) and _within(name, CONTROL_PLANE):
                layering.append(f"{module} imports {name}")
    assert not heavy, "import these inside the function that uses them: " + "; ".join(heavy)
    assert not layering, "the data plane imports the control plane: " + "; ".join(layering)


def test_ingest_skips_the_engine_and_no_module_imports_a_kernel_library():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = _module_name(path)
        for name in sorted(_all_imports(path)):
            if _within(name, KERNEL_LIBRARIES):
                offenders.append(f"{module} imports {name}")
            if _within(module, ("repro.ingest",)) and _within(
                name, ("repro.preprocessing.parallel",)
            ):
                offenders.append(f"{module} imports {name}; use repro.preprocessing.shm")
    assert not offenders, "; ".join(offenders)


def test_cli_import_and_plan_load_no_scipy(tmp_path):
    """Importing the CLI and planning plan 0 (no MILP solve) loads no scipy/networkx."""
    code = (
        "import contextlib, io, sys\n"
        "import repro, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = repro.cli.main(['plan', '--plan', '0', '--gpus', '2', '--batch', '1024'])\n"
        "assert code == 0, code\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in %r)))\n"
        % (HEAVY_LIBRARIES,)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT.parent), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", f"loaded: {result.stdout.strip()}"
