"""The package's layering: which parts of ``repro`` may import which.

Every module under ``src/repro`` is parsed, and every import in it is
checked, those inside functions and ``TYPE_CHECKING`` blocks included:

* ``db`` imports none of ``learn``, ``core``, ``frontend``, ``service``
  or ``cli``;
* ``learn`` imports none of ``core``, ``frontend``, ``service`` or ``cli``;
* ``core`` imports none of ``frontend``, ``service`` or ``cli``;
* ``service`` does not import ``cli`` (the shell drives the service);
* ``obs`` imports no ``repro`` module but ``errors`` (and its own);
* no module imports test code (``tests``, ``reference``, ``conftest``).

``core.maskset`` reading ``learn.split_index`` is the allowed direction.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

FORBIDDEN = {
    "db": {"learn", "core", "frontend", "service", "cli"},
    "learn": {"core", "frontend", "service", "cli"},
    "core": {"frontend", "service", "cli"},
    "service": {"cli"},
}
OBS_ALLOWED = {"obs", "errors"}
TEST_CODE = {"tests", "reference", "conftest"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> list[tuple[int, str]]:
    """``(line, absolute dotted name)`` of everything ``path`` imports.

    ``from X import a`` yields ``X.a`` as well as ``X``, so that
    ``from .. import errors`` names ``repro.errors``.
    """
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[: len(base) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            found.append((node.lineno, target))
            found += [(node.lineno, f"{target}.{alias.name}") for alias in node.names]
    return found


def _layer(dotted: str) -> str | None:
    """The ``repro`` sub-package or module a dotted name lies in."""
    parts = dotted.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else None


def _violations() -> list[str]:
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        layer = _layer(module)
        for line, target in _imports(path):
            where = f"{path.relative_to(SRC.parent)}:{line} imports {target}"
            if target.split(".")[0] in TEST_CODE or target.startswith("test_"):
                problems.append(f"{where} (test code)")
            imported = _layer(target)
            if imported is None:
                continue
            if imported in FORBIDDEN.get(layer, ()):
                problems.append(f"{where} ({layer} may not import {imported})")
            if layer == "obs" and imported not in OBS_ALLOWED:
                problems.append(f"{where} (obs imports only repro.errors)")
    return problems


def test_no_module_imports_against_the_layering():
    assert _violations() == []


def test_the_parser_sees_relative_and_function_level_imports():
    """A parser that missed imports would pass the check vacuously."""
    preprocessor = {
        target for __, target in _imports(SRC / "core" / "preprocessor.py")
    }
    # Relative, at module level, and inside ``split_index()``.
    assert "repro.core.influence" in preprocessor
    assert "repro.learn.split_index" in preprocessor
    maskset = {target for __, target in _imports(SRC / "core" / "maskset.py")}
    assert "repro.learn.split_index" in maskset
    package = {target for __, target in _imports(SRC / "obs" / "__init__.py")}
    assert any(target.startswith("repro.obs.") for target in package)
    assert _layer("repro.core.maskset") == "core"
    assert _layer("repro.errors") == "errors"
