"""Every public name has a user outside the tests.

Each name in an asdinv module's `__all__` must be read (as a name or an
attribute) in a non-test file under src/, scripts/ or perfbench/; its own
definition and its `__all__` entry do not count, and neither does an
import. Each field of a dataclass in asdinv must be read as an attribute
in such a file. Every exception class of `errors` must be raised or caught
in src/.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asdinv"
PROGRAM_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(path: Path) -> list[str]:
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _program_nodes():
    for path in (path for folder in PROGRAM_DIRS for path in sorted(folder.rglob("*.py"))):
        yield from ast.walk(_tree(path))


@functools.cache
def _read_names() -> frozenset[str]:
    names = set()
    for node in _program_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return frozenset(names)


@functools.cache
def _read_attributes() -> frozenset[str]:
    return frozenset(node.attr for node in _program_nodes()
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _dataclass_fields(path: Path) -> list[str]:
    """"Class.field" for each annotated field of each dataclass in the file."""
    return [f"{node.name}.{stmt.target.id}" for node in ast.walk(_tree(path))
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _exception_names(node) -> list[str]:
    """Class names in a `raise` target or an `except` clause."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _exception_names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if _exported(path))


def test_modules_found():
    assert {"analysis", "asd_design", "controller_rt", "numlin", "plants", "sim"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_user(module):
    unused = sorted(set(_exported(PACKAGE / f"{module}.py")) - _read_names())
    assert unused == [], f"asdinv.{module} exports names that no program file reads"


def test_dataclasses_found():
    fields = [f for path in PACKAGE.glob("*.py") for f in _dataclass_fields(path)]
    assert {"UncertainPlant.meta", "CertificateSeries.V", "Scenario.raw"} <= set(fields)


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_dataclass_field_is_read(module):
    fields = _dataclass_fields(PACKAGE / f"{module}.py")
    unread = [f for f in fields if f.split(".")[1] not in _read_attributes()]
    assert unread == [], f"asdinv.{module} has dataclass fields that no program file reads"


def test_every_error_is_raised_or_caught():
    errors = [node.name for node in _tree(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)]
    seen = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                seen.update(_exception_names(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                seen.update(_exception_names(node.type))
    assert errors and sorted(set(errors) - seen) == []
