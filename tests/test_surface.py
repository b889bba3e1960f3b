"""The library surface is what its callers use: every name that
``devlat/__init__.py`` exports is read by another library module, by the
benchmark harness or the tools, or is named in the README. The state a
process keeps between calls is declared here too."""

import ast
import re
from pathlib import Path

import pytest

import devlat

PACKAGE = Path(devlat.__file__).parent
ROOT = PACKAGE.parents[1]


def _exports() -> dict:
    """``{name: path of its module}`` of every name the package imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name: PACKAGE / f"{node.module}.py" for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_has_a_caller_or_a_readme_entry():
    readers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    readers += [*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py"), ROOT / "README.md"]
    texts = {path: path.read_text() for path in readers}
    exports = _exports()
    assert "solve_sharing" in exports
    unread = sorted(name for name, home in exports.items()
                    if not any(re.search(rf"\b{name}\b", text)
                               for path, text in texts.items() if path != home))
    assert unread == []


#: the method names by which a function changes a module-level container in place
_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear",
             "append", "extend", "insert", "remove", "add", "discard"}


def _process_state(tree: ast.Module) -> set:
    """The module-level names of ``tree`` that a function rebinds through
    ``global`` or changes in place: by item assignment or deletion, or by
    calling one of ``_MUTATORS`` on it."""
    assigned = {target.id for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.update(node.names)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                found.add(getattr(node.value, "id", None))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                found.add(getattr(node.func.value, "id", None))
    return found & assigned


def test_every_process_level_cache_is_declared():
    """What ``devlat`` keeps between calls in one process: the CLI's latest
    lattice, the writer's row-number texts and the renderer's skeletons.
    A new process-level cache fails this test until it is added here."""
    state = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _process_state(ast.parse(path.read_text()))}
    assert state == {"cli._latest", "jsonio._ROW_TEXTS", "jsonio._SKELETONS"}


@pytest.mark.parametrize("body, changes", [
    ("    global X\n    X = 1", True), ("    X[1] = 2", True), ("    X[1] += 2", True),
    ("    del X[1]", True), ("    X.update(a=1)", True), ("    X.pop(1, None)", True),
    ("    X.setdefault(1, 2)", True), ("    X.clear()", True),
    ("    return X[1]", False), ("    return X.get(1)", False),
    ("    Y = {}\n    Y[1] = 2", False), ("    X.y[1] = 2", False),
    # a change made at import, outside any function, keeps no state between calls
    ("    pass\n\n\nX[1] = 2\nX.update(a=1)", False),
])
def test_the_process_state_guard_sees_every_change(body, changes):
    source = f"X = {{}}\n\n\ndef f():\n{body}\n"
    assert _process_state(ast.parse(source)) == ({"X"} if changes else set())
