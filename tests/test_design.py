"""Design rules of the package, checked on its source.

numpy is the one runtime dependency: the package imports only the
standard library, numpy and itself, and ``pyproject.toml`` declares
numpy alone.  And nothing is kept that nothing uses: every module-level
function and class of the package is named somewhere outside its own
definition, in ``src/``, ``tests/`` or ``perfbench/``.
"""

import ast
import re
import sys
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "domaintriage"
# a string that is a dotted name, as a hook table or a site list holds
# it; a docstring that mentions a name does not use it
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_package_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "domaintriage"}
    imported = set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - allowed == set()
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def _names_used(node: ast.AST) -> set[str]:
    """Every name used under ``node``: names, attributes, imported names
    and dotted-name strings."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.update(child.name.split("."))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                and _DOTTED_NAME.fullmatch(child.value):
            used.update(child.value.split("."))
    return used


def test_every_module_level_function_and_class_is_used():
    trees, uses = {}, {}  # uses: (path, statement index) -> names that statement uses
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for i, top in enumerate(trees[path].body):
                uses[path, i] = _names_used(top)
    # the number of module-level statements that use each name
    counts = Counter(name for names in uses.values() for name in names)
    unused = [f"{path.stem}.{top.name}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for i, top in enumerate(tree.body)
              if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and counts[top.name] == (top.name in uses[path, i])]
    assert unused == []
