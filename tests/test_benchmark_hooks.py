"""The trace hooks of the benchmark harness name real attributes.

``perfbench/run.py`` wraps each ``(owner, attr)`` pair of its
``_install_hooks`` loop in a timing span; a pair that no longer resolves
is skipped at run time and its per-layer metrics read 0.  The pairs are
read from the source with ``ast``, so the harness is not imported.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _hook_pairs() -> list[tuple[str, str]]:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_install_hooks")
    loop = next(node for node in ast.walk(install) if isinstance(node, ast.For))
    return [(ast.unparse(hook.elts[0]), ast.literal_eval(hook.elts[1]))
            for hook in loop.iter.elts]


def test_benchmark_hook_targets_exist():
    pairs = _hook_pairs()
    assert pairs
    for owner, attr in pairs:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"domaintriage.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert hasattr(obj, attr), f"{owner}.{attr} is not in domaintriage"
