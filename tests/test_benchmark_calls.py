"""The benchmark harness calls the package with arguments it accepts.

Every call in ``perfbench/*.py`` whose callee was imported from
``domaintriage`` is resolved to the package's function, and its
positional count and keyword names are bound to that function's
signature.  A call left behind by a removed or renamed parameter then
fails here rather than inside a benchmark run.  The files are read with
``ast``, so the harness is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names(tree: ast.Module) -> dict[str, str]:
    """Each name a module binds by importing from ``domaintriage``, with
    the dotted path it stands for."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "domaintriage":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "domaintriage":
                    # ``import domaintriage.cli`` binds ``domaintriage``
                    names[alias.asname or "domaintriage"] = alias.name if alias.asname else "domaintriage"
    return names


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _resolve(path: str):
    """The object a dotted path into ``domaintriage`` names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


def _package_calls() -> list[tuple[str, str, ast.Call]]:
    """(where, dotted callee, call) of each call into the package."""
    calls = []
    for file in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        names = _imported_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _dotted(node.func)
            if parts and parts[0] in names:
                callee = ".".join([names[parts[0]], *parts[1:]])
                calls.append((f"{file.name}:{node.lineno}", callee, node))
    return calls


def test_benchmark_calls_bind_to_package_signatures():
    calls = _package_calls()
    callees = [callee for _, callee, _ in calls]
    # the harness's main entry points are among the calls checked
    for expected in ("domaintriage.synthetic.make_benchmark", "domaintriage.learn.train_ensemble",
                     "domaintriage.learn.ensemble_scores", "domaintriage.segment.LanguageModel.default"):
        assert expected in callees
    for where, callee, call in calls:
        fn = _resolve(callee)
        assert callable(fn), f"{where}: {callee} is not callable"
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                kw.arg is None for kw in call.keywords):
            continue  # *args or **kwargs: the count is not known from the source
        try:
            inspect.signature(fn).bind(*call.args, **{kw.arg: None for kw in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {ast.unparse(call)} does not fit "
                                 f"{callee}{inspect.signature(fn)}: {exc}") from None
