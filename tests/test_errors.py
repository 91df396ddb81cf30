"""One exit-code rule for the command line.

Each ``DomainTriageError`` class carries its exit code: 2 for a
``UsageError`` (an unusable option, or a file an option names), 1 for
any other.  ``main`` maps those, and a path that cannot be opened, to
an ``error:`` line; every other exception is a bug and propagates.  A
``raise ValueError`` in the package therefore guards an invariant that
no input reaches, and the list below makes each such site a visible
choice.
"""

import ast
import datetime as dt
import importlib
import json
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import domaintriage
from domaintriage import ingest, learn, whois
from domaintriage.cli import main
from domaintriage.model import DomainTriageError, UsageError
from domaintriage.synthetic import make_benchmark

PACKAGE = Path(domaintriage.__file__).resolve().parent

# each function of the package that raises ValueError, once per raise;
# no input reaches these, so one that fires is a bug
INVARIANT_SITES = (
    "evaluation.ConfusionCounts.__post_init__",
    "evaluation.auc",
    "features.RegistrarLists.__post_init__",
    "features.TldLists.__post_init__",
    "features.extract_matrix",
    "ingest.FeedSpec.__post_init__",
    "ingest.write_features",
    "ingest.write_features",
    "ingest.write_features",
    "learn._knn_train",
    "learn.majority_vote",
    "learn.train_random_forest",
    "model.LabeledDataset.feature_matrix",
    "model.WhoisRecord.__post_init__",
    "model.WhoisRecord.__post_init__",
    "selection.correlation_matrix",
    "whois.WhoisCache.put",
    "whois._cache_entry",
)


def _value_error_sites() -> list[str]:
    """``module.qualname`` of the function around each ``raise ValueError``
    in the package's modules."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    sites.append(".".join([module] + scope))
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sites


def test_each_raise_value_error_is_a_listed_invariant():
    found, listed = Counter(_value_error_sites()), Counter(INVARIANT_SITES)
    new = sorted((found - listed).elements())
    assert not new, (
        f"new `raise ValueError` in {new}: raise a UsageError if input can reach it, "
        "or add the site to INVARIANT_SITES if it guards an invariant")
    assert not listed - found, f"listed sites no longer raise ValueError: {listed - found}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_carries_exit_code_1_or_2():
    for info in pkgutil.iter_modules(domaintriage.__path__):
        importlib.import_module(f"domaintriage.{info.name}")
    classes = {cls for cls in _subclasses(DomainTriageError)
               if cls.__module__.startswith("domaintriage.")}
    assert {ingest.SchemaMismatch, ingest.InvalidRange, learn.InvalidHyperparameter,
            whois.WhoisError, learn.CorruptPayload} <= classes
    for cls in classes:
        assert cls.exit_code in (1, 2), cls
        assert (cls.exit_code == 2) == issubclass(cls, UsageError), cls
    assert issubclass(UsageError, ValueError)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files the error cases read."""
    root = tmp_path_factory.mktemp("inputs")
    ingest.write_features(make_benchmark(60), str(root / "features.csv"), dt.date(2020, 5, 16))
    (root / "sel.json").write_text(json.dumps({"indices": [0, 4, 9]}))
    (root / "dataset.csv").write_text("domain,label,source,first_seen\nx.com,0,t,\n")
    (root / "words.txt").write_text("alpha\nbeta\n")
    (root / "upper.txt").write_text("alpha\nAbc\n")
    (root / "twice.txt").write_text("alpha\nbeta\nalpha\n")
    (root / "latin1.txt").write_bytes(b"caf\xe9\n")
    return root


def test_a_value_error_from_a_bug_propagates(inputs, monkeypatch):
    def train_ensemble(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(learn, "train_ensemble", train_ensemble)
    with pytest.raises(ValueError, match="^bug$"):
        main(["train", "--in", str(inputs / "features.csv"),
              "--selection", str(inputs / "sel.json"), "--out", str(inputs / "never.json")])


_TRAIN = "train --in {in}/features.csv --selection {in}/sel.json --out {out}"


# each UsageError that input reaches and no other CLI test covers:
# the arguments, with {in} the inputs and {out} the output path, and
# the error line
@pytest.mark.parametrize("argv, error", [
    (_TRAIN + " --split 1.5", "train_fraction must be in (0, 1), got 1.5"),
    ("select --in {in}/features.csv --threshold 0 --out {out}",
     "threshold must be in (0, 1], got 0.0"),
    (_TRAIN + " --models knn --knn-k 1000", "knn_k must be in 1..48"),
    (_TRAIN + " --models ,", "need at least one member model"),
    (_TRAIN + " --models rf,svm", "unknown model kind 'svm'"),
    ("whois-fetch --in {in}/dataset.csv --cache {out}",
     "proxy must look like socks5://host:port or http://host:port, got 'ftp://proxy:21'"),
    ("segment --word alphabeta --wordlist {in}/upper.txt",
     "{in}/upper.txt: line 2: 'Abc' is not lowercase a-z"),
    ("segment --word alphabeta --wordlist {in}/twice.txt",
     "{in}/twice.txt: line 3: duplicate word 'alpha'"),
    ("segment --word alphabeta --wordlist {in}/latin1.txt",
     "{in}/latin1.txt: 'utf-8' codec can't decode byte 0xe9 in position 3: "
     "invalid continuation byte"),
    ("segment --word alphabeta --wordlist {in}/words.txt --boost {in}/upper.txt",
     "{in}/upper.txt: line 2: 'Abc' is not lowercase a-z"),
    ("segment --word alphabeta --wordlist {in}/words.txt --boost {in}/latin1.txt",
     "{in}/latin1.txt: 'utf-8' codec can't decode byte 0xe9 in position 3: "
     "invalid continuation byte"),
], ids=["split", "threshold", "knn-k-above-rows", "no-models", "unknown-model", "proxy",
        "wordlist-case", "wordlist-duplicate", "wordlist-not-utf8", "boost-case",
        "boost-not-utf8"])
def test_usage_error_exits_2_with_one_line(inputs, tmp_path, capsys, monkeypatch, argv, error):
    monkeypatch.setenv(whois.PROXY_ENV_VAR, "ftp://proxy:21")
    # should the proxy get through, whois-fetch still stays on this host
    monkeypatch.setattr(whois, "DEFAULT_SERVERS", {"com": "127.0.0.1"})
    out_path = tmp_path / "out"
    fill = {"in": str(inputs), "out": str(out_path)}
    assert main([arg.format(**fill) for arg in argv.split()]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {error.format(**fill)}\n"
    assert not out_path.exists()
