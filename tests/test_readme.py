"""The README's library example runs as written, so the documented API
and the docs cannot drift apart."""

import re
from pathlib import Path

from domaintriage.model import FeatureVector

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # one report line per member and one for the ensemble
    assert len(capsys.readouterr().out.splitlines()) == len(namespace["model"].members) + 1
    assert isinstance(namespace["features"], FeatureVector)
    assert namespace["label"] in (0, 1)
    assert 0.0 <= namespace["score"] <= 1.0
