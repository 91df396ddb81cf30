"""The model payload keeps what the benchmark harness reads from it.

``perfbench/run.py`` decodes a trained model's JSON itself: it looks the
members up by ``kind``, counts ``rf.trees`` with a walk that recurses on
a tree's ``"l"`` key, and sizes the ``rf``, ``dt`` and ``knn`` members
with ``json.dumps``.  A model format that breaks one of these would
crash a traced benchmark run, so it fails here first.
"""

import json

import numpy as np

from domaintriage.learn import serialize_model, train_ensemble


def test_payload_has_what_the_benchmark_reads():
    rng = np.random.default_rng(5)
    y = np.array([0, 1] * 40)
    x = rng.normal(size=(80, 17)) + y[:, None]
    payload = json.loads(serialize_model(train_ensemble(x, y, [0, 3, 7], n_trees=4)))
    assert all("kind" in m for m in payload["members"])
    members = {m["kind"]: m for m in payload["members"]}
    assert {"rf", "dt", "knn"} <= members.keys()
    trees = members["rf"]["trees"]
    assert isinstance(trees, list) and len(trees) == 4
    assert all(isinstance(t, dict) and "l" not in t for t in trees)
    for member in members.values():
        json.dumps(member, sort_keys=True, separators=(",", ":"))
