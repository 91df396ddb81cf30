"""Benchmark of the domaintriage pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload clean-cold --seed 1 --seconds 60 --trace 0

It generates the workload's input files from the seed, starts the stub
WHOIS service, and drives the real program in-process through
``domaintriage.cli.main`` in rounds: ingest, whois-fetch, extract,
select, train, evaluate, predict (batch and single) and segment.
``--seconds`` bounds the whole run, input generation and checks included:
a round starts only if it and the checks still fit, and there are always
at least two rounds.
Every run checks the outputs; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread: the program's hot loops are numpy element-wise work
# and small matmuls, and a thread pool on a shared machine only adds noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

from clock import Clock  # noqa: E402
from pipeline import Operator, PipelineError  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 7
TRIAGE_BATCH = {"clean-cold": 400, "noisy-warm": 16}
TRIAGE_MIN_S = 2.0
PREDICT_ONE_MIN_S = 1.2
PREDICT_ONE_MIN_N = 3
SEGMENT_MIN_S = 0.75
WHOIS_WARM_MIN_S = 0.5
# repeated short operations are timed in blocks of at least this long,
# each block bracketed by calibration (see clock.py)
BLOCK_S = 0.25
EXHAUSTIVE_MAX_LEN = 12
EXHAUSTIVE_MAX_LABELS = 40
# held-out domains scored through `predict` to cross-check the ensemble;
# None means all of them.  On noisy-warm a single-domain prediction
# costs ~0.1 s (every tree node is visited), so a stratified sample.
HELDOUT_PREDICT = {"clean-cold": None, "noisy-warm": 5}
# (classifiers, min ACC, min AUC) on the held-out rows.  clean-cold must
# meet the acceptance bar; on noisy-warm every classifier measured ACC
# 0.918+ and AUC 0.929+, while trees that take the worst split instead of
# the best scored ACC 0.85 (rf, dt) and 0.87 (ensemble)
QUALITY_FLOOR = {"clean-cold": (("rf", "ensemble"), 0.95, 0.98),
                 "noisy-warm": (("rf", "dt", "knn", "lr", "ensemble"), 0.90, 0.90)}
# time kept free for the checks after the last round (they took about
# 6 s on clean-cold and 5 s on noisy-warm)
CHECK_RESERVE_S = 6.5

PROBE = """\
import domaintriage.cli
from domaintriage.features import default_registrar_lists, default_tld_lists
from domaintriage.segment import LanguageModel
default_tld_lists()
default_registrar_lists()
LanguageModel.default()
"""

COMMANDS = ("ingest", "whois_fetch", "extract", "select", "train", "evaluate", "predict", "segment")
MEMBERS = ("rf", "dt", "knn", "lr")


def setup_times(env: dict, clock: Clock) -> list[tuple[float, float]]:
    """(normalised, wall) seconds of fresh interpreters that import the
    CLI and load the packaged TLD lists, registrar lists and wordlist."""
    times = []
    for _ in range(SETUP_PROBES):
        with clock.timed(ticks=False) as t:
            subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT, check=True)
        times.append((t["s"], t["raw"]))
    return times


class Stub:
    """The stub WHOIS service as a child process, with its query log."""

    def __init__(self, work: str, records: str, env: dict):
        self.log = os.path.join(work, "stub.log")
        port_file = os.path.join(work, "stub.port")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub_whois.py"), "--records", records,
             "--log", self.log, "--port-file", port_file],
            env=env)
        self._offset = 0
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("stub WHOIS service did not start")
            time.sleep(0.01)
        with open(port_file, encoding="ascii") as fh:
            self.port = int(fh.read())

    def queries(self) -> list[tuple[str, str]]:
        """(host, query) pairs logged since the last call."""
        with open(self.log, encoding="utf-8") as fh:
            fh.seek(self._offset)
            text = fh.read()
            self._offset = fh.tell()
        return [tuple(line.split("\t", 1)) for line in text.splitlines()]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Bench:
    """One run: the rounds, what each produced, and the checks."""

    def __init__(self, workload: str, inputs: str, work: str, stub: Stub, clock: Clock):
        self.workload = workload
        self.stub = stub
        self.clock = clock
        with open(os.path.join(inputs, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)
        warm = os.path.join(inputs, "warm_cache.jsonl")
        self.op = Operator(inputs, work, warm if os.path.exists(warm) else None)
        self.new = self.expected["new"]
        self.labels = [d.rsplit(".", 1)[0] for d in self.new]
        self.triage = self.new[:TRIAGE_BATCH[workload]]
        self.triage_file = self.op.path("triage.txt")
        with open(self.triage_file, "w", encoding="utf-8") as fh:
            fh.write("".join(d + "\n" for d in self.triage))
        self.rounds: list[dict] = []
        self.errors: list[str] = []
        self._one = 0

    def round(self, windows: bool) -> dict:
        """One whole round.  With ``windows`` the batch predict, the
        single predicts and the segmentation repeat for their minimum
        wall times; without, each runs a fixed small number of times."""
        from domaintriage.segment import LanguageModel

        op, rnd, clock = self.op, len(self.rounds), self.clock
        rec = {"one_s": [], "one": []}
        start, raw0, s0 = time.perf_counter(), clock.raw_total, clock.s_total
        rec["ingest"] = op.ingest()
        self.stub.queries()
        meter = clock.meter()
        passes, rec["whois"] = op.whois_fetch(rnd, meter, WHOIS_WARM_MIN_S if windows else 0.0)
        n = passes * (self.expected["rows"] + len(self.new))
        rec["enrich"] = (n / meter.s, n / meter.raw)
        rec["queries"] = self.stub.queries()
        meter = clock.meter()
        op.build(rnd, meter)
        rec["build"] = (meter.s, meter.raw)
        meter = clock.meter()
        with meter.block():
            op.evaluate(rnd)
        rec["evaluate"] = (meter.s, meter.raw)

        meter, passes = clock.meter(), 0
        while True:
            with meter.block():
                lines = op.predict_batch(rnd, self.triage_file)
            passes += 1
            rec.setdefault("triage", lines)
            if lines != rec["triage"]:
                self.errors.append("predict: repeated batch gave different output")
            if not windows or meter.raw >= TRIAGE_MIN_S:
                break
        n = passes * len(self.triage)
        rec["triage_rate"] = (n / meter.s, n / meter.raw)

        # single predicts in blocks of at least BLOCK_S, each sample less
        # the clock's ticks in it and scaled by its block's factor
        meter = clock.meter()
        while True:
            samples = []
            with meter.block() as t:
                t0 = time.perf_counter()
                while not samples or time.perf_counter() - t0 < BLOCK_S:
                    domain = self.triage[self._one % len(self.triage)]
                    self._one += 1
                    one, tick_s = time.perf_counter(), clock.tick_s
                    rec["one"].append(op.predict_one(rnd, domain))
                    samples.append(time.perf_counter() - one - (clock.tick_s - tick_s))
            rec["one_s"] += [(s * t["factor"], s) for s in samples]
            if len(rec["one_s"]) >= (PREDICT_ONE_MIN_N if windows else 3) and (
                    not windows or meter.raw >= PREDICT_ONE_MIN_S):
                break

        model = LanguageModel.default()
        meter, passes = clock.meter(), 0
        while not passes or (windows and meter.raw < SEGMENT_MIN_S):
            with meter.block():
                t0 = time.perf_counter()
                while True:
                    words = op.segment(self.labels, model)
                    passes += 1
                    rec.setdefault("segments", words)
                    if not windows or time.perf_counter() - t0 >= BLOCK_S:
                        break
        n = passes * len(self.labels)
        rec["segment_rate"] = (n / meter.s, n / meter.raw)
        rec["segment_cli"] = op.cli("segment", "--word", self.labels[0])
        rec["round_s"] = time.perf_counter() - start
        # the whole round scaled by its timed blocks' mean speed factor
        rec["round_norm_s"] = rec["round_s"] * (clock.s_total - s0) / (clock.raw_total - raw0)
        self.rounds.append(rec)
        return rec

    # --- checks ---------------------------------------------------------------

    def check(self) -> None:
        import numpy as np

        import checks
        from domaintriage import learn
        from domaintriage.segment import LanguageModel

        exp, err, op = self.expected, self.errors, self.op
        n_rows, n_new = exp["rows"], len(self.new)
        first = self.rounds[0]
        cold = op.warm_cache is None
        for rnd, rec in enumerate(self.rounds):
            feeds, stream = rec["ingest"]
            if feeds["rows"] != n_rows or feeds["label_conflicts"] or stream["rows"] != n_new:
                err.append(f"ingest: {feeds} / {stream}, expected {n_rows} and {n_new} rows")
            want = [(n_rows, 0), (n_new, 0)] if cold else [(0, n_rows), (0, n_new)]
            got = [(s["fetched"], s["cache_hits"]) for s in rec["whois"]]
            if got != want or any(s["failures"] for s in rec["whois"]):
                err.append(f"whois-fetch round {rnd}: {rec['whois']}, expected (fetched, hits) {want}")
            asked = sorted(q for host, q in rec["queries"] if host != "whois.iana.org")
            if asked != (sorted(exp["served"]) if cold else []):
                err.append(f"whois-fetch round {rnd}: stub saw {len(asked)} registry queries "
                           f"for {len(set(asked))} domains, expected each of {n_rows + n_new} once"
                           if cold else f"whois-fetch round {rnd}: warm cache still queried {len(asked)}")
            for name in ("features_{}.csv", "model_{}.json", "report_{}.json"):
                if rnd and _read(op.path(name.format(rnd))) != _read(op.path(name.format(0))):
                    err.append(f"{name.format(rnd)} differs from round 0: two trainings must match")

        with open(os.path.join(SRC, "domaintriage", "data", "tlds.json"), encoding="utf-8") as fh:
            tlds = json.load(fh)
        checks.check_features(op.path("features_0.csv"), exp["served"], tlds, err)

        with open(op.path("model_0.json"), "rb") as fh:
            model = learn.deserialize_model(fh.read())
        _, test_rows = checks.read_features_csv(op.path("test_0.csv"))
        x = np.array(checks.matrix(test_rows))
        y = [label for _, label, _ in test_rows]
        xs = model.standardizer.transform(x[:, model.selected_features])
        scores = {m.kind: m.scores(xs).tolist() for m in model.members}
        k = len(model.members)
        scores["ensemble"] = [sum(s[i] > 0.5 for s in scores.values()) / k for i in range(len(y))]
        with open(op.path("report_0.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        checks.check_report(report, y, scores, err)
        print("quality: " + " ".join(f"{r['classifier']}={r['acc']:.4f}/{r['auc']:.4f}"
                                     for r in report["reports"]), file=sys.stderr)
        names, acc_floor, auc_floor = QUALITY_FLOOR[self.workload]
        for row in report["reports"]:
            if row["classifier"] in names and (row["acc"] < acc_floor or row["auc"] < auc_floor):
                err.append(f"evaluate: {row['classifier']} acc {row['acc']:.4f} auc {row['auc']:.4f} "
                           f"below the floor {acc_floor} / {auc_floor}")

        # the ensemble's scores as `predict` gives them for held-out domains
        sample = HELDOUT_PREDICT[self.workload]
        picked = list(range(len(y))) if sample is None else (
            [i for i in range(len(y)) if y[i] == 1][:sample] + [i for i in range(len(y)) if y[i] == 0][:sample])
        heldout = op.path("heldout.txt")
        with open(heldout, "w", encoding="utf-8") as fh:
            fh.write("".join(test_rows[i][0] + "\n" for i in picked))
        lines = op.predict_batch(0, heldout)
        checks.check_predictions(lines, [test_rows[i][0] for i in picked], k, err)
        if [line["score"] for line in lines] != [scores["ensemble"][i] for i in picked]:
            err.append("predict: held-out scores differ from the members' majority vote")

        for rec in self.rounds:
            checks.check_predictions(rec["triage"], self.triage, k, err)
            by_domain = {line["domain"]: line for line in rec["triage"]}
            if any(by_domain[line["domain"]] != line for line in rec["one"]):
                err.append("predict: --domain disagrees with the batch line for the same domain")
        model_lm = LanguageModel.default()
        short = 0
        for label, words in zip(self.labels, first["segments"]):
            exhaustive = len(label) <= EXHAUSTIVE_MAX_LEN and short < EXHAUSTIVE_MAX_LABELS
            short += exhaustive
            checks.check_segmentation(label, words, model_lm, exhaustive, err)
        if short == 0:
            err.append("segment: no label short enough for the exhaustive check")
        if first["segment_cli"][0]["keywords"] != first["segments"][0]:
            err.append("segment: the CLI and segment_keywords disagree")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(bench: Bench, deadline: float, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics, normalised, and the same as raw wall figures."""
    while True:
        bench.round(windows=True)
        longest = max(r["round_s"] for r in bench.rounds)
        if len(bench.rounds) >= 2 and time.monotonic() + longest + CHECK_RESERVE_S > deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rs = bench.rounds
    one = [sample for r in rs for sample in r["one_s"]]
    with open(bench.op.path("report_0.json"), encoding="utf-8") as fh:
        ensemble_auc = json.load(fh)["reports"][-1]["auc"]
    timings = {
        "setup_s": (setup, 1.0, "s"),
        "enrich_domains_per_s": ([r["enrich"] for r in rs], 1.0, "domains/s"),
        "build_s": ([r["build"] for r in rs], 1.0, "s"),
        "evaluate_s": ([r["evaluate"] for r in rs], 1.0, "s"),
        "triage_domains_per_s": ([r["triage_rate"] for r in rs], 1.0, "domains/s"),
        "predict_one_ms": (one, 1e3, "ms"),
        "segment_labels_per_s": ([r["segment_rate"] for r in rs], 1.0, "labels/s"),
    }
    metrics, wall = {}, {}
    for name, (samples, scale, unit) in timings.items():
        norm = statistics.median(n for n, _ in samples) * scale
        raw = statistics.median(r for _, r in samples) * scale
        metrics[name] = _metric(norm, unit)
        wall[name] = _metric(raw, unit)
        print(f"{name}: {norm:.6g} {unit} normalised, {raw:.6g} wall, median of {len(samples)}",
              file=sys.stderr)
    print(f"rounds={len(rs)}", file=sys.stderr)
    metrics["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB")
    metrics["model_bytes"] = _metric(os.path.getsize(bench.op.path("model_0.json")), "bytes")
    metrics["ensemble_auc"] = _metric(ensemble_auc, "ratio")
    return metrics, wall


def _install_hooks(tracer) -> None:
    import numpy as np

    from domaintriage import cli, evaluation, ingest, learn, segment, selection, whois

    def thresholds(scores, labels):
        return "evaluation.roc_thresholds", len(np.unique(np.asarray(scores)))

    for owner, attr, name, counter in (
        (ingest, "load_feed", "ingest.load_feed", None),
        (ingest, "write_dataset", "ingest.write_dataset", None),
        (ingest, "read_dataset", "ingest.read_dataset", None),
        (ingest, "read_features", "ingest.read_features", None),
        (ingest, "write_features", "ingest.write_features", None),
        (whois.WhoisClient, "query", "whois.query", None),
        (whois.WhoisCache, "__init__", "whois.cache_load", None),
        (whois.WhoisCache, "put", "whois.cache_put", None),
        (whois, "parse_whois", "whois.parse", None),
        (cli, "extract_all", "features.extract", None),
        (selection, "correlation_matrix", "selection.correlation", None),
        (learn, "train_ensemble", "learn.train_ensemble", None),
        (learn, "serialize_model", "learn.serialize", None),
        (learn, "deserialize_model", "learn.deserialize", None),
        (learn, "ensemble_predict", "learn.ensemble_predict", None),
        (learn, "knn_scores", "learn.knn_scores", None),
        (evaluation, "full_report", "evaluation.full_report", None),
        (evaluation, "roc_curve", "evaluation.roc_curve", thresholds),
        (segment, "segment_keywords", "segment.segment_keywords", None),
        (cli, "segment_keywords", "segment.segment_keywords", None),
    ):
        tracer.install(owner, attr, name, counter)


def _tree_nodes(tree: dict) -> int:
    """Nodes of one serialized tree: a leaf {"p"} or a split {"l", "r"}."""
    return 1 + _tree_nodes(tree["l"]) + _tree_nodes(tree["r"]) if "l" in tree else 1


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_extras(bench: Bench, rnd: int) -> dict:
    """Per-layer numbers measured by calling the public API directly on
    the traced round's files: each member as a one-member ensemble,
    model (de)serialization, single-domain scoring, wordlist loading."""
    import numpy as np

    import checks
    from domaintriage import learn
    from domaintriage.segment import LanguageModel

    op = bench.op
    _, rows = checks.read_features_csv(op.path(f"features_{rnd}.csv"))
    _, test_rows = checks.read_features_csv(op.path(f"test_{rnd}.csv"))
    held = {d for d, _, _ in test_rows}
    train = [r for r in rows if r[0] not in held]
    x_train, y_train = np.array(checks.matrix(train)), np.array([r[1] for r in train])
    x_test = np.array(checks.matrix(test_rows))
    with open(op.path(f"selection_{rnd}.json"), encoding="utf-8") as fh:
        selected = json.load(fh)["indices"]
    out = {}
    for kind in MEMBERS:
        start = time.perf_counter()
        one = learn.train_ensemble(x_train, y_train, selected, models=(kind,), seed=0)
        out[f"learn.{kind}_train_s"] = time.perf_counter() - start
        start = time.perf_counter()
        learn.ensemble_scores(one, x_test)
        out[f"learn.{kind}_score_s"] = time.perf_counter() - start
        if kind == "knn":
            tracemalloc.start()
            learn.ensemble_scores(one, x_test)
            out["learn.knn_score_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    blob = _read(op.path(f"model_{rnd}.json"))
    payload = json.loads(blob)
    members = {m["kind"]: m for m in payload["members"]}
    out["learn.rf_nodes"] = sum(_tree_nodes(t) for t in members["rf"]["trees"])

    def size(member):
        return len(json.dumps(member, sort_keys=True, separators=(",", ":")))
    out["learn.model_bytes_knn"] = size(members["knn"])
    out["learn.model_bytes_trees"] = size(members["rf"]) + size(members["dt"])
    model = learn.deserialize_model(blob)
    out["learn.serialize_s"] = _median_time(lambda: learn.serialize_model(model), 3)
    out["learn.deserialize_s"] = _median_time(lambda: learn.deserialize_model(blob), 3)
    singles = []
    for _, _, cells in test_rows[:10]:
        row = [float(c) if c else None for c in cells]
        start = time.perf_counter()
        learn.ensemble_predict(model, row)
        singles.append(time.perf_counter() - start)
    out["learn.predict_one_us"] = statistics.median(singles) * 1e6
    out["segment.wordlist_load_ms"] = _median_time(LanguageModel.default, 5) * 1e3
    return out


def traced(bench: Bench, trace_path: str) -> dict:
    """An untraced round, then the same round traced; per-layer metrics
    come from the traced round's spans plus direct API timings."""
    from spans import Tracer

    base = bench.round(windows=False)
    tracer = Tracer()
    _install_hooks(tracer)
    bench.op.tracer = tracer
    try:
        rec = bench.round(windows=False)
    finally:
        bench.op.tracer = None
        tracer.uninstall()
    tracer.write(trace_path)
    for name in tracer.absent:
        print(f"trace: hook target {name} is absent; metrics from its spans read 0", file=sys.stderr)

    def med(name, scale=1.0):
        values = tracer.durations(name)
        return statistics.median(values) * scale if values else 0.0

    def total(name):
        return sum(tracer.durations(name))

    evaluate_span = next(i for i, s in enumerate(tracer.spans) if s["name"] == "cli.evaluate")
    layers = {
        "ingest.read_features_s": total("ingest.read_features"),
        "ingest.write_features_s": total("ingest.write_features"),
        "whois.queries": len(rec["queries"]),
        "whois.referral_queries": sum(host == "whois.iana.org" for host, _ in rec["queries"]),
        "whois.query_ms": med("whois.query", 1e3),
        "whois.cache_put_us": med("whois.cache_put", 1e6),
        "whois.cache_load_ms": med("whois.cache_load", 1e3),
        "whois.parse_us": med("whois.parse", 1e6),
        "features.extract_us": med("features.extract", 1e6),
        "selection.correlation_s": total("selection.correlation"),
        "evaluation.full_report_s": total("evaluation.full_report"),
        "evaluation.roc_curve_s": total("evaluation.roc_curve"),
        "evaluation.roc_thresholds": tracer.counts.get("evaluation.roc_thresholds", 0),
        "evaluation.knn_passes": tracer.descendants(evaluate_span, "learn.knn_scores"),
        "segment.label_us": med("segment.segment_keywords", 1e6),
        "trace.overhead_s": rec["round_norm_s"] - base["round_norm_s"],
    }
    # a command's first invocation in the round is its main one: the
    # labelled feeds, the dataset's whois-fetch, the batch predict
    for cmd in COMMANDS:
        layers[f"cli.{cmd}_s"] = tracer.durations(f"cli.{cmd}")[0]
        layers[f"cli.{cmd}_self_s"] = tracer.self_times(f"cli.{cmd}")[0]
    layers.update(layer_extras(bench, len(bench.rounds) - 1))
    units = {"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB"}
    out = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        if name.startswith("learn.model_bytes"):
            unit = "bytes"
        out[name] = _metric(value, unit)
    return out


class Terminated(BaseException):
    """SIGTERM, raised past the program's own error handling so that a
    terminated run still stops the stub and removes its files."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="domaintriage benchmark")
    parser.add_argument("--workload", choices=("clean-cold", "noisy-warm"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "domaintriage", "cli.py")):
        print(f"error: {SRC}/domaintriage not found; run from the root of a domaintriage checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    inputs = os.path.join(work, "inputs")
    stub = None
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", inputs], env=env, check=True)
        clock = Clock()
        setup = [] if args.trace else setup_times(env, clock)
        stub = Stub(work, os.path.join(inputs, "whois_records.json"), env)
        os.environ["DOMAINTRIAGE_WHOIS_PROXY"] = f"http://127.0.0.1:{stub.port}"
        bench = Bench(args.workload, inputs, work, stub, clock)
        wall = None
        try:
            if args.trace:
                metrics = traced(bench, os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
            else:
                metrics, wall = untraced(bench, started + args.seconds, setup)
            bench.check()
        except PipelineError as exc:
            bench.errors.append(str(exc))
            metrics = {}
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    for message in bench.errors:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not bench.errors
    if wall:
        print(json.dumps({"wall": wall}))
    print(json.dumps({"correct": correct, "attempted": bench.op.attempted,
                      "failed": bench.op.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
