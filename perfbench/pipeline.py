"""Drives the program in-process through ``domaintriage.cli.main``, one
command per step, the way an operator runs it on files."""

from __future__ import annotations

import io
import json
import os
from contextlib import nullcontext, redirect_stdout

import stub_whois
from gen import FEED_FROM, FEED_TO, REFERENCE_DATE

# whois-fetch spaces queries to one server by a multiple of the stub's
# reply delay, so back-to-back queries to one registry (and to IANA) do wait
WHOIS_RATE_S = 4 * stub_whois.DELAY_S


class PipelineError(Exception):
    """A command exited non-zero or raised."""


class Operator:
    """Runs CLI commands on the files of one workload and counts them.

    ``tracer``, when set, records one span per command."""

    def __init__(self, inputs: str, work: str, cache: str | None):
        self.inputs = inputs
        self.work = work
        self.warm_cache = cache
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        from domaintriage import cli
        self._main = cli.main

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli(self, *argv: str) -> list[dict]:
        """Run one command; return its stdout JSON lines."""
        self.attempted += 1
        span = self.tracer.span("cli." + argv[0].replace("-", "_")) if self.tracer else nullcontext()
        out = io.StringIO()
        try:
            with span, redirect_stdout(out):
                code = self._main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            self.failed += 1
            raise PipelineError(f"{argv[0]} raised {exc!r}") from exc
        if code != 0:
            self.failed += 1
            raise PipelineError(f"{' '.join(argv)} exited with {code}")
        return [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]

    def cache_for(self, rnd: int) -> str:
        """The WHOIS cache a round reads: the shared warm cache, or a
        fresh file the round's whois-fetch fills from empty."""
        return self.warm_cache or self.path(f"cache_{rnd}.jsonl")

    def ingest(self) -> list[dict]:
        feeds = self.cli(
            "ingest",
            "--feed", os.path.join(self.inputs, "feed_malicious.csv") + ":1:abuse",
            "--feed", os.path.join(self.inputs, "feed_benign.csv") + ":0:toplist",
            "--from", FEED_FROM.isoformat(), "--to", FEED_TO.isoformat(),
            "--out", self.path("dataset.csv"))
        stream = self.cli("ingest", "--feed", os.path.join(self.inputs, "new_domains.txt") + ":0:stream",
                          "--out", self.path("stream.csv"))
        return feeds + stream

    def whois_fetch(self, rnd: int, meter, min_s: float) -> tuple[int, list[dict]]:
        """whois-fetch over the dataset and the new domains, each pass
        timed on ``meter``.  A cold cache is filled once; passes over a
        warm cache, which query nothing and change nothing, repeat for
        ``min_s`` seconds.  Returns (passes, summaries of the first pass)."""
        proxy = os.environ.get("DOMAINTRIAGE_WHOIS_PROXY", "")
        if not proxy.startswith("http://127.0.0.1:"):
            raise PipelineError("refusing to run whois-fetch without the local stub proxy")
        passes, first = 0, None
        while True:
            out = []
            with meter.block():
                for dataset in ("dataset.csv", "stream.csv"):
                    out += self.cli("whois-fetch", "--in", self.path(dataset), "--cache", self.cache_for(rnd),
                                    "--rate", str(WHOIS_RATE_S), "--timeout", "5")
            passes += 1
            first = first or out
            if self.warm_cache is None or meter.raw >= min_s:
                return passes, first

    def build(self, rnd: int, meter) -> None:
        """extract + select + train with default flags, each command
        timed on ``meter``."""
        with meter.block():
            self.cli("extract", "--in", self.path("dataset.csv"), "--cache", self.cache_for(rnd),
                     "--reference-date", REFERENCE_DATE.isoformat(), "--out", self.path(f"features_{rnd}.csv"))
        with meter.block():
            self.cli("select", "--in", self.path(f"features_{rnd}.csv"), "--out", self.path(f"selection_{rnd}.json"))
        with meter.block():
            self.cli("train", "--in", self.path(f"features_{rnd}.csv"),
                     "--selection", self.path(f"selection_{rnd}.json"),
                     "--test-out", self.path(f"test_{rnd}.csv"), "--out", self.path(f"model_{rnd}.json"))

    def evaluate(self, rnd: int) -> None:
        self.cli("evaluate", "--model", self.path(f"model_{rnd}.json"), "--in", self.path(f"test_{rnd}.csv"),
                 "--out", self.path(f"report_{rnd}.json"), "--table", self.path(f"table_{rnd}.csv"),
                 "--roc", self.path(f"roc_{rnd}.csv"))

    def predict_batch(self, rnd: int, domains_file: str) -> list[dict]:
        return self.cli("predict", "--model", self.path(f"model_{rnd}.json"), "--in", domains_file,
                        "--cache", self.cache_for(rnd), "--reference-date", REFERENCE_DATE.isoformat())

    def predict_one(self, rnd: int, domain: str) -> dict:
        (line,) = self.cli("predict", "--model", self.path(f"model_{rnd}.json"), "--domain", domain,
                           "--cache", self.cache_for(rnd), "--reference-date", REFERENCE_DATE.isoformat())
        return line

    def segment(self, labels: list[str], model) -> list[list[str]]:
        """segment_keywords over every label with one language model;
        looked up on the module each call so a tracer's hook sees it."""
        from domaintriage import segment
        out = []
        for label in labels:
            self.attempted += 1
            try:
                out.append(segment.segment_keywords(label, model))
            except Exception as exc:
                self.failed += 1
                raise PipelineError(f"segment_keywords({label!r}) raised {exc!r}") from exc
        return out
