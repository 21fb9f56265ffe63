"""The two benchmark workloads and the command sequence each one repeats.

Each workload is a closed loop: one client runs the workload's command
sequence, then the next repetition starts as soon as the previous one ends.
Commands run in-process through ``stressgraph.cli.main``; the only library
call is ``prompting.run_batch``, because no subcommand sends completions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from stressgraph import cli, prompting

import generate
from generate import CorpusShape

WINDOW = 20
# Every workload's test F1 sits near 0.8-0.9; below this floor a run fails.
F1_FLOOR = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    extras: tuple
    ratios: str
    stages: tuple
    # A sub-workload whose command sequence runs, on its own inputs and in a
    # subdirectory named after it, as the stage "part".
    part: Workload | None = None


# The conv head trains on a corpus of its own: long enough sequences to load
# the conv layer, few enough documents to keep a repetition short. Only
# convnet and file I/O do work in its sequence.
CONV_HEAD = Workload(
    name="conv-head",
    shape=CorpusShape(n_docs=240, min_len=20, max_len=120, lexicon=8000, zipf_s=1.05,
                      cue_words=3, cue_share=0.15, label_noise=0.1),
    extras=("tgse",),
    ratios="0.5,0.1,0.4",
    stages=("ingest", "train_conv"),
)

# Shapes keep one repetition to a few seconds, so a run holds several and
# reports their median. Test splits are large (30-50%) so that test_f1 moves
# little between seeds. BENCHMARK.json says why each workload exists.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="graph-longdocs",
            shape=CorpusShape(n_docs=200, min_len=100, max_len=300, lexicon=20000, zipf_s=1.05,
                              cue_words=40, cue_share=0.08, label_noise=0.1),
            extras=(),
            ratios="0.4,0.1,0.5",
            stages=("ingest", "build_graph", "train_gcn_identity", "export"),
        ),
        Workload(
            name="train-embed",
            shape=CorpusShape(n_docs=1000, min_len=15, max_len=40, lexicon=8000, zipf_s=1.05,
                              cue_words=40, cue_share=0.15, label_noise=0.1),
            extras=("tgem",),
            ratios="0.6,0.1,0.3",
            stages=("ingest", "build_graph", "train_gcn_embed", "prompt_eval", "part"),
            part=CONV_HEAD,
        ),
    )
}

CONV_EPOCHS = 2
# Every FAIL_EVERY-th distinct prompt fails on its first attempt; every
# WRONG_EVERY-th prompt gets the wrong category back.
FAIL_EVERY = 5
WRONG_EVERY = 7


def write_inputs(out_dir, workload: Workload, seed: int) -> dict:
    """Generate a workload's inputs, and its part's under ``<part>/``; returns name -> path."""
    paths = generate.write_inputs(out_dir, workload.shape, seed, workload.extras)
    part = workload.part
    if part is not None:
        written = write_inputs(os.path.join(out_dir, part.name), part, seed)
        paths.update({f"{part.name}/{name}": path for name, path in written.items()})
    return paths


class FlakyResponder:
    """Canned completion model: answers with the gold category, deterministically
    wrong on a fixed share of prompts, and raising on the first attempt of a
    fixed share of prompts so that ``run_batch`` retries them."""

    def __init__(self, gold_by_sha: dict):
        self.gold_by_sha = gold_by_sha
        self.order: dict = {}
        self.spec = prompting.PromptSpec()

    def __call__(self, prompt: str) -> str:
        sha = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        first = sha not in self.order
        index = self.order.setdefault(sha, len(self.order))
        if first and index % FAIL_EVERY == 0:
            raise ConnectionError("transient failure (canned)")
        label = self.gold_by_sha[sha]
        if index % WRONG_EVERY == 0:
            label = 1 - label
        return f"Category: {self.spec.category_for(label)}"


@dataclass
class Rep:
    """One pass of a workload's command sequence and what it observed."""

    workload: Workload
    inputs: dict
    out: str
    jobs: int
    seed: int
    stage_s: dict = field(default_factory=dict)
    commands: int = 0
    checks: list = field(default_factory=list)  # (name, failure messages)
    counts: dict = field(default_factory=dict)
    requests: int = 0
    failed_requests: int = 0
    test_f1: float | None = None
    docs_processed: int = 0
    gold: dict = field(default_factory=dict)
    client: prompting.CannedClient | None = None
    fresh: list = field(default_factory=list)
    resumed: list = field(default_factory=list)
    fresh_calls: int = 0
    part: Rep | None = None

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def cli(self, *args) -> None:
        self.commands += 1
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in args])
        if rc != 0:
            raise RuntimeError(f"stressgraph {args[0]} exited with {rc}")

    def run(self) -> float:
        """Run every stage, timing each; returns the sequence's wall time.

        Results are read and checked after the clock stops.
        """
        wall = self.run_stages()
        self.collect()
        return wall

    def run_stages(self) -> float:
        if "prompt_eval" in self.workload.stages:
            self.gold = {r["id"]: r["label"] for r in read_jsonl(self.inputs["corpus"])}
        started = time.perf_counter()
        for stage in self.workload.stages:
            t0 = time.perf_counter()
            getattr(self, "stage_" + stage)()
            self.stage_s[stage] = time.perf_counter() - t0
        return time.perf_counter() - started

    # -- stages -------------------------------------------------------------

    def stage_ingest(self) -> None:
        self.cli("ingest", "--corpus", self.inputs["corpus"], "--min-df", 5, "--out", self.path("ingest"))
        self.cli("split", "--tokenized", self.path("ingest", "tokenized.json"),
                 "--ratios", self.workload.ratios, "--seed", 0, "--out", self.path("split"))

    def stage_build_graph(self) -> None:
        self.cli("build-graph", "--tokenized", self.path("ingest", "tokenized.json"),
                 "--window", WINDOW, "--out", self.path("graph"))

    def _train_gcn(self, *extra) -> None:
        self.cli("train-gcn", "--tokenized", self.path("ingest", "tokenized.json"),
                 "--graph", self.path("graph", "graph.json"), "--split", self.path("split", "split.jsonl"),
                 *extra, "--out", self.path("gcn"))

    def stage_train_gcn_identity(self) -> None:
        self._train_gcn("--identity", "--lambda", 1, "--learning-rate", 0.02, "--epochs", 20,
                        "--seeds", 0, "--jobs", 1)

    def stage_train_gcn_embed(self) -> None:
        self._train_gcn("--embeddings", self.inputs["tgem"], "--lambda", 0.2, "--learning-rate", 0.01,
                        "--epochs", 20, "--seeds", "0,1", "--jobs", self.jobs)

    def stage_train_conv(self) -> None:
        self.cli("train-conv", "--tokenized", self.path("ingest", "tokenized.json"),
                 "--split", self.path("split", "split.jsonl"), "--sequences", self.inputs["tgse"],
                 "--epochs", CONV_EPOCHS, "--batch-size", 8, "--learning-rate", 0.001,
                 "--seeds", 0, "--jobs", 1, "--out", self.path("conv"))

    def stage_prompt_eval(self) -> None:
        self.cli("prompts", "--corpus", self.inputs["corpus"], "--split", self.path("split", "split.jsonl"),
                 "--k", 10, "--seed", 0, "--out", self.path("prompts"))
        records = read_jsonl(self.path("prompts", "prompts.jsonl"))
        self.client = prompting.CannedClient(
            FlakyResponder({r["prompt_sha256"]: self.gold[r["id"]] for r in records})
        )
        store = self.path("transcripts.jsonl")
        prompts = [r["prompt"] for r in records]
        self.fresh = prompting.run_batch(self.client, prompts, retries=1, store_path=store)
        self.fresh_calls = self.client.calls
        self.resumed = prompting.run_batch(self.client, prompts, retries=1, store_path=store)
        self.cli("eval", "--transcripts", store, "--prompts", self.path("prompts", "prompts.jsonl"),
                 "--tokenized", self.path("ingest", "tokenized.json"), "--out", self.path("eval"))

    def stage_part(self) -> None:
        part = self.workload.part
        prefix = part.name + "/"
        inputs = {k[len(prefix):]: v for k, v in self.inputs.items() if k.startswith(prefix)}
        self.part = Rep(part, inputs, self.path(part.name), self.jobs, self.seed)
        self.part.run_stages()
        self.commands += self.part.commands
        if "train_conv" in self.part.stage_s:
            self.stage_s["train_conv"] = self.part.stage_s["train_conv"]

    def stage_export(self) -> None:
        self.cli("export", "--tokenized", self.path("ingest", "tokenized.json"),
                 "--graph", self.path("graph", "graph.json"), "--docs", 200, "--k", 10,
                 "--label", 1, "--out", self.path("export"))

    # -- results ------------------------------------------------------------

    def collect(self) -> None:
        """Read test F1, throughput counts and prompt outcomes; record checks."""
        stages = self.workload.stages
        if "train_conv" in stages:
            self.test_f1 = read_f1(self.path("conv", "conv-aggregate.json"))
            splits = [r["split"] for r in read_jsonl(self.path("split", "split.jsonl"))]
            self.docs_processed = sum(s in ("train", "val") for s in splits) * CONV_EPOCHS
        if any(s.startswith("train_gcn") for s in stages):
            self.test_f1 = read_f1(self.path("gcn", "aggregate.json"))
        if "export" in stages:
            salience = read_json(self.path("export", "salience.json"))
            self.checks.append(("salience export has edges", [] if salience.get("edges") else ["no edges"]))
        self.checks.append(("test_f1 floor", [] if self.test_f1 is not None and self.test_f1 >= F1_FLOOR
                            else [f"test_f1 {self.test_f1} below {F1_FLOOR}"]))
        if self.part is not None:
            self.part.collect()
            self.checks += [(f"{self.part.workload.name} {name}", failures)
                            for name, failures in self.part.checks]
            self.docs_processed = self.part.docs_processed
        if "prompt_eval" in stages:
            n = len(self.fresh)
            resume_calls = self.client.calls - self.fresh_calls
            self.requests = n
            self.failed_requests = sum(1 for t in self.fresh if t.label is None)
            self.counts = {
                "prompting.requests": n,
                "prompting.attempts": self.fresh_calls,
                "prompting.store_hits": n - resume_calls,
                "prompting.success_per_attempt": (n - self.failed_requests) / self.fresh_calls,
            }
            same = [t.label for t in self.resumed] == [t.label for t in self.fresh]
            self.checks.append(("resumed batch matches the fresh batch", [] if same else ["labels differ"]))
            self.checks.append(("resumed batch served from the store",
                                [f"{resume_calls} requests sent"] if resume_calls else []))
            report = read_json(self.path("eval", "report.json"))
            scored = report.get("n_prompts") == n and report.get("parse_failures") == 0
            self.checks.append(("eval scored every transcript", [] if scored else [
                f"{report.get('n_prompts')} prompts, {report.get('parse_failures')} parse failures"]))

    # -- artifacts ----------------------------------------------------------

    def output_digests(self) -> dict:
        """Artifact path (relative to the repetition) -> digest, from every manifest."""
        digests = {}
        for dirpath, _, files in os.walk(self.out):
            if "manifest.json" in files:
                outputs = read_json(os.path.join(dirpath, "manifest.json"))["outputs"]
                for path, digest in outputs.items():
                    digests[os.path.relpath(path, self.out)] = digest
        return dict(sorted(digests.items()))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_f1(path) -> float:
    return float(read_json(path)["metrics"]["f1"]["mean"])
