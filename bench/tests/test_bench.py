"""Tests of the benchmark itself: generator determinism, checks, metric names, smoke runs.

    python3 -m pytest bench/tests
"""

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SMALL = generate.CorpusShape(n_docs=60, min_len=20, max_len=60, lexicon=800, zipf_s=1.05,
                             cue_words=5, cue_share=0.1, label_noise=0.1, embedding_dim=16)


def _digests(paths):
    return run.file_digests(paths)


def test_part_inputs_are_written_under_the_part_name(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["train-embed"], shape=SMALL)
    workload = dataclasses.replace(workload, part=dataclasses.replace(workload.part, shape=SMALL))
    paths = workloads.write_inputs(tmp_path, workload, 5)
    assert set(paths) == {"corpus", "tgem", "conv-head/corpus", "conv-head/tgse"}
    alone = generate.write_inputs(tmp_path / "alone", SMALL, 5, ("tgse",))
    assert _digests({k: paths["conv-head/" + k] for k in alone}) == _digests(alone)


def test_generator_is_deterministic(tmp_path):
    extras = ("tgem", "tgse")
    first = _digests(generate.write_inputs(tmp_path / "a", SMALL, 7, extras))
    again = _digests(generate.write_inputs(tmp_path / "b", SMALL, 7, extras))
    other = _digests(generate.write_inputs(tmp_path / "c", SMALL, 8, extras))
    assert first == again
    assert set(first) == {"corpus", "tgem", "tgse"}
    assert all(first[k] != other[k] for k in first)


def test_generator_fixes_input_size_across_seeds():
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(2)
    a, b = generate.make_corpus(SMALL, rng_a), generate.make_corpus(SMALL, rng_b)
    assert sum(map(len, a.token_ids)) == sum(map(len, b.token_ids))
    assert sum(a.labels) == sum(b.labels)


def _tiny_graph():
    # 2 docs, 3 words: doc-word edges and one word-word edge.
    return {
        "n_docs": 2, "n_words": 3, "nodes": [],
        "edges": [
            {"a": 0, "b": 2, "w": 0.5, "kind": "doc-word"},
            {"a": 1, "b": 3, "w": 0.7, "kind": "doc-word"},
            {"a": 2, "b": 4, "w": 0.2, "kind": "word-word"},
        ],
    }


def test_graph_invariants_pass_on_a_valid_graph():
    assert all(not failures for failures in checks.graph_invariants(_tiny_graph()).values())


@pytest.mark.parametrize("edge, broken", [
    ({"a": 0, "b": 1, "w": 0.3, "kind": "word-word"}, "empty_doc_block"),
    ({"a": 0, "b": 1, "w": 0.3, "kind": "doc-word"}, "empty_doc_block"),
    ({"a": 3, "b": 4, "w": -0.1, "kind": "word-word"}, "positive_weights"),
    ({"a": 4, "b": 2, "w": 0.9, "kind": "word-word"}, "distinct_pairs"),
    ({"a": 2, "b": 2, "w": 0.4, "kind": "word-word"}, "distinct_pairs"),
    ({"a": 2, "b": 9, "w": 0.4, "kind": "word-word"}, "endpoints_in_range"),
])
def test_graph_invariants_catch_defects(edge, broken):
    data = _tiny_graph()
    data["edges"].append(edge)
    assert checks.graph_invariants(data)[broken]


def _built_graph(tmp_path):
    from stressgraph import cli

    paths = generate.write_inputs(tmp_path / "in", SMALL, 3, ())
    with redirect_stdout(io.StringIO()):
        assert cli.main(["ingest", "--corpus", paths["corpus"], "--min-df", "2",
                         "--out", str(tmp_path / "ingest")]) == 0
        assert cli.main(["build-graph", "--tokenized", str(tmp_path / "ingest" / "tokenized.json"),
                         "--window", "5", "--out", str(tmp_path / "graph")]) == 0
    return (workloads.read_json(tmp_path / "graph" / "graph.json"),
            workloads.read_json(tmp_path / "ingest" / "tokenized.json"))


def test_spot_check_agrees_with_the_built_graph_and_catches_a_changed_weight(tmp_path):
    data, tokenized = _built_graph(tmp_path)
    assert all(not f for f in checks.graph_invariants(data).values())
    assert all(not f for f in checks.adjacency_checks(data).values())
    assert checks.spot_check_weights(data, tokenized, 5, np.random.default_rng(0), 40) == []
    for kind in ("doc-word", "word-word"):
        changed = json.loads(json.dumps(data))
        for edge in changed["edges"]:
            if edge["kind"] == kind:
                edge["w"] *= 1.001
        assert checks.spot_check_weights(changed, tokenized, 5, np.random.default_rng(0), 40)


def _smoke_workloads(monkeypatch):
    smaller = {
        "graph-longdocs": dict(n_docs=50, min_len=30, max_len=60, lexicon=1500),
        "train-embed": dict(n_docs=80, min_len=10, max_len=20, lexicon=600, embedding_dim=32),
        "conv-head": dict(n_docs=40, min_len=10, max_len=30, lexicon=600, embedding_dim=768),
    }

    def shrink(w):
        part = shrink(w.part) if w.part is not None else None
        return dataclasses.replace(w, shape=dataclasses.replace(w.shape, **smaller[w.name]), part=part)

    table = {name: shrink(w) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", table)
    # Smoke-size test splits are too small for the F1 floor to mean anything.
    monkeypatch.setattr(workloads, "F1_FLOOR", 0.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_exactly_the_declared_metrics(workload, trace, tmp_path, monkeypatch):
    _smoke_workloads(monkeypatch)
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0, out.getvalue()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    saved = json.loads((tmp_path / "work" / "result.json").read_text())
    assert set(saved["metrics"]) >= set(result["metrics"])
    if trace:
        # Single-threaded workloads: span self times plus the uncovered
        # remainder add up to the traced wall time.
        share = result["metrics"]["trace.accounted_share"]["value"]
        if workload != "train-embed":
            assert share == pytest.approx(1.0, abs=1e-6)
        else:
            assert share >= 1.0 - 1e-6


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-embed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_records_every_span_from_many_threads():
    import threading

    import tracing

    tracer = tracing.Tracer()
    traced = tracer.wrap("manifest.sha256_file", lambda path: None)
    n_threads, calls = 8, 300
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [traced(BENCH) for _ in range(calls)])
                   for _ in range(n_threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert len(tracer.spans) == n_threads * calls
    assert len({s.id for s in tracer.spans}) == n_threads * calls
    assert tracer.counters[0]["manifest.hashed_bytes"] == n_threads * calls * os.path.getsize(BENCH)


def test_self_times_subtract_children_and_uncovered_time_closes_the_books():
    import tracing

    Span = tracing.Span
    spans = [
        Span(0, "cli.build-graph", 0.0, 10.0, None, 0, 1),
        Span(1, "graph.slide_windows", 1.0, 4.0, 0, 0, 1),
        Span(2, "graph.ppmi_edges", 3.0, 6.0, 0, 0, 2),  # overlaps its sibling
        Span(3, "cli.train-gcn", 12.0, 15.0, None, 0, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(3.0) and selfs[3] == pytest.approx(3.0)
    assert tracing.uncovered(spans, 0.0, 16.0) == pytest.approx(3.0)
