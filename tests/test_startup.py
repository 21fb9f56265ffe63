"""Start-up cost: commands that build no sparse matrix and send no request never
import scipy.sparse or urllib.request, and no command imports scipy.special or
scipy.stats (only the t-test loads scipy.special). Each case runs in a fresh
interpreter, because pytest itself has loaded scipy.sparse by the time a test runs."""

import json
import os
import subprocess
import sys

import pytest

import stressgraph
from stressgraph.corpus import load_tokenized
from test_cli import artifact_digests, write_corpus, write_sequences

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stressgraph.__file__)))
WATCHED = ("scipy.sparse", "urllib.request", "scipy.special", "scipy.stats")

# Runs the cli.main argument lists of argv[1] (JSON) in order, then prints their
# exit codes and which of the modules named by argv[2:] are loaded.
FRESH = """
import json, sys
from stressgraph import cli
exits = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"exits": exits, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def run_fresh(*commands) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps(commands), *WATCHED],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """ingest and split in one fresh interpreter: (paths, run_fresh result)."""
    root = tmp_path_factory.mktemp("startup")
    write_corpus(root / "corpus.jsonl")
    paths = {"root": root, "tokenized": str(root / "ingest" / "tokenized.json"),
             "split": str(root / "split" / "split.jsonl")}
    result = run_fresh(
        ["ingest", "--corpus", str(root / "corpus.jsonl"), "--min-df", "1",
         "--keep-stopwords", "--out", str(root / "ingest")],
        ["split", "--tokenized", paths["tokenized"], "--out", str(root / "split")],
    )
    return paths, result


def test_ingest_and_split_load_neither_scipy_sparse_nor_urllib(ingested):
    _, result = ingested
    assert result == {"exits": [0, 0], "loaded": []}


def test_build_graph_loads_scipy_sparse_on_first_use(ingested):
    paths, _ = ingested
    out = paths["root"] / "graph"
    result = run_fresh(["build-graph", "--tokenized", paths["tokenized"], "--out", str(out)])
    assert result == {"exits": [0], "loaded": ["scipy.sparse"]}
    assert (out / "graph.json").exists()


def test_train_conv_first_sparse_import_in_pool_threads(ingested):
    paths, _ = ingested
    sequences = paths["root"] / "sequences.bin"
    write_sequences(sequences, load_tokenized(paths["tokenized"]))
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = paths["root"] / f"conv-jobs{jobs}"
        result = run_fresh([
            "train-conv", "--tokenized", paths["tokenized"], "--split", paths["split"],
            "--sequences", str(sequences), "--kernel-sizes", "2,3", "--filters", "4",
            "--max-len", "16", "--epochs", "2", "--batch-size", "8",
            "--seeds", "0,1", "--jobs", jobs, "--out", str(outs[jobs]),
        ])
        assert result == {"exits": [0], "loaded": ["scipy.sparse"]}
    assert len(artifact_digests(outs["1"])) == 7
    assert artifact_digests(outs["1"]) == artifact_digests(outs["2"])
