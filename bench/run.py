"""Pipeline benchmark for stressgraph.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the seed,
repeats the workload's command sequence for S seconds, checks every output,
and prints one ``metric: value unit`` line per metric followed by a final JSON
line ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
JSON carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced repetitions and carries the per-layer metrics.
See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench-work")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Imports numpy, scipy and every module the benchmark loads, in a fresh
# interpreter; prints the seconds that took.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
t0 = time.perf_counter()
import numpy, scipy, tracing, workloads
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info(np) -> dict:
    """BLAS name, version and the thread count the library reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    if libs:
        import ctypes

        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(np, scipy, args, jobs) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "blas_threads_env": BLAS_THREADS,
        "jobs": jobs,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def file_digests(paths: dict) -> dict:
    digests = {}
    for name, path in sorted(paths.items()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        digests[name] = digest.hexdigest()
    return digests


class Ledger:
    """Operations attempted and failed: commands, completion requests, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, name: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.append(f"{name}: {'; '.join(str(f) for f in failures)[:300]}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes for the benchmark's imports."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, BENCH_DIR], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def setup(workload, seed, jobs, ledger):
    """Set up SETUP_REPEATS times: import in a fresh interpreter, generate and
    write the inputs, then ingest them once.

    Returns (input paths, median seconds of one set-up, median import seconds,
    input digests).
    """
    from workloads import Rep, write_inputs

    times, imports, digests, paths = [], [], [], None
    for k in range(SETUP_REPEATS):
        out = os.path.join(WORK, f"inputs-{k}")
        imports.append(import_seconds())
        t0 = time.perf_counter()
        written = write_inputs(out, workload, seed)
        Rep(workload, written, os.path.join(WORK, f"setup-{k}"), jobs, seed).stage_ingest()
        times.append(imports[-1] + time.perf_counter() - t0)
        digests.append(file_digests(written))
        shutil.rmtree(os.path.join(WORK, f"setup-{k}"))
        if k == 0:
            paths = written
        else:
            shutil.rmtree(out)
    ledger.check("input digests identical across generations",
                 [] if all(d == digests[0] for d in digests) else ["generator is not deterministic"])
    return paths, median(times), median(imports), digests[0]


def warmup_checks(rep, ledger) -> dict:
    """Graph invariants, brute-force weight spot checks and artifact counts, on the warm-up repetition."""
    import numpy as np

    import checks
    from workloads import WINDOW, read_json

    counts = {}
    if "build_graph" in rep.workload.stages:
        graph_path = rep.path("graph", "graph.json")
        data = read_json(graph_path)
        tokenized = read_json(rep.path("ingest", "tokenized.json"))
        for name, failures in checks.graph_invariants(data).items():
            ledger.check("graph.json " + name, failures)
        for name, failures in checks.adjacency_checks(data).items():
            ledger.check("adjacency " + name, failures)
        rng = np.random.default_rng(rep.seed)
        ledger.check("tfidf/ppmi spot check", checks.spot_check_weights(data, tokenized, WINDOW, rng))
        counts.update(checks.graph_counts(data, tokenized, WINDOW))
        counts["graph.json_mb"] = os.path.getsize(graph_path) / 1e6
    for name, path in rep.inputs.items():
        if name.endswith("tgse"):
            counts["convnet.seq_mb"] = os.path.getsize(path) / 1e6
    return counts


def run_rep(rep, ledger, tracer=None):
    """Run one repetition and book its operations; returns (wall seconds, start, end) or None on failure."""
    gc.collect()  # no repetition pays for the previous one's garbage
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        wall = rep.run()
    except Exception as exc:  # a failed command or check ends the run; it is reported, not raised
        ledger.check(f"repetition {os.path.basename(rep.out)}", [repr(exc)])
        return None
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    ledger.attempted += rep.commands + rep.requests
    ledger.failed += rep.failed_requests
    for name, failures in rep.checks:
        ledger.check(name, failures)
    return wall, t0, t1


def measure(workload, inputs, args, jobs, ledger, tracer, reference):
    """Repeat the command sequence for args.seconds; returns the repetition records.

    Every repetition's output digests must equal ``reference``. With tracing,
    untraced and traced repetitions alternate.
    """
    from workloads import Rep

    reps = []
    started = time.perf_counter()
    while True:
        index = len(reps)
        traced = bool(args.trace) and index % 2 == 1
        rep = Rep(workload, inputs, os.path.join(WORK, f"rep-{index}"), jobs, args.seed)
        tracer.run = index
        timing = run_rep(rep, ledger, tracer if traced else None)
        if timing is None:
            break
        digests = rep.output_digests()
        changed = sorted(k for k in set(reference) | set(digests) if reference.get(k) != digests.get(k))
        ledger.check("output digests identical across repetitions", changed)
        reps.append({"traced": traced, "wall": timing[0], "span": (index,) + timing[1:],
                     "stage_s": rep.stage_s, "test_f1": rep.test_f1, "docs": rep.docs_processed,
                     "part_test_f1": rep.part.test_f1 if rep.part is not None else None,
                     "counts": rep.counts})
        shutil.rmtree(rep.out)

        untraced = sum(1 for r in reps if not r["traced"])
        enough = untraced >= MIN_REPS if not args.trace else min(untraced, len(reps) - untraced) >= MIN_TRACED_REPS
        longest = max(r["wall"] for r in reps)
        if enough and time.perf_counter() - started + longest > args.seconds:
            break
    return reps


def end_to_end(reps, setup_s, workload) -> dict:
    """End-to-end metrics of the untraced repetitions.

    A timing is that of the fastest repetition. On a shared machine other
    tenants' load only ever adds time, and it comes in spells that can cover
    most of a run, which a median over the run's repetitions does not filter.
    """
    plain = [r for r in reps if not r["traced"]]

    def stage(name):
        return [r["stage_s"][name] for r in plain if name in r["stage_s"]]

    walls = [r["wall"] for r in plain]
    out = {
        "setup_s": (setup_s, "s"),
        "total_s": (min(walls), "s"),
        "total_s.median": (median(walls), "s"),
        "ingest_s": (min(stage("ingest")), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "test_f1": (median([r["test_f1"] for r in plain]), "ratio"),
    }
    # Stage timings, reported only by the workloads whose sequence has the stage.
    for key, name in (("build_graph", "build_graph_s"), ("export", "export_s"), ("prompt_eval", "prompt_eval_s")):
        if key in workload.stages:
            out[name] = (min(stage(key)), "s")
    for key in ("train_gcn_identity", "train_gcn_embed"):
        if key in workload.stages:
            out["train_gcn_s"] = (min(stage(key)), "s")
    if stage("train_conv"):
        out["train_conv_docs_per_s"] = (
            max(r["docs"] / r["stage_s"]["train_conv"] for r in plain), "docs/s")
    if workload.part is not None:
        out[f"{workload.part.name}.test_f1"] = (median([r["part_test_f1"] for r in plain]), "ratio")
    return out


def seed_digest_report(workload, seed, digests) -> list:
    """Per artifact: does its digest match the one recorded at the seed commit?"""
    path = os.path.join(BENCH_DIR, "seed_digests.json")
    with open(path, "r", encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    lines = []
    for name, digest in sorted(digests.items()):
        if recorded is None or name not in recorded:
            verdict = "not recorded"
        else:
            verdict = "same" if recorded[name] == digest else "CHANGED"
        lines.append(f"digest {name}: {digest} ({verdict} vs seed commit)")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "stressgraph")):
        print(f"bench: no stressgraph sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, BENCH_DIR]
    import numpy as np
    import scipy

    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs = min(2, len(os.sched_getaffinity(0)))
    env = environment(np, scipy, args, jobs)

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ledger = Ledger()
    try:
        inputs, setup_s, import_s, input_digests = setup(workload, args.seed, jobs, ledger)
    except Exception as exc:  # a pipeline failure during set-up is reported as a failed operation
        ledger.check("set-up", [repr(exc)])
        print(json.dumps({"correct": False, "attempted": ledger.attempted, "failed": ledger.failed,
                          "metrics": {}}))
        return 1
    # Warm-up: one full repetition before the clock runs. The first pass
    # through the pipeline is measurably slower (allocator growth, pool
    # start-up); its outputs are the reference digests and get the expensive
    # checks. Its wall time is printed as warmup_s.
    warm = workloads.Rep(workload, inputs, os.path.join(WORK, "warm-up"), jobs, args.seed)
    timing = run_rep(warm, ledger)
    reps, digests, counts = [], {}, {}
    if timing is not None:
        digests = warm.output_digests()
        counts = dict(warm.counts)
        counts.update(warmup_checks(warm, ledger))
        shutil.rmtree(warm.out)
        tracer = tracing.Tracer()
        reps = measure(workload, inputs, args, jobs, ledger, tracer, digests)
    metrics = end_to_end(reps, setup_s, workload) if reps else {}
    metrics["import_s"] = (import_s, "s")
    if timing is not None:
        metrics["warmup_s"] = (timing[0], "s")
    traced = [r for r in reps if r["traced"]]
    if traced:
        metrics.update(tracing.layer_metrics(tracer, [r["span"] for r in traced]))
        metrics.update(artifact_counts(counts))
        metrics["trace.overhead_s"] = (
            min(r["wall"] for r in traced) - min(r["wall"] for r in reps if not r["traced"]), "s")
        tracer.write(os.path.join(WORK, "spans.jsonl"))
    for path in glob.glob(os.path.join(WORK, "inputs-*")):
        shutil.rmtree(path)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        ledger.check("metrics reported", [f"missing {missing}"])
    all_digests = dict(digests)
    all_digests.update({"inputs/" + k: v for k, v in input_digests.items()})
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name, "")
    report(workload, why, env, reps, metrics, ledger, all_digests, args.seed)

    result = {
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]), "unit": metrics[m["name"]][1]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def artifact_counts(counts: dict) -> dict:
    """Per-layer counts taken from the warm-up repetition's artifacts; 0 where a layer did not run."""
    out = {k: (counts.get(k, 0), "count") for k in (
        "graph.windows", "graph.ppmi_edge_count", "graph.adj_nnz", "graph.adj_nnz_doc_cols",
        "prompting.requests", "prompting.attempts", "prompting.store_hits")}
    for k in ("graph.json_mb", "convnet.seq_mb"):
        out[k] = (counts.get(k, 0.0), "MB")
    out["prompting.success_per_attempt"] = (counts.get("prompting.success_per_attempt", 0.0), "ratio")
    return out


def report(workload, why, env, reps, metrics, ledger, digests, seed) -> None:
    """Human-readable lines: environment, every metric with its unit, failures, digests."""
    print(f"workload {workload.name}: {why}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"repetitions: {sum(not r['traced'] for r in reps)} untraced, "
          f"{sum(r['traced'] for r in reps)} traced (closed loop, one client; timings from the fastest repetition)")
    print("repetition walls (s, traced): " + json.dumps([[round(r["wall"], 3), r["traced"]] for r in reps]))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value:.6g} {unit}")
    print(f"ops: {ledger.attempted} count")
    print(f"ops_failed: {ledger.failed} count")
    for message in ledger.messages:
        print("FAILED " + message)
    for line in seed_digest_report(workload.name, seed, digests):
        print(line)
    with open(os.path.join(WORK, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "metrics": metrics, "digests": digests,
                   "ops": ledger.attempted, "ops_failed": ledger.failed,
                   "failures": ledger.messages}, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
