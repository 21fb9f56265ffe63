"""Run manifests: enough provenance to reproduce any pipeline command.

A manifest records the command, the fully resolved configuration, the seeds,
SHA-256 digests of every input file, and the path + digest of every artifact
the command wrote. Wall-clock time and the worker-pool width ride along for
audit; they are the only fields that vary between identical reruns.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class RunManifest:
    command: str
    config: dict
    seeds: list
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    thread_count: int = 1

    def add_input(self, path) -> None:
        self.inputs[str(path)] = sha256_file(path)

    def add_output(self, path) -> None:
        self.outputs[str(path)] = sha256_file(path)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "seeds": list(self.seeds),
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "wall_clock_seconds": self.wall_clock_seconds,
            "thread_count": self.thread_count,
        }


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def atomic_write(path, binary: bool = False):
    """File handle on path + ".tmp", renamed over path when the block succeeds.

    The handle takes bytes when binary is set, else UTF-8 text written without
    newline translation. When the block or the rename fails, the temp file is
    removed and path keeps its old content.
    """
    tmp = f"{os.fspath(path)}.tmp"
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_manifest(path, manifest: RunManifest) -> None:
    with atomic_write(path) as fh:
        json.dump(manifest.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunManifest(
        command=payload["command"],
        config=payload["config"],
        seeds=list(payload["seeds"]),
        inputs=dict(payload["inputs"]),
        outputs=dict(payload["outputs"]),
        wall_clock_seconds=float(payload["wall_clock_seconds"]),
        thread_count=int(payload["thread_count"]),
    )
