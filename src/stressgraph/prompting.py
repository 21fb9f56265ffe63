"""Prompt construction, response parsing, and a batch completion driver.

Prompt bytes are canonical: Unix newlines, no trailing spaces, and a single
trailing newline after the final "Output:" line. Few-shot prompts render the
instruction once, then each exemplar as an Input Text / Output pair, then the
query with an empty Output section.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

TASK_TEMPLATE = (
    "Task: Classify the following input text into one of the following "
    "two categories: [{categories}]"
)

# (positives, negatives) exemplar quotas per supported shot count.
SHOT_QUOTAS = {3: (2, 1), 10: (5, 5)}

DEFAULT_TOKEN_ENV = "COMPLETION_API_TOKEN"


@dataclass(frozen=True)
class PromptSpec:
    """Category vocabulary for the classification instruction.

    categories[0] names the positive class (label 1), categories[1] the
    negative class (label 0).
    """

    categories: tuple = ("minority stress", "no minority stress")

    def __post_init__(self):
        if len(self.categories) != 2:
            raise ValueError("exactly two categories are required")
        if len(set(self.categories)) != 2 or any(not c for c in self.categories):
            raise ValueError("categories must be distinct and non-empty")

    def category_for(self, label: int) -> str:
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        return self.categories[0] if label == 1 else self.categories[1]

    def label_of(self, category: str) -> int:
        if category == self.categories[0]:
            return 1
        if category == self.categories[1]:
            return 0
        raise ValueError(f"unknown category {category!r}")

    @property
    def task_line(self) -> str:
        return TASK_TEMPLATE.format(categories=", ".join(self.categories))


@dataclass(frozen=True)
class Shot:
    """One labeled exemplar."""

    doc_id: str
    text: str
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"shot label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class ShotSet:
    """Ordered exemplars; 3-shot means 2 positive + 1 negative, 10-shot 5 + 5."""

    shots: tuple

    def __post_init__(self):
        object.__setattr__(self, "shots", tuple(self.shots))
        k = len(self.shots)
        if k in SHOT_QUOTAS:
            n_pos = sum(1 for s in self.shots if s.label == 1)
            want_pos, want_neg = SHOT_QUOTAS[k]
            if n_pos != want_pos:
                raise ValueError(
                    f"{k}-shot set needs {want_pos} positive + {want_neg} negative "
                    f"exemplars, got {n_pos} positive"
                )

    @property
    def k(self) -> int:
        return len(self.shots)


def prompt_sha256(prompt: str) -> str:
    """Hex SHA-256 of the prompt's UTF-8 bytes: the key of a prompt in a transcript store."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass
class CompletionTranscript:
    """One prompt/response exchange; label None marks a parse or transport failure."""

    prompt: str
    response: str | None
    label: int | None
    meta: dict = field(default_factory=dict)

    @property
    def prompt_sha256(self) -> str:
        return prompt_sha256(self.prompt)

    @property
    def failed(self) -> bool:
        return self.label is None

    def as_dict(self) -> dict:
        return {
            "prompt_sha256": self.prompt_sha256,
            "prompt": self.prompt,
            "response": self.response,
            "label": self.label,
            "meta": self.meta,
        }

    @staticmethod
    def from_dict(payload: dict) -> "CompletionTranscript":
        return CompletionTranscript(
            prompt=payload["prompt"],
            response=payload.get("response"),
            label=payload.get("label"),
            meta=dict(payload.get("meta", {})),
        )


def build_zero_shot(text: str, spec: PromptSpec = PromptSpec()) -> str:
    """Instruction, the input text, and an empty Output section."""
    return build_few_shot(ShotSet(shots=()), text, spec)


def build_few_shot(shots: ShotSet, text: str, spec: PromptSpec = PromptSpec()) -> str:
    """Exemplar Input/Output pairs in shot order, then the query."""
    if not text:
        raise ValueError("cannot build a prompt from empty text")
    parts = [spec.task_line, ""]
    for shot in shots.shots:
        parts.extend(
            ["Input Text:", shot.text, "", "Output:", spec.category_for(shot.label), ""]
        )
    parts.extend(["Input Text:", text, "", "Output:", ""])
    return "\n".join(parts)


def compose_shots(pool, k: int, seed: int, exclude_ids=None) -> ShotSet:
    """Seeded exemplar selection meeting the class quota for k.

    Draws the positive block, then the negative block, then interleaves the
    two with a seeded permutation. pool entries are Shot objects or
    (doc_id, text, label) triples; exclude_ids are never selected.
    """
    if k not in SHOT_QUOTAS:
        raise ValueError(f"supported shot counts are {sorted(SHOT_QUOTAS)}, got {k}")
    excluded = set(exclude_ids) if exclude_ids else set()
    shots = [s if isinstance(s, Shot) else Shot(*s) for s in pool]
    shots = [s for s in shots if s.doc_id not in excluded]
    positives = [s for s in shots if s.label == 1]
    negatives = [s for s in shots if s.label == 0]
    want_pos, want_neg = SHOT_QUOTAS[k]
    if len(positives) < want_pos or len(negatives) < want_neg:
        raise ValueError(
            f"{k}-shot composition needs {want_pos} positive and {want_neg} negative "
            f"examples; pool has {len(positives)} / {len(negatives)}"
        )
    rng = np.random.default_rng(seed)
    chosen_pos = [positives[i] for i in rng.choice(len(positives), want_pos, replace=False)]
    chosen_neg = [negatives[i] for i in rng.choice(len(negatives), want_neg, replace=False)]
    block = chosen_pos + chosen_neg
    order = rng.permutation(k)
    return ShotSet(shots=tuple(block[i] for i in order))


def parse_label(response: str, spec: PromptSpec = PromptSpec()) -> int | None:
    """Map a raw response to a label by containment; None marks a parse failure.

    Matching is case-insensitive on the trimmed response. Longer category
    strings are checked first so that a category that embeds the other (e.g.
    a negated form) is not shadowed.
    """
    if response is None:
        return None
    normalized = response.strip().casefold()
    if not normalized:
        return None
    for category in sorted(spec.categories, key=len, reverse=True):
        if category.casefold() in normalized:
            return spec.label_of(category)
    return None


class CompletionClient(abc.ABC):
    """Minimal completion interface: one prompt in, one response string out."""

    model_tag: str = "unknown"

    @abc.abstractmethod
    def complete(self, prompt: str) -> str:
        raise NotImplementedError


class CannedClient(CompletionClient):
    """Test double replaying fixed responses.

    responses may be a constant string, a dict keyed by prompt or by prompt
    sha256, or a callable prompt -> response.
    """

    def __init__(self, responses, model_tag: str = "canned"):
        self.responses = responses
        self.model_tag = model_tag
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if isinstance(self.responses, str):
            return self.responses
        if callable(self.responses):
            return self.responses(prompt)
        key = prompt if prompt in self.responses else prompt_sha256(prompt)
        return self.responses[key]


class HTTPChatClient(CompletionClient):
    """Generic chat-completion HTTP client; the auth token comes from the env."""

    def __init__(
        self,
        endpoint: str,
        model_tag: str,
        token_env: str = DEFAULT_TOKEN_ENV,
        timeout: float = 60.0,
    ):
        self.endpoint = endpoint
        self.model_tag = model_tag
        self.token_env = token_env
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        # Imported here: this is the only code that sends a request.
        import urllib.error
        import urllib.request

        payload = json.dumps(
            {
                "model": self.model_tag,
                "messages": [{"role": "user", "content": prompt}],
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(
            self.endpoint, data=payload, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                body = json.loads(reply.read().decode("utf-8"))
        except (urllib.error.URLError, json.JSONDecodeError, TimeoutError) as exc:
            raise RuntimeError(f"completion request failed: {exc}") from exc
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise RuntimeError(f"malformed completion payload: {exc}") from exc


def _decode_transcript(line: bytes) -> CompletionTranscript:
    """One store line as a transcript; ValueError when it is not a well-typed record."""
    payload = json.loads(line.decode("utf-8"))
    if (not isinstance(payload, dict) or not isinstance(payload.get("prompt"), str)
            or not isinstance(payload.get("meta", {}), dict)):
        raise ValueError("not a transcript record (an object with a string prompt)")
    if not isinstance(payload.get("response"), (str, type(None))):
        raise ValueError("transcript response must be a string or null")
    label = payload.get("label")
    if label is not None and (type(label) is not int or label not in (0, 1)):
        raise ValueError("transcript label must be 0, 1 or null")
    return CompletionTranscript.from_dict(payload)


def load_transcript_store(path) -> dict:
    """Read a transcript JSONL store into a prompt-sha -> transcript map.

    An unterminated final line that does not decode is a torn append (a
    crash mid-write) and is skipped, so its prompt is sent again on resume;
    an undecodable line anywhere else is a ValueError.
    """
    store: dict[str, CompletionTranscript] = {}
    if not os.path.exists(path):
        return store
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                store_entry = _decode_transcript(line)
            except ValueError as exc:
                if not line.endswith(b"\n"):
                    break
                raise ValueError(f"transcript store line {line_no}: {exc}") from None
            store[store_entry.prompt_sha256] = store_entry
    return store


def append_transcript(path, transcript: CompletionTranscript) -> None:
    """Append one JSONL record on a line of its own.

    After a torn append the file ends in an unterminated fragment; it is cut
    off first (or, when it is a whole record that only lacks its newline,
    terminated), so the new record never fuses with it into a corrupt line.
    """
    record = json.dumps(transcript.as_dict(), sort_keys=True) + "\n"
    with open(path, "ab+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                data = fh.read()
                start = data.rfind(b"\n") + 1
                try:
                    _decode_transcript(data[start:])
                except ValueError:
                    fh.truncate(start)
                else:
                    fh.write(b"\n")
        fh.write(record.encode("utf-8"))
        fh.flush()


def run_batch(
    client: CompletionClient,
    prompts,
    rate: float | None = None,
    retries: int = 0,
    store_path=None,
    spec: PromptSpec = PromptSpec(),
    sleep=time.sleep,
    clock=time.monotonic,
) -> list:
    """Dispatch prompts sequentially, one transcript per prompt, in order.

    Prompts whose stored transcript holds a response (parsed or not) are not
    re-sent, so an interrupted run resumes where it stopped. rate caps
    dispatch at that many requests per second; a transport failure that
    survives all retries still yields a transcript (response None, failure
    recorded in meta), which is sent again on resume, its stored attempts
    added to the new ones.
    """
    prompts = list(prompts)
    if not prompts:
        raise ValueError("no prompts to run")
    store = load_transcript_store(store_path) if store_path else {}
    min_interval = 1.0 / rate if rate else 0.0
    last_dispatch = None
    transcripts = []
    for prompt in prompts:
        sha = prompt_sha256(prompt)
        stored = store.get(sha)
        if stored is not None and stored.response is not None:
            transcripts.append(stored)
            continue
        prior = stored.meta.get("attempts") if stored is not None else None
        prior = prior if type(prior) is int else 0
        response = None
        error = None
        attempts = 0
        for attempt in range(retries + 1):
            attempts = attempt + 1
            if min_interval:
                now = clock()
                if last_dispatch is not None and now - last_dispatch < min_interval:
                    sleep(min_interval - (now - last_dispatch))
                last_dispatch = clock()
            try:
                response = client.complete(prompt)
                error = None
                break
            except Exception as exc:
                error = str(exc)
        meta = {
            "model": client.model_tag,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "attempts": prior + attempts,
        }
        if error is not None:
            meta["error"] = error
        transcript = CompletionTranscript(
            prompt=prompt,
            response=response,
            label=parse_label(response, spec) if response is not None else None,
            meta=meta,
        )
        if store_path:
            append_transcript(store_path, transcript)
        store[sha] = transcript
        transcripts.append(transcript)
    return transcripts


def transcript_predictions(transcripts, failures_as_negative: bool = False):
    """Extract (index, label) prediction pairs and the failure count.

    A transcript that is None (missing) or has no parsed label is a failure.
    Failures are skipped by default; with failures_as_negative they predict
    the negative class instead of being dropped.
    """
    pairs = []
    failures = 0
    for idx, transcript in enumerate(transcripts):
        if transcript is None or transcript.label is None:
            failures += 1
            if failures_as_negative:
                pairs.append((idx, 0))
        else:
            pairs.append((idx, transcript.label))
    return pairs, failures
