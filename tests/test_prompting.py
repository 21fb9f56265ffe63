"""Tests for prompt construction, response parsing, and the batch driver."""

import hashlib
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stressgraph.prompting import (
    CannedClient,
    CompletionTranscript,
    HTTPChatClient,
    PromptSpec,
    Shot,
    ShotSet,
    append_transcript,
    build_few_shot,
    compose_shots,
    load_transcript_store,
    parse_label,
    read_prompt_records,
    run_batch,
    transcript_predictions,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

EXAMPLE_TEXT = (
    "I have to be straight if I want things in life. Being a lesbian will "
    "mean having a life where everything I want will be extremely hard to get."
)


def zero_shot(text: str) -> str:
    """The zero-shot prompt: build_few_shot with no shots."""
    return build_few_shot(ShotSet(shots=()), text)


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def ten_shots() -> ShotSet:
    words = ["zero", "one", "two", "three", "four"]
    shots = []
    for i, word in enumerate(words):
        shots.append(Shot(doc_id=f"p{i}", text=f"Positive example {word}.", label=1))
        shots.append(Shot(doc_id=f"n{i}", text=f"Negative example {word}.", label=0))
    return ShotSet(shots=tuple(shots))


# --------------------------------------------------------------- prompts


def test_zero_shot_matches_golden_bytes():
    assert zero_shot(EXAMPLE_TEXT) == golden("zero_shot.txt")


def test_zero_shot_substitution_and_determinism():
    prompt = zero_shot("x")
    assert prompt == (
        "Task: Classify the following input text into one of the following "
        "two categories: [minority stress, no minority stress]\n\n"
        "Input Text:\nx\n\nOutput:\n"
    )
    assert zero_shot("x") == prompt
    with pytest.raises(ValueError):
        zero_shot("")


def test_zero_shot_canonical_newlines():
    prompt = zero_shot(EXAMPLE_TEXT)
    assert "\r" not in prompt
    assert prompt.endswith("Output:\n")
    assert not any(line != line.rstrip() for line in prompt.split("\n"))


def test_few_shot_matches_golden_bytes():
    prompt = build_few_shot(ten_shots(), "Query text goes here.")
    assert prompt == golden("few_shot_10.txt")


def test_few_shot_empty_set_is_zero_shot():
    assert build_few_shot(ShotSet(shots=()), "hello") == (
        PromptSpec().task_line + "\n\nInput Text:\nhello\n\nOutput:\n"
    )


def test_few_shot_exemplar_count():
    shots = ShotSet(
        shots=(
            Shot("a", "first", 1),
            Shot("b", "second", 1),
            Shot("c", "third", 0),
        )
    )
    prompt = build_few_shot(shots, "query")
    # Three exemplar Output sections plus the final empty one.
    assert prompt.count("Output:") == 4
    assert prompt.count("Input Text:") == 4
    assert prompt.count("minority stress") >= 3
    # Instruction appears exactly once, at the top.
    assert prompt.count("Task: Classify") == 1
    with pytest.raises(ValueError):
        build_few_shot(shots, "")


def test_shot_set_quota_validation():
    with pytest.raises(ValueError):
        ShotSet(shots=(Shot("a", "x", 1), Shot("b", "y", 0), Shot("c", "z", 0)))
    with pytest.raises(ValueError):
        ShotSet(shots=tuple(Shot(f"s{i}", "t", 1) for i in range(10)))
    # Quotas only constrain the supported shot counts.
    ShotSet(shots=(Shot("a", "x", 1),))
    with pytest.raises(ValueError):
        Shot("a", "x", 2)


def test_prompt_spec_validation():
    with pytest.raises(ValueError):
        PromptSpec(categories=("only",))
    with pytest.raises(ValueError):
        PromptSpec(categories=("same", "same"))
    spec = PromptSpec()
    assert spec.category_for(1) == "minority stress"
    assert spec.category_for(0) == "no minority stress"
    assert spec.label_of("minority stress") == 1
    with pytest.raises(ValueError):
        spec.label_of("nope")
    with pytest.raises(ValueError):
        spec.category_for(2)


# ----------------------------------------------------------- composition


def pool(n_pos: int, n_neg: int):
    return [Shot(f"p{i}", f"pos {i}", 1) for i in range(n_pos)] + [
        Shot(f"n{i}", f"neg {i}", 0) for i in range(n_neg)
    ]


def test_compose_exact_pool_uses_everything():
    shots = compose_shots(pool(5, 5), k=10, seed=0)
    assert len(shots.shots) == 10
    assert {s.doc_id for s in shots.shots} == {f"p{i}" for i in range(5)} | {
        f"n{i}" for i in range(5)
    }


def test_compose_respects_quota():
    shots = compose_shots(pool(10, 10), k=3, seed=1)
    labels = [s.label for s in shots.shots]
    assert labels.count(1) == 2 and labels.count(0) == 1


def test_compose_insufficient_pool():
    with pytest.raises(ValueError):
        compose_shots(pool(1, 5), k=3, seed=0)
    with pytest.raises(ValueError):
        compose_shots(pool(5, 4), k=10, seed=0)
    with pytest.raises(ValueError):
        compose_shots(pool(10, 10), k=7, seed=0)


def test_compose_deterministic_and_seed_sensitive():
    a = compose_shots(pool(10, 10), k=10, seed=3)
    b = compose_shots(pool(10, 10), k=10, seed=3)
    c = compose_shots(pool(10, 10), k=10, seed=4)
    assert [s.doc_id for s in a.shots] == [s.doc_id for s in b.shots]
    assert [s.doc_id for s in a.shots] != [s.doc_id for s in c.shots]


def test_compose_excludes_ids():
    excluded = {f"p{i}" for i in range(8)}
    shots = compose_shots(pool(10, 10), k=3, seed=0, exclude_ids=excluded)
    chosen = {s.doc_id for s in shots.shots}
    assert not (chosen & excluded)
    # Excluding too much starves the quota.
    with pytest.raises(ValueError):
        compose_shots(pool(10, 10), k=10, seed=0, exclude_ids={f"p{i}" for i in range(6)})


# --------------------------------------------------------------- parsing


def test_parse_label_examples():
    assert parse_label("no minority stress") == 0
    assert parse_label("  Minority Stress\n") == 1
    assert parse_label("it depends") is None
    assert parse_label("") is None
    assert parse_label(None) is None


def test_parse_label_containment_prefers_longer_category():
    # The negative category embeds the positive one; longest-first wins.
    assert parse_label("The text shows no minority stress here.") == 0
    assert parse_label("This is clearly minority stress in my view.") == 1


def test_parse_label_round_trips_categories():
    spec = PromptSpec()
    for label in (0, 1):
        assert parse_label(spec.category_for(label), spec) == label


def test_parse_label_custom_categories():
    spec = PromptSpec(categories=("cat", "dog"))
    assert parse_label("CAT!", spec) == 1
    assert parse_label("a dog barked", spec) == 0


# ------------------------------------------------------------ transcripts


def test_transcript_sha_and_roundtrip(tmp_path):
    t = CompletionTranscript(prompt="abc", response="minority stress", label=1, meta={"m": 1})
    assert t.prompt_sha256 == hashlib.sha256(b"abc").hexdigest()
    assert t.label is not None
    append_transcript(tmp_path / "transcripts.jsonl", t)
    back = load_transcript_store(tmp_path / "transcripts.jsonl")[t.prompt_sha256]
    assert back == t
    failed = CompletionTranscript(prompt="x", response=None, label=None)
    assert failed.label is None


def test_transcript_store_roundtrip(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    a = CompletionTranscript(prompt="one", response="minority stress", label=1)
    b = CompletionTranscript(prompt="two", response=None, label=None, meta={"error": "boom"})
    append_transcript(path, a)
    append_transcript(path, b)
    store = load_transcript_store(path)
    assert set(store) == {a.prompt_sha256, b.prompt_sha256}
    assert store[b.prompt_sha256].label is None
    assert load_transcript_store(tmp_path / "missing.jsonl") == {}


def test_transcript_store_skips_torn_final_line(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    a = CompletionTranscript(prompt="one", response="minority stress", label=1)
    b = CompletionTranscript(prompt="two", response="no minority stress", label=0)
    append_transcript(path, a)
    append_transcript(path, b)
    whole = path.read_bytes()
    path.write_bytes(whole[:-10])
    assert set(load_transcript_store(path)) == {a.prompt_sha256}
    # A whole record that only lacks its newline still loads.
    path.write_bytes(whole[:-1])
    assert set(load_transcript_store(path)) == {a.prompt_sha256, b.prompt_sha256}


@pytest.mark.parametrize("bad", [b'{"prompt": "x"', b"[1, 2]", b'{"response": "x"}', b"\xff"])
def test_transcript_store_rejects_corrupt_middle_line(tmp_path, bad):
    path = tmp_path / "transcripts.jsonl"
    append_transcript(path, CompletionTranscript(prompt="one", response=None, label=None))
    good = path.read_bytes()
    path.write_bytes(good + bad + b"\n" + good)
    with pytest.raises(ValueError, match="line 2"):
        load_transcript_store(path)


@pytest.mark.parametrize("record", [
    {"prompt": "x", "response": 5, "label": "abc"},
    {"prompt": "x", "response": ["r"], "label": None},
    {"prompt": "x", "response": "r", "label": 2},
    {"prompt": "x", "response": "r", "label": True},
    {"prompt": "x", "response": "r", "label": 1.0},
    {"prompt": "x", "response": "r", "label": "1"},
])
def test_transcript_store_rejects_mistyped_records(tmp_path, record):
    path = tmp_path / "transcripts.jsonl"
    line = json.dumps(record).encode()
    path.write_bytes(line + b"\n")
    with pytest.raises(ValueError, match="line 1: transcript"):
        load_transcript_store(path)
    # Unterminated, the same record is a torn final append and is skipped.
    path.write_bytes(line)
    assert load_transcript_store(path) == {}


# Arbitrary JSON values, transcript-shaped objects over them, and arbitrary bytes.
transcript_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["prompt", "response", "label", "meta"]) | st.text(max_size=2),
                      inner, max_size=4),
    max_leaves=8,
)
transcript_records = st.fixed_dictionaries(
    {"prompt": st.text(max_size=3)},
    optional={"response": transcript_values, "label": transcript_values, "meta": transcript_values},
)
transcript_lines = st.lists(
    (transcript_records | transcript_values).map(lambda v: json.dumps(v).encode())
    | st.binary(max_size=16),
    max_size=4,
).map(b"\n".join)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | transcript_lines | transcript_lines.map(lambda b: b + b"\n"))
@example(b'{"prompt": "x", "response": 5, "label": "abc"}\n')
def test_transcript_store_fuzz_loads_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("store") / "transcripts.jsonl"
    path.write_bytes(data)
    try:
        store = load_transcript_store(path)
    except ValueError:
        return
    for sha, transcript in store.items():
        assert transcript.prompt_sha256 == sha
        assert transcript.response is None or type(transcript.response) is str
        assert transcript.label is None or (type(transcript.label) is int and transcript.label in (0, 1))
        assert type(transcript.meta) is dict


def test_append_after_torn_tail_starts_a_new_line(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    a = CompletionTranscript(prompt="one", response="minority stress", label=1)
    b = CompletionTranscript(prompt="two", response=None, label=None)
    c = CompletionTranscript(prompt="three", response="no minority stress", label=0)
    append_transcript(path, a)
    append_transcript(path, b)
    path.write_bytes(path.read_bytes()[:-7])
    append_transcript(path, c)
    assert set(load_transcript_store(path)) == {a.prompt_sha256, c.prompt_sha256}
    # A whole but unterminated record is kept and terminated, not cut.
    path.write_bytes(path.read_bytes()[:-1])
    append_transcript(path, b)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == "" and len(lines) == 4
    assert set(load_transcript_store(path)) == {a.prompt_sha256, b.prompt_sha256, c.prompt_sha256}


# -------------------------------------------------------------- clients


def test_canned_client_modes():
    constant = CannedClient("minority stress")
    assert constant.complete("anything") == "minority stress"
    assert constant.calls == 1

    by_prompt = CannedClient({"q": "no minority stress"})
    assert by_prompt.complete("q") == "no minority stress"

    sha = hashlib.sha256(b"hidden").hexdigest()
    by_sha = CannedClient({sha: "minority stress"})
    assert by_sha.complete("hidden") == "minority stress"

    fn = CannedClient(lambda p: p.upper())
    assert fn.complete("abc") == "ABC"


def test_http_client_request_shape(monkeypatch):
    captured = {}

    class FakeReply:
        def __enter__(self):
            return self

        def __exit__(self, *args):
            return False

        def read(self):
            return json.dumps(
                {"choices": [{"message": {"content": "minority stress"}}]}
            ).encode()

    def fake_urlopen(request, timeout):
        captured["url"] = request.full_url
        captured["headers"] = dict(request.header_items())
        captured["body"] = json.loads(request.data.decode())
        captured["timeout"] = timeout
        return FakeReply()

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setenv("COMPLETION_API_TOKEN", "sekrit")
    client = HTTPChatClient(endpoint="http://example.test/v1/chat", model_tag="tag-1")
    reply = client.complete("hello")
    assert reply == "minority stress"
    assert captured["url"] == "http://example.test/v1/chat"
    assert captured["body"]["model"] == "tag-1"
    assert captured["body"]["messages"] == [{"role": "user", "content": "hello"}]
    assert captured["headers"].get("Authorization") == "Bearer sekrit"


@pytest.mark.parametrize("body", [{}, {"choices": []}, [], {"choices": [{"message": None}]}],
                         ids=["no-choices", "empty-choices", "not-an-object", "null-message"])
def test_http_client_names_a_malformed_completion_payload(monkeypatch, body):
    class FakeReply:
        def __enter__(self):
            return self

        def __exit__(self, *args):
            return False

        def read(self):
            return json.dumps(body).encode()

    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: FakeReply())
    client = HTTPChatClient(endpoint="http://example.test/v1/chat", model_tag="t")
    with pytest.raises(RuntimeError, match="^malformed completion payload: "):
        client.complete("x")


def test_http_client_wraps_transport_errors():
    client = HTTPChatClient(endpoint="http://127.0.0.1:9/unreachable", model_tag="t", timeout=0.2)
    with pytest.raises(RuntimeError):
        client.complete("x")


# ------------------------------------------------------------- run_batch


def test_run_batch_all_positive():
    client = CannedClient("minority stress")
    prompts = [zero_shot(f"text {i}") for i in range(5)]
    transcripts = run_batch(client, prompts)
    assert len(transcripts) == 5
    assert [t.prompt for t in transcripts] == prompts
    assert all(t.label == 1 for t in transcripts)
    assert all(t.meta["model"] == "canned" for t in transcripts)
    assert all(t.meta["attempts"] == 1 for t in transcripts)


def test_run_batch_requires_prompts():
    with pytest.raises(ValueError):
        run_batch(CannedClient("x"), [])


@pytest.mark.parametrize("rate", [-1.0, float("nan")])
def test_run_batch_refuses_a_negative_or_nan_rate_before_sending(rate):
    # Both used to send every request with no cap.
    client = CannedClient("minority stress")
    with pytest.raises(ValueError, match="^rate must be a non-negative number"):
        run_batch(client, [zero_shot("text")], rate=rate)
    assert client.calls == 0


def test_run_batch_persists_and_resumes(tmp_path):
    store = tmp_path / "transcripts.jsonl"
    client = CannedClient("no minority stress")
    prompts = [f"prompt {i}" for i in range(4)]
    first = run_batch(client, prompts[:2], store_path=store)
    assert client.calls == 2
    assert len(store.read_text().strip().split("\n")) == 2

    # The second run replays the stored transcripts and only sends new work.
    second = run_batch(client, prompts, store_path=store)
    assert client.calls == 4
    assert len(second) == 4
    assert second[0].prompt_sha256 == first[0].prompt_sha256
    assert all(t.label == 0 for t in second)
    assert len(store.read_text().strip().split("\n")) == 4


def test_run_batch_resume_resends_only_the_torn_prompt(tmp_path):
    store = tmp_path / "transcripts.jsonl"
    prompts = [f"prompt {i}" for i in range(4)]
    run_batch(CannedClient("minority stress"), prompts, store_path=store)
    # A crash in the middle of the last append leaves a torn final line.
    store.write_bytes(store.read_bytes()[:-20])

    client = CannedClient("minority stress")
    resumed = run_batch(client, prompts, store_path=store)
    assert client.calls == 1
    assert [t.prompt for t in resumed] == prompts
    lines = store.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == "" and len(lines) == 5
    assert all(json.loads(line)["prompt"] in prompts for line in lines[:-1])

    again = CannedClient("minority stress")
    run_batch(again, prompts, store_path=store)
    assert again.calls == 0


def test_run_batch_failure_after_retries():
    class Exploding(CannedClient):
        def complete(self, prompt):
            self.calls += 1
            raise RuntimeError("connection reset")

    client = Exploding("unused")
    transcripts = run_batch(client, ["a"], retries=2)
    assert client.calls == 3
    t = transcripts[0]
    assert t.label is None
    assert t.response is None
    assert t.meta["attempts"] == 3
    assert "connection reset" in t.meta["error"]


def test_run_batch_resends_transport_failures_on_resume(tmp_path):
    store = tmp_path / "transcripts.jsonl"

    def down(prompt):
        raise RuntimeError("connection reset")

    first = run_batch(CannedClient(down), ["a", "b"], retries=1, store_path=store)
    assert [(t.response, t.meta["attempts"]) for t in first] == [(None, 2), (None, 2)]

    client = CannedClient("minority stress")
    resumed = run_batch(client, ["a", "b"], retries=1, store_path=store)
    assert client.calls == 2
    assert [(t.label, t.meta["attempts"]) for t in resumed] == [(1, 3), (1, 3)]
    assert not any("error" in t.meta for t in resumed)
    # The store's last line per prompt wins, so a third run sends nothing.
    again = CannedClient("minority stress")
    assert run_batch(again, ["a", "b"], store_path=store) == resumed
    assert again.calls == 0


def test_run_batch_serves_parse_failures_from_the_store(tmp_path):
    store = tmp_path / "transcripts.jsonl"
    (first,) = run_batch(CannedClient("no idea"), ["a"], store_path=store)
    assert first.response == "no idea" and first.label is None
    client = CannedClient("minority stress")
    assert run_batch(client, ["a"], store_path=store) == [first]
    assert client.calls == 0


def test_run_batch_recovers_within_retries():
    state = {"n": 0}

    def flaky(prompt):
        state["n"] += 1
        if state["n"] < 3:
            raise RuntimeError("transient")
        return "minority stress"

    transcripts = run_batch(CannedClient(flaky), ["a"], retries=5)
    assert transcripts[0].label == 1
    assert transcripts[0].meta["attempts"] == 3
    assert "error" not in transcripts[0].meta


def test_run_batch_rate_limit_uses_injected_clock():
    sleeps = []
    client = CannedClient("minority stress")
    run_batch(
        client,
        [f"p{i}" for i in range(4)],
        rate=2.0,
        sleep=sleeps.append,
        clock=lambda: 0.0,
    )
    # A frozen clock forces the full 0.5 s gap before every later dispatch.
    assert len(sleeps) == 3
    assert all(abs(s - 0.5) < 1e-9 for s in sleeps)


@pytest.mark.parametrize("rate", [None, 0, 0.0])
def test_run_batch_none_or_zero_rate_means_no_cap(rate):
    sleeps = []
    run_batch(CannedClient("minority stress"), ["a", "b", "c"], rate=rate,
              sleep=sleeps.append, clock=lambda: 0.0)
    assert sleeps == []


def test_transcript_predictions_modes():
    transcripts = [
        CompletionTranscript(prompt="a", response="minority stress", label=1),
        CompletionTranscript(prompt="b", response="huh", label=None),
        CompletionTranscript(prompt="c", response="no minority stress", label=0),
    ]
    pairs, failures = transcript_predictions(transcripts)
    assert pairs == [(0, 1), (2, 0)]
    assert failures == 1
    pairs, failures = transcript_predictions(transcripts, failures_as_negative=True)
    assert pairs == [(0, 1), (1, 0), (2, 0)]
    assert failures == 1
    # A missing transcript (None) is a failure too.
    assert transcript_predictions([None, *transcripts[:1]]) == ([(1, 1)], 1)
    assert transcript_predictions([None], failures_as_negative=True) == ([(0, 0)], 1)


# Arbitrary JSON lines over the prompt record keys, and arbitrary bytes.
PROMPT_IDS = ["d0", "d1", "d2"]
prompt_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3) | st.sampled_from(PROMPT_IDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "prompt", "prompt_sha256"]) | st.text(max_size=2),
                      inner, max_size=4),
    max_leaves=8,
)
prompt_lines = st.lists(
    prompt_values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=16), max_size=5
).map(b"\n".join)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | prompt_lines)
@example(b'{"id": "d0", "prompt_sha256": "a"}\n{"id": "d1", "prompt_sha256": "a"}\n')
@example(b'{"id": "d0", "prompt_sha256": "a"}\n{"id": "d0", "prompt_sha256": "b"}\n')
@example(b"[" * 100_000)
def test_prompt_records_fuzz_load_or_raise_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("prompts") / "prompts.jsonl"
    path.write_bytes(data)
    try:
        records = read_prompt_records(path, PROMPT_IDS)
    except ValueError:
        return
    ids = [doc_id for doc_id, _ in records]
    assert len(set(ids)) == len(ids) and set(ids) <= set(PROMPT_IDS)
    assert all(type(sha) is str for _, sha in records)
