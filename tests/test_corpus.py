"""Tests for corpus loading, tokenization, vocabulary, and stratified splits."""

import csv
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stressgraph.corpus import (
    DEFAULT_SPLIT_RATIOS,
    DEFAULT_STOPWORDS,
    SPLIT_NAMES,
    CorpusFormatError,
    RawDocument,
    SplitAssignment,
    TokenizedCorpus,
    TokenizerRules,
    build_vocabulary,
    load_corpus,
    load_split,
    load_tokenized,
    save_split,
    save_tokenized,
    stratified_split,
    tokenize,
    tokenize_corpus,
)


# ---------------------------------------------------------------- loading


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_load_jsonl_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "text": "hello world", "label": 1},
            {"id": "b", "text": "second doc", "label": 0, "source": "forum"},
            {"id": "c", "text": "no label here"},
        ],
    )
    docs = load_corpus(path)
    assert [d.id for d in docs] == ["a", "b", "c"]
    assert docs[0] == RawDocument(id="a", text="hello world", label=1)
    assert docs[1].source == "forum"
    assert docs[2].label is None


def test_load_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": 0}\n\n{"id": "b", "text": "y", "label": 1}\n')
    assert [d.id for d in load_corpus(path)] == ["a", "b"]


def test_load_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": 0}\nnot json\n')
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path)
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_load_jsonl_missing_fields(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(CorpusFormatError):
        load_corpus(path)


@pytest.mark.parametrize("record", [
    {"id": ["a"], "text": "x"}, {"id": 7, "text": "x"}, {"id": None, "text": "x"},
    {"id": "b", "text": 5}, {"id": "b", "text": ["x"]}, {"id": "b", "text": None},
])
def test_load_jsonl_rejects_non_string_id_or_text(tmp_path, record):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "a", "text": "x"}, record])
    with pytest.raises(CorpusFormatError, match="must be strings") as exc:
        load_corpus(path)
    assert exc.value.line_no == 2


def test_load_duplicate_id_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "a", "text": "x", "label": 0}, {"id": "a", "text": "y", "label": 1}])
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path)
    assert exc.value.line_no == 2


def test_load_bad_label_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    for bad in (2, -1, "yes", math.inf):
        _write_jsonl(path, [{"id": "a", "text": "x", "label": bad}])
        with pytest.raises(CorpusFormatError):
            load_corpus(path)


def test_load_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text('id,text,label\na,"hello, world",1\nb,plain,0\nc,unlabeled,\n')
    docs = load_corpus(path, format="csv")
    assert docs[0].text == "hello, world"
    assert docs[1].label == 0
    assert docs[2].label is None


def test_load_csv_error_names_the_line_the_record_starts_on(tmp_path):
    # Record "b" spans lines 2-3 (a quoted newline), a blank line 4 is skipped,
    # and record "c" with its bad label starts on line 5.
    path = tmp_path / "corpus.csv"
    path.write_text('id,text,label\nb,"two\nlines",1\n\nc,bad,7\n')
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(path, format="csv")
    assert exc.value.line_no == 5
    path.write_text('id,text,label\na,"x\ny",1\nb\n')
    with pytest.raises(CorpusFormatError, match="short record") as exc:
        load_corpus(path, format="csv")
    assert exc.value.line_no == 4


def test_load_csv_bad_header(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(CorpusFormatError):
        load_corpus(path, format="csv")


def test_load_csv_reader_error_is_format_error(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("id,text\na,ok\nb," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(CorpusFormatError, match="invalid CSV"):
        load_corpus(path, format="csv")


def test_load_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        load_corpus(tmp_path / "x", format="parquet")


# Arbitrary JSON lines over the corpus record keys, CSV rows over its
# columns, and arbitrary bytes.
corpus_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "text", "label", "source"]) | st.text(max_size=2),
                      inner, max_size=4),
    max_leaves=8,
)
jsonl_corpora = st.lists(
    corpus_values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=16), max_size=5
).map(b"\n".join)
csv_fields = st.sampled_from(["id", "text", "label", "source", "0", "1", "2", '"', ""]) | st.text(max_size=4)
csv_corpora = st.lists(st.lists(csv_fields, max_size=4).map(",".join), max_size=5).map(
    lambda rows: "\n".join(["id,text,label", *rows]).encode()
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | jsonl_corpora | csv_corpora, st.sampled_from(["jsonl", "csv"]))
@example(b'{"id": "a", "text": "x", "label": Infinity}', "jsonl")
@example(b'{"id": ["a"], "text": "x"}', "jsonl")
@example(b"id,text\na\x00,x\n", "csv")
def test_corpus_fuzz_loads_or_raises_value_error(tmp_path_factory, data, format):
    # CorpusFormatError and UnicodeDecodeError are both ValueErrors.
    path = tmp_path_factory.mktemp("corpus") / f"corpus.{format}"
    path.write_bytes(data)
    try:
        docs = load_corpus(path, format=format)
    except ValueError:
        return
    assert all(type(d.id) is str and type(d.text) is str and d.label in (None, 0, 1) for d in docs)
    assert len({d.id for d in docs}) == len(docs)


# ------------------------------------------------------------- tokenizer


def test_tokenize_casefolds_and_removes_stopwords():
    rules = TokenizerRules(lowercase=True, stopwords=frozenset({"i", "m", "not"}))
    assert tokenize("I'm NOT out.", rules) == ["out"]


def test_tokenize_empty_text():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


def test_tokenize_keeps_duplicates():
    rules = TokenizerRules(stopwords=frozenset())
    assert tokenize("abc abc", rules) == ["abc", "abc"]


def test_tokenize_punctuation_boundaries():
    rules = TokenizerRules(stopwords=frozenset())
    assert tokenize("one,two;three_four", rules) == ["one", "two", "three", "four"]


def test_tokenize_no_lowercase():
    rules = TokenizerRules(lowercase=False, stopwords=frozenset())
    assert tokenize("Mixed Case", rules) == ["Mixed", "Case"]


def test_tokenize_stopwords_applied_after_casefold():
    rules = TokenizerRules(lowercase=True, stopwords=frozenset({"the"}))
    assert tokenize("THE The the word", rules) == ["word"]


def test_default_stopwords_cover_common_words():
    for w in ("the", "i", "not", "a", "is"):
        assert w in DEFAULT_STOPWORDS


@given(st.text(max_size=200))
def test_tokenize_outputs_are_nonempty_lowercase(text):
    tokens = tokenize(text, TokenizerRules())
    for t in tokens:
        assert t
        assert t == t.lower()
        assert t not in DEFAULT_STOPWORDS


# ------------------------------------------------------------ vocabulary


def test_vocabulary_document_frequency():
    vocab = build_vocabulary([["a", "b"], ["a"]], min_df=1)
    assert vocab.doc_freq[vocab.index["a"]] == 2
    assert vocab.doc_freq[vocab.index["b"]] == 1
    assert vocab.n_docs == 2


def test_vocabulary_df_counts_documents_not_occurrences():
    vocab = build_vocabulary([["a", "a", "a"], ["b"]], min_df=1)
    assert vocab.doc_freq[vocab.index["a"]] == 1


def test_vocabulary_first_occurrence_order():
    vocab = build_vocabulary([["z", "m"], ["a", "z"]], min_df=1)
    assert vocab.tokens == ["z", "m", "a"]
    assert [vocab.index[t] for t in vocab.tokens] == [0, 1, 2]


def test_vocabulary_min_df_filters():
    vocab = build_vocabulary([["a", "b"], ["a"], ["a", "c"]], min_df=2)
    assert vocab.tokens == ["a"]
    assert "b" not in vocab.index


def test_vocabulary_empty_after_filter_raises():
    with pytest.raises(ValueError):
        build_vocabulary([["a"], ["b"]], min_df=2)


def test_vocabulary_min_df_must_be_positive():
    with pytest.raises(ValueError):
        build_vocabulary([["a"]], min_df=0)


def test_vocabulary_index_is_bijection():
    vocab = build_vocabulary([["a", "b", "c"], ["b", "c"], ["c"]], min_df=1)
    assert len(vocab.index) == len(vocab.tokens) == len(vocab)
    for i, t in enumerate(vocab.tokens):
        assert vocab.index[t] == i


def test_tokenize_corpus_drops_oov_keeps_empty_docs():
    docs = [
        RawDocument(id="d0", text="common common rare", label=1),
        RawDocument(id="d1", text="common", label=0),
        RawDocument(id="d2", text="oddity", label=0),
    ]
    rules = TokenizerRules(stopwords=frozenset())
    corpus = tokenize_corpus(docs, rules, min_df=2)
    assert corpus.vocab.tokens == ["common"]
    cid = corpus.vocab.index["common"]
    assert corpus.sequences == [[cid, cid], [cid], []]
    assert corpus.empty_doc_ids == ["d2"]
    assert corpus.n_docs == 3
    assert corpus.row_of("d1") == 1
    with pytest.raises(KeyError, match="unknown document id: 'nope'"):
        corpus.row_of("nope")
    # A repeated id resolves to its first row.
    repeated = TokenizedCorpus(["a", "b", "a"], [[], [], []], corpus.vocab, [0, 1, 0])
    assert repeated.row_of("a") == 0 and repeated.row_of("b") == 1


# ----------------------------------------------------------------- split


def test_split_example_ten_docs():
    # 5 docs per class at (0.8, 0.1, 0.1): each class sends 4 to train and
    # splits the leftover between val and test by the remainder rule.
    ids = [f"d{i}" for i in range(10)]
    labels = [0] * 5 + [1] * 5
    split = stratified_split(ids, labels, ratios=(0.8, 0.1, 0.1), seed=0)
    by_split = {name: split.ids_in(name) for name in SPLIT_NAMES}
    train_labels = [labels[ids.index(d)] for d in by_split["train"]]
    assert train_labels.count(0) == 4 and train_labels.count(1) == 4
    assert len(by_split["val"]) + len(by_split["test"]) == 2


def test_split_large_positive_class_quota():
    # 4551 positives at 0.70 -> train holds 3185 or 3186 of them.
    n_pos, n_neg = 4551, 1238
    ids = [f"d{i}" for i in range(n_pos + n_neg)]
    labels = [1] * n_pos + [0] * n_neg
    split = stratified_split(ids, labels, ratios=DEFAULT_SPLIT_RATIOS, seed=7)
    train_pos = sum(1 for d in split.ids_in("train") if labels[int(d[1:])] == 1)
    assert train_pos in (3185, 3186)


def test_split_is_partition():
    ids = [f"d{i}" for i in range(37)]
    labels = [i % 2 for i in range(37)]
    split = stratified_split(ids, labels, seed=3)
    assert sorted(split.assignment) == sorted(ids)
    assert set(split.assignment.values()) <= set(SPLIT_NAMES)


def test_split_deterministic_and_seed_sensitive():
    ids = [f"d{i}" for i in range(40)]
    labels = [i % 2 for i in range(40)]
    a = stratified_split(ids, labels, seed=5)
    b = stratified_split(ids, labels, seed=5)
    c = stratified_split(ids, labels, seed=6)
    assert a.assignment == b.assignment
    assert a.assignment != c.assignment


def test_split_single_class():
    ids = [f"d{i}" for i in range(10)]
    split = stratified_split(ids, [1] * 10, ratios=(0.8, 0.1, 0.1), seed=0)
    assert len(split.ids_in("train")) == 8
    assert len(split.ids_in("val")) == 1
    assert len(split.ids_in("test")) == 1


def test_split_too_few_members_raises():
    with pytest.raises(ValueError):
        stratified_split(["a", "b", "c"], [0, 1, 1], seed=0)


def test_split_bad_ratios_raise():
    ids = [f"d{i}" for i in range(10)]
    labels = [i % 2 for i in range(10)]
    with pytest.raises(ValueError):
        stratified_split(ids, labels, ratios=(0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        stratified_split(ids, labels, ratios=(0.5, 0.5), seed=0)


def test_split_unlabeled_rejected():
    with pytest.raises(ValueError):
        stratified_split(["a", "b"], [1, None], seed=0)


def test_split_mismatched_lengths():
    with pytest.raises(ValueError):
        stratified_split(["a", "b"], [1], seed=0)


def test_split_mask_alignment():
    ids = ["a", "b", "c"]
    split = SplitAssignment(assignment={"a": "train", "b": "val", "c": "test"})
    assert split.mask(ids, "train") == [True, False, False]
    assert split.mask(ids, "val") == [False, True, False]
    assert split.mask(["c", "a"], "test") == [True, False]


@settings(max_examples=40, deadline=None)
@given(
    n_per_class=st.tuples(st.integers(3, 60), st.integers(3, 60)),
    seed=st.integers(0, 2**31 - 1),
)
def test_split_class_proportions_within_one(n_per_class, seed):
    # Per class and split, counts stay within 1 of ratio * class_size.
    labels = [0] * n_per_class[0] + [1] * n_per_class[1]
    ids = [f"d{i}" for i in range(len(labels))]
    split = stratified_split(ids, labels, ratios=DEFAULT_SPLIT_RATIOS, seed=seed)
    for cls, size in zip((0, 1), n_per_class):
        for name, ratio in zip(SPLIT_NAMES, DEFAULT_SPLIT_RATIOS):
            got = sum(1 for d in split.ids_in(name) if labels[int(d[1:])] == cls)
            assert abs(got - ratio * size) < 1.0 + 1e-9


# ------------------------------------------------------------------- I/O


def _demo_corpus():
    docs = [
        RawDocument(id="d0", text="alpha beta alpha", label=1),
        RawDocument(id="d1", text="beta gamma", label=0),
        RawDocument(id="d2", text="alpha", label=None),
    ]
    return tokenize_corpus(docs, TokenizerRules(stopwords=frozenset()), min_df=1)


def test_tokenized_roundtrip(tmp_path):
    corpus = _demo_corpus()
    path = tmp_path / "tokenized.json"
    save_tokenized(path, corpus)
    back = load_tokenized(path)
    assert back.doc_ids == corpus.doc_ids
    assert back.sequences == corpus.sequences
    assert back.labels == corpus.labels
    assert back.vocab.tokens == corpus.vocab.tokens
    assert back.vocab.doc_freq == corpus.vocab.doc_freq
    assert back.vocab.n_docs == corpus.vocab.n_docs
    assert back.vocab.index == corpus.vocab.index


def test_tokenized_load_rejects_malformed(tmp_path):
    path = tmp_path / "tokenized.json"
    path.write_text('{"doc_ids": ["a"]}')
    with pytest.raises(CorpusFormatError):
        load_tokenized(path)


def _write_tokenized(path, **overrides):
    payload = {
        "doc_ids": ["a", "b"],
        "labels": [0, 1],
        "sequences": [[0, 1], []],
        "vocab": {"tokens": ["x", "y"], "doc_freq": [1, 1], "n_docs": 2},
    }
    for key, value in overrides.items():
        if key in payload["vocab"]:
            payload["vocab"][key] = value
        else:
            payload[key] = value
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(sequences=[[0, 7], []]), "outside the vocabulary"),
        (dict(sequences=[[0], [-1]]), "outside the vocabulary"),
        (dict(sequences=[[0, 1.5], []]), "integers"),
        (dict(sequences=[[0], ["y"]]), "integers"),
        (dict(sequences=[[0, 1]]), "sequences"),
        (dict(labels=[0]), "labels"),
        (dict(doc_ids=["a", "b", "c"]), "doc ids"),
        (dict(doc_freq=[1]), "doc_freq"),
        (dict(labels=[5, 0]), "labels must be 0, 1 or null"),
        (dict(labels=[0, 0.7]), "labels must be 0, 1 or null"),
        (dict(labels=[True, 0]), "labels must be 0, 1 or null"),
        (dict(sequences=[[0, True], []]), "integers"),
        (dict(doc_ids=[7, 7]), "strings"),
        (dict(doc_ids=["a", "a"]), "unique"),
        (dict(doc_freq=[0, 1]), "doc_freq"),
        (dict(doc_freq=["a", 1]), "doc_freq"),
        (dict(doc_freq=[True, 1]), "doc_freq"),
        (dict(doc_freq=[1, 1.0]), "doc_freq"),
        (dict(doc_freq=[3, 1]), "doc_freq"),
        (dict(n_docs=5), "n_docs"),
        (dict(n_docs=2.0), "n_docs"),
        (dict(n_docs="2"), "n_docs"),
        (dict(tokens=["x", "x"]), "unique strings"),
        (dict(tokens=["x", 7]), "unique strings"),
        (dict(sequences=[[0, 1], [0]]), "doc_freq of token 'x' is 1, but it occurs in 2"),
        (dict(sequences=[[0, 0, 1], []], doc_freq=[2, 1]), "doc_freq of token 'x' is 2"),
    ],
)
def test_tokenized_load_rejects_inconsistent_payload(tmp_path, overrides, message):
    path = tmp_path / "tokenized.json"
    _write_tokenized(path)
    assert load_tokenized(path).sequences == [[0, 1], []]
    _write_tokenized(path, **overrides)
    with pytest.raises(CorpusFormatError, match=message):
        load_tokenized(path)


# Tokenized-corpus payloads whose fields are well-shaped or arbitrary JSON.
tokenized_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.integers() | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
tokenized_payloads = st.fixed_dictionaries({
    "doc_ids": st.lists(st.text(max_size=2), max_size=3) | tokenized_values,
    "labels": st.lists(st.none() | st.integers(0, 1) | tokenized_values, max_size=3) | tokenized_values,
    "sequences": st.lists(st.lists(st.integers(-1, 3) | tokenized_values, max_size=3), max_size=3)
    | tokenized_values,
    "vocab": st.fixed_dictionaries({
        "tokens": st.lists(st.text(max_size=2), max_size=3) | tokenized_values,
        "doc_freq": st.lists(st.integers(0, 3), max_size=3) | tokenized_values,
        "n_docs": st.integers(0, 3) | tokenized_values,
    }) | tokenized_values,
})


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | (tokenized_payloads | tokenized_values).map(lambda v: json.dumps(v).encode()))
@example(b'{"doc_ids": ["a"], "labels": [Infinity], "sequences": [[]],'
         b' "vocab": {"tokens": [], "doc_freq": [], "n_docs": 1}}')
@example(b'{"doc_ids": ["a"], "labels": [0], "sequences": [[[0]]],'
         b' "vocab": {"tokens": ["x"], "doc_freq": [1], "n_docs": 1}}')
@example(b'{"doc_ids": ["a", "b"], "labels": [5, 0.7], "sequences": [[], []],'
         b' "vocab": {"tokens": [], "doc_freq": [], "n_docs": 2}}')
@example(b'{"doc_ids": ["a"], "labels": [null], "sequences": [[0, true]],'
         b' "vocab": {"tokens": ["x", "y"], "doc_freq": [1, 1], "n_docs": 1}}')
@example(b'{"doc_ids": [7, 7], "labels": [0, 1], "sequences": [[], []],'
         b' "vocab": {"tokens": [], "doc_freq": [], "n_docs": 2}}')
@example(b'{"doc_ids": ["a"], "labels": [0], "sequences": [[0]],'
         b' "vocab": {"tokens": ["x"], "doc_freq": [0], "n_docs": 1}}')
@example(b'{"doc_ids": ["a"], "labels": [0], "sequences": [[0]],'
         b' "vocab": {"tokens": ["x"], "doc_freq": [2], "n_docs": 1}}')
@example(b'{"doc_ids": ["a"], "labels": [0], "sequences": [[]],'
         b' "vocab": {"tokens": [], "doc_freq": [], "n_docs": 5}}')
@example(b'{"doc_ids": ["a"], "labels": [0], "sequences": [[0, 1]],'
         b' "vocab": {"tokens": ["x", "x"], "doc_freq": [1, 1], "n_docs": 1}}')
@example(b'{"doc_ids": ["a", "b"], "labels": [0, 1], "sequences": [[0, 1], [0]],'
         b' "vocab": {"tokens": ["x", "y"], "doc_freq": [1, 1], "n_docs": 2}}')
def test_tokenized_fuzz_loads_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("tokenized") / "tokenized.json"
    path.write_bytes(data)
    try:
        corpus = load_tokenized(path)
    except ValueError:
        return
    n_tokens = len(corpus.vocab.tokens)
    assert len(corpus.sequences) == len(corpus.labels) == len(corpus.doc_ids)
    assert all(type(t) is int and 0 <= t < n_tokens for seq in corpus.sequences for t in seq)
    assert all(lab is None or (type(lab) is int and lab in (0, 1)) for lab in corpus.labels)
    assert all(type(d) is str for d in corpus.doc_ids)
    assert len(set(corpus.doc_ids)) == len(corpus.doc_ids)
    vocab = corpus.vocab
    assert type(vocab.n_docs) is int and vocab.n_docs == len(corpus.doc_ids)
    assert all(type(t) is str for t in vocab.tokens) and len(set(vocab.tokens)) == n_tokens
    assert all(type(df) is int and 1 <= df <= vocab.n_docs for df in vocab.doc_freq)
    assert vocab.doc_freq == [sum(t in seq for seq in corpus.sequences) for t in range(n_tokens)]


def test_tokenized_load_accepts_all_empty_sequences(tmp_path):
    path = tmp_path / "tokenized.json"
    _write_tokenized(path, sequences=[[], []], tokens=[], doc_freq=[])
    assert load_tokenized(path).sequences == [[], []]


def test_split_roundtrip(tmp_path):
    split = SplitAssignment(
        assignment={"a": "train", "b": "val", "c": "test", "d": "train"},
        ratios=DEFAULT_SPLIT_RATIOS,
        seed=3,
    )
    path = tmp_path / "split.jsonl"
    save_split(path, split)
    back = load_split(path)
    assert back.assignment == split.assignment
    # File-backed assignments do not record provenance.
    assert back.ratios is None and back.seed is None
    # One JSON object per line.
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert json.loads(lines[0]) == {"id": "a", "split": "train"}


def test_split_load_rejects_bad_names(tmp_path):
    path = tmp_path / "split.jsonl"
    path.write_text('{"id": "a", "split": "dev"}\n')
    with pytest.raises(CorpusFormatError) as exc:
        load_split(path)
    assert exc.value.line_no == 1


@pytest.mark.parametrize("record", [
    '{"id": [1], "split": "train"}', '{"id": 7, "split": "val"}',
    '{"id": null, "split": "test"}', '{"id": {"a": 1}, "split": "test"}',
])
def test_split_load_rejects_non_string_ids(tmp_path, record):
    path = tmp_path / "split.jsonl"
    path.write_text('{"id": "a", "split": "train"}\n' + record + "\n")
    with pytest.raises(CorpusFormatError, match="not a string") as exc:
        load_split(path)
    assert exc.value.line_no == 2


# Arbitrary JSON lines over the split record keys, and arbitrary bytes.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(SPLIT_NAMES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "split"]) | st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
split_lines = st.lists(
    json_values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=16), max_size=5
).map(b"\n".join)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | split_lines)
@example(b'{"id": [1], "split": "train"}')
@example(b'{"id": "a", "split": "train"}\n\xff')
def test_split_fuzz_loads_or_raises_value_error(tmp_path_factory, data):
    # CorpusFormatError and UnicodeDecodeError are both ValueErrors.
    path = tmp_path_factory.mktemp("split") / "split.jsonl"
    path.write_bytes(data)
    try:
        split = load_split(path)
    except ValueError:
        return
    assert all(type(i) is str and name in SPLIT_NAMES for i, name in split.assignment.items())


def test_split_load_rejects_duplicates(tmp_path):
    path = tmp_path / "split.jsonl"
    path.write_text('{"id": "a", "split": "train"}\n{"id": "a", "split": "val"}\n')
    with pytest.raises(CorpusFormatError) as exc:
        load_split(path)
    assert exc.value.line_no == 2
