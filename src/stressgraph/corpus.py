"""Corpus loading, tokenization, vocabulary construction, and stratified splits."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .manifest import (
    RecordError, atomic_write, csv_rows, jsonl_records, read_json, record_id, write_json, zero_or_one,
)

# Classic English stopword list (NLTK lineage), inlined so tokenization has no
# runtime data dependency.
DEFAULT_STOPWORDS = frozenset("""
a about above after again against all am an and any are aren't as at be because
been before being below between both but by can't cannot could couldn't did
didn't do does doesn't doing don't down during each few for from further had
hadn't has hasn't have haven't having he he'd he'll he's her here here's hers
herself him himself his how how's i i'd i'll i'm i've if in into is isn't it
it's its itself let's me more most mustn't my myself no nor not of off on once
only or other ought our ours ourselves out over own same shan't she she'd
she'll she's should shouldn't so some such than that that's the their theirs
them themselves then there there's these they they'd they'll they're they've
this those through to too under until up very was wasn't we we'd we'll we're
we've were weren't what what's when when's where where's which while who who's
whom why why's with won't would wouldn't you you'd you'll you're you've your
yours yourself yourselves
""".split())

SPLIT_NAMES = ("train", "val", "test")
DEFAULT_SPLIT_RATIOS = (0.70, 0.15, 0.15)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class RawDocument:
    """One labeled (or unlabeled) input document."""

    id: str
    text: str
    label: int | None = None


@dataclass(frozen=True)
class TokenizerRules:
    """Tokenization policy: case folding, segmentation, stopword removal.

    Tokens are maximal alphanumeric runs (underscore excluded); anything else
    is a boundary. ``stopwords`` is applied after case folding; pass an empty
    set to disable removal.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = DEFAULT_STOPWORDS


@dataclass
class Vocabulary:
    """Dense token index with per-token document frequencies.

    Indices are exactly 0..V-1 in first-occurrence order over the corpus;
    doc_freq[i] counts the documents whose sequence holds token i.
    """

    tokens: list[str]
    index: dict[str, int]
    doc_freq: list[int]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class TokenizedCorpus:
    """Per-document token-id sequences, aligned with ingestion order."""

    doc_ids: list[str]
    sequences: list[list[int]]
    vocab: Vocabulary
    labels: list[int | None] = field(default_factory=list)
    _rows: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # First occurrence wins, as with list.index.
        self._rows = {}
        for row, doc_id in enumerate(self.doc_ids):
            self._rows.setdefault(doc_id, row)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def empty_doc_ids(self) -> list[str]:
        """Documents that lost every token to filtering (kept as isolated nodes)."""
        return [i for i, seq in zip(self.doc_ids, self.sequences) if not seq]

    def row_of(self, doc_id: str) -> int:
        try:
            return self._rows[doc_id]
        except KeyError:
            raise ValueError(f"unknown document id: {doc_id!r}") from None


@dataclass
class SplitAssignment:
    """Partition of document ids into train/val/test."""

    assignment: dict[str, str]

    def ids_in(self, split: str) -> list[str]:
        return [d for d, s in self.assignment.items() if s == split]

    def mask(self, doc_ids: list[str], split: str) -> list[bool]:
        return [self.assignment.get(d) == split for d in doc_ids]

    def aligned(self, doc_ids: list[str]) -> SplitAssignment:
        """This split keyed in doc_ids' order, so ids_in lists ids in that order;
        ValueError unless it assigns exactly the ids in doc_ids."""
        missing = set(doc_ids) - set(self.assignment)
        extra = set(self.assignment) - set(doc_ids)
        if missing or extra:
            raise ValueError(f"split does not align with the corpus ({len(missing)} unassigned, "
                             f"{len(extra)} unknown ids)")
        return SplitAssignment({d: self.assignment[d] for d in doc_ids})


def split_masks(split: SplitAssignment, doc_ids: list[str]) -> dict:
    """Per split name, a bool array of which of doc_ids it holds; ValueError when
    train or test holds none of them, so nothing trains that could not be scored."""
    masks = {name: np.array(split.mask(doc_ids, name), dtype=bool) for name in SPLIT_NAMES}
    for name in ("train", "test"):
        if not masks[name].any():
            raise ValueError(f"the split has no {name} documents")
    return masks


def gold_labels(corpus: TokenizedCorpus, ids: list[str]) -> np.ndarray:
    """The labels of the documents ids as int64, in order; ValueError naming the first unlabeled."""
    labels = [corpus.labels[corpus.row_of(doc_id)] for doc_id in ids]
    if None in labels:
        raise ValueError(f"document {ids[labels.index(None)]!r} is unlabeled")
    return np.array(labels, dtype=np.int64)


def _parse_label(value, line_no: int, csv_file: bool) -> int | None:
    """0 or 1, or None for an absent, null or empty label; a CSV label is the text 0 or 1."""
    if value is None or value == "":
        return None
    if csv_file:
        return zero_or_one("corpus", line_no, "label", value)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise RecordError("corpus", line_no, f"label {value!r} is not an integer")
    try:
        label = int(value)
    except (TypeError, ValueError, OverflowError):
        raise RecordError("corpus", line_no, f"label {value!r} is not an integer")
    if label not in (0, 1):
        raise RecordError("corpus", line_no, f"label must be 0 or 1, got {label}")
    return label


def load_corpus(path) -> list[RawDocument]:
    """Documents in file order: CSV with an id,text[,label] header when the name ends
    in .csv, else one JSON object per line; RecordError names a malformed record."""
    csv_file = str(path).endswith(".csv")
    if csv_file:
        rows = csv_rows(path, "corpus")
        line_no, header = next(rows, (1, None))
        if header is None or not {"id", "text"} <= set(header):
            raise RecordError("corpus", line_no, "CSV header must contain id,text[,label]")
        records = ((n, dict(zip(header, row))) for n, row in rows)
    else:
        records = jsonl_records(path, "corpus")
    docs: dict[str, RawDocument] = {}
    for line_no, rec in records:
        if not isinstance(rec, dict) or "id" not in rec or "text" not in rec:
            raise RecordError("corpus", line_no, "record must be an object with id and text")
        if not isinstance(rec["id"], str) or not isinstance(rec["text"], str):
            raise RecordError("corpus", line_no, "id and text must be strings")
        label = _parse_label(rec.get("label"), line_no, csv_file)
        doc_id = record_id("corpus", line_no, rec["id"], docs)
        docs[doc_id] = RawDocument(doc_id, rec["text"], label)
    return list(docs.values())


def tokenize(text: str, rules: TokenizerRules = TokenizerRules()) -> list[str]:
    """Split text into tokens per the rules; empty output is legal."""
    if rules.lowercase:
        text = text.lower()
    tokens = _TOKEN_RE.findall(text)
    if rules.stopwords:
        tokens = [t for t in tokens if t not in rules.stopwords]
    return tokens


def build_vocabulary(token_docs: list[list[str]], min_df: int = 5) -> Vocabulary:
    """Index tokens with document frequency >= min_df, in first-occurrence order."""
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df: dict[str, int] = {}
    for doc in token_docs:
        for tok in set(doc):
            df[tok] = df.get(tok, 0) + 1
    tokens: list[str] = []
    index: dict[str, int] = {}
    for doc in token_docs:
        for tok in doc:
            if tok not in index and df[tok] >= min_df:
                index[tok] = len(tokens)
                tokens.append(tok)
    if not tokens:
        raise ValueError(f"vocabulary is empty after min_df={min_df} filtering")
    return Vocabulary(tokens=tokens, index=index, doc_freq=[df[t] for t in tokens])


def tokenize_corpus(
    docs: list[RawDocument],
    rules: TokenizerRules = TokenizerRules(),
    min_df: int = 5,
) -> TokenizedCorpus:
    """Tokenize documents, build the vocabulary, and map tokens to ids.

    Out-of-vocabulary tokens are dropped from the sequences; documents that
    end up empty are retained (they become isolated graph nodes).
    """
    token_docs = [tokenize(d.text, rules) for d in docs]
    vocab = build_vocabulary(token_docs, min_df)
    sequences = [[vocab.index[t] for t in doc if t in vocab.index] for doc in token_docs]
    return TokenizedCorpus(
        doc_ids=[d.id for d in docs],
        sequences=sequences,
        vocab=vocab,
        labels=[d.label for d in docs],
    )


def stratified_split(
    doc_ids: list[str],
    labels: list[int],
    ratios: tuple[float, ...] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
) -> SplitAssignment:
    """Stratified train/val/test partition, deterministic per seed.

    Per class, each split gets floor(ratio * class_size) documents; leftover
    documents go to the splits with the largest fractional quota, ties broken
    in train, val, test order. Class members are shuffled by the seed before
    slicing, so the composition (not just the counts) is seed-stable.
    """
    if len(doc_ids) != len(labels):
        raise ValueError("doc_ids and labels must have equal length")
    if any(lab is None for lab in labels):
        raise ValueError("every document must be labeled for a stratified split")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"split ratios must lie in [0, 1], got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    if len(ratios) != len(SPLIT_NAMES):
        raise ValueError(f"expected {len(SPLIT_NAMES)} ratios, got {len(ratios)}")

    rng = np.random.default_rng(seed)
    assignment: dict[str, str] = {}
    for cls in sorted(set(labels)):
        members = [i for i, lab in enumerate(labels) if lab == cls]
        if len(members) < len(ratios):
            raise ValueError(
                f"class {cls} has {len(members)} documents, fewer than {len(ratios)} splits"
            )
        order = rng.permutation(len(members))
        members = [members[j] for j in order]
        quotas = [math.floor(r * len(members)) for r in ratios]
        fractions = [r * len(members) - q for r, q in zip(ratios, quotas)]
        leftover = len(members) - sum(quotas)
        # Largest fractional remainder first; ties resolve toward earlier splits.
        for s in sorted(range(len(ratios)), key=lambda s: (-fractions[s], s))[:leftover]:
            quotas[s] += 1
        start = 0
        for split, quota in zip(SPLIT_NAMES, quotas):
            for i in members[start : start + quota]:
                assignment[doc_ids[i]] = split
            start += quota
    return SplitAssignment(assignment=assignment)


def save_tokenized(path, corpus: TokenizedCorpus) -> None:
    """Persist a tokenized corpus (ids, labels, sequences, vocabulary tokens) as JSON."""
    payload = {
        "doc_ids": corpus.doc_ids,
        "labels": corpus.labels,
        "sequences": corpus.sequences,
        "vocab": {"tokens": corpus.vocab.tokens},
    }
    write_json(path, payload)


def load_tokenized(path) -> TokenizedCorpus:
    """The corpus save_tokenized wrote, checked; each token's doc_freq is
    counted from the sequences (any stored doc_freq or n_docs is not read)."""
    payload = read_json(path)
    try:
        tokens = list(payload["vocab"]["tokens"])
        corpus = TokenizedCorpus(
            doc_ids=list(payload["doc_ids"]),
            sequences=[list(seq) for seq in payload["sequences"]],
            vocab=Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)}, doc_freq=[]),
            labels=list(payload["labels"]),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed tokenized-corpus file: {exc}") from exc
    corpus.vocab.doc_freq = _check_tokenized(corpus)
    return corpus


def _check_tokenized(corpus: TokenizedCorpus) -> list[int]:
    """Each token's document frequency, after checking aligned per-document lists
    of unique string ids and 0/1/None labels, unique string tokens, and integer
    token ids in [0, V); a token that no sequence holds is refused, as its idf
    would divide by zero."""
    n_docs = len(corpus.doc_ids)
    if len(corpus.sequences) != n_docs or len(corpus.labels) != n_docs:
        raise ValueError(
            f"tokenized corpus has {n_docs} doc ids, {len(corpus.sequences)} sequences "
            f"and {len(corpus.labels)} labels"
        )
    if any(type(doc_id) is not str for doc_id in corpus.doc_ids):
        raise ValueError("doc ids must be strings")
    if len(set(corpus.doc_ids)) != n_docs:
        raise ValueError("doc ids must be unique")
    if any(lab is not None and (type(lab) is not int or lab not in (0, 1)) for lab in corpus.labels):
        raise ValueError("labels must be 0, 1 or null")
    vocab = corpus.vocab
    n_tokens = len(vocab.tokens)
    if any(type(t) is not str for t in vocab.tokens) or len(vocab.index) != n_tokens:
        raise ValueError("vocabulary tokens must be unique strings")
    # JSON true/false would pass numpy as the integers 1/0.
    if set(map(type, chain.from_iterable(corpus.sequences))) - {int}:
        raise ValueError("token ids must be integers")
    ids = np.concatenate([seq for seq in corpus.sequences if seq] or [np.zeros(0, np.int64)])
    if ids.dtype.kind != "i":
        raise ValueError("token ids must be integers")
    if len(ids) and (ids.min() < 0 or ids.max() >= n_tokens):
        raise ValueError(
            f"token ids span [{ids.min()}, {ids.max()}], outside the vocabulary [0, {n_tokens})"
        )
    # One sorted (document, token) key per occurrence; the first key of each run
    # counts the token once for its document.
    doc_of = np.repeat(np.arange(n_docs), [len(seq) for seq in corpus.sequences])
    keys = np.sort(doc_of * n_tokens + ids)
    counted = np.bincount(keys[np.diff(keys, prepend=-1) != 0] % n_tokens, minlength=n_tokens)
    unused = np.flatnonzero(counted == 0)
    if len(unused):
        raise ValueError(f"vocabulary token {vocab.tokens[unused[0]]!r} occurs in no document")
    return counted.tolist()


def save_split(path, split: SplitAssignment) -> None:
    """Write the assignment as JSONL, one {id, split} object per document."""
    with atomic_write(path) as fh:
        for doc_id, name in split.assignment.items():
            fh.write(json.dumps({"id": doc_id, "split": name}, sort_keys=True) + "\n")


def load_split(path) -> SplitAssignment:
    assignment: dict[str, str] = {}
    for line_no, record in jsonl_records(path, "split"):
        if not isinstance(record, dict) or "id" not in record or "split" not in record:
            raise RecordError("split", line_no, "expected an object with id and split")
        doc_id = record_id("split", line_no, record["id"], assignment)
        if record["split"] not in SPLIT_NAMES:
            raise RecordError("split", line_no, f"unknown split name {record['split']!r}")
        assignment[doc_id] = record["split"]
    return SplitAssignment(assignment=assignment)
