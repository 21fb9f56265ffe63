"""Corpus loading, tokenization, vocabulary construction, and stratified splits."""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .manifest import atomic_write, write_json

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


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class RawDocument:
    """One labeled (or unlabeled) input document."""

    id: str
    text: str
    label: int | None = None
    source: str = ""


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

    Indices are exactly 0..V-1 in first-occurrence order over the corpus.
    """

    tokens: list[str]
    index: dict[str, int]
    doc_freq: list[int]
    n_docs: int

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
            raise KeyError(f"unknown document id: {doc_id!r}") from None


@dataclass
class SplitAssignment:
    """Partition of document ids into train/val/test.

    ratios/seed are None when the assignment was loaded from a file that
    records only the mapping.
    """

    assignment: dict[str, str]
    ratios: tuple[float, ...] | None = None
    seed: int | None = None

    def ids_in(self, split: str) -> list[str]:
        return [d for d, s in self.assignment.items() if s == split]

    def mask(self, doc_ids: list[str], split: str) -> list[bool]:
        return [self.assignment.get(d) == split for d in doc_ids]


def _parse_label(value, line_no: int | None) -> int | None:
    if value is None or value == "":
        return None
    try:
        label = int(value)
    except (TypeError, ValueError, OverflowError):
        raise CorpusFormatError(f"label {value!r} is not an integer", line_no)
    if label not in (0, 1):
        raise CorpusFormatError(f"label must be 0 or 1, got {label}", line_no)
    return label


def load_corpus(path, format: str = "jsonl") -> list[RawDocument]:
    """Load documents from a JSONL or CSV file, in file order.

    Raises CorpusFormatError on malformed records (with line number),
    duplicate ids, or labels outside {0, 1}.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown corpus format: {format!r}")
    docs: list[RawDocument] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if format == "jsonl":
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(f"invalid JSON ({exc.msg})", line_no)
                if not isinstance(rec, dict) or "id" not in rec or "text" not in rec:
                    raise CorpusFormatError("record must be an object with id and text", line_no)
                if not isinstance(rec["id"], str) or not isinstance(rec["text"], str):
                    raise CorpusFormatError("id and text must be strings", line_no)
                docs.append(
                    RawDocument(
                        id=rec["id"],
                        text=rec["text"],
                        label=_parse_label(rec.get("label"), line_no),
                        source=str(rec.get("source", "")),
                    )
                )
                _check_duplicate(docs[-1].id, seen, line_no)
        else:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None or not {"id", "text"} <= set(header):
                    raise CorpusFormatError("CSV header must contain id,text[,label]", 1)
                while True:
                    # A quoted field may span lines: number the record by its first line.
                    line_no = reader.line_num + 1
                    row = next(reader, None)
                    if row is None:
                        break
                    if not row:
                        continue
                    rec = dict(zip(header, row))
                    if "id" not in rec or "text" not in rec:
                        raise CorpusFormatError("short record", line_no)
                    docs.append(
                        RawDocument(
                            id=rec["id"],
                            text=rec["text"],
                            label=_parse_label(rec.get("label"), line_no),
                            source=rec.get("source") or "",
                        )
                    )
                    _check_duplicate(docs[-1].id, seen, line_no)
            except csv.Error as exc:
                # A field over csv.field_size_limit(), or a NUL byte before Python 3.11.
                raise CorpusFormatError(f"invalid CSV ({exc})") from None
    return docs


def _check_duplicate(doc_id: str, seen: set[str], line_no: int) -> None:
    if doc_id in seen:
        raise CorpusFormatError(f"duplicate document id {doc_id!r}", line_no)
    seen.add(doc_id)


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
    return Vocabulary(
        tokens=tokens,
        index=index,
        doc_freq=[df[t] for t in tokens],
        n_docs=len(token_docs),
    )


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
    return SplitAssignment(assignment=assignment, ratios=tuple(ratios), seed=seed)


def save_tokenized(path, corpus: TokenizedCorpus) -> None:
    """Persist a tokenized corpus (ids, labels, sequences, vocabulary) as JSON."""
    payload = {
        "doc_ids": corpus.doc_ids,
        "labels": corpus.labels,
        "sequences": corpus.sequences,
        "vocab": {
            "tokens": corpus.vocab.tokens,
            "doc_freq": corpus.vocab.doc_freq,
            "n_docs": corpus.vocab.n_docs,
        },
    }
    write_json(path, payload)


def load_tokenized(path) -> TokenizedCorpus:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        tokens = list(payload["vocab"]["tokens"])
        vocab = Vocabulary(
            tokens=tokens,
            index={t: i for i, t in enumerate(tokens)},
            doc_freq=list(payload["vocab"]["doc_freq"]),
            n_docs=payload["vocab"]["n_docs"],
        )
        corpus = TokenizedCorpus(
            doc_ids=list(payload["doc_ids"]),
            sequences=[list(seq) for seq in payload["sequences"]],
            vocab=vocab,
            labels=list(payload["labels"]),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise CorpusFormatError(f"malformed tokenized-corpus file: {exc}") from exc
    _check_tokenized(corpus)
    return corpus


def _check_tokenized(corpus: TokenizedCorpus) -> None:
    """Aligned per-document lists of unique string ids and 0/1/None labels,
    unique string tokens, vocabulary n_docs equal to the document count, integer
    token ids in [0, V), and each token's doc_freq the count of documents holding it."""
    n_docs = len(corpus.doc_ids)
    if len(corpus.sequences) != n_docs or len(corpus.labels) != n_docs:
        raise CorpusFormatError(
            f"tokenized corpus has {n_docs} doc ids, {len(corpus.sequences)} sequences "
            f"and {len(corpus.labels)} labels"
        )
    if any(type(doc_id) is not str for doc_id in corpus.doc_ids):
        raise CorpusFormatError("doc ids must be strings")
    if len(set(corpus.doc_ids)) != n_docs:
        raise CorpusFormatError("doc ids must be unique")
    if any(lab is not None and (type(lab) is not int or lab not in (0, 1)) for lab in corpus.labels):
        raise CorpusFormatError("labels must be 0, 1 or null")
    vocab = corpus.vocab
    n_tokens = len(vocab.tokens)
    if type(vocab.n_docs) is not int or vocab.n_docs != n_docs:
        raise CorpusFormatError(f"vocabulary n_docs {vocab.n_docs!r} is not the {n_docs} documents")
    if any(type(t) is not str for t in vocab.tokens) or len(vocab.index) != n_tokens:
        raise CorpusFormatError("vocabulary tokens must be unique strings")
    if len(vocab.doc_freq) != n_tokens:
        raise CorpusFormatError(
            f"vocabulary has {n_tokens} tokens but {len(vocab.doc_freq)} doc_freq entries"
        )
    if any(type(df) is not int or not 1 <= df <= n_docs for df in vocab.doc_freq):
        raise CorpusFormatError(f"every doc_freq must be an integer in [1, {n_docs}]")
    # JSON true/false would pass numpy as the integers 1/0.
    if set(map(type, chain.from_iterable(corpus.sequences))) - {int}:
        raise CorpusFormatError("token ids must be integers")
    ids = np.concatenate([seq for seq in corpus.sequences if seq] or [np.zeros(0, np.int64)])
    if ids.dtype.kind != "i":
        raise CorpusFormatError("token ids must be integers")
    if len(ids) and (ids.min() < 0 or ids.max() >= n_tokens):
        raise CorpusFormatError(
            f"token ids span [{ids.min()}, {ids.max()}], outside the vocabulary [0, {n_tokens})"
        )
    # One sorted (document, token) key per occurrence; the first key of each run
    # counts the token once for its document.
    doc_of = np.repeat(np.arange(n_docs), [len(seq) for seq in corpus.sequences])
    keys = np.sort(doc_of * n_tokens + ids)
    counted = np.bincount(keys[np.diff(keys, prepend=-1) != 0] % n_tokens, minlength=n_tokens)
    wrong = np.flatnonzero(counted != np.asarray(vocab.doc_freq, dtype=np.int64))
    if len(wrong):
        token = wrong[0]
        raise CorpusFormatError(
            f"doc_freq of token {vocab.tokens[token]!r} is {vocab.doc_freq[token]}, "
            f"but it occurs in {counted[token]} documents"
        )


def save_split(path, split: SplitAssignment) -> None:
    """Write the assignment as JSONL, one {id, split} object per document."""
    with atomic_write(path) as fh:
        for doc_id, name in split.assignment.items():
            fh.write(json.dumps({"id": doc_id, "split": name}, sort_keys=True) + "\n")


def load_split(path) -> SplitAssignment:
    assignment: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                doc_id, name = record["id"], record["split"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CorpusFormatError(f"malformed split record: {exc}", line_no) from exc
            if type(doc_id) is not str:
                raise CorpusFormatError(f"document id {doc_id!r} is not a string", line_no)
            if name not in SPLIT_NAMES:
                raise CorpusFormatError(f"unknown split name {name!r}", line_no)
            if doc_id in assignment:
                raise CorpusFormatError(f"duplicate document id {doc_id!r}", line_no)
            assignment[doc_id] = name
    return SplitAssignment(assignment=assignment)
