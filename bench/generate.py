"""Deterministic synthetic inputs for the pipeline benchmark.

Every workload draws its inputs from one ``numpy.random.Generator`` seeded by
the workload seed, so the same seed always yields byte-identical files.
Document lengths follow a fixed schedule that the seed only permutes, so every
seed has the same total token count: input size does not vary between seeds,
only content does.

Documents mix Zipf-distributed background tokens over a synthetic lexicon with
a small share of label cue words. A fixed share of labels is then flipped,
which caps the reachable test F1 well below 1 while leaving it far above
chance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from stressgraph import convnet, graph
from stressgraph.corpus import DEFAULT_STOPWORDS

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class CorpusShape:
    """Size and signal strength of one synthetic corpus."""

    n_docs: int
    min_len: int
    max_len: int
    lexicon: int
    zipf_s: float
    cue_words: int
    cue_share: float
    label_noise: float
    embedding_dim: int = 768


@dataclass
class SyntheticCorpus:
    ids: list
    labels: list
    token_ids: list  # per document, indices into ``words``
    words: list


def lexicon(size: int) -> list:
    """``size`` distinct three- or four-syllable pseudo-words, none a stopword."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = []
    n = len(syllables)
    i = 0
    while len(words) < size:
        parts = [syllables[(i // n**p) % n] for p in range(3)]
        if i >= n**3:
            parts.append(syllables[(i // n**3) % n])
        word = "".join(parts)
        if word not in DEFAULT_STOPWORDS:
            words.append(word)
        i += 1
    return words


def make_corpus(shape: CorpusShape, rng: np.random.Generator) -> SyntheticCorpus:
    """Draw labels and token sequences; lengths are a seed-permuted fixed schedule."""
    words = lexicon(shape.lexicon)
    ranks = np.arange(1, shape.lexicon + 1, dtype=np.float64)
    background = ranks ** -shape.zipf_s
    cdf = np.cumsum(background / background.sum())
    # Cue words are mid-frequency types, disjoint between the two labels.
    cue_pool = rng.permutation(np.arange(shape.lexicon // 20, shape.lexicon // 4))
    cues = (cue_pool[: shape.cue_words], cue_pool[shape.cue_words: 2 * shape.cue_words])

    lengths = np.linspace(shape.min_len, shape.max_len, shape.n_docs).round().astype(int)
    lengths = rng.permutation(lengths)
    latent = rng.permutation(np.arange(shape.n_docs) % 2)
    flip = np.zeros(shape.n_docs, dtype=bool)
    flip[rng.choice(shape.n_docs, int(round(shape.label_noise * shape.n_docs)), replace=False)] = True
    labels = np.where(flip, 1 - latent, latent)

    token_ids = []
    for doc, length in enumerate(lengths):
        tokens = np.minimum(np.searchsorted(cdf, rng.random(length), side="right"), shape.lexicon - 1)
        is_cue = rng.random(length) < shape.cue_share
        tokens[is_cue] = rng.choice(cues[latent[doc]], size=int(is_cue.sum()))
        token_ids.append(tokens)
    ids = [f"doc{i:05d}" for i in range(shape.n_docs)]
    return SyntheticCorpus(ids=ids, labels=[int(x) for x in labels], token_ids=token_ids, words=words)


def write_corpus_jsonl(path, corpus: SyntheticCorpus) -> None:
    """One ``{"id", "text", "label"}`` object per line, the format ``load_corpus`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, label, tokens in zip(corpus.ids, corpus.labels, corpus.token_ids):
            text = " ".join(corpus.words[t] for t in tokens)
            fh.write(json.dumps({"id": doc_id, "label": label, "text": text}, sort_keys=True) + "\n")


def word_vectors(shape: CorpusShape, rng: np.random.Generator) -> np.ndarray:
    """One seeded float32 vector per lexicon type."""
    return rng.standard_normal((shape.lexicon, shape.embedding_dim), dtype=np.float32)


def write_doc_embeddings(path, corpus: SyntheticCorpus, vectors: np.ndarray) -> None:
    """TGEM file: each document's embedding is the mean of its word vectors."""
    rows = np.stack([vectors[tokens].mean(axis=0) for tokens in corpus.token_ids])
    graph.write_embeddings(path, graph.EmbeddingMatrix(values=rows))


def write_token_sequences(path, corpus: SyntheticCorpus, vectors: np.ndarray) -> None:
    """TGSE file: each document's sequence is its word vectors in token order."""
    sequences = [
        convnet.TokenEmbeddingSequence(doc_id=doc_id, matrix=vectors[tokens])
        for doc_id, tokens in zip(corpus.ids, corpus.token_ids)
    ]
    convnet.write_token_embeddings(path, sequences)


def write_inputs(out_dir, shape: CorpusShape, seed: int, extras) -> dict:
    """Generate and write one workload's inputs; returns name -> path.

    ``extras`` names the embedding files the workload needs: ``"tgem"``
    and/or ``"tgse"``.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    corpus = make_corpus(shape, rng)
    paths = {"corpus": os.path.join(out_dir, "corpus.jsonl")}
    write_corpus_jsonl(paths["corpus"], corpus)
    if extras:
        vectors = word_vectors(shape, rng)
        if "tgem" in extras:
            paths["tgem"] = os.path.join(out_dir, "doc_embeddings.bin")
            write_doc_embeddings(paths["tgem"], corpus, vectors)
        if "tgse" in extras:
            paths["tgse"] = os.path.join(out_dir, "token_sequences.bin")
            write_token_sequences(paths["tgse"], corpus, vectors)
    return paths
