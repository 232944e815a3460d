"""Shared helpers for building small random test instances."""

from __future__ import annotations

import random
import tracemalloc
from typing import Any, Callable, NamedTuple

from subselect.corpus import Corpus, Sentence
from subselect.features import FeatureSet, RelevanceRows, extract_feature_set, featurize, fit_idf
from subselect.submodular import ConcaveSpec


class Traced(NamedTuple):
    """What ``traced_peak`` measured, in bytes above what was held before the call."""

    peak: int  # the most held at once
    held: int  # still held on return
    result: Any


def traced_peak(call: Callable[[], Any]) -> Traced:
    """``call()`` run under tracemalloc: its peak, what it left held, and its result."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(peak - before, held - before, result)


ALPHABET = ["a", "b", "c", "d", "e", "f", "g", "h"]

CURVES = [
    ConcaveSpec("power", 0.5),
    ConcaveSpec("power", 0.3),
    ConcaveSpec("power", 0.7),
    ConcaveSpec("power", 1.0),
    ConcaveSpec("log1p"),
]


def make_corpus(rng: random.Random, n_sentences: int, max_len: int = 6,
                alphabet: list[str] | None = None, parallel: bool = False) -> Corpus:
    alphabet = alphabet or ALPHABET
    sentences = []
    for i in range(n_sentences):
        length = rng.randint(1, max_len)
        toks = tuple(rng.choice(alphabet) for _ in range(length))
        tgt = tuple(reversed(toks)) if parallel else None
        sentences.append(Sentence(i, toks, tgt))
    return Corpus(tuple(sentences), parallel=parallel)


def make_instance(rng: random.Random, n_ground: int | None = None, max_order: int | None = None,
                  max_len: int = 6) -> tuple[Corpus, Corpus, FeatureSet]:
    """A random (ground, in_domain, fitted features) triple on a tiny alphabet."""
    n = n_ground if n_ground is not None else rng.randint(2, 12)
    order = max_order if max_order is not None else rng.randint(1, 3)
    ground = make_corpus(rng, n, max_len=max_len)
    in_domain = make_corpus(rng, rng.randint(2, 5), max_len=max_len)
    features = fit_idf(extract_feature_set(in_domain, order), ground)
    return ground, in_domain, features


def random_curve(rng: random.Random) -> ConcaveSpec:
    return rng.choice(CURVES)


def assert_rows_are_featurize(rows: RelevanceRows, sentences, features: FeatureSet) -> None:
    """Row i of ``relevance_rows(sentences, features)`` holds ``featurize(sentences[i])``'s
    entries, in their order, each column named by its n-gram."""
    assert len(rows.indptr) == len(sentences) + 1
    for i, sentence in enumerate(sentences):
        lo, hi = rows.indptr[i], rows.indptr[i + 1]
        got = [(rows.names[c], v) for c, v in zip(rows.cols[lo:hi].tolist(), rows.vals[lo:hi].tolist())]
        assert got == list(featurize(sentence, features).entries.items()), i
