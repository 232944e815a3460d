"""N-gram feature universe, document-frequency weighting, and featurization.

The feature universe is every contiguous source-side n-gram of order
1..max_order found in an in-domain sample. Fitting against the ground set
attaches document frequencies and idf = ln(|ground| / doc_freq); a
sentence's relevance to feature u is then count(u in sentence) * idf(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .corpus import Corpus, Sentence
from .errors import ConfigError, EmptyCorpusError, StateError

NGram = tuple[str, ...]

FEATURESET_MAGIC = "subselect-featureset"
FEATURESET_VERSION = 1

FEATURE_WEIGHTINGS = ("uniform", "freq")


@dataclass
class FeatureInfo:
    """Per-feature weight and fit statistics.

    idf is None until the set is fitted, and stays None for features the
    ground set never contains (they are retained but cannot contribute).
    """

    weight: float = 1.0
    doc_freq: int = 0
    idf: float | None = None


@dataclass
class FeatureSet:
    max_order: int
    features: dict[NGram, FeatureInfo]
    ground_size: int = 0  # number of ground sentences fitted against; 0 = unfitted

    @property
    def fitted(self) -> bool:
        return self.ground_size > 0

    def __len__(self) -> int:
        return len(self.features)

    def __contains__(self, ngram: NGram) -> bool:
        return ngram in self.features


@dataclass
class FeatureVector:
    """Sparse relevance scores of one sentence; only positive entries appear."""

    entries: dict[NGram, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


def iter_ngrams(tokens: tuple[str, ...] | list[str], max_order: int) -> Iterator[NGram]:
    """All contiguous n-grams of orders 1..max_order, overlapping windows included."""
    n = len(tokens)
    for order in range(1, max_order + 1):
        for i in range(n - order + 1):
            yield tuple(tokens[i : i + order])


def extract_feature_set(
    in_domain: Corpus, max_order: int = 7, weighting: str = "uniform"
) -> FeatureSet:
    """Collect the feature universe from an in-domain sample.

    ``weighting="uniform"`` gives every feature weight 1.0;
    ``weighting="freq"`` weights each feature by its occurrence count in
    the sample. The returned set is unfitted: doc frequencies are zero
    and idf is absent until fit_idf is called.
    """
    if max_order < 1:
        raise ConfigError(f"max_order must be >= 1, got {max_order}")
    if weighting not in FEATURE_WEIGHTINGS:
        raise ConfigError(
            f"unknown feature weighting {weighting!r}; expected one of: {', '.join(FEATURE_WEIGHTINGS)}"
        )
    if len(in_domain) == 0:
        raise EmptyCorpusError("in-domain sample is empty")
    counts: dict[NGram, int] = {}
    for sent in in_domain:
        for ngram in iter_ngrams(sent.source_tokens, max_order):
            counts[ngram] = counts.get(ngram, 0) + 1
    features = {
        ngram: FeatureInfo(weight=float(c) if weighting == "freq" else 1.0)
        for ngram, c in counts.items()
    }
    return FeatureSet(max_order=max_order, features=features)


def fit_idf(features: FeatureSet, ground: Corpus) -> FeatureSet:
    """Attach ground-set document frequencies and idf to a feature universe.

    Returns a new fitted FeatureSet; the input is left untouched. A
    feature occurring in no ground sentence keeps idf = None; one
    occurring in every ground sentence gets idf = 0 and can never
    contribute relevance.
    """
    if len(ground) == 0:
        raise EmptyCorpusError("ground corpus is empty")
    doc_freq = dict.fromkeys(features.features, 0)
    max_order = features.max_order
    for sent in ground:
        seen: set[NGram] = set()
        for ngram in iter_ngrams(sent.source_tokens, max_order):
            if ngram in doc_freq and ngram not in seen:
                seen.add(ngram)
                doc_freq[ngram] += 1
    n = len(ground)
    fitted = {
        ngram: FeatureInfo(
            weight=info.weight,
            doc_freq=doc_freq[ngram],
            idf=math.log(n / doc_freq[ngram]) if doc_freq[ngram] > 0 else None,
        )
        for ngram, info in features.features.items()
    }
    return FeatureSet(max_order=max_order, features=fitted, ground_size=n)


def featurize(sentence: Sentence, features: FeatureSet) -> FeatureVector:
    """Sparse relevance vector of one sentence under a fitted feature set.

    Occurrences are counted over overlapping sliding windows; each entry
    is count * idf. Features with absent or zero idf are dropped, so
    every stored score is positive.
    """
    if not features.fitted:
        raise StateError("feature set is unfitted; call fit_idf before featurize")
    counts: dict[NGram, int] = {}
    table = features.features
    for ngram in iter_ngrams(sentence.source_tokens, features.max_order):
        if ngram in table:
            counts[ngram] = counts.get(ngram, 0) + 1
    entries: dict[NGram, float] = {}
    for ngram, c in counts.items():
        idf = table[ngram].idf
        if idf is not None and idf > 0.0:
            entries[ngram] = c * idf
    return FeatureVector(entries)


def save_feature_set(features: FeatureSet, path) -> None:
    """Write a feature set as a versioned flat file, one record per feature.

    Records are sorted by the space-joined n-gram so identical inputs
    always serialize byte-identically. idf is not stored; it is
    recomputed from the header's ground size and each record's doc_freq.
    """
    records = sorted(
        (" ".join(ngram), info.weight, info.doc_freq)
        for ngram, info in features.features.items()
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{FEATURESET_MAGIC}\t{FEATURESET_VERSION}\n")
        fh.write(f"{features.max_order}\t{features.ground_size}\t{len(records)}\n")
        for joined, weight, doc_freq in records:
            fh.write(f"{joined}\t{weight!r}\t{doc_freq}\n")


def load_feature_set(path) -> FeatureSet:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise ConfigError(f"{path}: empty file, not a feature-set file")
    magic = lines[0].split("\t")
    if len(magic) != 2 or magic[0] != FEATURESET_MAGIC:
        raise ConfigError(f"{path}: not a feature-set file")
    if int(magic[1]) != FEATURESET_VERSION:
        raise ConfigError(f"{path}: unsupported feature-set version {magic[1]}")
    try:
        max_order, ground_size, count = (int(x) for x in lines[1].split("\t"))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed feature-set header") from exc
    body = lines[2:]
    if len(body) != count:
        raise ConfigError(f"{path}: header promises {count} records, found {len(body)}")
    features: dict[NGram, FeatureInfo] = {}
    for record in body:
        try:
            joined, weight, doc_freq = record.split("\t")
            ngram = tuple(joined.split(" "))
            freq = int(doc_freq)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed feature record {record!r}") from exc
        idf = math.log(ground_size / freq) if ground_size > 0 and freq > 0 else None
        features[ngram] = FeatureInfo(weight=float(weight), doc_freq=freq, idf=idf)
    return FeatureSet(max_order=max_order, features=features, ground_size=ground_size)
