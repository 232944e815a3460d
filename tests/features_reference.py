"""The feature layer as it was while a feature set was a dict of
``FeatureInfo`` objects keyed by n-gram tuples.

``extract_feature_set`` counts ``iter_ngrams`` tuples in a dict,
``fit_idf`` builds one ``FeatureInfo`` per feature, ``_NgramIndex.build``
interns the tuples, ``relevance_rows`` enumerates its sentences itself,
and ``load_feature_set`` parses each record into a tuple. All are kept
verbatim as references: the columnar feature set must give the same
statistics in the same set order, the same relevance rows and the same
loaded sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from subselect.corpus import Corpus, Sentence
from subselect.errors import ConfigError, EmptyCorpusError, StateError
from subselect.features import FEATURE_WEIGHTINGS, FEATURESET_MAGIC, FEATURESET_VERSION, FeatureInfo
from subselect.ngramkeys import chain_ranks, depths

NGram = tuple[str, ...]

_CHUNK = 2048  # sentences enumerated at once


@dataclass
class FeatureSet:
    """A feature universe with per-feature statistics.

    The n-grams in ``features`` must not change once the set has been
    used: its integer index is built from them on first use.
    """

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

    @cached_property
    def _index(self) -> _NgramIndex:
        return _NgramIndex.build(list(self.features), self.max_order)

    def _weight_idf(self) -> tuple[np.ndarray, np.ndarray]:
        """Each feature's weight and idf (0.0 where None), in set order."""
        infos = self.features.values()
        weight = np.fromiter((i.weight for i in infos), dtype=np.float64, count=len(infos))
        idf = np.fromiter((i.idf or 0.0 for i in infos), dtype=np.float64, count=len(infos))
        return weight, idf


@dataclass(frozen=True)
class _NgramIndex:
    """A feature universe as chained integer keys: a prefix tree in sorted arrays.

    Token ids follow string order, so siblings sort as their n-grams do.
    Order k's table holds the keys of the universe's k-grams and of the
    k-token prefixes of longer features, so the chain is complete even
    for a universe that is not prefix-closed. ``position`` maps each
    table entry to its feature's index in the set, -1 for a prefix that
    is no feature. Only the first ``max_order`` tables are looked up.
    """

    ngrams: list[NGram]  # set order
    tok_id: dict[str, int]  # a token outside the universe gets id len(tok_id)
    max_order: int
    tables: list[np.ndarray]
    position: list[np.ndarray]

    @classmethod
    def build(cls, ngrams: list[NGram], max_order: int) -> _NgramIndex:
        tokens = list(chain.from_iterable(ngrams))
        tok_id = {tok: i for i, tok in enumerate(sorted(set(tokens)))}
        base = len(tok_id) + 1
        flat = np.fromiter(map(tok_id.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        lens = np.fromiter(map(len, ngrams), dtype=np.int64, count=len(ngrams))
        starts = np.cumsum(lens) - lens
        prefix = np.zeros(len(ngrams), dtype=np.int64)
        tables: list[np.ndarray] = []
        position: list[np.ndarray] = []
        for k in range(1, int(lens.max(initial=0)) + 1):
            sel = np.flatnonzero(lens >= k)
            table, inverse = np.unique(prefix[sel] * base + flat[starts[sel] + k - 1], return_inverse=True)
            prefix[sel] = inverse
            pos = np.full(len(table), -1, dtype=np.int32)
            exact = lens[sel] == k
            pos[inverse[exact]] = sel[exact]
            tables.append(table)
            position.append(pos)
        return cls(ngrams, tok_id, max_order, tables, position)

    def lex(self) -> np.ndarray:
        """Set positions in sorted n-gram order: the prefix tree walked depth first.

        Siblings sit side by side in their table, ordered by token id, so
        a node's place in the walk is its parent's place, plus one, plus
        the sizes of the subtrees of its earlier siblings.
        """
        base = len(self.tok_id) + 1
        sizes = [np.ones(len(table), dtype=np.int64) for table in self.tables]
        for k in range(len(self.tables) - 1, 0, -1):
            parent = self.tables[k] // base
            below = np.bincount(parent, weights=sizes[k], minlength=len(sizes[k - 1]))
            sizes[k - 1] += below.astype(np.int64)
        place = np.full(1, -1, dtype=np.int64)  # the empty n-gram, before everything
        places, positions = [place[:0]], [np.empty(0, dtype=np.int32)]
        for table, size, pos in zip(self.tables, sizes, self.position):
            parent = table // base
            before = np.cumsum(size) - size
            place = place[parent] + 1 + before - before[np.searchsorted(parent, parent)]
            places.append(place[pos >= 0])
            positions.append(pos[pos >= 0])
        return np.concatenate(positions)[np.argsort(np.concatenate(places))]

    def pairs(self, sentences: Sequence[Sentence]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every distinct feature of every sentence, with its occurrence count.

        Returns aligned int32 ``(row, position, count)`` arrays: rows in
        input order and, within a row, features in the order
        ``iter_ngrams`` first reaches them. Sentences are enumerated a
        chunk at a time, so the temporary arrays stay small on any corpus.
        """
        parts = [(np.empty(0, dtype=np.int32),) * 3]
        for start in range(0, len(sentences), _CHUNK):
            row, position, count = self._chunk_pairs(sentences[start : start + _CHUNK])
            parts.append((row + start, position, count))
        row, position, count = zip(*parts)
        return np.concatenate(row), np.concatenate(position), np.concatenate(count)

    def _chunk_pairs(self, sentences: Sequence[Sentence]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lens = np.fromiter((len(s.source_tokens) for s in sentences), dtype=np.int64, count=len(sentences))
        tokens = list(chain.from_iterable(s.source_tokens for s in sentences))
        unknown = len(self.tok_id)
        tok = np.fromiter(map(self.tok_id.get, tokens, repeat(unknown)), dtype=np.int64, count=len(tokens))
        row_of = np.repeat(np.arange(len(sentences), dtype=np.int32), lens)
        rows = [np.empty(0, dtype=np.int32)]
        found = [np.empty(0, dtype=np.int32)]
        # order-major, as iter_ngrams runs within a sentence
        top = min(self.max_order, len(self.tables))
        orders = chain_ranks(tok, depths(lens), top, unknown + 1, self.tables)
        for pos, (_, ranks) in zip(self.position, orders):
            at = np.flatnonzero(ranks >= 0)
            if not at.size:
                break  # no k-gram here, so no longer one either
            feature = pos[ranks[at]]
            hit = feature >= 0
            rows.append(row_of[at[hit]])
            found.append(feature[hit])
        width = max(len(self.ngrams), 1)
        key = np.concatenate(rows).astype(np.int64) * width + np.concatenate(found)
        key, first, count = np.unique(key, return_index=True, return_counts=True)
        row, position = key // width, key % width
        by_first = np.lexsort((first, row))
        return (
            row[by_first].astype(np.int32),
            position[by_first].astype(np.int32),
            count[by_first].astype(np.int32),
        )


@dataclass(frozen=True)
class RelevanceRows:
    """Relevance of sentences to the features with idf > 0, as a CSR matrix.

    Row i's columns are ``cols[indptr[i]:indptr[i + 1]]``, ascending, with
    relevance ``vals`` (count * idf) at the same offsets. Column j is the
    n-gram ``names[j]`` with weight ``weights[j]``.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    names: list
    weights: np.ndarray


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
    index = features._index
    _, position, _ = index.pairs(ground.sentences)
    doc_freq = np.bincount(position, minlength=len(features)).tolist()
    n = len(ground)
    # math.log, not np.log: the two can differ in the last place
    fitted = {
        ngram: FeatureInfo(info.weight, df, math.log(n / df) if df > 0 else None)
        for (ngram, info), df in zip(features.features.items(), doc_freq)
    }
    out = FeatureSet(max_order=features.max_order, features=fitted, ground_size=n)
    out._index = index  # the same n-grams in the same order
    return out


def _check_fitted(features: FeatureSet) -> None:
    if not features.fitted:
        raise StateError("feature set is unfitted; call fit_idf before featurize")


def relevance_rows(sentences: Sequence[Sentence], features: FeatureSet) -> RelevanceRows:
    """The relevance vectors of many sentences at once, as one CSR matrix.

    Columns are the features with idf > 0 in sorted n-gram order; row i
    holds the same scores as ``featurize(sentences[i], features)``.
    """
    _check_fitted(features)
    index = features._index
    weight, idf = features._weight_idf()
    lex = index.lex()
    active = lex[idf[lex] > 0.0]
    col_of = np.full(len(features), -1, dtype=np.int32)
    col_of[active] = np.arange(len(active), dtype=np.int32)
    row, position, count = index.pairs(sentences)
    col = col_of[position]
    keep = col >= 0
    row, col, count = row[keep], col[keep], count[keep]
    by_col = np.lexsort((col, row))
    row, col, count = row[by_col], col[by_col], count[by_col]
    indptr = np.zeros(len(sentences) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(sentences)), out=indptr[1:])
    return RelevanceRows(
        indptr=indptr,
        cols=col,
        vals=count * idf[active][col],
        names=[index.ngrams[p] for p in active.tolist()],
        weights=weight[active],
    )


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
