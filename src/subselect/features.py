"""N-gram feature universe, document-frequency weighting, and featurization.

The feature universe is every contiguous source-side n-gram of order
1..max_order found in an in-domain sample. Fitting against the ground set
attaches document frequencies and idf = ln(|ground| / doc_freq); a
sentence's relevance to feature u is then count(u in sentence) * idf(u).

A feature set is columnar. Its universe is interned once, as sorted
chained integer keys (see ``ngramkeys``), and its statistics are arrays
in set order: ``weight``, ``doc_freq`` and ``idf``. Sentences are
enumerated in batches of at most ``_CHUNK`` tokens (``ngramkeys.batches``),
each one order at a time with ``np.searchsorted``. Document frequencies,
the greedy's relevance matrix, single feature vectors and the report's
coverage all come from that one enumeration, and a fitted set keeps the
ground's enumeration for the greedy's relevance matrix, so ``select``
walks the pool once. Sentences come in as a corpus's ``TokenStream``;
the index maps its ids to its own through one lookup per distinct token.
N-gram tuples and ``FeatureInfo`` objects are built only when a caller
reads ``features`` or a feature vector.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, ValuesView
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .corpus import Corpus, Sentence, TokenStream, as_stream, read_lines
from .errors import ConfigError, EmptyCorpusError, StateError
from .ngramkeys import batches, chain_ranks, depths, intern, prefix_tree, spell

NGram = tuple[str, ...]

_CHUNK = 2048 * 15  # token positions enumerated at once (or one longer sentence)

FEATURESET_MAGIC = "subselect-featureset"
FEATURESET_VERSION = 1

FEATURE_WEIGHTINGS = ("uniform", "freq")


@dataclass
class FeatureInfo:
    """Per-feature weight and fit statistics, as ``FeatureSet.features`` shows them.

    idf is None until the set is fitted, and stays None for features the
    ground set never contains (they are retained but cannot contribute).
    """

    weight: float = 1.0
    doc_freq: int = 0
    idf: float | None = None


class FeatureSet:
    """A feature universe with per-feature statistics, as arrays in set order.

    ``weight`` (float64), ``doc_freq`` (int64) and ``idf`` (float64, NaN
    where a feature has none) are aligned with the index's feature
    positions; none of them may change once the set is built.
    ``features`` is a read-only mapping from n-gram tuples to
    ``FeatureInfo``, decoded on demand. Build a set by hand from such a
    mapping with ``FeatureSet(max_order, features, ground_size)``.
    """

    def __init__(self, max_order: int, features: Mapping[NGram, FeatureInfo], ground_size: int = 0):
        infos = list(features.values())
        self._init(
            max_order,
            _NgramIndex.build(TokenStream.of(features), max_order),
            np.array([info.weight for info in infos], dtype=np.float64),
            np.array([info.doc_freq for info in infos], dtype=np.int64),
            np.array([math.nan if info.idf is None else info.idf for info in infos], dtype=np.float64),
            ground_size,
        )

    def _init(self, max_order, index, weight, doc_freq, idf, ground_size) -> None:
        self.max_order = max_order
        self._index = index
        self.weight = weight
        self.doc_freq = doc_freq
        self.idf = idf
        self.ground_size = ground_size  # number of ground sentences fitted against; 0 = unfitted
        # the ground's (row, position, count) pairs, kept by fit_idf for one relevance_rows call
        self._ground: tuple[Corpus, tuple[np.ndarray, ...]] | None = None

    @classmethod
    def _of(cls, max_order, index, weight, doc_freq, idf, ground_size=0) -> FeatureSet:
        out = cls.__new__(cls)
        out._init(max_order, index, weight, doc_freq, idf, ground_size)
        return out

    @property
    def fitted(self) -> bool:
        return self.ground_size > 0

    def __len__(self) -> int:
        return len(self.weight)

    def __contains__(self, ngram: NGram) -> bool:
        return ngram in self._index.position_of

    def __eq__(self, other) -> bool:
        """The same features with the same statistics, in any set order."""
        if not isinstance(other, FeatureSet):
            return NotImplemented
        return (self.max_order, self.ground_size) == (other.max_order, other.ground_size) and (
            self.features == other.features
        )

    @property
    def features(self) -> Mapping[NGram, FeatureInfo]:
        """Each feature's statistics under its n-gram tuple, in set order."""
        return _Features(self)

    def release_ground(self) -> None:
        """Drop the ground's enumeration that ``fit_idf`` kept for ``relevance_rows``."""
        self._ground = None

    def _pairs(self, sentences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_index.pairs(sentences)``, taken from ``fit_idf`` when it enumerated this very
        corpus (or its ``sentences``)."""
        if self._ground is not None:
            ground, pairs = self._ground
            if sentences is ground or sentences is ground._sentences:
                self._ground = None  # used once: the greedy need not hold them
                return pairs
        return self._index.pairs(sentences)


class _Features(Mapping):
    """A feature set as n-gram tuple -> ``FeatureInfo``, built from its arrays on each read."""

    def __init__(self, features: FeatureSet):
        self._set = features

    def __len__(self) -> int:
        return len(self._set)

    def __iter__(self):
        return iter(self._set._index.ngrams)

    def __getitem__(self, ngram: NGram) -> FeatureInfo:
        p = self._set._index.position_of[ngram]
        idf = float(self._set.idf[p])
        return FeatureInfo(float(self._set.weight[p]), int(self._set.doc_freq[p]), None if math.isnan(idf) else idf)

    def values(self):
        return _Infos(self)


class _Infos(ValuesView):
    """The ``FeatureInfo`` of every feature, from the arrays alone, in set order."""

    def __iter__(self):
        fs = self._mapping._set
        idf = [None if math.isnan(x) else x for x in fs.idf.tolist()]
        return map(FeatureInfo, fs.weight.tolist(), fs.doc_freq.tolist(), idf)


def _ids_of(vocab: Sequence[str]) -> dict[str, int]:
    return dict(zip(vocab, range(len(vocab))))


def _set_order(first: np.ndarray, order: np.ndarray, depth: np.ndarray, lens: np.ndarray, orders: int) -> np.ndarray:
    """Set order of the n-grams of ``order`` first ending at ``first``: by sentence, order, then end
    depth. One argsort of the distinct key ``(orders + 1) * start + order * length + depth``, which is
    below ``(orders + 1) * tokens``, or a lexsort where that bound passes int64's range."""
    start, end_depth = first - depth[first], depth[first]
    if (orders + 1) * len(depth) > np.iinfo(np.int64).max:
        return np.lexsort((end_depth, order, start))
    return np.argsort((orders + 1) * start + order * np.repeat(lens, lens)[first] + end_depth)


@dataclass(frozen=True)
class _NgramIndex:
    """A feature universe as one prefix tree of chained integer keys (see ``ngramkeys``).

    Token ids are those of the stream the index was built from, in string
    order, so siblings sort as their n-grams do. ``position`` maps each
    table entry to its feature's index in the set, -1 for a prefix that
    is no feature. Only the first ``max_order`` tables are looked up.
    """

    tok_id: dict[str, int]  # in id order; a token outside the universe gets id len(tok_id)
    max_order: int
    tables: list[np.ndarray]
    position: list[np.ndarray]
    size: int  # features, at positions 0..size-1

    @classmethod
    def build(cls, ngrams: TokenStream, max_order: int) -> _NgramIndex:
        """The index of the n-grams in a stream, one a sentence, in this set order."""
        tok_id = _ids_of(ngrams.vocab)
        lens = ngrams.lens
        rows = [np.flatnonzero(lens == k).astype(np.int32) for k in range(1, int(lens.max(initial=0)) + 1)]
        grams = [ngrams.ids[ngrams.starts[r, None] + np.arange(k)] for k, r in enumerate(rows, 1)]
        levels = list(prefix_tree(grams, rows, len(tok_id) + 1, -1))
        return cls(tok_id, max_order, [table for table, _ in levels], [pos for _, pos in levels], len(lens))

    @classmethod
    def intern(cls, stream: TokenStream, max_order: int) -> tuple[_NgramIndex, np.ndarray]:
        """Every n-gram of orders 1..max_order in these sentences, with its occurrence count.

        Set order is the order in which a scan reaches each n-gram first:
        sentence by sentence, and within a sentence order by order, left
        to right. The universe is prefix-closed, so every table entry is
        a feature.
        """
        tok, lens = stream.ids, stream.lens
        depth = depths(lens)
        tables, counts, firsts = [], [], []
        for table, ranks in chain_ranks(tok, depth, max_order, len(stream.vocab) + 1):
            if not len(table):
                break  # no k-gram, so no longer one either
            at = np.flatnonzero(ranks >= 0)
            first = np.full(len(table), len(tok), dtype=np.int64)
            np.minimum.at(first, ranks[at], at)  # where each k-gram first ends
            tables.append(table)
            counts.append(np.bincount(ranks[at], minlength=len(table)))
            firsts.append(first)
        sizes = [len(table) for table in tables]
        first = np.concatenate([np.empty(0, dtype=np.int64), *firsts])
        order = np.repeat(np.arange(1, len(tables) + 1), sizes)
        rank_in_set = np.empty(len(first), dtype=np.int32)
        rank_in_set[_set_order(first, order, depth, lens, len(tables))] = np.arange(len(first), dtype=np.int32)
        position = np.split(rank_in_set, np.cumsum(sizes)[:-1]) if tables else []
        count = np.empty(len(first), dtype=np.int64)
        count[rank_in_set] = np.concatenate([np.empty(0, dtype=np.int64), *counts])
        return cls(_ids_of(stream.vocab), max_order, tables, position, len(first)), count

    def _spell(self, joined: bool) -> list:
        """Every feature's n-gram (``ngramkeys.spell``), as a token tuple or
        with ``joined`` its tokens joined by spaces, in set order."""
        out: list = [None] * self.size
        tokens, base = np.array(list(self.tok_id), dtype=object), len(self.tok_id) + 1
        for k, (table, pos) in enumerate(zip(self.tables, self.position)):
            keep = pos >= 0  # a prefix that is no feature is not spelled
            for p, ngram in zip(pos[keep].tolist(), spell(table[keep], self.tables[:k], tokens, base, joined)):
                out[p] = ngram
        return out

    @cached_property
    def ngrams(self) -> list[NGram]:
        """Every feature's token tuple, in set order."""
        return self._spell(joined=False)

    @cached_property
    def position_of(self) -> dict[NGram, int]:
        return {ngram: p for p, ngram in enumerate(self.ngrams)}

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

    def pairs(self, sentences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every distinct feature of every sentence, with its occurrence count.

        ``sentences`` is a corpus, a ``TokenStream`` or a sequence of
        sentences. Returns aligned int32 ``(row, position, count)``
        arrays: rows in input order and, within a row, features in the
        order a scan reaches them first, order by order and left to
        right. Sentences are enumerated in batches of at most ``_CHUNK``
        tokens (``ngramkeys.batches``), so temporaries stay small on any corpus.
        """
        stream = as_stream(sentences)
        tok = stream.lookup(self.tok_id, len(self.tok_id))
        edges = np.concatenate([[0], np.cumsum(stream.lens)])
        columns = [[np.empty(0, dtype=np.int32)] for _ in range(3)]
        for start, stop in batches(stream.lens, _CHUNK):
            row, position, count = self._chunk_pairs(tok[edges[start] : edges[stop]], stream.lens[start:stop])
            for column, part in zip(columns, (row + start, position, count)):
                column.append(part)
        # a column's chunks go once it is joined, so the pairs are never all held twice
        return tuple(np.concatenate(columns.pop(0)) for _ in range(3))

    def _chunk_pairs(self, tok: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``pairs`` of sentences whose index token ids come end to end in ``tok``."""
        unknown = len(self.tok_id)
        row_of = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
        rows = [np.empty(0, dtype=np.int32)]
        found = [np.empty(0, dtype=np.int32)]
        # order-major within a sentence, as the first-reached order is
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
        width = max(self.size, 1)
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

    Row i's columns are ``cols[indptr[i]:indptr[i + 1]]``, ascending (in entry order where
    ``submodular._entry_rows`` built them), with relevance ``vals`` (count * idf) at the same
    offsets. Column j is the feature ``names[j]`` with weight ``weights[j]``.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    names: Sequence
    weights: np.ndarray


class _Names(Sequence):
    """The n-gram tuples of some feature positions, decoded on first read."""

    def __init__(self, index: _NgramIndex, positions: np.ndarray):
        self._index = index
        self._positions = positions

    def __len__(self) -> int:
        return len(self._positions)

    @cached_property
    def _decoded(self) -> list[NGram]:
        return list(map(self._index.ngrams.__getitem__, self._positions.tolist()))

    def __getitem__(self, i):
        return self._decoded[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class FeatureVector:
    """Sparse relevance scores of one sentence; only positive entries appear."""

    entries: dict[NGram, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


def check_feature_settings(max_order: int, weighting: str) -> None:
    """Check a feature set's extraction settings."""
    if max_order < 1:
        raise ConfigError(f"max_order must be >= 1, got {max_order}")
    if weighting not in FEATURE_WEIGHTINGS:
        raise ConfigError(
            f"unknown feature weighting {weighting!r}; expected one of: {', '.join(FEATURE_WEIGHTINGS)}"
        )


def extract_feature_set(
    in_domain: Corpus, max_order: int = 7, weighting: str = "uniform"
) -> FeatureSet:
    """Collect the feature universe from an in-domain sample.

    ``weighting="uniform"`` gives every feature weight 1.0;
    ``weighting="freq"`` weights each feature by its occurrence count in
    the sample. The returned set is unfitted: doc frequencies are zero
    and idf is absent until fit_idf is called.
    """
    check_feature_settings(max_order, weighting)
    if len(in_domain) == 0:
        raise EmptyCorpusError("in-domain sample is empty")
    index, count = _NgramIndex.intern(as_stream(in_domain), max_order)
    weight = count.astype(np.float64) if weighting == "freq" else np.ones(index.size)
    return FeatureSet._of(max_order, index, weight, np.zeros(index.size, dtype=np.int64), np.full(index.size, math.nan))


def _idf(doc_freq: np.ndarray, n: int) -> np.ndarray:
    """ln(n / df) per feature, NaN where df is 0: one ``math.log`` per distinct df.

    ``math.log``, not ``np.log``: the two can differ in the last place.
    """
    distinct, inverse = intern(doc_freq)
    logs = [math.log(n / df) if df > 0 else math.nan for df in distinct.tolist()]
    return np.array(logs, dtype=np.float64)[inverse]


def fit_idf(features: FeatureSet, ground: Corpus) -> FeatureSet:
    """Attach ground-set document frequencies and idf to a feature universe.

    Returns a new fitted FeatureSet; the input is left untouched. A
    feature occurring in no ground sentence keeps idf = None; one
    occurring in every ground sentence gets idf = 0 and can never
    contribute relevance. The fitted set keeps the ground's enumeration
    until ``relevance_rows`` of ``ground`` takes it or ``release_ground``
    drops it.
    """
    if len(ground) == 0:
        raise EmptyCorpusError("ground corpus is empty")
    index = features._index
    pairs = index.pairs(ground)
    doc_freq = np.bincount(pairs[1], minlength=len(features))
    n = len(ground)
    out = FeatureSet._of(features.max_order, index, features.weight, doc_freq, _idf(doc_freq, n), n)
    out._ground = (ground, pairs)
    return out


def _check_fitted(features: FeatureSet) -> None:
    if not features.fitted:
        raise StateError("feature set is unfitted; call fit_idf first")


def _relevance(features: FeatureSet, pairs: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_index.pairs`` output cut to the features with idf > 0, as ``(row, position,
    count * idf)`` in the same order: rows in input order, features in order of first
    occurrence."""
    row, position, count = pairs
    keep = (features.idf > 0.0)[position]  # False for NaN, the absent idf
    position = position[keep]
    return row[keep], position, count[keep] * features.idf[position]


def featurize(sentence: Sentence, features: FeatureSet) -> FeatureVector:
    """Sparse relevance vector of one sentence under a fitted feature set.

    Occurrences are counted over overlapping sliding windows; each entry
    is count * idf. Features with absent or zero idf are dropped, so
    every stored score is positive. Entries come in order of first
    occurrence.
    """
    _check_fitted(features)
    _, position, relevance = _relevance(features, features._index.pairs([sentence]))
    names = map(features._index.ngrams.__getitem__, position.tolist())
    return FeatureVector(dict(zip(names, relevance.tolist())))


def relevance_rows(sentences, features: FeatureSet) -> RelevanceRows:
    """The relevance vectors of a corpus's (or any) sentences at once, as one CSR matrix.

    Columns are the features with idf > 0 in sorted n-gram order; row i
    holds the same scores as ``featurize(sentences[i], features)``.
    """
    _check_fitted(features)
    index = features._index
    lex = index.lex()
    active = lex[features.idf[lex] > 0.0]
    col_of = np.full(len(features), -1, dtype=np.int32)
    col_of[active] = np.arange(len(active), dtype=np.int32)
    row, position, relevance = _relevance(features, features._pairs(sentences))
    col = col_of[position]
    indptr = np.zeros(len(sentences) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(sentences)), out=indptr[1:])
    # one int64 key per (row, col) pair, each pair unique: the lexsort order, faster
    by_col = np.argsort(row.astype(np.int64) * len(active) + col, kind="stable")
    return RelevanceRows(
        indptr=indptr,
        cols=col[by_col],
        vals=relevance[by_col],
        names=_Names(index, active),
        weights=features.weight[active],
    )


def count_ngrams(sentences, max_order: int) -> tuple[int, int]:
    """Distinct n-grams and n-gram occurrences of orders 1..max_order, over all sentences."""
    stream = as_stream(sentences)
    types = tokens = 0
    for table, ranks in chain_ranks(stream.ids, depths(stream.lens), max_order, len(stream.vocab) + 1):
        if not len(table):
            break
        types += len(table)
        tokens += int(np.count_nonzero(ranks >= 0))
    return types, tokens


def save_feature_set(features: FeatureSet, path) -> None:
    """Write a feature set as a versioned flat file, one record per feature.

    Records are sorted by the space-joined n-gram so identical inputs
    always serialize byte-identically. idf is not stored; it is
    recomputed from the header's ground size and each record's doc_freq.
    """
    joined = features._index._spell(joined=True)
    weight, doc_freq = features.weight.tolist(), features.doc_freq.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{FEATURESET_MAGIC}\t{FEATURESET_VERSION}\n")
        fh.write(f"{features.max_order}\t{features.ground_size}\t{len(joined)}\n")
        fh.writelines(
            f"{joined[p]}\t{weight[p]!r}\t{doc_freq[p]}\n" for p in sorted(range(len(joined)), key=joined.__getitem__)
        )


def _first(flags) -> int:
    """Index of the first true flag."""
    return next(i for i, flag in enumerate(flags) if flag)


def _parses(weight: str, doc_freq: str) -> bool:
    try:
        float(weight), np.int64(int(doc_freq))
    except (ValueError, OverflowError):
        return False
    return True


def load_feature_set(path) -> FeatureSet:
    """Read a feature-set file, checking every record.

    Records must come in strictly increasing order of the joined n-gram,
    each of 1 to max_order non-empty tokens, with a finite non-negative
    weight and an integer doc_freq from 0 to the ground size. A record
    that breaks a rule is a ``ConfigError`` naming its line.
    """
    lines = read_lines(path)
    if not lines:
        raise ConfigError(f"{path}: empty file, not a feature-set file")
    magic = lines[0].split("\t")
    if len(magic) != 2 or magic[0] != FEATURESET_MAGIC:
        raise ConfigError(f"{path}: not a feature-set file")
    if magic[1] != str(FEATURESET_VERSION):
        raise ConfigError(f"{path}: unsupported feature-set version {magic[1]}")
    try:
        max_order, ground_size, count = (int(x) for x in lines[1].split("\t"))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed feature-set header") from exc
    if max_order < 1 or ground_size < 0:
        raise ConfigError(f"{path}: malformed feature-set header")
    body = lines[2:]
    if len(body) != count:
        raise ConfigError(f"{path}: header promises {count} records, found {len(body)}")

    def bad(i: int, why: str) -> ConfigError:
        return ConfigError(f"{path} line {i + 3}: {why}: {body[i]!r}")

    tabs = np.fromiter(map(str.count, body, repeat("\t")), dtype=np.int64, count=len(body))
    if np.any(tabs != 2):
        raise bad(int(np.argmax(tabs != 2)), "not three tab-separated fields")
    fields = "\t".join(body).split("\t")
    joined, weights, doc_freqs = fields[0::3], fields[1::3], fields[2::3]
    if not all(map(operator.lt, joined, joined[1:])):
        raise bad(_first(map(operator.ge, joined, joined[1:])) + 1, "n-gram does not sort after the previous record's")
    tokens = " ".join(joined).split(" ")
    lens = np.fromiter(map(str.count, joined, repeat(" ")), dtype=np.int64, count=len(joined)) + 1
    if lens.max(initial=0) > max_order:
        raise bad(int(np.argmax(lens > max_order)), f"more than {max_order} tokens")
    if "" in tokens:
        raise bad(int(np.searchsorted(np.cumsum(lens), tokens.index(""), side="right")), "empty token")
    try:
        weight = np.array(list(map(float, weights)), dtype=np.float64)
        doc_freq = np.array(list(map(int, doc_freqs)), dtype=np.int64)
    except (ValueError, OverflowError):
        parsed = map(_parses, weights, doc_freqs)
        raise bad(_first(not ok for ok in parsed), "malformed weight or doc_freq") from None
    ok = np.isfinite(weight) & (weight >= 0.0)
    if not ok.all():
        raise bad(int(np.argmin(ok)), "weight not finite and non-negative")
    ok = (doc_freq >= 0) & (doc_freq <= ground_size)
    if not ok.all():
        raise bad(int(np.argmin(ok)), f"doc_freq not an integer from 0 to {ground_size}")
    index = _NgramIndex.build(TokenStream.intern(tokens, lens), max_order)
    return FeatureSet._of(max_order, index, weight, doc_freq, _idf(doc_freq, ground_size), ground_size)
