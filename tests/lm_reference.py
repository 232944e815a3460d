"""Language-model training and table building as they were before the
tables were counted straight from integer keys.

``_train`` counts tuple windows into per-order dicts, and ``_tables``
turns those dicts into sorted integer-key tables on first use. Both are
kept verbatim as references: the integer counting must give the same
tables and the same counts. ``_tables`` numbers tokens in the iteration
order of ``vocab``; give the model a vocabulary that iterates in string
order (``ordered_vocab``) to get the ids the library uses.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from subselect.corpus import Corpus, Sentence
from subselect.errors import ConfigError, EmptyCorpusError
from subselect.lm import BOS, EOS, UNK, _empty_history, _OrderTable, parse_smoothing
from subselect.ngramkeys import depths, rank


def ordered_vocab(vocab) -> dict[str, None]:
    """A vocabulary that iterates in string order, for ``_tables``' token ids."""
    return dict.fromkeys(sorted(vocab))


def _padded(
    sentences: Iterable[Sentence | Sequence[str]], vocab, order: int, markers: bool
) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """The sequences sentences are counted and scored over, concatenated.

    Tokens outside the vocabulary become the unknown marker; literal
    marker strings in running text are out-of-vocabulary too. With
    markers each sequence is start-padded to a full history and ends with
    the end marker, whose event is scored. Returns the tokens, each
    sentence's sequence length, each position's depth (the tokens before
    it in its sequence) and the depth of every sentence's first event.
    """
    first = order - 1 if markers else 0
    start_pad, end = ((BOS,) * first, (EOS,)) if markers else ((), ())
    flat: list[str] = []
    lens: list[int] = []
    for x in sentences:
        tokens = x.source_tokens if isinstance(x, Sentence) else x
        start = len(flat)
        flat.extend(start_pad)
        flat.extend(t if t in vocab else UNK for t in tokens)
        flat.extend(end)
        lens.append(len(flat) - start)
    lens_a = np.array(lens, dtype=np.int64)
    return flat, lens_a, depths(lens_a), first


class NgramLanguageModel:
    """The settings and tuple-keyed counts the reference ``_tables`` reads."""

    def __init__(self, order, smoothing, add_k, markers, unk_floor, vocab, counts):
        self.order = order
        self.smoothing = smoothing
        self.add_k = add_k
        self.markers = markers
        self.unk_floor = unk_floor
        self.vocab = vocab
        self.counts = counts

    @cached_property
    def _tables(self) -> tuple[dict[str, int], list[_OrderTable]]:
        """Token ids and one sorted-key table per order, built on first batch scoring."""
        tok_id = {tok: i for i, tok in enumerate(chain(self.vocab, (EOS, UNK, BOS)))}
        base = len(tok_id)
        tables: list[_OrderTable] = []
        for k in range(1, self.order + 1):
            table = self.counts.get(k, {})
            n = len(table)
            try:
                ids = np.fromiter(
                    map(tok_id.__getitem__, chain.from_iterable(table)), dtype=np.int64, count=n * k
                ).reshape(n, k)
            except KeyError as exc:
                raise ConfigError(f"order-{k} counts hold {exc.args[0]!r}, outside the vocabulary") from exc
            counts = np.fromiter(table.values(), dtype=np.int64, count=n)
            if k == 1:
                hist_key = np.zeros(n, dtype=np.int64)
            else:
                prefix = _empty_history(tables, n)
                for j in range(1, k - 1):
                    prefix = rank(tables[j].hist_keys, prefix, ids[:, j - 1], base)
                if (prefix < 0).any():
                    raise ConfigError(f"order-{k} counts extend a history no shorter n-gram has")
                hist_key = prefix * base + ids[:, k - 2]
            hist_keys, hist_rank, hist_types = np.unique(
                hist_key, return_inverse=True, return_counts=True
            )
            hist_total = np.zeros(len(hist_keys), dtype=np.int64)
            np.add.at(hist_total, hist_rank, counts)
            keys = hist_rank * base + ids[:, k - 1]
            by_key = np.argsort(keys)
            tables.append(_OrderTable(hist_keys, hist_total, hist_types, keys[by_key], counts[by_key]))
        return tok_id, tables


def _train(
    corpus: Corpus, order: int, smoothing: str, markers: bool, unk_floor: int, vocab: set[str]
) -> NgramLanguageModel:
    """``train_lm`` over a vocabulary the caller has already collected."""
    if order < 1:
        raise ConfigError(f"LM order must be >= 1, got {order}")
    if unk_floor < 1:
        raise ConfigError(f"unk floor must be >= 1, got {unk_floor}")
    kind, add_k = parse_smoothing(smoothing)
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot train a language model on an empty corpus")

    vocab = vocab - {BOS, EOS, UNK}
    flat, _, depth, first = _padded(corpus, vocab, order, markers)
    counts: dict[int, dict[tuple[str, ...], int]] = {}
    for k in range(1, order + 1):
        # every length-k window that ends at an event; a window ending at
        # position i stays inside i's sentence when depth[i] >= k - 1
        ends = (depth >= max(first, k - 1)).tolist()
        windows = zip(*(flat[j:] for j in range(k)))
        counts[k] = dict(Counter(compress(windows, ends[k - 1 :])))
    return NgramLanguageModel(order, kind, add_k, markers, unk_floor, frozenset(vocab), counts)
