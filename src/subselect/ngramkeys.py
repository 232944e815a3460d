"""Sorted int64 keys for n-grams over interned token ids.

With ``base`` token ids, an n-gram's key is ``base * rank(the n-gram
minus its last token) + id(its last token)``, the rank being the index
of that shorter n-gram among the sorted keys of its own order; the empty
n-gram has rank 0. A rank is below its table's size, so keys fit in
int64 at any order. This is the sorted-array layout of Heafield's KenLM:
``lm`` keeps its count tables this way, ``features`` its n-gram universe.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np


class _LazyMapping(Mapping):
    """A read-only mapping of known size whose dict is decoded on first read.

    ``lm`` views its count tables this way and ``submodular`` a finished
    run's feature masses, so that code that only sizes them decodes no key.
    """

    def __init__(self, size: int, decode: Callable[[], dict]):
        self._size = size
        self._decode = decode

    def __len__(self) -> int:
        return self._size

    @cached_property
    def _decoded(self) -> dict:
        return self._decode()

    def __getitem__(self, key):
        return self._decoded[key]

    def __iter__(self):
        return iter(self._decoded)


def rank(
    sorted_keys: np.ndarray, parent: np.ndarray, token: np.ndarray, base: int, distinct: bool = False
) -> np.ndarray:
    """Index of each key ``base * parent + token`` in ``sorted_keys``.

    -1 where the key is absent or the parent rank is -1. ``distinct``
    says the keys are already distinct, so none is looked up twice.
    """
    out = np.full(len(parent), -1, dtype=np.int64)
    ok = np.flatnonzero(parent >= 0)
    if len(sorted_keys) and len(ok):
        query = parent[ok] * base + token[ok]
        # look each distinct key up once; real text repeats most of them
        query, inverse = (query, slice(None)) if distinct else np.unique(query, return_inverse=True)
        idx = np.minimum(np.searchsorted(sorted_keys, query), len(sorted_keys) - 1)
        out[ok] = np.where(sorted_keys[idx] == query, idx, -1)[inverse]
    return out


def depths(lens: np.ndarray) -> np.ndarray:
    """Each position's index within its sequence, for sequences of these lengths laid end to end."""
    return np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)


def chain_ranks(
    tok: np.ndarray,
    depth: np.ndarray,
    max_order: int,
    base: int,
    tables: Sequence[np.ndarray] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For k = 1..max_order, the k-grams ending at each position of a token stream.

    ``tok`` holds token ids below ``base`` and ``depth`` each position's
    index within its sequence; a k-gram never crosses a sequence start.
    Yields ``(table, ranks)`` per order, where ``ranks[i]`` is the index
    in ``table`` of the k-gram ending at position i, -1 where there is
    none. With ``tables``, each order is looked up in the given sorted
    keys, so a k-gram absent there (or whose prefix is) gets -1. Without,
    the stream is interned: ``table`` holds the sorted distinct keys of
    its own k-grams.
    """
    n = len(tok)
    ranks = np.zeros(n, dtype=np.int64)  # the empty n-gram, before every position
    for k in range(1, max_order + 1):
        if k == 1:
            parent = ranks
        else:
            parent = np.full(n, -1, dtype=np.int64)
            parent[1:] = ranks[:-1]
            parent[depth < k - 1] = -1
        if tables is not None:
            table = tables[k - 1]
            ranks = rank(table, parent, tok, base)
        else:
            ok = parent >= 0
            table, inverse = np.unique(parent[ok] * base + tok[ok], return_inverse=True)
            ranks = np.full(n, -1, dtype=np.int64)
            ranks[ok] = inverse
        yield table, ranks
