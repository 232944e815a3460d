"""Sorted int64 keys for n-grams over interned token ids: a prefix tree in arrays.

With ``base`` token ids, an n-gram's key is ``base * rank(the n-gram
minus its last token) + id(its last token)``, the rank being the index
of that shorter n-gram among the sorted keys of its own order; the empty
n-gram, the root, has rank 0. Keys fit in int64 at any order, as a rank
is below its table's size. Level k of a tree holds its k-grams, each
k-token prefix of a longer n-gram included, so every key's prefix is in
the level below. This is the sorted-array layout of Heafield's KenLM:
``lm`` keeps each model as one such tree, ``features`` its n-gram
universe. ``intern`` sorts and ranks a level's keys, ``prefix_tree``
builds a tree from each order's n-grams, ``chain_ranks`` from a token
stream's windows, ``spell`` spells keys, and ``batches`` cuts a stream
into runs of whole items within a size budget.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

_INT32_KEYS = 1 << 31  # ``intern`` ranks a level of this many keys or more in int64, past int32's range


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


def intern(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``unique(keys, return_inverse=True)`` from one argsort, one neighbour compare
    and one cumulative sum; the ranks are int32 below ``_INT32_KEYS`` keys, int64 from there."""
    perm = np.argsort(keys)
    keys = keys[perm]
    new = np.ones(len(keys), dtype=bool)  # each key that differs from the one before
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    table = keys[new]
    del keys
    ranks = np.empty(len(perm), dtype=np.int32 if len(perm) < _INT32_KEYS else np.int64)
    ranks[perm] = np.cumsum(new, dtype=ranks.dtype) - 1
    return table, ranks


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
        query, inverse = (query, slice(None)) if distinct else intern(query)
        idx = np.minimum(np.searchsorted(sorted_keys, query), len(sorted_keys) - 1)
        out[ok] = np.where(sorted_keys[idx] == query, idx, -1)[inverse]
    return out


def prefix_tree(
    grams: Sequence[np.ndarray], values: Sequence[np.ndarray], base: int, fill: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The levels of the prefix tree of some n-grams, level 1 first.

    ``grams[k - 1]`` holds the order-k n-grams as rows of token ids below
    ``base``, and ``values[k - 1]`` a value for each. Yields per level k
    the sorted keys of every k-token prefix, interned by ``intern``,
    and each key's value: its order-k n-gram's (the last one where
    several are equal), or ``fill`` for a prefix only.
    """
    ranks = [np.zeros(len(v), dtype=np.int32) for v in values]  # each n-gram's rank at the level below
    for k, v in enumerate(values):
        table, ranks = intern(np.concatenate([r * np.int64(base) + g[:, k] for r, g in zip(ranks, grams[k:])]))
        ranks = np.split(ranks, np.cumsum([len(u) for u in values[k:-1]]))
        level = np.full(len(table), fill, dtype=v.dtype)
        level[ranks.pop(0)] = v
        yield table, level


def spell(keys: np.ndarray, below: Sequence[np.ndarray], tokens: np.ndarray, base: int, joined: bool = False) -> list:
    """Some keys of one level spelled down the tree through the levels ``below`` it: each n-gram
    as a tuple of its tokens from ``tokens`` (by id), or with ``joined`` as one space-joined string."""
    columns = [tokens[keys % base]]
    for table in reversed(below):
        keys = table[keys // base]
        columns.insert(0, tokens[keys % base])
    grams = zip(*columns)
    return list(map(" ".join, grams) if joined else grams)


def batches(sizes: np.ndarray, budget: float) -> Iterator[tuple[int, int]]:
    """Runs ``lo, hi`` that cut items of these sizes, in order, into batches: each the
    longest run from ``lo`` whose sizes sum to at most ``budget``, or one larger item alone."""
    ends, lo = np.concatenate([[0], np.cumsum(sizes)]), 0  # ends[i]: the size of the first i items
    while lo < len(sizes):
        hi = max(lo + 1, int(ends.searchsorted(ends[lo] + budget, side="right")) - 1)
        yield lo, hi
        lo = hi


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
    for k in range(1, max_order + 1):
        if k > 1:
            parent = np.full(n, -1, dtype=np.int64)
            parent[1:] = ranks[:-1]
            parent[depth < k - 1] = -1
        if k == 1:  # the keys are the token ids themselves: rank them through one lookup table
            table = tables[0] if tables is not None else np.flatnonzero(np.bincount(tok, minlength=base))
            lookup = np.full(base, -1, dtype=np.int64)
            lookup[table] = np.arange(len(table))
            ranks = lookup[tok]
        elif tables is not None:
            table = tables[k - 1]
            ranks = rank(table, parent, tok, base)
        else:
            ok = parent >= 0
            table, inverse = intern(parent[ok] * base + tok[ok])
            ranks = np.full(n, -1, dtype=np.int64)
            ranks[ok] = inverse
        yield table, ranks
