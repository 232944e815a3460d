"""The array steps that ``ngramkeys`` spells once: interning a level of keys and cutting batches."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subselect import ngramkeys
from subselect.ngramkeys import batches, intern

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

keys_of = st.one_of(
    st.just([]),
    st.builds(lambda key, n: [key] * n, INT64, st.integers(1, 20)),  # one key repeated
    st.lists(st.integers(-5, 5), max_size=60),  # many repeats
    st.lists(INT64, max_size=60),
)


def check_intern(keys: np.ndarray, rank_dtype) -> None:
    table, ranks = intern(keys)
    want_table, want_ranks = np.unique(keys, return_inverse=True)
    assert table.dtype == np.int64 and ranks.dtype == rank_dtype
    assert np.array_equal(table, want_table)
    assert np.array_equal(ranks, want_ranks)


@settings(max_examples=200, deadline=None)
@given(keys_of)
def test_intern_is_numpys_unique_with_int32_ranks(keys):
    check_intern(np.array(keys, dtype=np.int64), np.int32)


@settings(max_examples=100, deadline=None)
@given(keys_of)
def test_intern_ranks_a_level_past_int32_in_int64(keys):
    # the limit lowered to 2 keys stands in for a level of 2**31 keys
    with mock.patch.object(ngramkeys, "_INT32_KEYS", 2):
        check_intern(np.array(keys, dtype=np.int64), np.int64 if len(keys) >= 2 else np.int32)


sizes_of = st.lists(st.integers(0, 30), max_size=40)


@settings(max_examples=300, deadline=None)
@given(sizes_of, st.integers(1, 60))
def test_batches_cut_whole_items_within_the_budget(sizes, budget):
    runs = list(batches(np.array(sizes, dtype=np.int64), budget))
    edges = [0, *(hi for _, hi in runs)]
    assert [lo for lo, _ in runs] == edges[:-1] and edges[-1] == len(sizes)  # consecutive runs over every item
    for lo, hi in runs:
        size = sum(sizes[lo:hi])
        assert hi > lo and (size <= budget or hi - lo == 1)
        if hi < len(sizes):
            assert size + sizes[hi] > budget  # the run could not take the next item


def test_batches_of_nothing_and_without_a_budget():
    assert list(batches(np.zeros(0, dtype=np.int64), 10)) == []
    assert list(batches(np.array([3, 9, 1]), math.inf)) == [(0, 3)]
