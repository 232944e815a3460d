"""The columnar feature set against the dict-of-``FeatureInfo`` reference in
``features_reference``: the same statistics in the same set order, the
same index, the same relevance rows and the same loaded sets."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import features_reference as ref
from greedy_reference import ascending
from subselect import features as features_module
from subselect.corpus import Corpus, Sentence
from subselect.features import extract_feature_set, fit_idf, load_feature_set, relevance_rows, save_feature_set

from support import assert_rows_are_featurize

# "a\x01" sorts before "a b" as a string but after "a" as a token, so the
# file's record order is not the index's n-gram order
TOKENS = ["a", "b", "c", "a\x01"]


def corpus(lines):
    return Corpus(tuple(Sentence(i, tuple(toks)) for i, toks in enumerate(lines)))


def assert_same_set(got, want):
    assert (got.max_order, got.ground_size, len(got)) == (want.max_order, want.ground_size, len(want))
    infos = list(want.features.values())
    assert np.array_equal(got.weight, np.array([info.weight for info in infos], dtype=np.float64))
    assert np.array_equal(got.doc_freq, np.array([info.doc_freq for info in infos], dtype=np.int64))
    idf = np.array([math.nan if info.idf is None else info.idf for info in infos], dtype=np.float64)
    assert np.array_equal(got.idf, idf, equal_nan=True)
    assert list(got.features) == list(want.features)  # set order
    assert got.features == want.features
    index, expected = got._index, want._index
    assert index.tok_id == expected.tok_id
    assert len(index.tables) == len(expected.tables)
    for table, position, want_table, want_position in zip(
        index.tables, index.position, expected.tables, expected.position
    ):
        assert np.array_equal(table, want_table)
        assert np.array_equal(position, want_position)


def assert_same_rows(got, want, sentences, features):
    """``got`` is the reference's ascending ``want`` with each row in ``featurize``'s order."""
    assert_rows_are_featurize(got, sentences, features)
    got = ascending(got)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.cols, want.cols)
    assert np.array_equal(got.vals, want.vals)
    assert np.array_equal(got.weights, want.weights)
    assert list(got.names) == want.names


sentences = st.lists(st.lists(st.sampled_from(TOKENS), min_size=0, max_size=9), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    ground_lines=sentences,
    in_domain_lines=sentences,
    max_order=st.integers(1, 7),
    weighting=st.sampled_from(["uniform", "freq"]),
    in_every=st.booleans(),
)
def test_columnar_set_matches_the_dict_reference(ground_lines, in_domain_lines, max_order, weighting, in_every):
    if in_every:  # ("a",) then has idf 0
        ground_lines = [line + ["a"] for line in ground_lines]
    ground = corpus(ground_lines)
    # "z" never reaches the ground, so its n-grams keep idf None
    in_domain = corpus([line + ["z"] for line in in_domain_lines])

    raw = extract_feature_set(in_domain, max_order, weighting)
    want_raw = ref.extract_feature_set(in_domain, max_order, weighting)
    assert_same_set(raw, want_raw)

    fitted = fit_idf(raw, ground)
    want = ref.fit_idf(want_raw, ground)
    assert_same_set(fitted, want)
    assert_same_set(raw, want_raw)  # fitting left the input alone

    expected = ref.relevance_rows(ground.sentences, want)
    rows = relevance_rows(ground.sentences, fitted)  # from fit_idf's enumeration
    assert fitted._ground is None
    assert_same_rows(rows, expected, ground.sentences, fitted)
    assert_same_rows(relevance_rows(ground.sentences, fitted), expected, ground.sentences, fitted)  # a fresh one
    subset, refitted = ground.sentences[::2], fit_idf(raw, ground)
    assert_same_rows(relevance_rows(subset, refitted), ref.relevance_rows(subset, want), subset, refitted)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.tsv"
        save_feature_set(fitted, path)
        loaded = load_feature_set(path)
        assert_same_set(loaded, ref.load_feature_set(path))
        assert_same_rows(
            relevance_rows(ground.sentences, loaded),
            ref.relevance_rows(ground.sentences, ref.load_feature_set(path)),
            ground.sentences,
            loaded,
        )


@settings(max_examples=100, deadline=None)
@given(in_domain_lines=sentences, max_order=st.integers(1, 7))
def test_set_order_past_int64s_range_falls_back_to_a_lexsort(in_domain_lines, max_order):
    # an order count whose key bound passes int64's range stands in for a
    # corpus too large to pack: the set comes out the same through the lexsort
    in_domain = corpus([line + ["z"] for line in in_domain_lines])
    packed = features_module._set_order

    def unpackable(first, order, depth, lens, orders):
        return packed(first, order, depth, lens, 2**63)

    with mock.patch.object(features_module, "_set_order", unpackable), mock.patch.object(
        np, "lexsort", wraps=np.lexsort
    ) as lexsort:
        got = extract_feature_set(in_domain, max_order)
    assert lexsort.call_count == 1
    assert_same_set(got, ref.extract_feature_set(in_domain, max_order, "uniform"))
    assert_same_set(extract_feature_set(in_domain, max_order), ref.extract_feature_set(in_domain, max_order, "uniform"))
