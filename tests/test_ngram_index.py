"""The integer n-gram index against the tuple-and-dict definitions it replaces.

Each reference below enumerates n-grams with ``iter_ngrams`` and counts
them in dicts keyed by tuples; the index must give the same document
frequencies, the same relevance rows (same column order, same floats),
the same feature vectors and the same report numbers, bit for bit.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subselect import features as features_module
from subselect.corpus import Corpus, Sentence
from subselect.features import (
    FeatureInfo,
    FeatureSet,
    extract_feature_set,
    featurize,
    fit_idf,
    load_feature_set,
    relevance_rows,
    save_feature_set,
)
from subselect.oracle import coverage_report, method_metrics
from subselect.submodular import evaluate

from features_reference import iter_ngrams
from greedy_reference import ascending
from objective_reference import ref_evaluate
from support import CURVES, assert_rows_are_featurize, make_corpus, traced_peak

TOKENS = ["a", "b", "c", "d"]


def corpus(lines):
    return Corpus(tuple(Sentence(i, tuple(toks)) for i, toks in enumerate(lines)))


def ref_doc_freq(features, ground):
    doc_freq = dict.fromkeys(features.features, 0)
    for sent in ground:
        for ngram in set(iter_ngrams(sent.source_tokens, features.max_order)):
            if ngram in doc_freq:
                doc_freq[ngram] += 1
    return doc_freq


def ref_featurize(sentence, features):
    counts = {}
    for ngram in iter_ngrams(sentence.source_tokens, features.max_order):
        if ngram in features.features:
            counts[ngram] = counts.get(ngram, 0) + 1
    return {
        u: c * features.features[u].idf
        for u, c in counts.items()
        if features.features[u].idf is not None and features.features[u].idf > 0.0
    }


def ref_rows(sentences, features):
    table = features.features
    names = sorted(u for u, info in table.items() if info.idf is not None and info.idf > 0.0)
    col_of = {u: i for i, u in enumerate(names)}
    rows = []
    for sent in sentences:
        pairs = sorted((col_of[u], v) for u, v in ref_featurize(sent, features).items())
        rows.append(([c for c, _ in pairs], [v for _, v in pairs]))
    return names, rows


def ref_coverage(ground, ids, features):
    table = features.features
    coverable = sum(1 for info in table.values() if info.doc_freq > 0)
    covered, types, tokens = set(), set(), 0
    for sid in ids:
        for ngram in iter_ngrams(ground[sid].source_tokens, features.max_order):
            tokens += 1
            types.add(ngram)
            if ngram in table:
                covered.add(ngram)
    ttr = len(types) / tokens if tokens else 0.0
    coverage = len(covered) / coverable if coverable else 0.0
    return (coverage, 1.0 - ttr if tokens else 0.0, ttr, len(types), tokens)


def check_against_reference(features, ground, ids, curve):
    for sent in ground:
        vec = featurize(sent, features).entries
        assert list(vec.items()) == list(ref_featurize(sent, features).items())

    names, rows = ref_rows(ground.sentences, features)
    csr = relevance_rows(ground.sentences, features)
    assert_rows_are_featurize(csr, ground.sentences, features)
    csr = ascending(csr)  # the reference's rows are ascending
    assert csr.names == names
    assert np.array_equal(csr.weights, [features.features[u].weight for u in names])
    for i, (cols, vals) in enumerate(rows):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        assert np.array_equal(csr.cols[lo:hi], np.array(cols, dtype=np.int64))
        assert np.array_equal(csr.vals[lo:hi], np.array(vals, dtype=np.float64))

    stats = coverage_report(ground, ids, features)
    assert (stats.coverage, stats.redundancy, stats.type_token_ratio,
            stats.distinct_ngrams, stats.total_ngrams) == ref_coverage(ground, ids, features)
    metrics = method_metrics(ground, features, curve, "m", ids, "words")
    vectors = [ref_featurize(ground[i], features) for i in ids]
    assert metrics.objective == evaluate(vectors, features, curve)
    weight_of = lambda u: features.features[u].weight
    assert metrics.objective == ref_evaluate(vectors, weight_of, curve)
    assert evaluate(vectors, features, curve) == ref_evaluate(vectors, weight_of, curve)


sentences = st.lists(st.lists(st.sampled_from(TOKENS), min_size=0, max_size=9), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(
    ground_lines=sentences,
    in_domain_lines=sentences,
    max_order=st.integers(1, 7),
    in_every=st.booleans(),
    data=st.data(),
)
def test_extracted_universe_matches_tuple_reference(ground_lines, in_domain_lines, max_order, in_every, data):
    if in_every:  # ("a",) then has idf 0
        ground_lines = [line + ["a"] for line in ground_lines]
    ground = corpus(ground_lines)
    # "z" never reaches the ground, so its n-grams keep idf None
    in_domain = corpus([line + ["z"] for line in in_domain_lines])
    raw = extract_feature_set(in_domain, max_order, data.draw(st.sampled_from(["uniform", "freq"])))
    features = fit_idf(raw, ground)
    doc_freq = ref_doc_freq(raw, ground)
    for u, info in features.features.items():
        assert info.doc_freq == doc_freq[u]
        assert info.idf == (math.log(len(ground) / doc_freq[u]) if doc_freq[u] else None)
    ids = data.draw(st.lists(st.integers(0, len(ground) - 1), max_size=6))
    check_against_reference(features, ground, ids, data.draw(st.sampled_from(CURVES)))


@settings(max_examples=150, deadline=None)
@given(
    ground_lines=sentences,
    universe=st.lists(
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8).map(tuple), max_size=12, unique=True
    ),
    max_order=st.integers(1, 7),
    data=st.data(),
)
def test_hand_built_universe_matches_tuple_reference(ground_lines, universe, max_order, data):
    """Any set of tuples, prefix-closed or not, some longer than the max order."""
    ground = corpus(ground_lines)
    weights = data.draw(st.lists(st.floats(0.5, 3.0), min_size=len(universe), max_size=len(universe)))
    raw = FeatureSet(max_order, {u: FeatureInfo(weight=w) for u, w in zip(universe, weights)})
    features = fit_idf(raw, ground)
    doc_freq = ref_doc_freq(raw, ground)
    assert {u: info.doc_freq for u, info in features.features.items()} == doc_freq
    ids = data.draw(st.lists(st.integers(0, len(ground) - 1), max_size=6))
    check_against_reference(features, ground, ids, data.draw(st.sampled_from(CURVES)))


def test_bigram_without_its_unigrams():
    features = FeatureSet(2, {("a", "a"): FeatureInfo(weight=1.0, doc_freq=1, idf=1.0)}, ground_size=3)
    ground = corpus([["a", "a", "a"], ["b", "a"], ["a"]])
    assert featurize(ground[0], features).entries == {("a", "a"): 2.0}
    check_against_reference(features, ground, [0, 1, 0], CURVES[0])


def test_loaded_file_missing_a_unigram_line(tmp_path):
    ground = corpus([["a", "b", "c"], ["b", "c"], ["c", "a"], ["d"]])
    features = fit_idf(extract_feature_set(corpus([["a", "b", "c"]]), 2), ground)
    path = tmp_path / "features.tsv"
    save_feature_set(features, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line for line in lines[2:] if not line.startswith("b\t")]
    order, size, _ = lines[1].split("\t")
    path.write_text("\n".join([lines[0], f"{order}\t{size}\t{len(body)}", *body]) + "\n", encoding="utf-8")
    loaded = load_feature_set(path)
    assert ("b",) not in loaded and ("b", "c") in loaded
    check_against_reference(loaded, ground, [1, 0, 2], CURVES[4])


def test_empty_active_set():
    ground = corpus([["a", "b"]])  # one ground sentence: every idf is 0
    features = fit_idf(extract_feature_set(ground, 3), ground)
    csr = relevance_rows(ground.sentences, features)
    assert csr.names == [] and csr.indptr.tolist() == [0, 0]
    check_against_reference(features, ground, [0], CURVES[0])


def test_chunked_enumeration_matches_one_pass(monkeypatch):
    rng = random.Random(5)
    ground = make_corpus(rng, 40)
    features = fit_idf(extract_feature_set(make_corpus(rng, 6), 3), ground)
    whole = features._index.pairs(ground.sentences)
    monkeypatch.setattr(features_module, "_CHUNK", 3)
    chunked = features._index.pairs(ground.sentences)
    assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))
    assert len(whole[0]) > 40


def test_fit_idf_peak_does_not_grow_with_sentence_length():
    # 480 Zipf sentences of 250 tokens: the pool's enumeration is cut by tokens, not sentences
    rng = np.random.default_rng(0)
    lines = (rng.zipf(1.3, size=(480, 250)) % 2000).tolist()
    ground = corpus([[f"w{t}" for t in line] for line in lines])
    features = extract_feature_set(corpus([ground.sentences[i].source_tokens for i in range(0, 480, 10)]), 7)
    run = traced_peak(lambda: fit_idf(features, ground))
    assert run.peak <= 10 * 2**20, run.peak
