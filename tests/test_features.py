import math
import random

import pytest

from subselect.cli import main
from subselect.corpus import Corpus, Sentence
from subselect.errors import ConfigError, EmptyCorpusError, StateError
from subselect.features import (
    FeatureInfo,
    FeatureSet,
    extract_feature_set,
    featurize,
    fit_idf,
    load_feature_set,
    save_feature_set,
)

from features_reference import iter_ngrams
from subselect.oracle import build_report
from subselect.submodular import DEFAULT_CONCAVE, greedy_select
from support import make_corpus


def corpus_of(*lines):
    return Corpus(tuple(Sentence(i, tuple(line.split())) for i, line in enumerate(lines)))


# ground with known document frequencies: a in 3 of 4, b in 2 of 4, c and d in 1 of 4
GROUND = corpus_of("a b c", "a b", "a", "d")
IN_DOMAIN = corpus_of("a b c d")


class TestExtract:
    def test_all_orders_collected(self):
        fs = extract_feature_set(corpus_of("a b"), 2)
        assert set(fs.features) == {("a",), ("b",), ("a", "b")}
        assert all(info.weight == 1.0 for info in fs.features.values())

    def test_repeated_tokens_collapse_to_one_feature(self):
        fs = extract_feature_set(corpus_of("a a"), 1)
        assert set(fs.features) == {("a",)}

    def test_no_feature_longer_than_max_order(self):
        fs = extract_feature_set(corpus_of("a b c d e f g h i j"), 7)
        assert max(len(u) for u in fs.features) == 7

    def test_unfitted_until_fit_idf(self):
        fs = extract_feature_set(IN_DOMAIN, 1)
        assert not fs.fitted
        assert all(info.doc_freq == 0 and info.idf is None for info in fs.features.values())

    def test_frequency_weighting(self):
        fs = extract_feature_set(corpus_of("a a b"), 1, weighting="freq")
        assert fs.features[("a",)].weight == 2.0
        assert fs.features[("b",)].weight == 1.0

    def test_bad_max_order_rejected(self):
        with pytest.raises(ConfigError):
            extract_feature_set(IN_DOMAIN, 0)

    def test_bad_weighting_rejected(self):
        with pytest.raises(ConfigError):
            extract_feature_set(IN_DOMAIN, 1, weighting="tfidf")

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            extract_feature_set(Corpus(()), 1)


class TestFitIdf:
    def test_hand_checked_idf_values(self):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 1), GROUND)
        assert fs.fitted and fs.ground_size == 4
        assert fs.features[("a",)].doc_freq == 3
        assert fs.features[("a",)].idf == pytest.approx(math.log(4 / 3), abs=1e-9)
        assert fs.features[("b",)].idf == pytest.approx(math.log(2), abs=1e-9)
        assert fs.features[("c",)].idf == pytest.approx(math.log(4), abs=1e-9)

    def test_feature_absent_from_ground_keeps_no_idf(self):
        fs = fit_idf(extract_feature_set(corpus_of("a z"), 1), GROUND)
        assert fs.features[("z",)].doc_freq == 0
        assert fs.features[("z",)].idf is None

    def test_feature_in_every_sentence_gets_zero_idf(self):
        ground = corpus_of("a x", "a y", "a z")
        fs = fit_idf(extract_feature_set(corpus_of("a"), 1), ground)
        assert fs.features[("a",)].idf == 0.0

    def test_input_set_is_not_mutated(self):
        raw = extract_feature_set(IN_DOMAIN, 1)
        fit_idf(raw, GROUND)
        assert not raw.fitted
        assert raw.features[("a",)].doc_freq == 0

    def test_doc_freq_counts_sentences_not_occurrences(self):
        ground = corpus_of("a a a", "b")
        fs = fit_idf(extract_feature_set(corpus_of("a b"), 1), ground)
        assert fs.features[("a",)].doc_freq == 1

    def test_idf_never_increases_with_doc_freq(self):
        rng = random.Random(7)
        ground = make_corpus(rng, 12)
        fs = fit_idf(extract_feature_set(make_corpus(rng, 4), 2), ground)
        infos = sorted(
            (info for info in fs.features.values() if info.idf is not None),
            key=lambda info: info.doc_freq,
        )
        for a, b in zip(infos, infos[1:]):
            assert a.idf >= b.idf - 1e-12


class TestFeaturize:
    def test_hand_checked_relevance(self):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 1), GROUND)
        vec = featurize(Sentence(0, ("a", "b")), fs)
        assert vec.entries[("a",)] == pytest.approx(0.2876820724517809, abs=1e-9)
        assert vec.entries[("b",)] == pytest.approx(math.log(2), abs=1e-9)

    def test_overlapping_occurrences_counted(self):
        fs = FeatureSet(2, {("a", "a"): FeatureInfo(weight=1.0, doc_freq=1, idf=1.0)}, ground_size=3)
        vec = featurize(Sentence(0, ("a", "a", "a")), fs)
        assert vec.entries[("a", "a")] == pytest.approx(2.0, abs=1e-12)

    def test_disjoint_sentence_gives_empty_vector(self):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 1), GROUND)
        assert featurize(Sentence(0, ("q", "r")), fs).entries == {}

    def test_zero_idf_feature_never_contributes(self):
        ground = corpus_of("a x", "a y", "a z")
        fs = fit_idf(extract_feature_set(corpus_of("a x"), 1), ground)
        vec = featurize(ground[0], fs)
        assert ("a",) not in vec.entries
        assert vec.entries[("x",)] > 0

    def test_all_scores_positive(self):
        rng = random.Random(3)
        ground = make_corpus(rng, 10)
        fs = fit_idf(extract_feature_set(make_corpus(rng, 4), 3), ground)
        for sent in ground:
            assert all(v > 0 for v in featurize(sent, fs).entries.values())

    def test_unfitted_set_rejected(self):
        fs = extract_feature_set(IN_DOMAIN, 1)
        with pytest.raises(StateError):
            featurize(Sentence(0, ("a",)), fs)

    def test_pure_function_of_sentence_and_features(self):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 1), GROUND)
        s = Sentence(2, ("a", "b", "a"))
        assert featurize(s, fs).entries == featurize(s, fs).entries


class TestIterNgrams:
    def test_windows_overlap(self):
        assert list(iter_ngrams(("a", "a", "a"), 2)) == [
            ("a",), ("a",), ("a",), ("a", "a"), ("a", "a"),
        ]

    def test_short_sentence_yields_no_high_orders(self):
        assert list(iter_ngrams(("a",), 3)) == [("a",)]


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 2), GROUND)
        path = tmp_path / "features.tsv"
        save_feature_set(fs, path)
        loaded = load_feature_set(path)
        assert loaded.max_order == fs.max_order
        assert loaded.ground_size == fs.ground_size
        assert set(loaded.features) == set(fs.features)
        for u, info in fs.features.items():
            assert loaded.features[u].weight == info.weight
            assert loaded.features[u].doc_freq == info.doc_freq
            if info.idf is None:
                assert loaded.features[u].idf is None
            else:
                assert loaded.features[u].idf == pytest.approx(info.idf, abs=1e-12)

    def test_saving_twice_is_byte_identical(self, tmp_path):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 2), GROUND)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_feature_set(fs, a)
        save_feature_set(fs, b)
        assert a.read_bytes() == b.read_bytes()

    def test_records_are_lexicographic(self, tmp_path):
        fs = fit_idf(extract_feature_set(corpus_of("c b a"), 2), GROUND)
        path = tmp_path / "f.tsv"
        save_feature_set(fs, path)
        names = [line.split("\t")[0] for line in path.read_text().splitlines()[2:]]
        assert names == sorted(names)

    def test_header_carries_order_size_count(self, tmp_path):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 2), GROUND)
        path = tmp_path / "f.tsv"
        save_feature_set(fs, path)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t")[0] == "subselect-featureset"
        assert lines[1] == f"2\t4\t{len(fs.features)}"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("something else\n1\t2\t0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_feature_set(path)

    def test_truncated_body_rejected(self, tmp_path):
        fs = fit_idf(extract_feature_set(IN_DOMAIN, 1), GROUND)
        path = tmp_path / "f.tsv"
        save_feature_set(fs, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_feature_set(path)


def feature_file(tmp_path, records, max_order=2, ground_size=2):
    path = tmp_path / "features.tsv"
    header = f"subselect-featureset\t1\n{max_order}\t{ground_size}\t{len(records)}\n"
    path.write_text(header + "".join(record + "\n" for record in records), encoding="utf-8")
    return path


class TestLoadValidation:
    @pytest.mark.parametrize("records, bad_line", [
        (["a\t1.0\t1", "a\t2.0\t1"], 4),  # would overwrite the first
        (["b\t1.0\t1", "a\t1.0\t1"], 4),
        (["a b\t1.0\t1", "a\t1.0\t1"], 4),  # "a" sorts before "a b"
        (["a\t1.0\t-1"], 3),
        (["a\t1.0\t3"], 3),  # the ground has 2 sentences
        (["a\t1.0\t1.5"], 3),
        (["a\tnan\t1"], 3),
        (["a\tinf\t1"], 3),
        (["a\t-1.0\t1"], 3),
        (["a\tone\t1"], 3),
        (["a\t1.0\t1", "a  b\t1.0\t1"], 4),  # an empty token
        (["\t1.0\t1"], 3),
        (["a b c\t1.0\t1"], 3),  # above max order 2
        (["a\t1.0"], 3),
        (["a\t1.0\t1\t1"], 3),
    ], ids=[
        "repeated", "unsorted", "prefix-after", "negative-df", "df-above-ground", "fractional-df",
        "nan-weight", "inf-weight", "negative-weight", "malformed-weight", "empty-token", "empty-ngram",
        "too-long", "two-fields", "four-fields",
    ])
    def test_bad_record_names_its_line(self, tmp_path, records, bad_line):
        path = feature_file(tmp_path, records)
        with pytest.raises(ConfigError, match=f"line {bad_line}:"):
            load_feature_set(path)

    def test_good_records_load(self, tmp_path):
        # "a\x01" sorts before "a b": the file orders joined strings
        path = feature_file(tmp_path, ["a\t0.0\t0", "a\x01\t1.0\t1", "a b\t2.5\t2"])
        loaded = load_feature_set(path)
        assert dict(loaded.features) == {
            ("a",): FeatureInfo(0.0, 0, None),
            ("a", "b"): FeatureInfo(2.5, 2, 0.0),
            ("a\x01",): FeatureInfo(1.0, 1, math.log(2)),
        }
        assert list(loaded.features) == [("a",), ("a\x01",), ("a", "b")]  # set order is file order

    def test_bad_header_rejected(self, tmp_path):
        path = feature_file(tmp_path, ["a\t1.0\t1"], max_order=0)
        with pytest.raises(ConfigError, match="header"):
            load_feature_set(path)


class TestColumnar:
    def test_select_builds_no_feature_info(self, tmp_path, monkeypatch):
        ground = tmp_path / "ground.src"
        ground.write_text("a b c\na b\nc d a\nb b\nd\n", encoding="utf-8")
        ind = tmp_path / "indomain.src"
        ind.write_text("a b c d\nb a\n", encoding="utf-8")

        def refuse(self, *args, **kwargs):
            raise AssertionError("select built a FeatureInfo")

        monkeypatch.setattr(FeatureInfo, "__init__", refuse)
        assert main([
            "select", "--method", "both", "--in-domain-src", str(ind), "--ground-src", str(ground),
            "--budget-words", "6", "--out-dir", str(tmp_path / "out"),
        ]) == 0

    def test_select_path_decodes_no_ngrams(self):
        # fitting, the greedy and the report work on the arrays alone: no
        # n-gram tuple is decoded and the greedy's mass stays encoded
        rng = random.Random(11)
        ground = make_corpus(rng, 30)
        features = fit_idf(extract_feature_set(make_corpus(rng, 5), 3), ground)
        state = greedy_select(ground, features, budget=20)
        build_report(ground, features, DEFAULT_CONCAVE, [("submod", state.selected)], 20, "words")
        assert features._ground is None  # the greedy took fit_idf's enumeration
        assert "ngrams" not in vars(features._index)
        assert "_decoded" not in vars(state.mass)
        assert len(state.mass) > 0
        assert all(value > 0.0 and key in features for key, value in state.mass.items())
