import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subselect.corpus import Corpus, Sentence
from subselect.errors import ConfigError, EmptyCorpusError
from subselect.lm import (
    BOS,
    EOS,
    UNK,
    NgramLanguageModel,
    corpus_vocab,
    load_lm,
    log_prob,
    log_probs,
    parse_smoothing,
    save_lm,
    train_lm,
)
from subselect.xent import score_corpus

import lm_reference as ref
from lm_reference import log_prob as scalar_log_prob
from support import traced_peak


def corpus_of(*lines):
    return Corpus(tuple(Sentence(i, tuple(line.split())) for i, line in enumerate(lines)))


class TestParseSmoothing:
    def test_known_forms(self):
        assert parse_smoothing("mle") == ("mle", 0.0)
        assert parse_smoothing("wb") == ("interpolated-wb", 0.0)
        assert parse_smoothing("interpolated-wb") == ("interpolated-wb", 0.0)
        assert parse_smoothing("add-k") == ("add-k", 1.0)
        assert parse_smoothing("add-k:0.5") == ("add-k", 0.5)

    def test_bad_forms(self):
        for text in ("kneser-ney", "add-k:zero", "add-k:-1", "add-k:0"):
            with pytest.raises(ConfigError):
                parse_smoothing(text)

    @pytest.mark.parametrize("text", ["add-k:nan", "add-k:inf"])
    def test_non_finite_add_k_rejected(self, text):
        # load_lm refuses a non-finite add_k, so training must not write one
        with pytest.raises(ConfigError, match="finite"):
            parse_smoothing(text)


class TestTrainValidation:
    def test_order_must_be_positive(self):
        with pytest.raises(ConfigError):
            train_lm(corpus_of("a"), order=0)

    def test_unk_floor_must_be_positive(self):
        with pytest.raises(ConfigError):
            train_lm(corpus_of("a"), unk_floor=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            train_lm(Corpus(()), order=1)

    def test_unknown_smoothing_rejected(self):
        with pytest.raises(ConfigError):
            train_lm(corpus_of("a"), smoothing="laplace-ish")


class TestCounting:
    def test_all_truncations_counted(self):
        lm = train_lm(corpus_of("a b c"), order=3, smoothing="mle")
        assert lm.counts[1] == {("a",): 1, ("b",): 1, ("c",): 1, (EOS,): 1}
        assert lm.counts[2][("a", "b")] == 1
        assert lm.counts[2][("<s>", "a")] == 1
        assert lm.counts[3][("a", "b", "c")] == 1
        assert lm.counts[3][("<s>", "<s>", "a")] == 1
        assert lm.counts[3][("b", "c", EOS)] == 1
        # every event contributes once to every table
        for k in (1, 2, 3):
            assert sum(lm.counts[k].values()) == 4

    def test_no_markers_drops_padding_and_end(self):
        lm = train_lm(corpus_of("a b"), order=2, smoothing="mle", markers=False)
        assert (EOS,) not in lm.counts[1]
        assert all("<s>" not in ng for ng in lm.counts[2])
        assert lm.counts[1] == {("a",): 1, ("b",): 1}
        assert lm.counts[2] == {("a", "b"): 1}

    def test_unk_floor_collapses_rare_tokens(self):
        lm = train_lm(corpus_of("a a b"), order=1, unk_floor=2, smoothing="mle")
        assert lm.vocab == frozenset({"a"})
        assert lm.counts[1][(UNK,)] == 1

    def test_extra_vocab_widens_event_space(self):
        lm = train_lm(corpus_of("a"), order=1, smoothing="add-k", extra_vocab={"q"})
        assert "q" in lm.vocab
        assert lm.event_vocab_size == 4
        assert lm.conditional_prob("q") > 0.0

    def test_marker_strings_in_text_are_oov(self):
        lm = train_lm(corpus_of("a <s> b"), order=1, smoothing="mle")
        assert "<s>" not in lm.vocab
        assert lm.counts[1][(UNK,)] == 1

    def test_corpus_vocab_matches_floor(self):
        assert corpus_vocab(corpus_of("a a b")) == {"a", "b"}
        assert corpus_vocab(corpus_of("a a b"), unk_floor=2) == {"a"}


class TestMleProbabilities:
    def test_uniform_over_observed_events(self):
        lm = train_lm(corpus_of("a b"), order=1, smoothing="mle")
        assert lm.conditional_prob("a") == pytest.approx(1 / 3, abs=1e-12)
        assert lm.conditional_prob("b") == pytest.approx(1 / 3, abs=1e-12)
        assert lm.conditional_prob(EOS) == pytest.approx(1 / 3, abs=1e-12)

    def test_unseen_event_is_zero(self):
        lm = train_lm(corpus_of("a b"), order=1, smoothing="mle")
        assert lm.conditional_prob("zzz") == 0.0

    def test_unseen_history_is_zero(self):
        lm = train_lm(corpus_of("a b"), order=2, smoothing="mle")
        assert lm.conditional_prob("a", ["zzz"]) == 0.0


class TestAddKProbabilities:
    def test_add_one_hand_value(self):
        lm = train_lm(corpus_of("a"), order=1, smoothing="add-k")
        # events: a and the end marker; vocabulary size 1 plus two markers
        assert lm.conditional_prob("a") == pytest.approx(0.4, abs=1e-12)

    def test_custom_k_hand_value(self):
        lm = train_lm(corpus_of("a"), order=1, smoothing="add-k:0.5")
        assert lm.conditional_prob("a") == pytest.approx(0.42857142857142855, abs=1e-12)

    def test_unseen_history_is_uniform(self):
        lm = train_lm(corpus_of("a b"), order=2, smoothing="add-k")
        v = lm.event_vocab_size
        for w in lm.event_vocab():
            assert lm.conditional_prob(w, ["zzz"]) == pytest.approx(1 / v, abs=1e-12)


class TestWittenBellProbabilities:
    def test_unigram_hand_value(self):
        lm = train_lm(corpus_of("a a b"), order=1, smoothing="interpolated-wb")
        # (2 + 3 types * 1/4 uniform) / (4 events + 3 types)
        assert lm.conditional_prob("a") == pytest.approx(0.39285714285714285, abs=1e-12)

    def test_bigram_blends_with_unigram(self):
        lm = train_lm(corpus_of("a b", "a c"), order=2, smoothing="interpolated-wb")
        p1 = lm.conditional_prob("b")
        assert p1 == pytest.approx(0.18, abs=1e-12)
        assert lm.conditional_prob("b", ["a"]) == pytest.approx((1 + 2 * p1) / 4, abs=1e-12)

    def test_unseen_history_backs_off_entirely(self):
        lm = train_lm(corpus_of("a b", "b a"), order=2, smoothing="interpolated-wb")
        for w in lm.event_vocab():
            assert lm.conditional_prob(w, ["zzz"]) == lm.conditional_prob(w)

    def test_every_event_gets_positive_mass(self):
        lm = train_lm(corpus_of("a b c"), order=3, smoothing="interpolated-wb")
        for w in lm.event_vocab():
            for hist in ([], ["a"], ["a", "b"], ["zzz"], ["b", "c"]):
                assert lm.conditional_prob(w, hist) > 0.0


class TestNormalization:
    HISTORIES = ([], ["a"], ["b"], ["a", "b"], ["zzz"], [EOS])

    def sum_over_events(self, lm, hist):
        return sum(lm.conditional_prob(w, hist) for w in lm.event_vocab())

    @pytest.mark.parametrize("smoothing", ["add-k", "add-k:0.3", "interpolated-wb"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_smoothed_distributions_sum_to_one(self, smoothing, order):
        lm = train_lm(corpus_of("a b a", "b b c a"), order=order, smoothing=smoothing)
        for hist in self.HISTORIES:
            assert self.sum_over_events(lm, hist) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("order", [1, 2])
    def test_mle_sums_to_one_on_seen_histories(self, order):
        lm = train_lm(corpus_of("a b a", "b b c a"), order=order, smoothing="mle")
        seen = [()] if order == 1 else [("a",), ("b",), ("c",), ("<s>",)]
        for hist in seen:
            assert self.sum_over_events(lm, list(hist)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        ),
        order=st.integers(min_value=1, max_value=3),
        smoothing=st.sampled_from(["add-k", "interpolated-wb"]),
        hist=st.lists(st.sampled_from(["a", "b", "zzz", EOS]), max_size=2),
    )
    def test_random_models_normalize(self, data, order, smoothing, hist):
        corpus = Corpus(tuple(Sentence(i, tuple(toks)) for i, toks in enumerate(data)))
        lm = train_lm(corpus, order=order, smoothing=smoothing)
        assert self.sum_over_events(lm, hist) == pytest.approx(1.0, abs=1e-6)


class TestLogProb:
    def test_mle_hand_value_without_markers(self):
        lm = train_lm(corpus_of("a a a a b"), order=1, smoothing="mle", markers=False)
        assert log_prob(lm, ["a", "a"]) == pytest.approx(-0.4462871026284194, abs=1e-12)

    def test_empty_sentence_scores_end_marker_only(self):
        lm = train_lm(corpus_of("a b"), order=1, smoothing="mle")
        assert log_prob(lm, []) == pytest.approx(-1.0986122886681098, abs=1e-12)

    def test_unseen_event_gives_minus_infinity(self):
        lm = train_lm(corpus_of("a b"), order=1, smoothing="mle")
        assert log_prob(lm, ["zzz"]) == float("-inf")

    def test_oov_tokens_score_as_unknown(self):
        lm = train_lm(corpus_of("a a b"), order=1, smoothing="add-k")
        assert log_prob(lm, ["zzz"]) == log_prob(lm, [UNK])
        assert log_prob(lm, ["<s>"]) == log_prob(lm, ["zzz"])

    def test_accepts_sentence_objects(self):
        lm = train_lm(corpus_of("a b"), order=2, smoothing="add-k")
        sent = Sentence(0, ("a", "b"))
        assert log_prob(lm, sent) == log_prob(lm, ["a", "b"])

    def test_longer_sentences_score_lower(self):
        lm = train_lm(corpus_of("a b c d"), order=2, smoothing="add-k")
        assert log_prob(lm, ["a", "b", "c"]) < log_prob(lm, ["a", "b"])

    def test_chain_matches_conditional_products(self):
        lm = train_lm(corpus_of("a b", "b a"), order=2, smoothing="interpolated-wb")
        expected = (
            math.log(lm.conditional_prob("a", ["<s>"]))
            + math.log(lm.conditional_prob("b", ["a"]))
            + math.log(lm.conditional_prob(EOS, ["b"]))
        )
        assert log_prob(lm, ["a", "b"]) == pytest.approx(expected, abs=1e-12)


class TestHistoryHandling:
    def test_history_truncated_to_order_window(self):
        lm = train_lm(corpus_of("a b c a b d"), order=3, smoothing="add-k")
        long = lm.conditional_prob("d", ["c", "a", "b"])
        short = lm.conditional_prob("d", ["a", "b"])
        assert long == short

    def test_unigram_model_ignores_history(self):
        lm = train_lm(corpus_of("a b"), order=1, smoothing="mle")
        assert lm.conditional_prob("a", ["b"]) == lm.conditional_prob("a")


class TestSerialization:
    def test_round_trip_preserves_probabilities(self, tmp_path):
        lm = train_lm(corpus_of("a b a", "c b"), order=3, smoothing="interpolated-wb")
        path = tmp_path / "model.json"
        save_lm(lm, path)
        back = load_lm(path)
        assert back.order == lm.order
        assert back.vocab == lm.vocab
        assert back.smoothing == lm.smoothing
        for w in lm.event_vocab():
            for hist in ([], ["a"], ["a", "b"], ["zzz"]):
                assert back.conditional_prob(w, hist) == lm.conditional_prob(w, hist)

    def test_save_is_byte_stable(self, tmp_path):
        lm = train_lm(corpus_of("b a", "a c a"), order=2, smoothing="add-k:0.5")
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_lm(lm, p1)
        save_lm(lm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ConfigError):
            load_lm(bad)

    def test_non_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(ConfigError):
            load_lm(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        lm = train_lm(corpus_of("a"), order=1)
        path = tmp_path / "model.json"
        save_lm(lm, path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_lm(path)

    @pytest.mark.parametrize(
        "table, ngram, count",
        [
            ("2", "a b a", 1),  # three tokens in the bigram table
            ("2", "a q", 1),  # a token outside the vocabulary
            ("3", "c a b", 1),  # extends (c,), which no bigram has as history
            ("2", "a b", 2.5),  # not an integer
            ("2", "a b", -3),
            ("2", "a b", 0),
            ("2", "a b", True),  # a JSON boolean, not a count
            ("5", "a b a b a", 1),  # a table beyond the model's order
            ("1", None, None),  # bigrams over an emptied unigram table
            ("4", "b a b a", 1),  # no trigram starts with its 2-token prefix (b, a)
        ],
    )
    def test_malformed_counts_rejected(self, tmp_path, table, ngram, count):
        import json

        path = tmp_path / "model.json"
        save_lm(train_lm(corpus_of("a b"), order=4, extra_vocab={"c"}), path)
        payload = json.loads(path.read_text())
        counts = payload["counts"].setdefault(table, {})
        if ngram is None:
            counts.clear()
        else:
            counts[ngram] = count
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_lm(path)

    @pytest.mark.parametrize(
        "smoothing, field, value",
        [
            ("add-k", "add_k", 0),
            ("add-k", "add_k", -1.0),
            ("add-k", "add_k", float("nan")),
            ("add-k", "add_k", True),  # a JSON boolean, not a constant
            ("interpolated-wb", "add_k", float("inf")),
            ("interpolated-wb", "add_k", "0.0"),
            ("interpolated-wb", "markers", "false"),
            ("interpolated-wb", "markers", 1),
            ("interpolated-wb", "unk_floor", 2.7),
            ("interpolated-wb", "unk_floor", -4),
            ("interpolated-wb", "unk_floor", 0),
            ("interpolated-wb", "unk_floor", True),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, smoothing, field, value):
        import json

        path = tmp_path / "model.json"
        save_lm(train_lm(corpus_of("a b"), order=2, smoothing=smoothing), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="header"):
            load_lm(path)

    def test_integer_add_k_loads_as_a_float(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        lm = train_lm(corpus_of("a b"), order=2, smoothing="add-k:2")
        save_lm(lm, path)
        payload = json.loads(path.read_text())
        payload["add_k"] = 2
        path.write_text(json.dumps(payload))
        back = load_lm(path)
        assert type(back.add_k) is float and back.add_k == 2.0
        assert back.conditional_prob("a", ["b"]) == lm.conditional_prob("a", ["b"])

    def test_lengths_that_add_up_are_still_rejected(self, tmp_path):
        # three tokens and one in two bigram keys: four tokens, as two bigrams would have
        import json

        path = tmp_path / "model.json"
        save_lm(train_lm(corpus_of("a b"), order=2, extra_vocab={"c"}), path)
        payload = json.loads(path.read_text())
        payload["counts"]["2"].update({"a b a": 1, "c": 1})
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="length"):
            load_lm(path)


class TestFilePeaks:
    """The v1 file's writer and loader on a 190k-n-gram model, a 3.4 MB file."""

    @pytest.fixture(scope="class")
    def pool_lm(self):
        # perfbench's seed-0 pool: 4,000 sentences of 15 Zipf tokens over 10k types
        rng = random.Random(0)
        vocab = [f"t{i}" for i in range(10_000)]
        tokens = rng.choices(vocab, weights=[1.0 / (r + 1) for r in range(10_000)], k=60_000)
        return train_lm(Corpus(tuple(Sentence(i, tuple(tokens[15 * i : 15 * i + 15])) for i in range(4000))))

    def test_save_spells_an_order_at_a_time(self, pool_lm, tmp_path):
        # 7.9 MiB; spelling each order from its parent level's strings peaked at 14.4 MiB,
        # and every order's dict through one json.dumps at 24.5 MiB
        assert traced_peak(lambda: save_lm(pool_lm, tmp_path / "lm.json")).peak <= 9 * 2**20

    def test_load_frees_the_strings_before_the_tree(self, pool_lm, tmp_path):
        save_lm(pool_lm, tmp_path / "lm.json")
        # 13.4 MiB, the text and one order's dict; json.loads of the whole file peaked
        # at 22.1 MiB, and at 32.1 MiB with the parsed JSON alive while the tree was built
        assert traced_peak(lambda: load_lm(tmp_path / "lm.json")).peak <= 14 * 2**20


class TestRandomizedConsistency:
    def test_random_sentences_never_score_above_zero(self):
        rng = random.Random(7)
        lm = train_lm(corpus_of("a b c", "b c d", "d a"), order=2, smoothing="interpolated-wb")
        for _ in range(50):
            toks = [rng.choice("abcdz") for _ in range(rng.randint(0, 6))]
            assert log_prob(lm, toks) <= 0.0


TOKENS = ["a", "b", "c", "d", BOS, EOS, UNK]
token_lists = st.lists(st.sampled_from(TOKENS), max_size=8)


class TestConditionalMatchesReference:
    """``conditional_prob`` equals the scalar recursion bit for bit, no tolerance."""

    @settings(max_examples=150, deadline=None)
    @given(
        train=st.lists(token_lists, min_size=1, max_size=6),
        queries=st.lists(
            st.tuples(
                st.sampled_from(TOKENS + ["oov"]),
                st.lists(st.sampled_from(TOKENS + ["oov", "zzz"]), max_size=9),
            ),
            min_size=1,
            max_size=12,
        ),
        order=st.integers(min_value=1, max_value=7),
        smoothing=st.sampled_from(["mle", "add-k", "add-k:0.25", "interpolated-wb"]),
        markers=st.booleans(),
        unk_floor=st.sampled_from([1, 2]),
        reload=st.booleans(),
    )
    def test_random_models_and_queries(self, train, queries, order, smoothing, markers, unk_floor, reload):
        corpus = Corpus(tuple(Sentence(i, tuple(toks)) for i, toks in enumerate(train)))
        lm = train_lm(corpus, order=order, smoothing=smoothing, markers=markers, unk_floor=unk_floor)
        if reload:
            with tempfile.TemporaryDirectory() as tmp:
                save_lm(lm, Path(tmp) / "lm.json")
                lm = load_lm(Path(tmp) / "lm.json")
        for word, history in queries:
            assert lm.conditional_prob(word, history) == ref.conditional_prob(lm, word, history)
        for word in lm.event_vocab():
            assert lm.conditional_prob(word, [BOS] * order) == ref.conditional_prob(lm, word, [BOS] * order)


class TestBatchMatchesScalar:
    """Batch scores equal the scalar definition bit for bit, no tolerance."""

    @settings(max_examples=150, deadline=None)
    @given(
        train=st.lists(token_lists, min_size=1, max_size=6),
        test=st.lists(st.lists(st.sampled_from(TOKENS + ["oov", "zzz"]), max_size=8), max_size=6),
        order=st.integers(min_value=1, max_value=7),
        smoothing=st.sampled_from(["mle", "add-k", "add-k:0.25", "interpolated-wb"]),
        markers=st.booleans(),
        unk_floor=st.sampled_from([1, 2]),
    )
    def test_random_models_and_sentences(self, train, test, order, smoothing, markers, unk_floor):
        corpus = Corpus(tuple(Sentence(i, tuple(toks)) for i, toks in enumerate(train)))
        lm = train_lm(corpus, order=order, smoothing=smoothing, markers=markers, unk_floor=unk_floor)
        sentences = test + train
        expected = [scalar_log_prob(lm, toks) for toks in sentences]
        assert log_probs(lm, sentences) == expected
        assert [log_prob(lm, toks) for toks in sentences] == expected

    def test_mle_zero_probability_event_is_minus_infinity(self):
        lm = train_lm(corpus_of("a b", "b c"), order=2, smoothing="mle")
        # every unigram is seen, but "c" never follows "a"
        assert log_probs(lm, [["a", "c"], ["a", "b"]]) == [
            float("-inf"),
            scalar_log_prob(lm, ["a", "b"]),
        ]
        assert math.isfinite(scalar_log_prob(lm, ["a", "b"]))

    def test_both_models_minus_infinity_is_undefined(self):
        lm_in = train_lm(corpus_of("a a b"), order=2, smoothing="mle")
        lm_out = train_lm(corpus_of("a b b"), order=2, smoothing="mle")
        ground = corpus_of("a b", "zzz", "a b b")
        scored = score_corpus(ground, lm_in, lm_out)
        assert [s.defined for s in scored] == [True, False, True]
        assert math.isnan(scored[1].score)
        assert scored[2].score == float("-inf")  # only the in-domain model gives zero
        assert scored[0].score == (
            scalar_log_prob(lm_in, ["a", "b"]) - scalar_log_prob(lm_out, ["a", "b"])
        ) / 2

    def test_keys_stay_exact_where_dense_keys_would_overflow(self):
        rng = random.Random(6)
        vocab = [f"w{i}" for i in range(2100)]
        lines = [" ".join(rng.choices(vocab, k=rng.randint(3, 12))) for _ in range(400)]
        lines += [" ".join(vocab[i : i + 10]) for i in range(0, len(vocab), 10)]
        lm = train_lm(corpus_of(*lines), order=6, smoothing="interpolated-wb")
        # one key per n-gram as a base-B number of its tokens would need B**6 > 2**63
        assert (len(lm.vocab) + 3) ** 6 > 2**63
        sentences = [line.split() for line in lines]
        sentences += [rng.choices(vocab + ["oov"], k=8) for _ in range(40)]
        assert log_probs(lm, sentences) == [scalar_log_prob(lm, toks) for toks in sentences]

    def test_scoring_builds_no_scalar_history_tables(self, tmp_path):
        # train, save, load and score work on the tables alone: neither the
        # tuple-keyed counts view nor the scalar history dicts get built
        lm = train_lm(corpus_of("a b a", "c b"), order=3)
        save_lm(lm, tmp_path / "model.json")
        loaded = load_lm(tmp_path / "model.json")
        score_corpus(corpus_of("a b", "c", "zzz a"), lm, loaded)
        for model in (lm, loaded):
            log_probs(model, [["a", "b"], ["c"]])
            assert "counts" not in vars(model)

    def test_counts_view_sizes_without_decoding(self):
        lm = train_lm(corpus_of("a b a", "c b"), order=3)
        assert [len(lm.counts[k]) for k in (1, 2, 3)] == [4, 7, 7]
        assert not any("_decoded" in vars(view) for view in lm.counts.values())
        assert lm.counts[2][("a", "b")] == 1
        assert "_decoded" in vars(lm.counts[2])

    def test_empty_batch(self):
        lm = train_lm(corpus_of("a b"), order=3)
        assert log_probs(lm, []) == []
