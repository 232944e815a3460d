import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lm_reference as ref
from rank_reference import rank_and_select_reference
from support import traced_peak
from subselect import lm as lm_module
from subselect.corpus import Corpus, Sentence
from subselect.errors import ConfigError
from subselect.lm import corpus_vocab, load_lm, log_probs, save_lm, train_lm
from subselect.xent import (
    ScoredSentence,
    rank_and_select,
    score_corpus,
    train_domain_pair,
    xent_score,
)


def corpus_of(*lines):
    return Corpus(tuple(Sentence(i, tuple(line.split())) for i, line in enumerate(lines)))


def skewed_pair():
    """Unigram MLE pair where 'a' is in-domain-ish and 'b' is not."""
    lm_in = train_lm(corpus_of("a a a a b"), order=1, smoothing="mle", markers=False)
    lm_out = train_lm(corpus_of("a b b b b"), order=1, smoothing="mle", markers=False)
    return lm_in, lm_out


class TestScore:
    def test_identical_models_score_zero(self):
        lm = train_lm(corpus_of("a b c", "b a"), order=2, smoothing="interpolated-wb")
        for scored in score_corpus(corpus_of("a b", "c", "b a c"), lm, lm):
            assert scored.defined
            assert scored.score == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_log_ratio(self):
        lm_in, lm_out = skewed_pair()
        scored = xent_score(Sentence(0, ("a",)), lm_in, lm_out)
        assert scored.score == pytest.approx(1.3862943611198906, abs=1e-9)

    def test_swapping_models_negates_the_score(self):
        lm_in, lm_out = skewed_pair()
        forward = xent_score(Sentence(0, ("a",)), lm_in, lm_out)
        backward = xent_score(Sentence(0, ("a",)), lm_out, lm_in)
        assert backward.score == pytest.approx(-forward.score, abs=1e-12)

    def test_length_normalization_makes_repeats_equal(self):
        lm_in, lm_out = skewed_pair()
        one = xent_score(Sentence(0, ("a",)), lm_in, lm_out)
        four = xent_score(Sentence(1, ("a", "a", "a", "a")), lm_in, lm_out)
        assert four.score == pytest.approx(one.score, abs=1e-9)
        assert four.length == 4

    def test_out_domain_sentence_scores_negative(self):
        lm_in, lm_out = skewed_pair()
        scored = xent_score(Sentence(0, ("b", "b")), lm_in, lm_out)
        assert scored.score < 0.0

    def test_both_zero_probability_is_flagged(self):
        lm_in, lm_out = skewed_pair()
        scored = xent_score(Sentence(0, ("zzz",)), lm_in, lm_out)
        assert not scored.defined
        assert math.isnan(scored.score)

    def test_empty_sentence_is_flagged_and_ranks_last(self):
        lm_in, lm_out = train_domain_pair(corpus_of("a b", "a"), corpus_of("b c", "c"), order=2)
        ground = Corpus(tuple(Sentence(i, tuple(t.split())) for i, t in enumerate(["a b", "", "c", "zzz"])))
        scores = score_corpus(ground, lm_in, lm_out)
        assert [s.defined for s in scores] == [True, False, True, True]
        assert math.isnan(scores[1].score)
        assert not xent_score(ground[1], lm_in, lm_out).defined
        assert rank_and_select(ground, scores, 100, "unit").selected[-1] == 1

    def test_one_sided_zero_probability_stays_defined(self):
        lm_in = train_lm(corpus_of("a"), order=1, smoothing="mle", markers=False)
        lm_out = train_lm(corpus_of("a b"), order=1, smoothing="mle", markers=False)
        scored = xent_score(Sentence(0, ("b",)), lm_in, lm_out)
        assert scored.defined
        assert scored.score == float("-inf")

    def test_score_corpus_preserves_id_order(self):
        lm_in, lm_out = skewed_pair()
        ground = corpus_of("a", "b", "a a")
        assert [s.id for s in score_corpus(ground, lm_in, lm_out)] == [0, 1, 2]

    def test_mismatched_orders_rejected(self):
        lm_in = train_lm(corpus_of("a"), order=1)
        lm_out = train_lm(corpus_of("a"), order=2)
        with pytest.raises(ConfigError):
            xent_score(Sentence(0, ("a",)), lm_in, lm_out)

    def test_mismatched_markers_rejected(self):
        lm_in = train_lm(corpus_of("a"), order=1, markers=True)
        lm_out = train_lm(corpus_of("a"), order=1, markers=False)
        with pytest.raises(ConfigError):
            score_corpus(corpus_of("a"), lm_in, lm_out)


class TestTrainDomainPair:
    def test_shared_event_space(self):
        lm_in, lm_out = train_domain_pair(corpus_of("a b"), corpus_of("c d e"))
        assert lm_in.vocab == lm_out.vocab
        assert lm_in.event_vocab_size == lm_out.event_vocab_size

    def test_disjoint_domains_still_score_finitely(self):
        lm_in, lm_out = train_domain_pair(corpus_of("a b"), corpus_of("c d"), order=2)
        for scored in score_corpus(corpus_of("a c", "d b a"), lm_in, lm_out):
            assert scored.defined
            assert math.isfinite(scored.score)

    def test_in_domain_text_ranks_above_out_domain_text(self):
        lm_in, lm_out = train_domain_pair(
            corpus_of("the model trains", "the model scores"),
            corpus_of("rain falls outside", "wind blows outside"),
            order=2,
        )
        ground = corpus_of("the model scores", "wind blows outside")
        scores = score_corpus(ground, lm_in, lm_out)
        assert scores[0].score > scores[1].score


class TestRankAndSelect:
    GROUND = staticmethod(lambda: corpus_of("x x x", "y y y y y", "z z"))

    def test_top_n_takes_best_scores(self):
        scores = [
            ScoredSentence(0, 0.5, 3),
            ScoredSentence(1, 2.0, 5),
            ScoredSentence(2, 1.0, 2),
        ]
        state = rank_and_select(self.GROUND(), scores, 2, "unit")
        assert state.selected == [1, 2]
        assert state.spent == 2
        assert state.cost_mode == "unit"

    def test_ties_break_to_lower_id(self):
        scores = [ScoredSentence(i, 1.0, 1) for i in range(3)]
        state = rank_and_select(self.GROUND(), scores, 2, "unit")
        assert state.selected == [0, 1]

    def test_n_beyond_population_takes_everything(self):
        scores = [ScoredSentence(i, float(i), 1) for i in range(3)]
        state = rank_and_select(self.GROUND(), scores, 10, "unit")
        assert state.selected == [2, 1, 0]

    def test_word_budget_keeps_a_pure_ranking_prefix(self):
        scores = [
            ScoredSentence(0, 2.0, 3),
            ScoredSentence(1, 1.0, 5),
            ScoredSentence(2, 0.5, 2),
        ]
        # the best sentence fits; the runner-up does not, and the walk must
        # stop there even though the third would still fit
        state = rank_and_select(self.GROUND(), scores, 5, "words")
        assert state.selected == [0]
        assert state.spent == 3
        assert state.cost_mode == "words"

    def test_uniform_score_shift_never_changes_the_selection(self):
        scores = [
            ScoredSentence(0, 0.5, 3),
            ScoredSentence(1, 2.0, 5),
            ScoredSentence(2, 1.0, 2),
        ]
        base_n = rank_and_select(self.GROUND(), scores, 2, "unit").selected
        base_b = rank_and_select(self.GROUND(), scores, 5, "words").selected
        for shift in (-10.0, 3.25, 1e6):
            shifted = [ScoredSentence(s.id, s.score + shift, s.length) for s in scores]
            assert rank_and_select(self.GROUND(), shifted, 2, "unit").selected == base_n
            assert rank_and_select(self.GROUND(), shifted, 5, "words").selected == base_b

    def test_budget_too_small_for_the_leader_selects_nothing(self):
        scores = [ScoredSentence(0, 2.0, 3), ScoredSentence(2, 1.0, 2)]
        state = rank_and_select(self.GROUND(), scores, 2, "words")
        assert state.selected == []
        assert state.spent == 0

    def test_budget_exactly_consumed(self):
        scores = [
            ScoredSentence(0, 2.0, 3),
            ScoredSentence(2, 1.0, 2),
            ScoredSentence(1, 0.5, 5),
        ]
        state = rank_and_select(self.GROUND(), scores, 5, "words")
        assert state.selected == [0, 2]
        assert state.spent == 5

    def test_undefined_scores_rank_last(self):
        scores = [
            ScoredSentence(0, float("nan"), 3, defined=False),
            ScoredSentence(1, -4.0, 5),
            ScoredSentence(2, 1.0, 2),
        ]
        state = rank_and_select(self.GROUND(), scores, 3, "unit")
        assert state.selected == [2, 1, 0]

    def test_negative_infinity_ranks_below_finite_but_above_undefined(self):
        scores = [
            ScoredSentence(0, float("-inf"), 3),
            ScoredSentence(1, float("nan"), 5, defined=False),
            ScoredSentence(2, -100.0, 2),
        ]
        state = rank_and_select(self.GROUND(), scores, 3, "unit")
        assert state.selected == [2, 0, 1]

    def test_trajectory_records_scores_and_spending(self):
        scores = [ScoredSentence(0, 2.0, 3), ScoredSentence(2, 1.0, 2)]
        state = rank_and_select(self.GROUND(), scores, 10, "words")
        assert [(s.sentence_id, s.cumulative_cost) for s in state.trajectory] == [(0, 3), (2, 5)]
        assert [s.gain for s in state.trajectory] == [2.0, 1.0]

    def test_unknown_cost_mode_rejected(self):
        scores = [ScoredSentence(0, 1.0, 3)]
        with pytest.raises(ConfigError, match="cost mode"):
            rank_and_select(self.GROUND(), scores, 5, "sentences")

    @pytest.mark.parametrize("cost_mode", ["words", "unit"])
    def test_nan_budget_rejected(self, cost_mode):
        scores = [ScoredSentence(0, 1.0, 3)]
        with pytest.raises(ConfigError, match="budget must be positive"):
            rank_and_select(self.GROUND(), scores, math.nan, cost_mode)

    def test_non_positive_limits_rejected(self):
        scores = [ScoredSentence(0, 1.0, 3)]
        with pytest.raises(ConfigError):
            rank_and_select(self.GROUND(), scores, 0, "unit")
        with pytest.raises(ConfigError):
            rank_and_select(self.GROUND(), scores, 0, "words")


class TestRedundancyBlindness:
    def test_duplicates_all_score_identically_and_rank_together(self):
        lm_in, lm_out = train_domain_pair(corpus_of("a a b"), corpus_of("c c d"), order=1)
        ground = corpus_of("a b", "a b", "a b", "c d")
        scores = score_corpus(ground, lm_in, lm_out)
        assert scores[0].score == scores[1].score == scores[2].score
        state = rank_and_select(ground, scores, 3, "unit")
        assert state.selected == [0, 1, 2]


# scores with ties, -inf and undefined entries, for a subset of a pool in any order
_SCORE = st.one_of(
    st.sampled_from([float("-inf"), -1.0, 0.0, 0.5, 2.0]).map(lambda x: (x, True)),
    st.just((float("nan"), False)),
)


@st.composite
def ranking_instances(draw):
    lens = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    ground = Corpus(tuple(Sentence(i, ("w",) * n) for i, n in enumerate(lens)))
    ids = draw(st.permutations(range(len(lens))))
    ids = ids[: draw(st.integers(0, len(ids)))]
    scores = []
    for i in ids:
        score, defined = draw(_SCORE)
        scores.append(ScoredSentence(i, score, lens[i], defined))
    return ground, scores


def _same_state(new, old):
    assert new.selected == old.selected
    assert repr(new.trajectory) == repr(old.trajectory)  # repr: a NaN score equals itself
    assert (new.spent, new.budget, new.cost_mode, new.variant) == (old.spent, old.budget, old.cost_mode, old.variant)


class TestMatchesReference:
    """``(budget, cost_mode)`` against the former ``n=`` / ``budget_words=`` forms."""

    @given(ranking_instances(), st.integers(1, 15))
    def test_unit_budget_is_top_n(self, instance, k):
        ground, scores = instance
        _same_state(rank_and_select(ground, scores, k, "unit"), rank_and_select_reference(ground, scores, n=k))

    @given(ranking_instances(), st.one_of(st.integers(1, 50).map(float), st.floats(1e-3, 50.0)))
    def test_word_budget_is_budget_words(self, instance, b):
        ground, scores = instance
        _same_state(rank_and_select(ground, scores, b, "words"),
                    rank_and_select_reference(ground, scores, budget_words=b))


IN_DOMAIN = ("a b c", "b c a a", "c a b")
OUT_DOMAIN = ("c c b", "b d", "d d a c", "a d b d")
# eight sentences with unknown tokens, two of them all unknown: at order 3 they pad to
# 6, 5, 7, 7, 4, 4, 6 and 8 positions, four batches under a 16-position budget
GROUND = ("a b c", "zzz yyy", "b d a b", "c c a zzz", "a", "qqq", "d d d", "b c a a d")


def scoring_pair(kind, smoothing, tmp_path):
    """An order-3 pair as ``select`` trains it, or as ``score`` loads it from files."""
    in_domain, out_domain = corpus_of(*IN_DOMAIN), corpus_of(*OUT_DOMAIN)
    if kind == "trained":
        return train_domain_pair(in_domain, out_domain, order=3, smoothing=smoothing)
    # staged files: with each other's vocabulary (--extra-vocab-src) they share
    # one id map; without, the in-domain model lacks "d"
    extra = (corpus_vocab(out_domain), corpus_vocab(in_domain)) if kind == "files-shared" else (None, None)
    models = []
    for name, corpus, vocab in zip(("in", "out"), (in_domain, out_domain), extra):
        save_lm(train_lm(corpus, order=3, smoothing=smoothing, extra_vocab=vocab), tmp_path / f"{name}.json")
        models.append(load_lm(tmp_path / f"{name}.json"))
    return models


PAIR_KINDS = ["trained", "files-shared", "files-own"]
SMOOTHINGS = ["interpolated-wb", "mle", "add-k:0.5"]


class TestChunkedScoring:
    """The pool is scored a few sentences at a time, both models in one pass when their ids agree."""

    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_chunks_score_like_single_sentences(self, kind, smoothing, tmp_path, monkeypatch):
        lm_in, lm_out = scoring_pair(kind, smoothing, tmp_path)
        assert (lm_in.ids == lm_out.ids) == (kind != "files-own")
        monkeypatch.setattr(lm_module, "_BATCH_POSITIONS", 16)
        ground = corpus_of(*GROUND)
        scored = score_corpus(ground, lm_in, lm_out)
        # repr: an undefined score is NaN, which equals nothing
        assert repr(scored) == repr([xent_score(sentence, lm_in, lm_out) for sentence in ground])
        for s, sentence in zip(scored, ground):
            tokens = sentence.source_tokens
            diff = ref.log_prob(lm_in, tokens) - ref.log_prob(lm_out, tokens)
            assert repr(s.score) == repr(diff if math.isnan(diff) else diff / len(tokens))

    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    def test_pair_kernel_covers_empty_sentences(self, smoothing, tmp_path, monkeypatch):
        lm_in, lm_out = scoring_pair("trained", smoothing, tmp_path)
        monkeypatch.setattr(lm_module, "_BATCH_POSITIONS", 16)
        texts = [(), *(tuple(line.split()) for line in GROUND), (), ("zzz",), ()]
        stream = Corpus(tuple(Sentence(i, t) for i, t in enumerate(texts))).source
        pair = lm_module._log_probs([lm_in, lm_out], stream)
        for lm, got in zip((lm_in, lm_out), pair):
            assert got == [ref.log_prob(lm, t) for t in texts]
            assert got == log_probs(lm, texts) == [log_probs(lm, [t])[0] for t in texts]

    @settings(max_examples=60, deadline=None)
    @given(
        ground=st.lists(st.lists(st.sampled_from("abcdqz"), min_size=1, max_size=6), min_size=1, max_size=12),
        budget=st.integers(1, 64),  # from below one sentence's 4 to 9 padded positions to past the pool's
        kind=st.sampled_from(["trained", "files-own"]),
    )
    def test_random_pools(self, tmp_path_factory, ground, budget, kind):
        lm_in, lm_out = scoring_pair(kind, "interpolated-wb", tmp_path_factory.mktemp("lm"))
        corpus = Corpus(tuple(Sentence(i, tuple(t)) for i, t in enumerate(ground)))
        expected = [xent_score(sentence, lm_in, lm_out) for sentence in corpus]
        old, lm_module._BATCH_POSITIONS = lm_module._BATCH_POSITIONS, budget
        try:
            assert score_corpus(corpus, lm_in, lm_out) == expected
        finally:
            lm_module._BATCH_POSITIONS = old

    # 2,048-sentence batches peaked at 9.4 MB here, 16k-position ones at 4.8 MB
    def test_temporaries_stay_chunk_sized(self):
        assert scoring_peak(10_000, 15) <= 6 * 2**20

    # 2,048-sentence batches peaked at 31.1 MB here, 16k-position ones at 5.2 MB
    def test_long_sentences_stay_chunk_sized(self):
        assert scoring_peak(4_000, 60) <= 6 * 2**20


def scoring_peak(n: int, length: int) -> int:
    """``score_corpus``'s tracemalloc peak over its start on ``n`` Zipf sentences of ``length`` tokens."""
    rng = random.Random(0)
    vocab = [f"t{i}" for i in range(2000)]
    tokens = rng.choices(vocab, weights=[1.0 / (r + 1) for r in range(2000)], k=n * length)
    ground = Corpus(tuple(Sentence(i, tuple(tokens[length * i : length * (i + 1)])) for i in range(n)))
    in_domain = Corpus(tuple(Sentence(k, ground[j].source_tokens) for k, j in enumerate(range(0, n, 10))))
    lm_in, lm_out = train_domain_pair(in_domain, ground)
    run = traced_peak(lambda: score_corpus(ground, lm_in, lm_out))
    assert len(run.result) == n and all(s.defined for s in run.result)
    return run.peak
