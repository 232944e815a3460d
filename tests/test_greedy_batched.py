"""The batched gain kernel and the batched lazy greedy against their
one-at-a-time references (``greedy_reference``): the same float for every
row, and the same picks, gains and evaluation counts for every run."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedy_reference as ref
from subselect import submodular
from subselect.corpus import Corpus, Sentence
from subselect.features import RelevanceRows, extract_feature_set, fit_idf, relevance_rows
from subselect.submodular import (
    ConcaveSpec,
    SelectionState,
    _Problem,
    _vector_rows,
    greedy_select,
    greedy_select_vectors,
    reference_gain,
)

from support import make_corpus

KERNEL_CURVES = {
    "sqrt": ConcaveSpec("power", 0.5),
    "log1p": ConcaveSpec("log1p"),
    "power:0.3": ConcaveSpec("power", 0.3),
    "identity": ConcaveSpec("power", 1.0),
}
N_COLUMNS = 320


def random_rows(rng: np.random.Generator, lengths) -> RelevanceRows:
    """Rows of the given lengths over ascending random columns, with
    relevances and weights spread over many orders of magnitude."""
    cols = [np.sort(rng.choice(N_COLUMNS, size=n, replace=False)) for n in lengths]
    indptr = np.cumsum([0, *lengths], dtype=np.int64)
    flat = np.concatenate(cols).astype(np.int32) if cols else np.zeros(0, np.int32)
    vals = rng.random(len(flat)) * 10.0 ** rng.uniform(-4, 4, len(flat))
    weights = rng.random(N_COLUMNS) * 10.0 ** rng.uniform(-3, 3, N_COLUMNS)
    return RelevanceRows(indptr, flat, vals, list(range(N_COLUMNS)), weights)


def random_mass(rng: np.random.Generator) -> np.ndarray:
    mass = rng.random(N_COLUMNS) * 10.0 ** rng.uniform(-4, 4, N_COLUMNS)
    mass[rng.random(N_COLUMNS) < 0.4] = 0.0
    return mass


def assert_kernel_matches(rows: RelevanceRows, mass: np.ndarray, curve: ConcaveSpec, ids) -> None:
    n_rows = len(rows.indptr) - 1
    batched = _Problem(rows, [1] * n_rows)
    single = ref._Problem(rows, [1] * n_rows)
    padded_mass = np.append(mass, 0.0)  # the batched problem's padding column
    gains = batched.gains(ids, padded_mass, curve)
    assert gains.dtype == np.float64 and gains.shape == (len(ids),)
    weight_of = rows.weights.__getitem__
    for vid, gain in zip(ids, gains.tolist()):
        expected = single.gain(vid, mass, curve)
        assert gain == expected, (vid, gain, expected)
        lo, hi = rows.indptr[vid], rows.indptr[vid + 1]
        entries = dict(zip(rows.cols[lo:hi].tolist(), rows.vals[lo:hi].tolist()))
        scalar = reference_gain(entries, dict(enumerate(mass.tolist())), weight_of, curve)
        if hi - lo < 8:
            # np.sum adds fewer than 8 terms left to right, as reference_gain does
            assert gain == scalar, (vid, gain, scalar)
        else:
            # np.sum adds longer rows pairwise, so the two differ by at most their
            # rounding errors: each below (n - 1) eps times the sum of the (here
            # non-negative) terms
            assert gain == pytest.approx(scalar, rel=2 * (hi - lo) * np.finfo(float).eps, abs=0.0)


class TestGainsKernel:
    @pytest.mark.parametrize("curve", sorted(KERNEL_CURVES))
    def test_every_row_length_up_to_300(self, curve):
        # one row of every length: each n // 8 class, the 128 split and past it
        rng = np.random.default_rng(5)
        lengths = list(range(301))
        rng.shuffle(lengths)
        rows = random_rows(rng, lengths)
        assert_kernel_matches(rows, random_mass(rng), KERNEL_CURVES[curve], list(range(len(lengths))))

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.one_of(st.integers(0, 20), st.integers(0, 300)), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        curve=st.sampled_from(sorted(KERNEL_CURVES)),
        data=st.data(),
    )
    def test_random_rows_and_masses(self, lengths, seed, curve, data):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, lengths)
        # any order, repeats allowed: results come back in the order asked
        ids = data.draw(st.lists(st.integers(0, len(lengths) - 1), min_size=0, max_size=20))
        assert_kernel_matches(rows, random_mass(rng), KERNEL_CURVES[curve], ids)

    @pytest.mark.parametrize("chunk", [1, 7, 50, 1000])
    def test_chunking_never_changes_a_bit(self, chunk):
        # chunks smaller than a row, than a width class, and than the batch
        rng = np.random.default_rng(9)
        lengths = rng.integers(0, 300, size=40).tolist()
        rows = random_rows(rng, lengths)
        mass = np.append(random_mass(rng), 0.0)
        problem = _Problem(rows, [1] * len(lengths))
        ids = rng.permutation(len(lengths))
        whole = problem.gains(ids, mass, KERNEL_CURVES["sqrt"])
        with mock.patch.object(submodular, "_CHUNK_SLOTS", chunk):
            chunked = problem.gains(ids, mass, KERNEL_CURVES["sqrt"])
        assert chunked.tobytes() == whole.tobytes()

    def test_empty_rows_and_empty_batches(self):
        rows = random_rows(np.random.default_rng(3), [0, 0, 5, 0])
        problem = _Problem(rows, [1] * 4)
        mass = problem.zero_mass()
        assert problem.gains([], mass, KERNEL_CURVES["sqrt"]).shape == (0,)
        gains = problem.gains([0, 1, 3], mass, KERNEL_CURVES["log1p"])
        assert gains.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(gains).any()


def reference_run(problem, concave, budget, variant, cost_mode="words") -> SelectionState:
    state = SelectionState(budget=float(budget), cost_mode=cost_mode, variant=variant)
    loop = ref._greedy_lazy if variant == "lazy" else ref._greedy_naive
    return loop(problem, concave, budget, state)


def assert_same_run(got: SelectionState, want: SelectionState) -> None:
    assert got.selected == want.selected
    assert got.trajectory == want.trajectory
    assert [repr(step.gain) for step in got.trajectory] == [repr(step.gain) for step in want.trajectory]
    assert got.objective == want.objective
    assert got.spent == want.spent
    assert got.mass == want.mass
    assert got.gain_evaluations == want.gain_evaluations
    assert got.evaluations_per_step == want.evaluations_per_step


# small integer relevances and shared keys make exact duplicates and tied ratios common
vector = st.dictionaries(st.sampled_from("abcdefgh"), st.sampled_from([1.0, 2.0, 3.0, 4.0]), max_size=4)


@st.composite
def vector_instances(draw):
    base = draw(st.lists(vector, min_size=1, max_size=10))
    vectors = base + [draw(st.sampled_from(base)) for _ in range(draw(st.integers(0, 8)))]
    order = draw(st.permutations(range(len(vectors))))
    vectors = [vectors[i] for i in order]
    costs = draw(st.lists(st.integers(1, 4), min_size=len(vectors), max_size=len(vectors)))
    # weight 0 makes rows whose gain is 0 while budget is left: the zero-gain stop
    weights = draw(st.dictionaries(st.sampled_from("abcdefgh"), st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    budget = draw(st.integers(1, sum(costs) + 2))
    return vectors, costs, weights, budget


class TestBatchedGreedyCountsAsTheHeapDid:
    @pytest.mark.parametrize("first_batch", [1, 2, 16])
    @settings(max_examples=80, deadline=None)
    @given(instance=vector_instances(), curve=st.sampled_from(sorted(KERNEL_CURVES)))
    def test_vector_instances(self, first_batch, instance, curve):
        vectors, costs, weights, budget = instance
        concave = KERNEL_CURVES[curve]
        for variant in ("lazy", "naive"):
            want = reference_run(ref._Problem(_vector_rows(vectors, weights), costs), concave, budget, variant)
            with mock.patch.object(submodular, "_FIRST_BATCH", first_batch):
                got = greedy_select_vectors(vectors, costs, concave, budget, weights, variant)
            assert_same_run(got, want)

    @pytest.mark.parametrize("first_batch", [1, 3, 16])
    def test_corpus_instances_with_duplicates_and_oversized_sentences(self, first_batch):
        rng = random.Random(2015 + first_batch)
        for _ in range(30):
            ground = make_corpus(rng, rng.randint(2, 40), max_len=9)
            # exact duplicates of earlier lines, in random places
            lines = [s.source_tokens for s in ground] + [
                rng.choice(ground.sentences).source_tokens for _ in range(rng.randint(0, 15))
            ]
            rng.shuffle(lines)
            ground = Corpus(tuple(Sentence(i, toks) for i, toks in enumerate(lines)))
            features = fit_idf(extract_feature_set(make_corpus(rng, 4, max_len=9), rng.randint(1, 3)), ground)
            cost_mode = rng.choice(["words", "unit"])
            # a budget below the longest sentence leaves some sentences over budget from the start
            limit = ground.total_cost if cost_mode == "words" else len(ground)
            budget = rng.randint(1, max(1, limit // 2))
            concave = rng.choice(list(KERNEL_CURVES.values()))
            costs = [s.cost if cost_mode == "words" else 1 for s in ground]
            rows = relevance_rows(ground.sentences, features)
            for variant in ("lazy", "naive"):
                want = reference_run(ref._Problem(rows, costs), concave, budget, variant, cost_mode)
                with mock.patch.object(submodular, "_FIRST_BATCH", first_batch):
                    got = greedy_select(ground, features, concave, budget, cost_mode, variant)
                assert_same_run(got, want)

    def test_zero_gain_stop_with_budget_left(self):
        vectors = [{"a": 2.0}, {"a": 2.0}, {}, {"b": 1.0}, {"b": 1.0}]
        weights = {"b": 0.0}
        for variant in ("lazy", "naive"):
            problem = ref._Problem(_vector_rows(vectors, weights), [1] * 5)
            want = reference_run(problem, KERNEL_CURVES["sqrt"], 5, variant)
            got = greedy_select_vectors(vectors, [1] * 5, KERNEL_CURVES["sqrt"], 5, weights, variant)
            assert_same_run(got, want)
            assert got.selected == [0, 1]
            assert got.spent < 5

    # Row 0 is worth 13 and takes the mass that halves rows 3 and 5 to exactly
    # 2.0 = sqrt(16) - sqrt(4) = sqrt(9) - sqrt(1); row 4 is worth 2.0 throughout.
    # After the first pick the stale keys are (-3.46, 5) < (-2.83, 3) < (-2, 4).
    TIE = [{"c": 1.0, "e": 4.0, "f": 100.0}, {}, {}, {"c": 8.0}, {"d": 4.0}, {"e": 12.0}]

    @pytest.mark.parametrize("first_batch", [1, 2, 16])
    def test_a_tie_on_the_next_stale_key_goes_to_the_lower_id(self, first_batch):
        # One at a time, the heap loop recomputes 5 and 3 to key -2, then finds
        # the fresh (-2, 3) ahead of the stale (-2, 4) and takes it: two
        # evaluations in step 1, however many the batch recomputed.
        costs = [1] * 6
        want = reference_run(ref._Problem(_vector_rows(self.TIE, None), costs), KERNEL_CURVES["sqrt"], 6, "lazy")
        with mock.patch.object(submodular, "_FIRST_BATCH", first_batch):
            got = greedy_select_vectors(self.TIE, costs, KERNEL_CURVES["sqrt"], 6)
        assert_same_run(got, want)
        assert got.selected == [0, 3, 4, 5]
        assert [step.gain for step in got.trajectory[1:]] == [2.0, 2.0, 2.0]
        assert got.evaluations_per_step == [6, 2, 1, 1, 1]  # the last: a fresh 0.0 on top stops the run

    @pytest.mark.parametrize("first_batch", [1, 2, 16])
    def test_keys_that_no_longer_fit_are_dropped_uncounted(self, first_batch):
        # Row 4 costs 2: after picks 0 and 3 (spent 2 of 3) it can never fit
        # again and leaves uncounted; after 5 (spent 3) so does every other key,
        # the fresh ones of the step before among them.
        costs = [1, 1, 1, 1, 2, 1]
        want = reference_run(ref._Problem(_vector_rows(self.TIE, None), costs), KERNEL_CURVES["sqrt"], 3, "lazy")
        with mock.patch.object(submodular, "_FIRST_BATCH", first_batch):
            got = greedy_select_vectors(self.TIE, costs, KERNEL_CURVES["sqrt"], 3)
        assert_same_run(got, want)
        assert got.selected == [0, 3, 5]
        assert got.evaluations_per_step == [6, 2, 1, 0]

    @pytest.mark.parametrize("first_batch", [1, 2, 16])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), curve=st.sampled_from(sorted(KERNEL_CURVES)))
    def test_many_duplicates_under_word_costs_until_the_budget_runs_out(self, first_batch, data, curve):
        # a few distinct lines, each repeated many times at its own word cost,
        # and positive weights: every row keeps a positive gain, so the run
        # ends because the budget is spent, with keys left over
        base = data.draw(st.lists(vector.filter(bool), min_size=1, max_size=4))
        base_costs = data.draw(st.lists(st.integers(1, 6), min_size=len(base), max_size=len(base)))
        picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=8, max_size=40))
        vectors, costs = [base[i] for i in picks], [base_costs[i] for i in picks]
        budget = data.draw(st.integers(max(costs), sum(costs) - 1)) if sum(costs) > max(costs) else max(costs)
        weights = data.draw(st.dictionaries(st.sampled_from("abcdefgh"), st.sampled_from([0.5, 1.0, 2.0])))
        concave = KERNEL_CURVES[curve]
        want = reference_run(ref._Problem(_vector_rows(vectors, weights), costs), concave, budget, "lazy")
        with mock.patch.object(submodular, "_FIRST_BATCH", first_batch):
            got = greedy_select_vectors(vectors, costs, concave, budget, weights)
        assert_same_run(got, want)
        assert got.spent <= budget and len(got.selected) < len(vectors)


@pytest.mark.filterwarnings("error")
def test_keys_order_as_the_tuples_they_stand_for():
    # equal ratios, -0.0 and 0.0 among them, go to the lower id in every
    # numpy operation the lazy greedy runs on keys
    gains = np.array([0.0, -0.0, 2.0, 4.0, 0.0, 2.0, -0.0, 6.0])
    ids = np.array([6, 5, 4, 3, 2, 1, 0, 7])
    costs = np.array([1, 1, 2, 2, 1, 1, 1, 3], dtype=np.int64)  # by id
    keys = submodular._keys(gains, costs, ids)
    assert keys.dtype == np.complex128 and (np.signbit(keys.real) != np.signbit(gains)).all()
    tuples = [(-g / costs[i], i) for g, i in zip(gains.tolist(), ids.tolist())]
    assert [(k.real, int(k.imag)) for k in np.sort(keys).tolist()] == sorted(tuples)
    assert [int(k.imag) for k in np.sort(keys).tolist()] == [1, 3, 4, 7, 0, 2, 5, 6]  # 2/1 == 4/2 == 6/3
    for i in range(len(keys)):
        assert (keys[i] < keys).tolist() == [tuples[i] < other for other in tuples]
        assert int(keys[: i + 1].min().imag) == min(tuples[: i + 1])[1]
    running = [int(k.imag) for k in np.minimum.accumulate(keys).tolist()]
    assert running == [min(tuples[: i + 1])[1] for i in range(len(tuples))]
    ordered = np.sort(keys)
    assert np.searchsorted(ordered, keys).tolist() == [sorted(tuples).index(t) for t in tuples]
