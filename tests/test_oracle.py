import itertools
import math
import random

import pytest

from subselect.corpus import Corpus, Sentence
from subselect.errors import ConfigError, SizeCapError, StateError
from subselect.features import extract_feature_set, featurize, fit_idf
from subselect.oracle import (
    GUARANTEE_FLOOR,
    ORACLE_MAX_SENTENCES,
    brute_force_optimal,
    brute_force_vectors,
    build_report,
    compare_methods,
    coverage_report,
    method_metrics,
)
from subselect.submodular import (
    ConcaveSpec,
    evaluate,
    greedy_select,
    greedy_select_vectors,
    sentence_costs,
)

from objective_reference import ref_evaluate
from support import make_corpus, make_instance, random_curve

SQRT = ConcaveSpec("power", 0.5)

FIXTURE = [{"u1": 9.0}, {"u1": 9.0}, {"u2": 4.0, "u3": 4.0}]
UNIT = [1, 1, 1]


def corpus_of(*lines):
    return Corpus(tuple(Sentence(i, tuple(line.split())) for i, line in enumerate(lines)))


def optimum_by_definition(costs, budget, value_of):
    """(ids, value) of the best subset within budget, ties to the fewest ids,
    then the lexicographically smallest, by scoring every subset."""
    values = {
        combo: value_of(combo)
        for r in range(len(costs) + 1)
        for combo in itertools.combinations(range(len(costs)), r)
        if sum(costs[i] for i in combo) <= budget
    }
    best = max(values.values())
    return list(min((combo for combo, v in values.items() if v == best), key=lambda c: (len(c), c))), best


class TestBruteForce:
    def test_fixture_optimum_and_tie_break(self):
        # {0,2} and {1,2} both reach 3+2+2; the lexicographically smaller wins
        ids, f = brute_force_vectors(FIXTURE, UNIT, SQRT, budget=2)
        assert ids == [0, 2]
        assert f == 7.0

    def test_zero_budget_selects_nothing(self):
        ids, f = brute_force_vectors(FIXTURE, UNIT, SQRT, budget=0)
        assert ids == []
        assert f == 0.0

    def test_generous_budget_excludes_zero_contribution_items(self):
        vectors = [{"u": 1.0}, {}, {"v": 2.0}]
        ids, f = brute_force_vectors(vectors, [1, 1, 1], SQRT, budget=3)
        assert ids == [0, 2]
        assert f == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 7)
            universe = ["u", "v", "w", "x"]
            vectors = [
                {u: rng.uniform(0.5, 4.0) for u in rng.sample(universe, rng.randint(0, 3))}
                for _ in range(n)
            ]
            costs = [rng.randint(1, 4) for _ in range(n)]
            budget = rng.randint(1, sum(costs))
            curve = random_curve(rng)
            ids, f = brute_force_vectors(vectors, costs, curve, budget=budget)
            best = 0.0
            for r in range(n + 1):
                for combo in itertools.combinations(range(n), r):
                    if sum(costs[i] for i in combo) > budget:
                        continue
                    best = max(best, evaluate([vectors[i] for i in combo], None, curve))
            assert f == pytest.approx(best, rel=1e-12, abs=1e-12)
            assert sum(costs[i] for i in ids) <= budget
            assert evaluate([vectors[i] for i in ids], None, curve) == pytest.approx(
                f, rel=1e-12, abs=1e-12
            )

    def test_returns_the_best_evaluate_value_exactly(self):
        # the oracle's definition, pinned bit for bit: the largest from-scratch
        # value over every subset within budget, ties to the fewest ids and then
        # the lexicographically smallest
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(0, 8)
            pool = [{u: rng.choice([0.5, 1.0, 2.0, 3.0]) for u in rng.sample("uvwx", rng.randint(0, 3))}
                    for _ in range(rng.randint(1, 4))]
            vectors = [dict(rng.choice(pool)) for _ in range(n)]  # repeats force ties
            costs = [rng.randint(1, 3) for _ in range(n)]
            budget = rng.randint(0, sum(costs) + 1)
            weights = rng.choice([{}, {"u": 2.0, "v": 0.0}, {"w": 0.25}])
            curve = random_curve(rng)
            ids, f = brute_force_vectors(vectors, costs, curve, budget=budget, weights=weights)

            def value_of(combo):
                if not weights:
                    return evaluate([vectors[i] for i in combo], None, curve)
                return ref_evaluate([vectors[i] for i in combo], lambda u: weights.get(u, 1.0), curve)

            assert (ids, f) == optimum_by_definition(costs, budget, value_of)
        for _ in range(20):
            ground, _, features = make_instance(rng, n_ground=rng.randint(1, 9), max_len=4)
            cost_mode = rng.choice(["words", "unit"])
            costs = sentence_costs(ground, cost_mode).tolist()
            budget = rng.randint(1, sum(costs))
            curve = random_curve(rng)
            vecs = [featurize(sentence, features) for sentence in ground]
            ids, f = brute_force_optimal(ground, features, curve, budget, cost_mode)
            expected = optimum_by_definition(costs, budget, lambda combo: evaluate(
                [vecs[i] for i in combo], features, curve))
            assert (ids, f) == expected

    def test_weighted_features_respected(self):
        vectors = [{"u": 4.0}, {"v": 4.0}]
        ids, f = brute_force_vectors(vectors, [1, 1], SQRT, budget=1, weights={"v": 10.0})
        assert ids == [1]
        assert f == 20.0

    def test_size_cap_enforced(self):
        vectors = [{"u": 1.0}] * (ORACLE_MAX_SENTENCES + 1)
        with pytest.raises(SizeCapError):
            brute_force_vectors(vectors, [1] * len(vectors), SQRT, budget=2)

    def test_corpus_size_cap_enforced(self):
        rng = random.Random(1)
        ground = make_corpus(rng, ORACLE_MAX_SENTENCES + 1)
        features = fit_idf(extract_feature_set(ground, 1), ground)
        with pytest.raises(SizeCapError):
            brute_force_optimal(ground, features, SQRT, budget=3)

    def test_unfitted_features_rejected(self):
        rng = random.Random(1)
        ground = make_corpus(rng, 4)
        with pytest.raises(StateError):
            brute_force_optimal(ground, extract_feature_set(ground, 1), SQRT, budget=3)

    @pytest.mark.parametrize("vectors, costs, weights", [
        ([{"u": 1.0}], [-3], None),  # a negative cost would free budget
        ([{"u": 1.0}], [0], None),
        ([{"u": 1.0}], [1.5], None),
        ([{"u": 1.0}, {"v": 1.0}], [1], None),
        ([{"u": 1.0}], [math.nan], None),
        ([{"u": 1.0}], [math.inf], None),
        ([{"u": -1.0}], [1], None),  # the sqrt of a negative mass is NaN
        ([{"u": math.nan}], [1], None),
        ([{"u": math.inf}], [1], None),
        ([{"u": "1"}], [1], None),
        ([{"u": 1.0}, {"v": 2.0}], [1, 1], {"u": math.nan}),  # a NaN gain ranked as the best
        ([{"u": 1.0}], [1], {"u": -2.0}),
    ], ids=["negative-cost", "zero-cost", "fractional-cost", "length-mismatch", "nan-cost", "infinite-cost",
            "negative-relevance", "nan-relevance", "infinite-relevance", "text-relevance", "nan-weight",
            "negative-weight"])
    def test_bad_vector_instance_rejected_as_the_greedy_rejects_it(self, vectors, costs, weights):
        with pytest.raises(ConfigError) as greedy_error:
            greedy_select_vectors(vectors, costs, SQRT, budget=1, weights=weights)
        with pytest.raises(ConfigError) as oracle_error:
            brute_force_vectors(vectors, costs, SQRT, budget=1, weights=weights)
        assert str(oracle_error.value) == str(greedy_error.value)

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
    def test_bad_budget_rejected_as_the_greedy_rejects_it(self, budget):
        with pytest.raises(ConfigError) as greedy_error:
            greedy_select_vectors(FIXTURE, UNIT, SQRT, budget=budget)
        with pytest.raises(ConfigError) as oracle_error:
            brute_force_vectors(FIXTURE, UNIT, SQRT, budget=budget)
        assert str(oracle_error.value) == str(greedy_error.value)
        ground = corpus_of("a b", "b c", "c a")
        features = fit_idf(extract_feature_set(ground, 2), ground)
        with pytest.raises(ConfigError) as greedy_error:
            greedy_select(ground, features, SQRT, budget)
        with pytest.raises(ConfigError) as oracle_error:
            brute_force_optimal(ground, features, SQRT, budget)
        assert str(oracle_error.value) == str(greedy_error.value)

    def test_unknown_cost_mode_rejected_as_the_greedy_rejects_it(self):
        rng = random.Random(1)
        ground = make_corpus(rng, 4)
        features = fit_idf(extract_feature_set(ground, 1), ground)
        with pytest.raises(ConfigError) as greedy_error:
            greedy_select(ground, features, SQRT, 2, cost_mode="sentences")
        with pytest.raises(ConfigError) as oracle_error:
            brute_force_optimal(ground, features, SQRT, 2, cost_mode="sentences")
        assert str(oracle_error.value) == str(greedy_error.value)

    def test_corpus_route_matches_vector_route(self):
        rng = random.Random(8)
        for _ in range(10):
            ground, _, features = make_instance(rng, n_ground=6)
            budget = rng.randint(1, ground.total_cost)
            ids_a, f_a = brute_force_optimal(ground, features, SQRT, budget, "words")
            vectors = [featurize(s, features).entries for s in ground]
            costs = [s.cost for s in ground]
            ids_b, f_b = brute_force_vectors(vectors, costs, SQRT, budget)
            assert ids_a == ids_b
            assert f_a == f_b


class TestDominanceAndGuarantee:
    def test_optimum_dominates_greedy(self):
        rng = random.Random(21)
        for _ in range(30):
            ground, _, features = make_instance(rng, n_ground=8)
            curve = random_curve(rng)
            cost_mode = rng.choice(["words", "unit"])
            limit = ground.total_cost if cost_mode == "words" else len(ground)
            budget = rng.randint(1, max(1, limit))
            state = greedy_select(ground, features, curve, budget, cost_mode)
            _, opt = brute_force_optimal(ground, features, curve, budget, cost_mode)
            assert opt >= state.objective - 1e-9

    def test_unit_cost_greedy_meets_the_ratio_floor(self):
        rng = random.Random(33)
        for _ in range(30):
            n = rng.randint(2, 10)
            universe = ["u", "v", "w", "x", "y"]
            vectors = [
                {u: rng.uniform(0.5, 5.0) for u in rng.sample(universe, rng.randint(1, 3))}
                for _ in range(n)
            ]
            budget = rng.randint(1, n)
            curve = random_curve(rng)
            state = greedy_select_vectors(vectors, [1] * n, curve, budget=budget)
            _, opt = brute_force_vectors(vectors, [1] * n, curve, budget=budget)
            if opt > 0:
                assert state.objective / opt >= 1 - 1 / math.e - 1e-9
                assert state.objective / opt >= GUARANTEE_FLOOR


class TestCoverageReport:
    def setup_method(self):
        self.ground = corpus_of("a b", "a b", "c d", "e f")
        in_domain = corpus_of("a b c d e f")
        self.features = fit_idf(extract_feature_set(in_domain, 2), self.ground)

    def test_selecting_everything_covers_everything(self):
        stats = coverage_report(self.ground, [0, 1, 2, 3], self.features)
        assert stats.coverage == 1.0

    def test_empty_selection_covers_nothing(self):
        stats = coverage_report(self.ground, [], self.features)
        assert stats.coverage == 0.0
        assert stats.redundancy == 0.0
        assert stats.type_token_ratio == 0.0

    def test_duplicates_raise_redundancy(self):
        ground = corpus_of("w", "w", "w", "w")
        features = fit_idf(extract_feature_set(corpus_of("w"), 1), ground)
        stats = coverage_report(ground, [0, 1, 2, 3], features)
        assert stats.type_token_ratio == pytest.approx(1 / 4, abs=1e-12)
        assert stats.redundancy == pytest.approx(1 - 1 / 4, abs=1e-12)
        assert stats.distinct_ngrams == 1
        assert stats.total_ngrams == 4

    def test_partial_selection_counts_present_features(self):
        stats = coverage_report(self.ground, [0], self.features)
        # "a b" holds 3 of the coverable n-grams: a, b, a b
        coverable = sum(1 for info in self.features.features.values() if info.doc_freq > 0)
        assert stats.coverage == pytest.approx(3 / coverable, abs=1e-12)

    def test_features_absent_from_ground_do_not_dilute(self):
        in_domain = corpus_of("a b zzz")
        features = fit_idf(extract_feature_set(in_domain, 1), self.ground)
        stats = coverage_report(self.ground, [0, 1, 2, 3], features)
        # zzz never occurs in the ground set, so full selection still covers 1.0
        assert stats.coverage == 1.0


class TestReports:
    def setup_method(self):
        self.ground = corpus_of("a b", "a b", "c d", "b c")
        in_domain = corpus_of("a b c d")
        self.features = fit_idf(extract_feature_set(in_domain, 2), self.ground)

    def test_method_metrics_shape(self):
        m = method_metrics(self.ground, self.features, SQRT, "submod", [0, 2], "words")
        assert m.method == "submod"
        assert m.size == 2
        assert m.spent == 4
        assert m.objective > 0

    def test_method_metrics_rejects_unknown_cost_mode(self):
        with pytest.raises(ConfigError, match="cost mode"):
            method_metrics(self.ground, self.features, SQRT, "submod", [0, 2], "sentences")

    def test_method_metrics_rejects_an_unfitted_set(self):
        # every idf is NaN, so the selection would score 0.0 on both counts
        unfitted = extract_feature_set(corpus_of("a b", "c d", "b c"), 2)
        with pytest.raises(StateError, match="unfitted"):
            method_metrics(self.ground, unfitted, SQRT, "submod", [0, 2], "words")

    def test_coverage_report_rejects_an_unfitted_set(self):
        # no doc_freq is positive, so the selection would cover 0.0
        unfitted = extract_feature_set(corpus_of("a b", "c d", "b c"), 2)
        with pytest.raises(StateError, match="unfitted"):
            coverage_report(self.ground, [0, 2], unfitted)

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
    def test_build_report_rejects_a_bad_budget(self, budget):
        with pytest.raises(ConfigError, match="budget must be positive"):
            build_report(self.ground, self.features, SQRT, [("submod", [0])], budget, "words")

    def test_build_report_runs_oracle_on_small_instances(self):
        state = greedy_select(self.ground, self.features, SQRT, budget=4, cost_mode="words")
        report = build_report(
            self.ground, self.features, SQRT, [("submod", state.selected)], 4, "words"
        )
        assert report.optimal_objective is not None
        assert report.greedy_ratio is not None
        assert report.greedy_ratio <= 1.0 + 1e-12

    def test_build_report_skips_oracle_when_told(self):
        # a budget of 0.0 is the report command's "no budget known"
        report = build_report(
            self.ground, self.features, SQRT, [("submod", [0])], 0.0, "words"
        )
        assert report.optimal_objective is None
        assert report.greedy_ratio is None

    def test_keyvalue_lines_round_trip_floats(self):
        state = greedy_select(self.ground, self.features, SQRT, budget=4, cost_mode="words")
        report = build_report(
            self.ground, self.features, SQRT, [("submod", state.selected)], 4, "words"
        )
        lines = report.to_keyvalue_lines()
        kv = dict(line.split("=", 1) for line in lines)
        assert float(kv["submod.objective"]) == state.objective
        assert kv["cost_mode"] == "words"
        assert "oracle.optimal_objective" in kv

    def test_csv_lines_have_header_and_ratio_only_on_submod(self):
        report = build_report(
            self.ground,
            self.features,
            SQRT,
            [("submod", [0, 2]), ("xent", [0, 1])],
            4,
            "words",
        )
        lines = report.to_csv_lines()
        assert lines[0].startswith("method,objective,")
        submod_row = next(l for l in lines if l.startswith("submod,"))
        xent_row = next(l for l in lines if l.startswith("xent,"))
        assert submod_row.split(",")[-1] != ""
        assert xent_row.split(",")[-1] == ""

    def test_format_table_mentions_every_method(self):
        report = build_report(
            self.ground, self.features, SQRT, [("submod", [0]), ("xent", [1])], 4, "words"
        )
        table = report.format_table()
        assert "submod" in table and "xent" in table and "oracle optimum" in table


class TestCompareMethods:
    def test_end_to_end_report_is_deterministic(self):
        ground = corpus_of("a b", "a b", "c d", "b c", "d a")
        in_domain = corpus_of("a b c", "c d a")
        one = compare_methods(ground, in_domain, budget=4, cost_mode="words", max_order=2)
        two = compare_methods(ground, in_domain, budget=4, cost_mode="words", max_order=2)
        assert one.to_keyvalue_lines() == two.to_keyvalue_lines()
        assert {m.method for m in one.methods} == {"submod", "xent"}

    def test_oracle_fields_present_for_small_ground(self):
        ground = corpus_of("a b", "c d", "a c")
        in_domain = corpus_of("a b c d")
        report = compare_methods(ground, in_domain, budget=2, cost_mode="unit", max_order=1)
        assert report.optimal_objective is not None
        assert 0.0 < report.greedy_ratio <= 1.0 + 1e-12

    def test_unit_mode_respects_sentence_budget(self):
        ground = corpus_of("a b", "c d", "a c", "b d")
        in_domain = corpus_of("a b c d")
        report = compare_methods(ground, in_domain, budget=2, cost_mode="unit", max_order=1)
        for m in report.methods:
            assert m.size <= 2
