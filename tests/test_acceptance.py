"""End-to-end acceptance suite.

Each test checks one contractual property of the toolkit, from the
diminishing-returns structure of the objective through approximation
quality, variant equivalence, frozen hand-worked values, redundancy
behavior against the ranking baseline, bookkeeping exactness, scale,
model normalization, and byte determinism of the command line. A
terminal-summary hook prints one pass/fail line per criterion.
"""

import math
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from subselect.corpus import Corpus, Sentence
from subselect.features import extract_feature_set, featurize, fit_idf
from subselect.lm import train_lm
from subselect.oracle import brute_force_optimal, coverage_report
from subselect.submodular import (
    ConcaveSpec,
    SelectionState,
    evaluate,
    greedy_select,
    greedy_select_vectors,
    marginal_gain,
)
from subselect.xent import rank_and_select, score_corpus, train_domain_pair

import lm_reference
from support import make_instance, random_curve

SQRT = ConcaveSpec("power", 0.5)


def corpus_of(*lines):
    return Corpus(tuple(Sentence(i, tuple(line.split())) for i, line in enumerate(lines)))


def state_for(ground, features, chosen):
    """SelectionState holding exactly the given sentences."""
    state = SelectionState(selected=list(chosen))
    for sid in chosen:
        for key, val in featurize(ground[sid], features).entries.items():
            state.mass[key] = state.mass.get(key, 0.0) + val
    return state


def _current_rss_mb(peak_mb: float) -> float:
    """Resident set size now, from the stdlib; where ``/proc`` is absent the
    peak, which bounds it from above, stands in."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak_mb
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


def test_01_marginal_gains_are_submodular_and_nonnegative():
    """gain(v | X) >= gain(v | Y) - 1e-9 for X subset of Y, and gains >= 0,
    across at least 1000 random (X, Y, v) triples, in under 10 seconds."""
    rng = random.Random(1001)
    start = time.perf_counter()
    triples = 0
    worst = 0.0
    while triples < 1000:
        ground, _, features = make_instance(rng)
        curve = random_curve(rng)
        ids = list(range(len(ground)))
        for _ in range(9):
            rng.shuffle(ids)
            v = ids[0]
            pool = ids[1:]
            small_k = rng.randint(0, len(pool))
            big_k = rng.randint(small_k, len(pool))
            small, big = pool[:small_k], pool[:big_k]
            g_small = marginal_gain(ground[v], state_for(ground, features, small), features, curve)
            g_big = marginal_gain(ground[v], state_for(ground, features, big), features, curve)
            assert g_small >= -1e-12 and g_big >= -1e-12, "negative marginal gain"
            worst = max(worst, g_big - g_small)
            assert g_small >= g_big - 1e-9, (
                f"submodularity violated: gain|small={g_small!r} < gain|big={g_big!r}"
            )
            triples += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{triples} triples took {elapsed:.1f}s"
    print(f"{triples} triples, worst violation {worst:.3e}, {elapsed:.2f}s")


def test_02_unit_cost_greedy_meets_approximation_floor():
    """On 200 random unit-cost instances (<=15 sentences, budget <=5) the
    greedy objective is at least (1 - 1/e) of the exhaustive optimum."""
    rng = random.Random(2002)
    floor = 1 - 1 / math.e
    ratios = []
    start = time.perf_counter()
    for _ in range(200):
        ground, _, features = make_instance(rng, n_ground=rng.randint(2, 15))
        curve = random_curve(rng)
        budget = rng.randint(1, 5)
        state = greedy_select(ground, features, curve, budget, cost_mode="unit")
        _, opt = brute_force_optimal(ground, features, curve, budget, cost_mode="unit")
        if opt <= 0:
            continue
        ratio = state.objective / opt
        assert ratio >= floor - 1e-9, f"ratio {ratio!r} below {floor!r}"
        ratios.append(ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert len(ratios) >= 150, "too few non-trivial instances"
    mean = sum(ratios) / len(ratios)
    print(f"{len(ratios)} instances, min ratio {min(ratios):.6f}, mean {mean:.6f}, {elapsed:.1f}s")


def test_03_lazy_and_naive_selections_are_identical():
    """The lazy and naive greedy variants agree element by element on 100
    random instances: same picks, same gains, same spending, same objective."""
    rng = random.Random(3003)
    for _ in range(100):
        ground, _, features = make_instance(rng)
        curve = random_curve(rng)
        cost_mode = rng.choice(["words", "unit"])
        limit = ground.total_cost if cost_mode == "words" else len(ground)
        budget = rng.randint(1, max(1, limit))
        naive = greedy_select(ground, features, curve, budget, cost_mode, "naive")
        lazy = greedy_select(ground, features, curve, budget, cost_mode, "lazy")
        assert naive.selected == lazy.selected
        assert naive.trajectory == lazy.trajectory
        assert naive.objective == lazy.objective
        assert naive.spent == lazy.spent
        assert lazy.gain_evaluations <= naive.gain_evaluations
    print("100 instances, trajectories identical")


def test_04_hand_worked_fixtures_match_frozen_values():
    """Worked-by-hand instances: the 3-sentence greedy fixture, the idf
    values of a 4-sentence ground set, and a unigram score ratio."""
    # greedy: the spread pair {u2,u3} wins over the heavy singleton, then id 0
    state = greedy_select_vectors(
        [{"u1": 9.0}, {"u1": 9.0}, {"u2": 4.0, "u3": 4.0}], [1, 1, 1], SQRT, budget=2
    )
    assert state.selected == [2, 0]
    assert abs(state.objective - 7.0) <= 1e-9

    # idf over a 4-sentence ground set: ln(4/3), ln 2, ln 4
    ground = corpus_of("a b c", "a b", "a", "d")
    features = fit_idf(extract_feature_set(corpus_of("a b c d"), 1), ground)
    table = features.features
    assert abs(table[("a",)].idf - 0.2876820724517809) <= 1e-9
    assert abs(table[("b",)].idf - 0.6931471805599453) <= 1e-9
    assert abs(table[("c",)].idf - 1.3862943611198906) <= 1e-9

    # per-word score of "a a" between two skewed unigram models: ln 4
    lm_in = train_lm(corpus_of("a a a a b"), order=1, smoothing="mle", markers=False)
    lm_out = train_lm(corpus_of("a b b b b"), order=1, smoothing="mle", markers=False)
    scores = score_corpus(corpus_of("a a"), lm_in, lm_out)
    assert abs(scores[0].score - 1.3862943611198906) <= 1e-9
    print("greedy fixture 7.0, idf ln(4/3)/ln2/ln4, score ln4 all within 1e-9")


def test_05_coverage_selection_beats_ranking_on_redundancy():
    """Ten duplicates of the most in-domain-looking sentence: the ranking
    baseline takes all ten, while the coverage selector at the same size
    reaches strictly higher coverage and strictly lower redundancy."""
    dup = "alpha beta gamma delta"
    blocks = ["epsilon zeta eta theta", "iota kappa lam mu", "nu xi omicron pi"]
    mixes = ["epsilon iota nu zeta", "kappa xi eta omicron", "lam pi mu theta"]
    out_lines = ["rho sigma tau upsilon", "phi chi psi omega"]
    ground = corpus_of(*([dup] * 10 + blocks + mixes + out_lines))
    in_domain = corpus_of(*([dup] * 8 + blocks))
    out_domain = corpus_of(*(out_lines + ["rho tau phi psi", "sigma chi upsilon omega"]))
    features = fit_idf(extract_feature_set(in_domain, 2), ground)

    lm_in, lm_out = train_domain_pair(in_domain, out_domain, order=2)
    scores = score_corpus(ground, lm_in, lm_out)
    xent_state = rank_and_select(ground, scores, 10, "unit")
    assert sorted(xent_state.selected) == list(range(10)), (
        "ranking was expected to take exactly the ten duplicates"
    )

    submod_state = greedy_select(ground, features, SQRT, budget=10, cost_mode="unit")
    assert len(submod_state.selected) == 10

    sub = coverage_report(ground, submod_state.selected, features)
    xen = coverage_report(ground, xent_state.selected, features)
    assert sub.coverage > xen.coverage, (sub.coverage, xen.coverage)
    assert sub.redundancy < xen.redundancy, (sub.redundancy, xen.redundancy)
    print(
        f"coverage {sub.coverage:.4f} vs {xen.coverage:.4f}, "
        f"redundancy {sub.redundancy:.4f} vs {xen.redundancy:.4f}"
    )


def test_06_incremental_objective_matches_scratch_recomputation():
    """After every greedy step the running objective agrees with a
    from-scratch evaluation of the prefix within 1e-9 relative error,
    over 100 random runs."""
    rng = random.Random(6006)
    checked = 0
    for _ in range(100):
        ground, _, features = make_instance(rng)
        curve = random_curve(rng)
        cost_mode = rng.choice(["words", "unit"])
        limit = ground.total_cost if cost_mode == "words" else len(ground)
        budget = rng.randint(1, max(1, limit))
        state = greedy_select(ground, features, curve, budget, cost_mode)
        running = 0.0
        for k, step in enumerate(state.trajectory):
            running += step.gain
            prefix = state.selected[: k + 1]
            scratch = evaluate([featurize(ground[i], features) for i in prefix], features, curve)
            assert running == pytest.approx(scratch, rel=1e-9, abs=1e-12)
            checked += 1
        assert running == pytest.approx(state.objective, rel=1e-9, abs=1e-12)
    print(f"100 runs, {checked} per-step checks within 1e-9 relative")


def test_07_lazy_selection_scales_to_a_large_corpus():
    """100k sentences (about 1.5M words of Zipf-distributed tokens) with a
    roughly 10k-feature universe and a 100k-word budget select in under
    300 seconds and under 2 GB of peak memory."""
    rng = random.Random(0)
    vocab = [f"t{i}" for i in range(10_000)]
    weights = [1.0 / (r + 1) for r in range(10_000)]
    tokens = rng.choices(vocab, weights=weights, k=1_500_000)
    sentences = []
    pos = 0
    for i in range(100_000):
        sentences.append(Sentence(i, tuple(tokens[pos : pos + 15])))
        pos += 15
    ground = Corpus(tuple(sentences))
    in_domain = Corpus(
        tuple(Sentence(k, sentences[j].source_tokens) for k, j in enumerate(range(0, 100_000, 10)))
    )

    start = time.perf_counter()
    features = fit_idf(extract_feature_set(in_domain, 1), ground)
    state = greedy_select(ground, features, SQRT, budget=100_000, cost_mode="words", variant="lazy")
    elapsed = time.perf_counter() - start

    assert 5_000 <= len(features) <= 20_000, f"universe size {len(features)}"
    assert state.spent <= 100_000
    assert len(state.selected) > 1_000
    assert elapsed < 300.0, f"selection took {elapsed:.1f}s"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 2048, f"peak RSS {peak_mb:.0f} MB"
    now_mb = _current_rss_mb(peak_mb)
    assert now_mb < 2048, f"current RSS {now_mb:.0f} MB"
    print(
        f"{len(ground)} sentences, {len(features)} features, "
        f"{len(state.selected)} selected, {elapsed:.1f}s, peak {peak_mb:.0f} MB"
    )


def test_08_language_model_distributions_are_normalized():
    """For every smoothing and order up to 3 on small-vocabulary corpora,
    the conditional distribution over the event space sums to 1 within
    1e-6 at every seen history (and every history at all for the
    smoothed estimators)."""
    corpora = [
        corpus_of("a b a", "b c"),
        corpus_of("d e f g", "g f e d", "d d"),
        corpus_of(*(f"w{i} w{(i * 3) % 7}" for i in range(7))),
    ]
    checked = 0
    for corpus in corpora:
        for order in (1, 2, 3):
            for smoothing in ("mle", "add-k", "add-k:0.25", "interpolated-wb"):
                lm = train_lm(corpus, order=order, smoothing=smoothing)
                assert len(lm.vocab) <= 20
                histories = {hist for k in lm.counts for hist in (ng[:-1] for ng in lm.counts[k])}
                if smoothing != "mle":
                    histories |= {("zzz",), (), ("zzz", "zzz")}
                for hist in histories:
                    total = sum(lm.conditional_prob(w, hist) for w in lm.event_vocab())
                    if smoothing == "mle" and lm_reference.history_total(lm, hist) == 0:
                        continue
                    assert abs(total - 1.0) <= 1e-6, (smoothing, order, hist, total)
                    checked += 1
    assert checked > 100
    print(f"{checked} conditional distributions sum to 1 within 1e-6")


def test_09_command_line_selection_is_byte_deterministic(tmp_path):
    """Two identical select runs produce byte-identical outputs, and the
    thread count does not change a single byte either."""
    rng = random.Random(9009)
    vocab = [f"v{i}" for i in range(60)]
    lines = [
        " ".join(rng.choices(vocab, k=rng.randint(3, 9))) for _ in range(200)
    ]
    ground = tmp_path / "ground.src"
    ground.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    in_domain = tmp_path / "indomain.src"
    in_domain.write_text("".join(line + "\n" for line in lines[:40]), encoding="utf-8")

    def run(out_name, threads):
        out_dir = tmp_path / out_name
        proc = subprocess.run(
            [
                sys.executable, "-m", "subselect.cli", "select",
                "--method", "both", "--in-domain-src", str(in_domain),
                "--ground-src", str(ground), "--max-order", "3",
                "--budget-words", "300", "--lm-order", "2",
                "--threads", str(threads), "--variant", "naive",
                "--out-dir", str(out_dir),
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out_dir

    a = run("run-a", 1)
    b = run("run-b", 1)
    c = run("run-c", 4)
    names = [
        "submod.selection.tsv", "submod.selected.src", "submod.summary.txt",
        "xent.scores.tsv", "xent.selection.tsv", "xent.selected.src",
        "report.txt", "report.csv",
    ]
    for name in names:
        bytes_a = (a / name).read_bytes()
        assert bytes_a == (b / name).read_bytes(), f"{name} differs between identical runs"
        assert bytes_a == (c / name).read_bytes(), f"{name} differs with --threads 4"
    assert (a / "submod.selection.tsv").read_bytes(), "selection must not be empty"
    print(f"{len(names)} output files byte-identical across reruns and thread counts")
