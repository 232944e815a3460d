"""The summary math of ``tools/bench_pairs.py`` on canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)  # main runs only as a script

BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "words_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [{"name": "submodular.select_s", "better": "lower"}],
}


def record(workload, seed, side, metrics, trace=0, correct=True, failed=0, attempted=10, scale=1.0):
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}
    return {"workload": workload, "seed": seed, "side": side, "trace": trace, "scale": scale,
            "first": bench_pairs.first_side(seed), "elapsed": 31.0, "result": result}


def canned():
    """Ten pairs: wall_s 1.0..1.9 at the parent and 0.5 lower at the change,
    words_per_s its inverse, and a flat peak the change raises by 1%, except
    in one pair."""
    runs = []
    for i, seed in enumerate(range(2401, 2411)):
        parent_wall, change_wall = 1.0 + i / 10, 0.5 + i / 10
        change_peak = 40.0 if i == 3 else 40.4
        runs.append(record("w", seed, "parent", {"wall_s": parent_wall, "words_per_s": 1 / parent_wall,
                                                 "peak_rss_mb": 40.0}))
        runs.append(record("w", seed, "change", {"wall_s": change_wall, "words_per_s": 1 / change_wall,
                                                 "peak_rss_mb": change_peak}))
    runs.append(record("w", 0, "parent", {"submodular.select_s": 0.20}, trace=1))
    runs.append(record("w", 0, "change", {"submodular.select_s": 0.14}, trace=1))
    return runs


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.first_side(seed) for seed in (2401, 2402, 2403)] == ["parent", "change", "parent"]
    assert bench_pairs.parse_seeds("2401-2404") == [2401, 2402, 2403, 2404]
    assert bench_pairs.parse_seeds("0,7") == [0, 7]


def test_quartiles_are_the_inclusive_ones():
    values = [1.0 + i / 10 for i in range(10)]
    assert bench_pairs.quartiles(values) == {"median": 1.45, "q1": 1.225, "q3": 1.675}
    assert bench_pairs.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0}


def test_summary_of_canned_pairs():
    entry = bench_pairs.summarize(canned(), BENCHMARK)["w"]
    assert entry["pairs"] == 10 and entry["seeds"] == list(range(2401, 2411))
    assert entry["all_correct"] and entry["failed"] == {"parent": 0, "change": 0}
    assert entry["attempted"] == {"parent": 100, "change": 100}

    wall = entry["wall_s"]
    assert wall["parent"] == {"median": 1.45, "q1": 1.225, "q3": 1.675}
    assert wall["change"] == {"median": 0.95, "q1": 0.725, "q3": 1.175}
    assert wall["change_better_pairs"] == 10
    assert wall["change_vs_parent_median"] == round(-0.5 / 1.45, 4)
    assert wall["parent_iqr_share"] == round(0.45 / 1.45, 4)
    # the parent's spread (31% of its median) is wider than the 25% bound, and
    # some change run is slower than some parent run: no regression can be ruled out
    assert wall["verdict"] == "unresolved (parent IQR wider than bound)"
    # won every pair, and the medians differ by 0.5 s, more than the parent's 0.45 s IQR
    assert wall["meets_claim_bar"]

    words = entry["words_per_s"]  # higher is better: every pair a win again
    assert words["change_better_pairs"] == 10 and words["change_vs_parent_median"] > 0
    assert words["meets_claim_bar"]

    peak = entry["peak_rss_mb"]
    assert peak["change_better_pairs"] == 0  # one tie, nine losses
    assert peak["change_vs_parent_median"] == 0.01 and peak["parent_iqr_share"] == 0.0
    assert peak["verdict"] == "within bound" and not peak["meets_claim_bar"]

    assert entry["traced"] == {"submodular.select_s": {"parent": 0.2, "change": 0.14}}


@pytest.mark.parametrize("rise, verdict", [(1.04, "within bound"), (1.06, "worse beyond bound")])
def test_a_median_worse_than_its_bound_is_a_regression(rise, verdict):
    runs = []
    for seed in range(1, 11):
        runs.append(record("w", seed, "parent", {"peak_rss_mb": 40.0 + seed / 100}))
        runs.append(record("w", seed, "change", {"peak_rss_mb": (40.0 + seed / 100) * rise}))
    benchmark = {"end_to_end": [BENCHMARK["end_to_end"][2]], "per_layer": []}
    assert bench_pairs.summarize(runs, benchmark)["w"]["peak_rss_mb"]["verdict"] == verdict


def test_nine_wins_of_ten_meet_the_bar_and_eight_do_not():
    parent = [1.0] * 10
    for wins, meets in ((9, True), (8, False)):
        change = [0.5] * wins + [1.5] * (10 - wins)
        assert bench_pairs.compare(parent, change, "lower", 0.25)["meets_claim_bar"] == meets


def test_every_change_run_better_than_every_parent_run_resolves_a_wide_spread():
    parent = [1.0, 2.0, 3.0, 4.0]
    assert bench_pairs.compare(parent, [0.5, 0.6, 0.7, 0.8], "lower", 0.25)["verdict"] == "within bound"
    assert bench_pairs.compare(parent, [0.5, 0.6, 0.7, 1.5], "lower", 0.25)["verdict"].startswith("unresolved")


def test_failed_runs_and_scales_are_kept_apart(tmp_path):
    runs = canned()
    runs[1] = record("w", 2401, "change", {}, correct=False, attempted=0)  # printed no result line
    runs.append(record("w", 0, "parent", {"wall_s": 7.0, "words_per_s": 1.0, "peak_rss_mb": 300.0}, scale=25.0))
    runs.append(record("w", 0, "change", {"wall_s": 7.5, "words_per_s": 1.0, "peak_rss_mb": 290.0}, scale=25.0))
    log = tmp_path / "runs.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in runs), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["summarize", "--log", str(log), "--benchmark", str(tmp_path / "BENCHMARK.json"),
                      "--out", str(out), "--note", "claim=none"])
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["claim"] == "none" and len(written["runs"]) == len(runs)
    entry = written["summary"]["w"]
    assert not entry["all_correct"] and entry["pairs"] == 10
    assert entry["wall_s"]["change_better_pairs"] == 9  # the pair without a result is left out
    assert written["summary"]["w scale 25"]["peak_rss_mb"]["change_better_pairs"] == 1
