"""Paired benchmark runs of a parent and a changed checkout, and their summary.

Usage:

    python3 tools/bench_pairs.py run --parent DIR --change DIR --workloads W [W ...] \\
        --seeds 2401-2410 --seconds 30 [--trace 0|1] [--scale 1] --log runs.jsonl
    python3 tools/bench_pairs.py summarize --log runs.jsonl --benchmark BENCHMARK.json \\
        --out BENCH_N.json [--note KEY=TEXT ...]

``run`` starts ``perfbench/run.py`` from the root of each checkout, one
process at a time. For every seed and workload it runs one pair: the parent
first on odd seeds, the change first on even ones. Each run's record
(workload, seed, side, trace, scale, which side went first, elapsed seconds
and perfbench's JSON result line) is appended to the log as one JSON line as
soon as the run ends, so an interrupted session keeps what it measured.

``summarize`` pairs the untraced runs by workload and seed. For every
end-to-end metric in the benchmark file it reports each side's median and
quartiles, the pairs the change won (ties count for neither), the change's
median relative to the parent's, the parent's interquartile range as a share
of its median, a regression verdict against the metric's bound, and whether
the pairs meet the bar for claiming a gain: the change wins at least nine
tenths of them and the medians differ, in its favour, by more than the
parent's interquartile range. Traced runs give each per-layer metric's
median per side. Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over the runs' result values"
VERDICTS = (
    "worse beyond bound: the change's median is worse than the parent's by more than the bound; "
    "unresolved: otherwise, where the parent's IQR / median exceeds the bound and not every change "
    "run is better than every parent run; else within bound"
)


def first_side(seed: int) -> str:
    """The side that runs first in a seed's pair."""
    return "parent" if seed % 2 else "change"


def parse_seeds(text: str) -> list[int]:
    """``2401-2410`` or ``0,7,9``."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_one(checkout: Path, workload: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    """perfbench's result line for one run; a run that prints none counts as incorrect."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--scale", str(scale)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def run_pairs(args) -> None:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.log, "a", encoding="utf-8") as log:
        for seed in parse_seeds(args.seeds):
            for workload in args.workloads:
                first = first_side(seed)
                for side in sorted(SIDES, key=lambda s: s != first):
                    start = time.monotonic()
                    result = run_one(checkouts[side], workload, seed, args.seconds, args.trace, args.scale)
                    record = {"workload": workload, "seed": seed, "side": side, "trace": args.trace,
                              "scale": args.scale, "first": first, "elapsed": round(time.monotonic() - start, 1),
                              "result": result}
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                          f"failed={result['failed']} in {record['elapsed']} s", flush=True)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One end-to-end metric over pairs ``zip(parent, change)``."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0: the change is better
    p, c = quartiles(parent), quartiles(change)
    p_med = statistics.median(parent)
    diff = statistics.median(change) - p_med
    iqr = p["q3"] - p["q1"]
    wins = sum(sign * (cv - pv) < 0 for pv, cv in zip(parent, change))
    rel, share = diff / p_med, iqr / p_med
    if sign * rel > bound:
        verdict = "worse beyond bound"
    elif share > bound and not all(sign * (cv - pv) < 0 for pv in parent for cv in change):
        verdict = "unresolved (parent IQR wider than bound)"
    else:
        verdict = "within bound"
    return {
        "parent": p, "change": c, "change_better_pairs": wins,
        "change_vs_parent_median": round(rel, 4), "parent_iqr_share": round(share, 4),
        "bound": bound, "verdict": verdict,
        "meets_claim_bar": wins >= math.ceil(0.9 * len(parent)) and sign * diff < 0 and abs(diff) > iqr,
    }


def _value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def summarize(records: list[dict], benchmark: dict) -> dict:
    """Per workload (and scale, where not 1): each end-to-end metric over the untraced pairs, run
    counts and traced medians."""
    summary: dict = {}
    for workload, scale in dict.fromkeys((r["workload"], r["scale"]) for r in records):
        mine = [r for r in records if (r["workload"], r["scale"]) == (workload, scale)]
        untraced = {side: [r for r in mine if not r["trace"] and r["side"] == side] for side in SIDES}
        by_seed = {side: {r["seed"]: r for r in runs} for side, runs in untraced.items()}
        seeds = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
        pairs = [(by_seed["parent"][s], by_seed["change"][s]) for s in seeds]
        usable = [(p, c) for p, c in pairs if p["result"]["metrics"] and c["result"]["metrics"]]
        entry: dict = {"pairs": len(pairs), "seeds": seeds}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if usable:
                entry[name] = compare([_value(p, name) for p, _ in usable], [_value(c, name) for _, c in usable],
                                      metric["better"], metric["bound"])
        entry["all_correct"] = all(r["result"]["correct"] for r in mine)
        entry["failed"] = {side: sum(r["result"]["failed"] for r in untraced[side]) for side in SIDES}
        entry["attempted"] = {side: sum(r["result"]["attempted"] for r in untraced[side]) for side in SIDES}
        traced = {side: [r for r in mine if r["trace"] and r["side"] == side and r["result"]["metrics"]]
                  for side in SIDES}
        if traced["parent"] and traced["change"]:
            entry["traced"] = {
                name: {side: round(statistics.median(_value(r, name) for r in traced[side]), 4) for side in SIDES}
                for name in traced["parent"][0]["result"]["metrics"]
            }
        summary[workload if scale == 1 else f"{workload} scale {scale:g}"] = entry
    return summary


def write_summary(args) -> None:
    with open(args.log, encoding="utf-8") as log:
        records = [json.loads(line) for line in log if line.strip()]
    with open(args.benchmark, encoding="utf-8") as f:
        benchmark = json.load(f)
    out = dict(note.split("=", 1) for note in args.note)
    out.update({
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1, run from each "
                   "checkout's root, one pair per seed and workload, parent first on odd seeds",
        "machine": f"{os.cpu_count()} cores, {platform.system()}, Python {platform.python_version()}",
        "quartiles": QUARTILES,
        "verdicts": VERDICTS,
        "summary": summarize(records, benchmark),
        "runs": records,
    })
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run pairs and append their records to the log")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--workloads", nargs="+", required=True)
    run.add_argument("--seeds", required=True, help="a range such as 2401-2410, or a comma list")
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--log", required=True)
    summary = commands.add_parser("summarize", help="write the summary of a log")
    summary.add_argument("--log", required=True)
    summary.add_argument("--benchmark", required=True)
    summary.add_argument("--out", required=True)
    summary.add_argument("--note", action="append", default=[], help="KEY=TEXT copied into the summary")
    args = parser.parse_args(argv)
    (run_pairs if args.command == "run" else write_summary)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
