"""Smoke test of the benchmark itself, at a tiny input size.

Run from the root of a checkout:  python3 perfbench/smoke.py

For every workload it runs the benchmark twice untraced and once traced,
and checks that each run is correct, that the three runs print the same
output digests, and that the metric names and units in the result line
are exactly those that BENCHMARK.json declares. It also checks that the
staged chain and the one-shot select print the same xent.scores.tsv
digest for one seed, and that the benchmark refuses to run, with a
non-zero exit, in a directory without the subselect sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SEED = "3"
SCALE = "0.02"


def run(workload: str, trace: int, cwd: Path) -> tuple[dict, dict[str, str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
         "--seconds", "0.5", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[:1] == ["digest"]:
            found[parts[1]] = parts[2]
    return result, found


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    def expect(cond: bool, message: str) -> None:
        if not cond:
            failures.append(message)
            print("FAIL", message)

    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    scores = {}
    for name in WORKLOADS:
        digests = []
        for trace in (0, 0, 1):
            result, found = run(name, trace, root)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared[trace], f"{name} trace {trace}: metrics {units} "
                                             f"differ from BENCHMARK.json {declared[trace]}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: {result['failed']} of {result['attempted']} failed")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace {trace}: a metric value is not a number")
            expect(bool(found), f"{name} trace {trace}: no output digests printed")
            digests.append(found)
        expect(digests[0] == digests[1] == digests[2], f"{name}: digests differ between runs")
        scores[name] = digests[0].get("xent.scores.tsv")
        print(f"ok {name}")
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["digests"]
    expect(reference["staged-files"]["xent.scores.tsv"]
           == reference["select-both-o7"]["xent.scores.tsv"],
           "reference digests: staged and one-shot xent.scores.tsv differ")
    expect(scores["staged-files"] is not None
           and scores["staged-files"] == scores["select-both-o7"],
           "staged score output differs from the one-shot xent.scores.tsv")

    bare = root / ".perfbench-work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(spec["command"] + ["--workload", "select-both-o7", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "the benchmark ran without the subselect sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()

    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
