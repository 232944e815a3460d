"""Benchmark of the `subselect` command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's inputs from the seed, measures the set-up
cost (a fresh interpreter importing `subselect` and loading the inputs),
then runs the workload's CLI processes one at a time, with `--threads 1`,
until S seconds have passed. Every iteration's output files are hashed
and checked. With `--trace 1` untraced iterations alternate with traced
ones (traced.py, one process per command), which run the CLI's own
handlers with each layer's public functions wrapped in timing spans.

Per-child wall time, peak RSS and CPU come from `os.wait4`, so one
child's peak never leaks into another's. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`. The lines above it print every metric with its unit, the
tracing overhead and the output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_outputs, digests
from workloads import WORKLOADS, Inputs, Workload, commands, generate

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stop starting work before that
SETUP_SPAWNS = 7

END_TO_END = {
    "wall_s": "s",
    "words_per_s": "words/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = ("corpus", "features", "submodular", "lm", "xent", "oracle", "output")
# span name (layer.function) -> its self time is reported as <span>_s
TIMED_SPANS = (
    "corpus.load",
    "features.extract", "features.fit_idf", "features.save", "features.load",
    "submodular.select",
    "lm.train", "lm.save", "lm.load",
    "xent.score", "xent.rank",
    "oracle.report",
    "output.write",
)
PER_LAYER = {
    **{f"{span}_s": "s" for span in TIMED_SPANS},
    "features.universe": "count",
    "features.active": "count",
    "features.idf_none": "count",
    "submodular.gain_evals": "count",
    "submodular.picks": "count",
    "submodular.picks_per_eval": "ratio",
    "submodular.max_evals_per_step": "count",
    "lm.ngrams": "count",
    "lm.file_mb": "MB",
    "output.bytes": "bytes",
    **{f"{layer}.peak_rss_mb": "MB" for layer in LAYERS},
    **{f"{layer}.rss_rise_mb": "MB" for layer in LAYERS},
    "cli.cpu_s": "s",
    "cli.overhead_s": "s",
}

SETUP_CODE = "import sys, subselect\nfor path in sys.argv[1:]:\n    subselect.load_corpus(path)\n"


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


@dataclass
class Iteration:
    ok: bool
    wall_s: float
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    digests: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    log: str = ""


class Runner:
    """Spawns one child at a time and accounts for it through os.wait4."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(self, argv: list[str], log: Path) -> Child:
        start = time.perf_counter()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)

    def iteration(self, argv_list: list[list[str]], out: Path, traced: bool) -> Iteration:
        """Run the commands in order, one process each, stopping at a failure.

        Untraced, each is a `subselect` CLI process; traced, each is a
        traced.py run of the same command, whose spans are collected.
        """
        out.mkdir(parents=True)
        log = out.with_suffix(".log")
        spans_path = out.with_suffix(".spans.json")
        if traced:
            prefix = [sys.executable, str(HERE / "traced.py"), str(spans_path)]
        else:
            prefix = [sys.executable, "-m", "subselect.cli"]
        children, spans = [], []
        for argv in argv_list:
            children.append(self.spawn(prefix + argv, log))
            if children[-1].code != 0:
                return Iteration(False, sum(c.wall_s for c in children), log=_tail(log))
            if traced:
                offset = len(spans)
                for s in json.loads(spans_path.read_text(encoding="utf-8")):
                    s["id"] += offset
                    s["parent"] = None if s["parent"] is None else s["parent"] + offset
                    spans.append(s)
        return Iteration(
            True,
            wall_s=sum(c.wall_s for c in children),
            peak_rss_mb=max(c.peak_rss_mb for c in children),
            cpu_s=sum(c.cpu_s for c in children),
            digests=digests(out),
            spans=spans,
        )

    def setup_s(self, inputs: Inputs, work: Path) -> float:
        """Median time for a fresh interpreter to import subselect and load the inputs."""
        argv = [sys.executable, "-c", SETUP_CODE, str(inputs.pool), str(inputs.in_domain)]
        times = []
        for k in range(SETUP_SPAWNS + 1):  # the first spawn fills the bytecode cache
            child = self.spawn(argv, work / "setup.log")
            if child.code != 0:
                raise RuntimeError(f"set-up spawn failed:\n{_tail(work / 'setup.log')}")
            if k:
                times.append(child.wall_s)
        return statistics.median(times)


def _tail(path: Path, lines: int = 20) -> str:
    return "\n".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def layer_metrics(spans: list[dict]) -> tuple[dict, float]:
    """Per-layer self times, counters and RSS of one traced iteration.

    `<layer>.peak_rss_mb` is the process's peak so far after the layer's
    last call; `<layer>.rss_rise_mb` is how much the layer's calls raised
    that peak. Returns the metrics and the traced layer total (the self
    time of every span).
    """
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    peaks: dict[str, float] = {}
    rises: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + (s["end"] - s["start"]) - covered[s["id"]]
        layer = name.split(".")[0]
        peaks[layer] = max(peaks.get(layer, 0.0), s["rss_mb"])
        rises[layer] = rises.get(layer, 0.0) + s["rss_mb"] - s["rss_before_mb"]
        for key, value in s["counters"].items():
            full = f"{layer}.{key}"
            counters[full] = max(counters.get(full, 0), value) if key.startswith("max_") else (
                counters.get(full, 0) + value)
    m = {f"{span}_s": self_s.get(span, 0.0) for span in TIMED_SPANS}
    for key in ("features.universe", "features.active", "features.idf_none",
                "submodular.gain_evals", "submodular.picks", "submodular.max_evals_per_step",
                "lm.ngrams"):
        m[key] = counters.get(key, 0)
    evals = m["submodular.gain_evals"]
    m["submodular.picks_per_eval"] = m["submodular.picks"] / evals if evals else 0.0
    m["lm.file_mb"] = counters.get("lm.bytes", 0) / 2**20
    m["output.bytes"] = counters.get("output.bytes", 0)
    for layer in LAYERS:
        m[f"{layer}.peak_rss_mb"] = peaks.get(layer, 0.0)
        m[f"{layer}.rss_rise_mb"] = rises.get(layer, 0.0)
    traced_total = sum(self_s.values())
    return m, traced_total


def load_reference(workload: Workload, seed: int, scale: float) -> dict | None:
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if ref["seed"] != seed or ref["scale"] != scale:
        return None
    return ref["digests"].get(workload.name)


def bench(args, root: Path, work: Path) -> dict:
    started = time.monotonic()
    runner = Runner(root, started + RUN_LIMIT_S)
    workload = WORKLOADS[args.workload]
    inputs = generate(workload, args.seed, args.scale, work / "inputs")
    argv_list = commands(workload, inputs, work / "out")
    setup_s = runner.setup_s(inputs, work)

    expected = load_reference(workload, args.seed, args.scale)
    problems: list[str] = []
    checked = False
    attempted = failed = 0
    untraced: list[Iteration] = []
    traced: list[Iteration] = []

    def account(it: Iteration, kind: str) -> None:
        nonlocal expected, checked, attempted, failed
        attempted += 1
        if it.ok and expected is None:
            expected = it.digests
        if it.ok and not checked:
            checked = True
            problems.extend(check_outputs(workload, inputs, work / "out"))
        if not it.ok:
            print(f"{kind} iteration {attempted} failed:\n{it.log}", file=sys.stderr)
        elif it.digests != expected:
            print(f"{kind} iteration {attempted}: output digests differ from the expected ones",
                  file=sys.stderr)
        if not it.ok or it.digests != expected or problems:
            failed += 1

    measure_until = time.monotonic() + args.seconds
    while True:
        begun = time.monotonic()
        it = runner.iteration(argv_list, work / "out", traced=False)
        account(it, "untraced")
        untraced.append(it)
        shutil.rmtree(work / "out")
        if args.trace:
            it = runner.iteration(argv_list, work / "out", traced=True)
            account(it, "traced")
            traced.append(it)
            shutil.rmtree(work / "out")
        now = time.monotonic()
        if now >= measure_until or now + 2 * (now - begun) > runner.deadline:
            break

    if workload.staged and expected is not None:
        # the staged chain must score exactly like the one-shot `select --method xent`
        attempted += 1
        one_shot = runner.iteration([[
            "select", "--method", "xent", "--threads", "1",
            "--budget-words", str(inputs.budget_words), "--in-domain-src", str(inputs.in_domain),
            "--ground-src", str(inputs.pool), "--out-dir", str(work / "one-shot")]],
            work / "one-shot", traced=False)
        if not one_shot.ok or one_shot.digests.get("xent.scores.tsv") != expected["xent.scores.tsv"]:
            failed += 1
            problems.append("staged score output differs from the one-shot xent.scores.tsv")

    ok = [it for it in untraced if it.ok] or untraced
    wall_s = statistics.median(it.wall_s for it in ok)
    e2e = {
        "wall_s": wall_s,
        "words_per_s": inputs.pool_words / wall_s,
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in ok),
        "setup_s": setup_s,
    }
    lines = [f"workload {workload.name} seed {args.seed}: {inputs.pool_words} pool words, "
             f"budget {inputs.budget_words} words, {len(untraced)} untraced and "
             f"{len(traced)} traced iteration(s)"]
    lines += [f"  {name:32s} {value!r} {END_TO_END[name]}" for name, value in e2e.items()]
    lines.append(f"  {'failed_frac':32s} {failed / attempted!r} ({failed} of {attempted})")

    metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()}
    if args.trace:
        per_run = [layer_metrics(it.spans) for it in traced if it.ok]
        if per_run:
            layers = {k: statistics.median_low(m[k] for m, _ in per_run) for k in per_run[0][0]}
            traced_total = statistics.median_low(t for _, t in per_run)
            traced_wall = statistics.median(it.wall_s for it in traced if it.ok)
        else:
            layers = {k: 0.0 for k in PER_LAYER if not k.startswith("cli.")}
            traced_total = traced_wall = 0.0
        layers["cli.cpu_s"] = statistics.median(it.cpu_s for it in ok)
        layers["cli.overhead_s"] = wall_s - traced_total
        lines.append(f"  tracing: layer spans total {traced_total!r} s of a traced process "
                     f"wall {traced_wall!r} s, untraced wall_s {wall_s!r} s")
        lines += [f"  {name:32s} {layers[name]!r} {unit}" for name, unit in PER_LAYER.items()]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    lines += [f"  digest {name} {sha}" for name, sha in sorted((expected or {}).items())]
    lines += [f"  problem: {p}" for p in problems]
    print("\n".join(lines))
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply pool sizes (smoke tests use a small value)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "subselect" / "cli.py").is_file():
        print("error: run from the root of a subselect checkout (src/subselect not found)",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = bench(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
