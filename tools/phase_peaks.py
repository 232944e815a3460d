"""Per-phase process time and tracemalloc peaks of one `select` workload, in one process.

Usage, from the root of a source checkout:

    python3 tools/phase_peaks.py --workload select-both-o7 [--seed 0] [--scale 1]

The script writes the workload's inputs for the seed and scale with
``perfbench/workloads.py`` into a temporary directory and parses the
workload's `select` command line with the CLI's own parser, so every
setting is the one `select` would use. It then runs the pipeline's phases
one after another under tracemalloc: load (the in-domain sample and the
pool), ``extract_feature_set``, ``fit_idf`` and ``greedy_select``, then
``train_domain_pair`` and ``score_corpus`` for a `--method both` workload.

It prints one JSON line. For each phase it gives the process time, the
tracemalloc peak above what was traced when the phase began, and the MiB
still traced after it; beside them, the greedy's picks and gain
evaluations. tracemalloc slows every allocation, so the times are for
comparing phases and checkouts under the same tracing, not untraced runs.
Needs only the standard library, numpy and the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from subselect.cli import _resolve_budget, build_parser  # noqa: E402
from subselect.corpus import load_corpus  # noqa: E402
from subselect.features import extract_feature_set, fit_idf  # noqa: E402
from subselect.submodular import greedy_select  # noqa: E402
from subselect.xent import score_corpus, train_domain_pair  # noqa: E402

spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)

MIB = 2**20
SELECT_WORKLOADS = [name for name, w in workloads.WORKLOADS.items() if not w.staged]


@contextmanager
def _phase(phases: dict, label: str):
    """Time and trace the block as phase ``label``."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    began = time.process_time()
    yield
    cpu = time.process_time() - began
    live, peak = tracemalloc.get_traced_memory()
    phases[label] = {
        "cpu_s": round(cpu, 4),
        "peak_mib": round((peak - start) / MIB, 3),
        "live_mib": round(live / MIB, 3),
    }


def measure(name: str, seed: int, scale: float, work_dir: Path) -> dict:
    """The phases of workload ``name`` on its inputs for ``seed`` and ``scale``, written under ``work_dir``."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate(workload, seed, scale, work_dir)
    [argv] = workloads.commands(workload, inputs, work_dir / "out")
    args = build_parser()[0].parse_args(argv)
    phases: dict[str, dict] = {}
    tracemalloc.start()
    try:
        with _phase(phases, "load"):
            in_domain = load_corpus(args.in_domain_src, None, args.tokenizer)
            ground = load_corpus(args.ground_src, None, args.tokenizer)
        budget, cost_mode = _resolve_budget(args, ground)
        with _phase(phases, "extract_feature_set"):
            universe = extract_feature_set(in_domain, args.max_order, args.feature_weights)
        with _phase(phases, "fit_idf"):
            features = fit_idf(universe, ground)
        del universe  # as in `select`, only the fitted set lives on
        with _phase(phases, "greedy_select"):
            state = greedy_select(ground, features, args.concave, budget, cost_mode, args.variant)
        if args.method == "both":
            with _phase(phases, "train_domain_pair"):
                lm_in, lm_out = train_domain_pair(in_domain, ground, args.lm_order, args.lm_smoothing,
                                                  unk_floor=args.unk_floor)
            with _phase(phases, "score_corpus"):
                score_corpus(ground, lm_in, lm_out)
    finally:
        tracemalloc.stop()
    return {"workload": name, "seed": seed, "scale": scale, "phases": phases,
            "picks": len(state.selected), "gain_evals": state.gain_evaluations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=SELECT_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="phase-peaks-") as tmp:
        print(json.dumps(measure(args.workload, args.seed, args.scale, Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
