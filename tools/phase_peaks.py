"""Per-phase process time and tracemalloc peaks of one `select` workload, in one process.

Usage, from the root of a source checkout:

    python3 tools/phase_peaks.py --workload select-both-o7 [--seed 0] [--scale 1]

The script writes the workload's inputs for the seed and scale with
``perfbench/workloads.py`` into a temporary directory and runs its `select`
command line through ``cli.main``, each phase function patched in
``subselect.cli``'s namespace as ``perfbench/traced.py`` patches the layers.
So it measures the calls `select` makes: ``load_corpus`` (the pool and the
in-domain sample), ``extract_feature_set``, ``fit_idf``, ``greedy_select``
and, for a `--method both` workload, ``train_domain_pair``,
``score_corpus``, ``rank_and_select`` and ``build_report``.

It prints one JSON line. For each phase it gives the process time, the
tracemalloc peak above what was traced when the phase began, and the MiB
still traced after it; a phase called twice sums its time and keeps the
larger peak. Beside them it gives the greedy's picks and gain
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
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from subselect import cli  # noqa: E402

spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)

MIB = 2**20
SELECT_WORKLOADS = [name for name, w in workloads.WORKLOADS.items() if not w.staged]
PHASES = ("load_corpus", "extract_feature_set", "fit_idf", "greedy_select",
          "train_domain_pair", "score_corpus", "rank_and_select", "build_report")


def _phased(fn, name: str, phases: dict, greedy: dict):
    """``fn`` timed and traced as phase ``name``; the greedy's counts go to ``greedy``."""
    def phase(*args, **kwargs):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        began = time.process_time()
        result = fn(*args, **kwargs)
        cpu = time.process_time() - began
        live, peak = tracemalloc.get_traced_memory()
        seen = phases.setdefault(name, {"cpu_s": 0.0, "peak_mib": 0.0})
        seen["cpu_s"] = round(seen["cpu_s"] + cpu, 4)
        seen["peak_mib"] = max(seen["peak_mib"], round((peak - start) / MIB, 3))
        seen["live_mib"] = round(live / MIB, 3)
        if name == "greedy_select":
            greedy.update(picks=len(result.selected), gain_evals=result.gain_evaluations)
        return result
    return phase


def measure(name: str, seed: int, scale: float, work_dir: Path) -> dict:
    """The phases of workload ``name`` on its inputs for ``seed`` and ``scale``, written under ``work_dir``."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate(workload, seed, scale, work_dir)
    [argv] = workloads.commands(workload, inputs, work_dir / "out")
    phases: dict[str, dict] = {}
    greedy: dict[str, int] = {}
    wrapped = {attr: _phased(getattr(cli, attr), attr, phases, greedy) for attr in PHASES}
    tracemalloc.start()
    try:
        with mock.patch.multiple(cli, **wrapped):
            rc = cli.main(argv)
    finally:
        tracemalloc.stop()
    if rc != 0:
        raise RuntimeError(f"select exited {rc} on workload {name}")
    return {"workload": name, "seed": seed, "scale": scale, "phases": phases, **greedy}


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
