"""``tools/phase_peaks.py`` at a tiny scale: one JSON line, every phase, and the
greedy's counts equal to those the `select` command reports on the same inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

from subselect.cli import main

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("phase_peaks", ROOT / "tools" / "phase_peaks.py")
phase_peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(phase_peaks)  # main runs only as a script

SUBMOD = ["load", "extract_feature_set", "fit_idf", "greedy_select"]


@pytest.mark.parametrize(
    "name, phases",
    [("select-both-o7", [*SUBMOD, "train_domain_pair", "score_corpus"]), ("submod-o1-dup", SUBMOD)],
)
def test_counts_are_those_select_reports(name, phases, tmp_path):
    got = phase_peaks.measure(name, 3, 0.02, tmp_path)
    assert list(got["phases"]) == phases
    for phase in got["phases"].values():
        assert set(phase) == {"cpu_s", "peak_mib", "live_mib"}
        assert min(phase.values()) >= 0.0
    assert got["phases"]["greedy_select"]["peak_mib"] > 0.0

    # `select` on the very inputs the script wrote
    workload = phase_peaks.workloads.WORKLOADS[name]
    inputs = phase_peaks.workloads.generate(workload, 3, 0.02, tmp_path / "again")
    [argv] = phase_peaks.workloads.commands(workload, inputs, tmp_path / "out")
    assert main(argv) == 0
    summary = dict(line.split("=", 1) for line in (tmp_path / "out" / "submod.summary.txt").read_text().splitlines())
    assert (got["picks"], got["gain_evals"]) == (int(summary["iterations"]), int(summary["recomputes"]))
    assert got["picks"] > 0


def test_prints_one_json_line(capsys):
    assert phase_peaks.main(["--workload", "submod-o1-dup", "--scale", "0.01"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert json.loads(line)["workload"] == "submod-o1-dup"
