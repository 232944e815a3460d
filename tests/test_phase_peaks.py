"""``tools/phase_peaks.py`` at a tiny scale: one JSON line, every phase `select` calls, the
greedy's counts equal to those the `select` command reports on the same inputs, and
``subselect.cli`` left as the tool found it."""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from subselect import cli
from subselect.cli import main
from subselect.errors import SubselectError

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("phase_peaks", ROOT / "tools" / "phase_peaks.py")
phase_peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(phase_peaks)  # main runs only as a script

SUBMOD = ["load_corpus", "extract_feature_set", "fit_idf", "greedy_select"]


@pytest.mark.parametrize(
    "name, phases",
    [("select-both-o7", [*SUBMOD, "train_domain_pair", "score_corpus", "rank_and_select", "build_report"]),
     ("submod-o1-dup", SUBMOD)],
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


def test_leaves_cli_as_it_found_it_and_names_a_failing_workload(tmp_path, monkeypatch):
    before = {name: getattr(cli, name) for name in phase_peaks.PHASES}
    phase_peaks.measure("submod-o1-dup", 3, 0.01, tmp_path / "ok")
    assert {name: getattr(cli, name) for name in phase_peaks.PHASES} == before

    def broken(*args, **kwargs):
        raise SubselectError("broken ranking")

    monkeypatch.setattr(cli, "rank_and_select", broken)
    before = {name: getattr(cli, name) for name in phase_peaks.PHASES}
    with pytest.raises(RuntimeError, match="select-both-o7"):
        phase_peaks.measure("select-both-o7", 3, 0.01, tmp_path / "failed")
    assert {name: getattr(cli, name) for name in phase_peaks.PHASES} == before
    assert not tracemalloc.is_tracing()


def test_prints_one_json_line(capsys):
    assert phase_peaks.main(["--workload", "submod-o1-dup", "--scale", "0.01"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert json.loads(line)["workload"] == "submod-o1-dup"
