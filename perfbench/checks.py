"""Output checks that hold for any seed, independent of reference digests.

Each check returns a list of problems; an empty list means the outputs
of one iteration are consistent with the inputs and with each other.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from workloads import TOKENS_PER_SENTENCE, Inputs, Workload


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out_dir``, keyed by relative path."""
    result = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        result[path.relative_to(out_dir).as_posix()] = h.hexdigest()
    return result


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _keyvalues(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines())


def _check_selection(prefix: str, out: Path, inputs: Inputs, problems: list[str]) -> list[int]:
    rows = _rows(out / f"{prefix}.selection.tsv")
    ids = [int(r[1]) for r in rows]
    n = len(inputs.pool_lines)
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append(f"{prefix}: ranks are not 1..{len(rows)}")
    if len(set(ids)) != len(ids) or any(not 0 <= i < n for i in ids):
        problems.append(f"{prefix}: ids repeat or fall outside the pool")
        return ids
    cumulative = [int(r[3]) for r in rows]
    if cumulative != [TOKENS_PER_SENTENCE * (k + 1) for k in range(len(rows))]:
        problems.append(f"{prefix}: cumulative costs do not add up")
    if cumulative and cumulative[-1] > inputs.budget_words:
        problems.append(f"{prefix}: spent {cumulative[-1]} over budget {inputs.budget_words}")
    selected = (out / f"{prefix}.selected.src").read_text(encoding="utf-8").splitlines()
    if selected != [inputs.pool_lines[i] for i in ids]:
        problems.append(f"{prefix}: selected corpus does not match the selected ids")
    summary = _keyvalues(out / f"{prefix}.summary.txt")
    if int(summary["iterations"]) != len(ids) or int(summary["spent"]) != (cumulative or [0])[-1]:
        problems.append(f"{prefix}: summary disagrees with the selection")
    return ids


def _check_submod(out: Path, inputs: Inputs, problems: list[str]) -> None:
    _check_selection("submod", out, inputs, problems)
    gains = [float(r[2]) for r in _rows(out / "submod.selection.tsv")]
    if not gains or any(not g > 0.0 for g in gains):
        problems.append("submod: empty selection or a non-positive gain")
    # all costs are equal, so the greedy's gain-per-cost order is its gain order
    if any(b > a * (1 + 1e-9) for a, b in zip(gains, gains[1:])):
        problems.append("submod: gains increase along the selection")


def _check_scores(out: Path, inputs: Inputs, problems: list[str]) -> list[tuple[float, int]]:
    rows = _rows(out / "xent.scores.tsv")
    n = len(inputs.pool_lines)
    if [int(r[0]) for r in rows] != list(range(n)) or any(int(r[2]) != TOKENS_PER_SENTENCE for r in rows):
        problems.append("xent: score file does not list every pool sentence with its length")
    scored = [(float(r[1]), int(r[0])) for r in rows]
    if any(not math.isfinite(s) for s, _ in scored):
        problems.append("xent: a score is not finite")
    return scored


def _check_xent(out: Path, inputs: Inputs, problems: list[str]) -> None:
    scored = _check_scores(out, inputs, problems)
    ids = _check_selection("xent", out, inputs, problems)
    ranked = [sid for _, sid in sorted(scored, key=lambda p: (-p[0], p[1]))]
    take = min(len(ranked), inputs.budget_words // TOKENS_PER_SENTENCE)
    if ids != ranked[:take]:
        problems.append("xent: selection is not the longest ranking prefix within budget")


def _check_report(out: Path, expected: dict[str, list[int]], problems: list[str]) -> None:
    report = _keyvalues(out / "report.txt")
    for method, ids in expected.items():
        if int(report[f"{method}.size"]) != len(ids) or (
            int(report[f"{method}.spent"]) != TOKENS_PER_SENTENCE * len(ids)
        ):
            problems.append(f"report: {method} size or spent disagrees with its selection")
    csv_methods = [line.split(",")[0] for line in (out / "report.csv").read_text().splitlines()[1:]]
    if csv_methods != list(expected):
        problems.append("report: csv rows do not match the methods")


def check_outputs(workload: Workload, inputs: Inputs, out: Path) -> list[str]:
    problems: list[str] = []
    try:
        if workload.staged:
            _check_scores(out, inputs, problems)
            header = (out / "features.tsv").read_text(encoding="utf-8").split("\n", 2)[1]
            if header.split("\t")[:2] != ["7", str(len(inputs.pool_lines))]:
                problems.append("features: header does not record order 7 and the pool size")
            given = [int(r[1]) for r in _rows(inputs.selection)]
            _check_report(out, {"given": given}, problems)
            return problems
        expected = {}
        if "submod" in workload.select_args or "both" in workload.select_args:
            _check_submod(out, inputs, problems)
            expected["submod"] = [int(r[1]) for r in _rows(out / "submod.selection.tsv")]
        if "both" in workload.select_args:
            _check_xent(out, inputs, problems)
            expected["xent"] = [int(r[1]) for r in _rows(out / "xent.selection.tsv")]
            _check_report(out, expected, problems)
            summary = _keyvalues(out / "submod.summary.txt")
            report = _keyvalues(out / "report.txt")
            if not math.isclose(float(summary["objective"]), float(report["submod.objective"]),
                                rel_tol=1e-9):
                problems.append("report: submod objective disagrees with the greedy's")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
