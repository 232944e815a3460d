"""File writers for selection results, scores, and comparison reports.

Everything here is deterministic: floats are written with repr (shortest
round-trip form), lines end with a bare newline, and no timestamps or
environment details leak into the files.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import Corpus, read_lines
from .errors import ConfigError
from .oracle import ComparisonReport
from .submodular import SelectionState
from .xent import ScoredSentence


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_selection_tsv(path, state: SelectionState) -> None:
    """One line per pick: rank, sentence id, gain, cumulative cost."""
    with _open_w(path) as fh:
        for rank, step in enumerate(state.trajectory, start=1):
            fh.write(f"{rank}\t{step.sentence_id}\t{step.gain!r}\t{step.cumulative_cost}\n")


def write_selected_corpus(ground: Corpus, selected_ids: Sequence[int], src_path, tgt_path=None) -> None:
    """Re-emit the chosen sentences, in selection order, as aligned files."""
    sides = [(src_path, ground.source)]
    if tgt_path is not None:
        sides.append((tgt_path, ground.target))
    for path, stream in sides:
        with _open_w(path) as fh:
            fh.writelines(" ".join(tokens) + "\n" for tokens in stream.take(selected_ids).texts())


def write_summary(path, state: SelectionState, method: str) -> None:
    with _open_w(path) as fh:
        fh.write(f"method={method}\n")
        if method == "submod":
            fh.write(f"variant={state.variant}\n")
            fh.write(f"objective={state.objective!r}\n")
        fh.write(f"spent={state.spent}\n")
        fh.write(f"iterations={len(state.selected)}\n")
        if method == "submod":
            fh.write(f"recomputes={state.gain_evaluations}\n")
        fh.write(f"budget={state.budget!r}\n")
        fh.write(f"cost_mode={state.cost_mode}\n")


def write_scores_tsv(path, scores: Sequence[ScoredSentence]) -> None:
    """Score dump: sentence id, score, source length; one line per sentence."""
    with _open_w(path) as fh:
        for s in scores:
            fh.write(f"{s.id}\t{s.score!r}\t{s.length}\n")


def write_report_files(report: ComparisonReport, txt_path, csv_path) -> None:
    with _open_w(txt_path) as fh:
        for line in report.to_keyvalue_lines():
            fh.write(line + "\n")
    with _open_w(csv_path) as fh:
        for line in report.to_csv_lines():
            fh.write(line + "\n")


def read_selection_ids(path) -> dict[int, int]:
    """Sentence ids from a selection TSV, in selection order, each mapped to its line."""
    ids: dict[int, int] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split("\t")
        if parts == [""]:
            continue
        if len(parts) < 2 or not parts[1].isdecimal():
            raise ConfigError(f"{path} line {lineno}: column 2 is not a sentence id")
        sid = int(parts[1])
        if sid in ids:
            raise ConfigError(f"{path} line {lineno}: sentence {sid} was already selected on line {ids[sid]}")
        ids[sid] = lineno
    return ids
