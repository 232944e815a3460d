"""Traced run of one `subselect` command.

Usage: python3 traced.py SPANS_JSON SUBCOMMAND ARGS...

Every layer function that `subselect.cli` imports is replaced, in the
cli module's namespace, by a wrapper that records a span (name, start,
end, parent), ``ru_maxrss`` before and after the call, and the layer's
work counters read from the call's return value or output paths. Then
`subselect.cli.main` runs the command, so the CLI's own handlers decide
what is called and in which order. Spans stay in memory and are written
as JSON when the command ends. The outputs are the CLI's own, so the
caller can compare their digests.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

from subselect import cli


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _file_bytes(args) -> int:
    """Total size of the arguments that name files, read after a writer ran."""
    return sum(os.path.getsize(a) for a in args
               if isinstance(a, (str, os.PathLike)) and os.path.isfile(a))


def _ngrams(*models) -> int:
    return sum(len(table) for lm in models for table in lm.counts.values())


def _features(features, args) -> dict:
    infos = features.features.values()
    return {
        "universe": len(features),
        "active": sum(1 for i in infos if i.idf is not None and i.idf > 0.0),
        "idf_none": sum(1 for i in infos if i.idf is None),
    }


def _greedy(state, args) -> dict:
    return {
        "gain_evals": state.gain_evaluations,
        "picks": len(state.selected),
        "max_evals_per_step": max(state.evaluations_per_step, default=0),
    }


def _written(result, args) -> dict:
    return {"bytes": _file_bytes(args)}


# name in subselect.cli -> (span name, counters from (return value, arguments))
SPANS = {
    "load_corpus": ("corpus.load", None),
    "extract_feature_set": ("features.extract", None),
    "fit_idf": ("features.fit_idf", _features),
    "save_feature_set": ("features.save", None),
    "load_feature_set": ("features.load", None),
    "greedy_select": ("submodular.select", _greedy),
    "corpus_vocab": ("lm.train", None),
    "train_lm": ("lm.train", lambda lm, args: {"ngrams": _ngrams(lm)}),
    "train_domain_pair": ("lm.train", lambda pair, args: {"ngrams": _ngrams(*pair)}),
    "save_lm": ("lm.save", _written),
    "load_lm": ("lm.load", None),
    "score_corpus": ("xent.score", None),
    "rank_and_select": ("xent.rank", None),
    "build_report": ("oracle.report", None),
    "write_selection_tsv": ("output.write", _written),
    "write_selected_corpus": ("output.write", _written),
    "write_summary": ("output.write", _written),
    "write_scores_tsv": ("output.write", _written),
    "write_report_files": ("output.write", _written),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "rss_before_mb": _rss_mb(),
                "counters": {},
            }
            self.spans.append(rec)
            self._stack.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
                rec["rss_mb"] = _rss_mb()
            if counters:
                rec["counters"] = counters(result, args)
            return result
        return traced


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tr = Tracer()
    for attr, (name, counters) in SPANS.items():
        setattr(cli, attr, tr.wrap(getattr(cli, attr), name, counters))
    try:
        return cli.main(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
