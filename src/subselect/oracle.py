"""Exhaustive test oracle and method-comparison metrics.

brute_force_optimal enumerates every budget-feasible subset, so it is
capped at 20 sentences and exists to verify the greedy's approximation
quality on desk-scale instances, not to select corpora. It scores every
subset that fits the budget as ``objective``, the reference definition
in ``submodular``, does (column masses in first-touch order, then its
``_weighted_sum``), never with the greedy's array kernel, so it checks
that kernel independently. The report scores every method with
``objective`` itself and builds each of its formats from ``MethodMetrics``' fields.
``compare_methods`` runs `select --method both`'s pipeline (``cli.run_select``)
and returns the report that `select` writes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, TokenStream
from .errors import SizeCapError
from .features import FeatureSet, FeatureVector, RelevanceRows, _check_fitted, _relevance, count_ngrams
from .features import relevance_rows
from .submodular import DEFAULT_CONCAVE, ConcaveSpec, check_budget, objective, sentence_costs
from .submodular import _corpus_costs, _entry_rows, _vector_instance, _weighted_sum

ORACLE_MAX_SENTENCES = 20
GUARANTEE_FLOOR = 0.63  # contractual pass line for the greedy/optimal ratio


# ---------------------------------------------------------------------------
# brute force


def _check_size(n: int) -> None:
    if n > ORACLE_MAX_SENTENCES:
        raise SizeCapError(f"the exhaustive oracle is a test tool capped at {ORACLE_MAX_SENTENCES} sentences, not {n}")


def _brute(rows: RelevanceRows, costs, concave, budget):
    """Depth-first over ascending ids, scoring each subset that fits as ``objective`` would: prefix
    masses plus the new row's, then ``_weighted_sum``. A budget of 0 selects nothing; any other
    is checked as the greedy checks it."""
    if budget != 0:
        check_budget(budget)
    n, weights = len(costs), rows.weights
    bounds, cols, vals = rows.indptr.tolist(), rows.cols.tolist(), rows.vals.tolist()
    pairs = [list(zip(cols[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    best_ids: tuple[int, ...] = ()
    best_f = 0.0

    def descend(start: int, spent: int, prefix: tuple[int, ...], mass: dict) -> None:
        nonlocal best_ids, best_f
        for idx in range(start, n):
            cost = costs[idx]
            if spent + cost > budget:
                continue
            grown = dict(mass)
            for col, val in pairs[idx]:
                grown[col] = grown.get(col, 0.0) + val
            touched = np.fromiter(grown, np.int64, len(grown))
            value = _weighted_sum(weights[touched], np.fromiter(grown.values(), np.float64, len(grown)), concave)
            ids = prefix + (idx,)
            if value > best_f or (value == best_f and (len(ids), ids) < (len(best_ids), best_ids)):
                best_ids, best_f = ids, value
            descend(idx + 1, spent + cost, ids, grown)

    descend(0, 0, (), {})
    return list(best_ids), best_f


def brute_force_optimal(
    ground: Corpus,
    features: FeatureSet,
    concave: ConcaveSpec = DEFAULT_CONCAVE,
    budget: float = 1,
    cost_mode: str = "words",
) -> tuple[list[int], float]:
    """Exact optimum by subset enumeration; ties prefer the smallest selection,
    then the lexicographically smallest id set. Refuses ground sets above 20
    sentences."""
    _check_size(len(ground))
    costs = _corpus_costs(ground, features, cost_mode)
    return _brute(relevance_rows(ground, features), costs, concave, budget)


def brute_force_vectors(
    vectors: Sequence[FeatureVector | Mapping],
    costs: Sequence[int],
    concave: ConcaveSpec = DEFAULT_CONCAVE,
    budget: float = 1,
    weights: Mapping | None = None,
) -> tuple[list[int], float]:
    """brute_force_optimal over explicit relevance vectors, checked as
    greedy_select_vectors checks them."""
    _check_size(len(vectors))
    plain, costs, weights = _vector_instance(vectors, costs, weights)
    return _brute(_entry_rows(plain, weights), costs, concave, budget)


# ---------------------------------------------------------------------------
# selection metrics


@dataclass(frozen=True)
class CoverageStats:
    coverage: float  # fraction of coverable universe features present in the selection
    redundancy: float  # 1 - distinct/total over the selection's n-gram tokens
    type_token_ratio: float  # distinct n-gram types / n-gram tokens
    distinct_ngrams: int
    total_ngrams: int


def coverage_report(ground: Corpus, selected_ids: Sequence[int], features: FeatureSet) -> CoverageStats:
    """Coverage of the feature universe and type/token redundancy of a selection.

    A feature is coverable if any ground sentence contains it (its
    doc_freq is positive); a coverable feature counts as covered when some
    selected sentence contains it, so coverage never exceeds 1. The
    redundancy measures repeated n-gram tokens (orders 1..max_order)
    inside the selection: a pile of K identical sentences has type/token
    ratio 1/K, hence redundancy 1 - 1/K.
    """
    _check_fitted(features)
    selection = ground.source.take(selected_ids)
    _, position, _ = features._index.pairs(selection)
    return _coverage(features, selection, position)


def _coverage(features: FeatureSet, selection: TokenStream, position: np.ndarray) -> CoverageStats:
    """coverage_report from the selection's (row, position) pairs."""
    coverable = features.doc_freq > 0
    covered = int(np.count_nonzero(coverable & (np.bincount(position, minlength=len(features)) > 0)))
    n_coverable = int(np.count_nonzero(coverable))
    types, tokens = count_ngrams(selection, features.max_order)
    coverage = (covered / n_coverable) if n_coverable else 0.0
    ttr = (types / tokens) if tokens else 0.0
    redundancy = 1.0 - ttr if tokens else 0.0
    return CoverageStats(coverage, redundancy, ttr, types, tokens)


@dataclass(frozen=True)
class MethodMetrics:
    method: str
    objective: float
    spent: int
    size: int
    coverage: float
    redundancy: float
    type_token_ratio: float


# every report format's metric columns, in field order after the method name
_METRICS = tuple(f.name for f in fields(MethodMetrics))[1:]
_TABLE_METRICS = _METRICS[:5]  # the stderr table stops before the type/token ratio


def _text(value, float_format: str = "{!r}") -> str:
    """A metric as report text: floats in ``float_format``, counts with ``str``."""
    return float_format.format(value) if isinstance(value, float) else str(value)


@dataclass
class ComparisonReport:
    budget: float
    cost_mode: str
    methods: list[MethodMetrics]
    optimal_objective: float | None = None
    optimal_ids: list[int] | None = None
    greedy_ratio: float | None = None

    def to_keyvalue_lines(self) -> list[str]:
        lines = [f"budget={self.budget!r}", f"cost_mode={self.cost_mode}"]
        for m in self.methods:
            lines += [f"{m.method}.{name}={_text(getattr(m, name))}" for name in _METRICS]
        if self.optimal_objective is not None:
            lines.append(f"oracle.optimal_objective={self.optimal_objective!r}")
            lines.append(f"oracle.optimal_ids={' '.join(str(i) for i in self.optimal_ids)}")
        if self.greedy_ratio is not None:
            lines.append(f"oracle.ratio={self.greedy_ratio!r}")
        return lines

    def to_csv_lines(self) -> list[str]:
        rows = [",".join(["method", *_METRICS, "oracle_ratio"])]
        for m in self.methods:
            ratio = repr(self.greedy_ratio) if self.greedy_ratio is not None and m.method == "submod" else ""
            rows.append(",".join([m.method, *(_text(getattr(m, name)) for name in _METRICS), ratio]))
        return rows

    def format_table(self) -> str:
        rows = [["method", *_TABLE_METRICS]]
        for m in self.methods:
            rows.append([m.method, *(_text(getattr(m, name), "{:.4f}") for name in _TABLE_METRICS)])
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        out = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
        if self.optimal_objective is not None:
            out.append(
                f"oracle optimum {self.optimal_objective:.4f}"
                + (f", greedy ratio {self.greedy_ratio:.4f}" if self.greedy_ratio is not None else "")
            )
        return "\n".join(out)


def method_metrics(
    ground: Corpus,
    features: FeatureSet,
    concave: ConcaveSpec,
    method: str,
    selected_ids: Sequence[int],
    cost_mode: str,
) -> MethodMetrics:
    """Objective, spent cost, and coverage stats for one finished selection.

    The objective is ``objective`` over the selection's feature vectors
    in selection order, so it equals ``evaluate`` bit for bit. The
    feature set must be fitted.
    """
    _check_fitted(features)
    selection = ground.source.take(selected_ids)
    spent = int(sentence_costs(selection, cost_mode).sum())
    pairs = features._index.pairs(selection)
    _, feature, relevance = _relevance(features, pairs)
    value = objective(feature, relevance, features.weight, concave)
    stats = _coverage(features, selection, pairs[1])
    return MethodMetrics(
        method, value, spent, len(selected_ids), stats.coverage, stats.redundancy, stats.type_token_ratio
    )


def build_report(
    ground: Corpus,
    features: FeatureSet,
    concave: ConcaveSpec,
    selections: Sequence[tuple[str, Sequence[int]]],
    budget: float,
    cost_mode: str,
) -> ComparisonReport:
    """Assemble a ComparisonReport from finished selections.

    The oracle fields are filled exactly when the budget is positive and
    the ground set is small enough to enumerate. A budget of 0 stands for
    an unknown one (``report`` knows none), with no optimum to compare
    against; any other must pass ``check_budget``, so NaN raises.
    """
    if budget != 0:
        check_budget(budget)
    report = ComparisonReport(
        budget=float(budget),
        cost_mode=cost_mode,
        methods=[
            method_metrics(ground, features, concave, name, ids, cost_mode)
            for name, ids in selections
        ],
    )
    if budget > 0 and len(ground) <= ORACLE_MAX_SENTENCES:
        optimal_ids, optimal_f = brute_force_optimal(ground, features, concave, budget, cost_mode)
        report.optimal_objective = optimal_f
        report.optimal_ids = optimal_ids
        for m in report.methods:
            if m.method == "submod" and optimal_f > 0:
                report.greedy_ratio = m.objective / optimal_f
    return report


def compare_methods(
    ground: Corpus,
    in_domain: Corpus,
    budget: float,
    cost_mode: str = "words",
    concave: ConcaveSpec = DEFAULT_CONCAVE,
    max_order: int = 7,
    feature_weighting: str = "uniform",
    variant: str = "lazy",
    lm_order: int = 4,
    lm_smoothing: str = "interpolated-wb",
    unk_floor: int = 1,
) -> ComparisonReport:
    """Run `select --method both`'s pipeline and return the report `select` writes."""
    # not at load: `import subselect` must not load subselect.cli, or `python -m subselect.cli` warns
    from .cli import run_select
    return run_select(ground, in_domain, "both", budget, cost_mode, concave, max_order, feature_weighting,
                      variant, lm_order, lm_smoothing, unk_floor)[2]
