"""Budgeted greedy maximization of a concave-saturated coverage objective.

The objective of a selection X is

    f(X) = sum over features u of  w_u * phi(sum over x in X of m_u(x))

where m_u(x) is the sentence's relevance to u (count * idf) and phi is a
non-negative, non-decreasing concave curve with phi(0) = 0. Concavity
makes repeated mass on the same feature worth less and less, which is
what pushes the greedy away from near-duplicates; it also makes f
monotone submodular, so the classic greedy enjoys the (1 - 1/e)
worst-case guarantee on unit-cost instances.

Both greedy variants pick, among the sentences that still fit the
budget, the one maximizing marginal gain divided by cost, never
overspending. The lazy variant keeps stale gain ratios in a max-heap:
because gains only shrink as the selection grows, a stale value is an
upper bound, and an entry that is still on top after recomputation is
safe to take. Trajectories of the two variants are identical.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Sentence
from .errors import ConfigError, StateError
from .features import FeatureSet, FeatureVector, RelevanceRows, featurize, relevance_rows

logger = logging.getLogger(__name__)

COST_MODES = ("words", "unit")
VARIANTS = ("naive", "lazy")


@dataclass(frozen=True)
class ConcaveSpec:
    """A concave saturation curve: power (t ** alpha) or log1p (ln(1 + t)).

    alpha must lie in (0, 1]; the default power 0.5 is a square root.
    """

    kind: str = "power"
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("power", "log1p"):
            raise ConfigError(f"unknown concave curve {self.kind!r}; expected power or log1p")
        if self.kind == "power" and not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"power exponent must be in (0, 1], got {self.alpha}")

    @property
    def is_identity(self) -> bool:
        return self.kind == "power" and self.alpha == 1.0

    def apply(self, t):
        """Evaluate the curve on a scalar or numpy array of masses >= 0."""
        if self.kind == "log1p":
            return np.log1p(t)
        if self.alpha == 0.5:
            return np.sqrt(t)
        if self.alpha == 1.0:
            return np.asarray(t) + 0.0
        return np.power(t, self.alpha)

    @classmethod
    def parse(cls, text: str) -> "ConcaveSpec":
        """Parse a CLI-style curve id: ``sqrt``, ``log1p``, ``power:<alpha>``."""
        if text == "sqrt":
            return cls("power", 0.5)
        if text == "log1p":
            return cls("log1p")
        if text == "power":
            return cls("power", 0.5)
        if text.startswith("power:"):
            try:
                alpha = float(text.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad power exponent in {text!r}") from exc
            return cls("power", alpha)
        raise ConfigError(f"unknown concave curve {text!r}; expected sqrt, log1p, or power:<alpha>")


DEFAULT_CONCAVE = ConcaveSpec("power", 0.5)


class SelectionStep(NamedTuple):
    sentence_id: int
    gain: float
    ratio: float
    cumulative_cost: int


@dataclass
class SelectionState:
    """Result of a selection run: picks in order plus audit trail."""

    selected: list[int] = field(default_factory=list)
    mass: dict = field(default_factory=dict)
    spent: int = 0
    objective: float = 0.0
    trajectory: list[SelectionStep] = field(default_factory=list)
    budget: float = 0.0
    cost_mode: str = "words"
    variant: str = "lazy"
    gain_evaluations: int = 0
    evaluations_per_step: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# internal indexed representation


class _Problem:
    """Ground set flattened to integer feature columns for fast gain math."""

    def __init__(self, rows: RelevanceRows, costs: list[int]):
        self.bounds = rows.indptr.tolist()
        self.cols = rows.cols
        self.vals = rows.vals
        self.wvals = rows.weights[rows.cols]
        self.costs = costs  # int per sentence
        self.col_names = rows.names
        self.n_rows = len(costs)
        self.n_features = len(rows.names)

    def gain(self, idx: int, mass: np.ndarray, concave: ConcaveSpec) -> float:
        lo, hi = self.bounds[idx], self.bounds[idx + 1]
        if lo == hi:
            return 0.0
        vals, wvals = self.vals[lo:hi], self.wvals[lo:hi]
        if concave.is_identity:
            # linear curve: the gain is mass-independent, so compute it without
            # the phi difference whose cancellation noise varies with mass
            return float(np.sum(wvals * vals))
        current = mass[self.cols[lo:hi]]
        return float(np.sum(wvals * (concave.apply(current + vals) - concave.apply(current))))

    def add_to_mass(self, idx: int, mass: np.ndarray) -> None:
        lo, hi = self.bounds[idx], self.bounds[idx + 1]
        mass[self.cols[lo:hi]] += self.vals[lo:hi]


def _index_corpus(ground: Corpus, features: FeatureSet, cost_mode: str) -> _Problem:
    costs = [sent.cost if cost_mode == "words" else 1 for sent in ground]
    return _Problem(relevance_rows(ground.sentences, features), costs)


def _index_vectors(vectors, costs, weights) -> _Problem:
    """Explicit relevance vectors as a CSR matrix, columns in first-seen order."""
    plain = [vec.entries if isinstance(vec, FeatureVector) else vec for vec in vectors]
    names: list = []
    col_of: dict = {}
    for entries in plain:
        for key in entries:
            if key not in col_of:
                col_of[key] = len(names)
                names.append(key)
    warr = np.ones(len(names), dtype=np.float64)
    if weights is not None:
        for key, w in weights.items():
            if key in col_of:
                warr[col_of[key]] = float(w)
    pairs = [sorted((col_of[k], float(v)) for k, v in entries.items()) for entries in plain]
    indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pairs], out=indptr[1:])
    flat = [pair for row in pairs for pair in row]
    cols = np.array([c for c, _ in flat], dtype=np.int32)
    vals = np.array([v for _, v in flat], dtype=np.float64)
    return _Problem(RelevanceRows(indptr, cols, vals, names, warr), [int(c) for c in costs])


# ---------------------------------------------------------------------------
# objective evaluation


def _accumulate(vectors: Iterable[FeatureVector | Mapping]) -> dict:
    mass: dict = {}
    for vec in vectors:
        entries = vec.entries if isinstance(vec, FeatureVector) else vec
        for key, val in entries.items():
            mass[key] = mass.get(key, 0.0) + val
    return mass


def evaluate(selection, features: FeatureSet | None = None, concave: ConcaveSpec = DEFAULT_CONCAVE) -> float:
    """Objective value of a selection, from scratch.

    ``selection`` is either a SelectionState (its accumulated mass is
    used) or an iterable of FeatureVector / mapping, whose masses are
    summed first. Feature weights come from ``features`` when given,
    else 1.0. The empty selection scores 0.
    """
    mass = selection.mass if isinstance(selection, SelectionState) else _accumulate(selection)
    total = 0.0
    table = features.features if features is not None else None
    for key, m in mass.items():
        w = table[key].weight if table is not None else 1.0
        total += w * float(concave.apply(m))
    return total


def marginal_gain(
    sentence: Sentence,
    state: SelectionState,
    features: FeatureSet,
    concave: ConcaveSpec = DEFAULT_CONCAVE,
) -> float:
    """Gain of adding one unselected sentence, touching only its own features."""
    if sentence.id in state.selected:
        raise ValueError(f"sentence {sentence.id} is already selected")
    vec = featurize(sentence, features)
    gain = 0.0
    table = features.features
    for key, val in vec.entries.items():
        weight = table[key].weight
        if concave.is_identity:
            gain += weight * val
            continue
        current = state.mass.get(key, 0.0)
        gain += weight * float(concave.apply(current + val) - concave.apply(current))
    return gain


# ---------------------------------------------------------------------------
# greedy selection


def _finish_state(state: SelectionState, problem: _Problem, mass: np.ndarray) -> SelectionState:
    state.mass = {
        problem.col_names[i]: float(mass[i]) for i in np.flatnonzero(mass > 0.0)
    }
    return state


def _greedy_naive(problem: _Problem, concave, budget, state: SelectionState) -> SelectionState:
    mass = np.zeros(problem.n_features, dtype=np.float64)
    remaining = list(range(problem.n_rows))
    any_feasible = False
    while remaining:
        # one full pass over the candidates that still fit
        remaining = [vid for vid in remaining if state.spent + problem.costs[vid] <= budget]
        best_id, best_gain, best_ratio = -1, 0.0, 0.0
        for vid in remaining:
            gain = problem.gain(vid, mass, concave)
            ratio = gain / problem.costs[vid]
            if best_id < 0 or ratio > best_ratio:
                best_id, best_gain, best_ratio = vid, gain, ratio
        evals = len(remaining)
        state.gain_evaluations += evals
        state.evaluations_per_step.append(evals)
        any_feasible = any_feasible or bool(remaining)
        if best_id < 0 or best_gain <= 0.0:
            break
        remaining.remove(best_id)
        problem.add_to_mass(best_id, mass)
        state.spent += problem.costs[best_id]
        state.objective += best_gain
        state.selected.append(best_id)
        state.trajectory.append(SelectionStep(best_id, best_gain, best_ratio, state.spent))
    else:
        state.evaluations_per_step.append(0)
    if not state.selected and not any_feasible and problem.n_rows:
        logger.warning("budget %s is below every sentence cost; selection is empty", budget)
    return _finish_state(state, problem, mass)


def _greedy_lazy(problem: _Problem, concave, budget, state: SelectionState) -> SelectionState:
    mass = np.zeros(problem.n_features, dtype=np.float64)
    n = problem.n_rows
    heap: list[tuple[float, int]] = []
    cached_gain = [0.0] * n
    stamp = [-1] * n
    evals_this_step = 0
    any_feasible = False
    for vid in range(n):
        if problem.costs[vid] > budget:
            continue
        any_feasible = True
        gain = problem.gain(vid, mass, concave)
        cached_gain[vid] = gain
        stamp[vid] = 0
        heap.append((-gain / problem.costs[vid], vid))
        state.gain_evaluations += 1
        evals_this_step += 1
    heapq.heapify(heap)

    while heap:
        neg_ratio, vid = heapq.heappop(heap)
        cost = problem.costs[vid]
        if state.spent + cost > budget:
            continue  # can never fit again: spent only grows
        if stamp[vid] == len(state.selected):
            gain = cached_gain[vid]
            if gain <= 0.0:
                break
            problem.add_to_mass(vid, mass)
            state.spent += cost
            state.objective += gain
            state.selected.append(vid)
            state.trajectory.append(SelectionStep(vid, gain, -neg_ratio, state.spent))
            state.evaluations_per_step.append(evals_this_step)
            evals_this_step = 0
        else:
            gain = problem.gain(vid, mass, concave)
            cached_gain[vid] = gain
            stamp[vid] = len(state.selected)
            state.gain_evaluations += 1
            evals_this_step += 1
            heapq.heappush(heap, (-gain / cost, vid))
    state.evaluations_per_step.append(evals_this_step)

    if not state.selected and not any_feasible and problem.n_rows:
        logger.warning("budget %s is below every sentence cost; selection is empty", budget)
    return _finish_state(state, problem, mass)


def _run_greedy(problem, concave, budget, cost_mode, variant, threads) -> SelectionState:
    if budget <= 0:
        raise ConfigError(f"budget must be positive, got {budget}")
    if cost_mode not in COST_MODES:
        raise ConfigError(f"unknown cost mode {cost_mode!r}; expected one of: {', '.join(COST_MODES)}")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of: {', '.join(VARIANTS)}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    state = SelectionState(budget=float(budget), cost_mode=cost_mode, variant=variant)
    if variant == "naive":
        return _greedy_naive(problem, concave, budget, state)
    return _greedy_lazy(problem, concave, budget, state)


def greedy_select(
    ground: Corpus,
    features: FeatureSet,
    concave: ConcaveSpec = DEFAULT_CONCAVE,
    budget: float = 100000,
    cost_mode: str = "words",
    variant: str = "lazy",
    threads: int = 1,
) -> SelectionState:
    """Select a sub-corpus by budgeted greedy coverage maximization.

    Sentences are taken by descending gain-per-cost among those that
    still fit the budget; selection stops when nothing feasible has
    positive gain. Ties go to the higher ratio and then the lower id. A
    budget below every sentence cost yields an empty selection with a
    logged warning, not an error. ``threads`` is validated (it must be at
    least 1) but runs nothing in parallel: every variant is single-threaded.
    """
    if not features.fitted:
        raise StateError("feature set is unfitted; call fit_idf before selecting")
    if features.ground_size != len(ground):
        raise StateError(
            f"feature set was fitted against {features.ground_size} sentences, "
            f"but this ground set has {len(ground)}"
        )
    problem = _index_corpus(ground, features, cost_mode)
    return _run_greedy(problem, concave, budget, cost_mode, variant, threads)


def greedy_select_vectors(
    vectors: Sequence[FeatureVector | Mapping],
    costs: Sequence[int],
    concave: ConcaveSpec = DEFAULT_CONCAVE,
    budget: float = 1,
    weights: Mapping | None = None,
    variant: str = "lazy",
    threads: int = 1,
) -> SelectionState:
    """greedy_select over explicit relevance vectors instead of a corpus.

    Useful for hand-built instances; item i has vector vectors[i] and
    positive integer cost costs[i].
    """
    if len(vectors) != len(costs):
        raise ConfigError(f"{len(vectors)} vectors but {len(costs)} costs")
    if any(c < 1 for c in costs):
        raise ConfigError("every cost must be a positive integer")
    cost_mode = "unit" if all(c == 1 for c in costs) else "words"
    problem = _index_vectors(vectors, costs, weights)
    return _run_greedy(problem, concave, budget, cost_mode, variant, threads)
