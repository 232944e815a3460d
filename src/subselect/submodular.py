"""Budgeted greedy maximization of a concave-saturated coverage objective.

The objective of a selection X is

    f(X) = sum over features u of  w_u * phi(sum over x in X of m_u(x))

where m_u(x) is the sentence's relevance to u (count * idf) and phi is a
non-negative, non-decreasing concave curve with phi(0) = 0. Concavity
makes repeated mass on the same feature worth less and less, which is
what pushes the greedy away from near-duplicates; it also makes f
monotone submodular, so the classic greedy enjoys the (1 - 1/e)
worst-case guarantee on unit-cost instances.

Both greedy variants pick, among the candidates (sentences with a
positive cost within the budget) that still fit, the one maximizing
marginal gain divided by cost, never overspending. The lazy variant
keeps stale gain ratios in one sorted array: gains only shrink as the
selection grows, so a stale ratio is an upper bound, and a recomputed one
still ahead of every stale one is safe to take. Both trace one trajectory.

``objective`` is the one from-scratch f, over integer (column, relevance)
pairs and a weight array; ``evaluate``, the report and the oracle use it.
``reference_gain`` is the one scalar gain, used by ``marginal_gain`` and
the kernel tests. The greedy's own gains come from the array kernel
``_Problem.gains``, which evaluates many rows per numpy call and gives
each row bit for bit what ``np.sum`` gives over that row's terms alone
(a float order the selection files depend on); it stays separate so
that the two scalar definitions check it with code it does not share.
The naive greedy calls it once per step; the lazy greedy calls it in
element-bounded chunks for its first pass and then in growing batches of
stale keys, keeping exactly the recomputations that one gain at a time
would have made, so its picks and its recompute count are those of the
one-at-a-time heap loop.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Sentence, TokenStream, as_stream
from .errors import ConfigError, StateError
from .features import FeatureSet, FeatureVector, RelevanceRows, _check_fitted, featurize, relevance_rows
from .ngramkeys import _LazyMapping, batches

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
        if text in ("sqrt", "power"):
            return cls("power", 0.5)
        if text == "log1p":
            return cls("log1p")
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
    mass: Mapping = field(default_factory=dict)  # feature -> accumulated relevance
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


# The greedy's kernel sums each row's terms in np.sum's float order for that
# row alone. For n <= 128 terms np.sum adds the first n - n % 8 in eight
# interleaved lanes, combines the lanes, then adds the rest one by one; so
# appending -0.0s (x + -0.0 == x for every x) without changing n // 8 leaves
# every bit alone. A row of n <= 128 columns is therefore padded to
# min(n | 7, 128) slots, and rows of one width are summed as one 2-D block.
# Above 128 numpy's pairwise split point depends on n, so a longer row keeps
# exactly n slots.
_PAIRWISE_BLOCK = 128
# The kernel gathers at most this many slots at a time (or one longer row),
# which bounds its temporaries to a few arrays of this length.
_CHUNK_SLOTS = 1 << 14
# The lazy greedy's first batch of stale keys in a step; each
# further batch in the same step is twice as large.
_FIRST_BATCH = 16


class _Problem:
    """Ground set as padded rows of integer feature columns, for batched gain math.

    Row r owns ``widths[r]`` slots from ``starts[r]`` in ``cols`` / ``vals``:
    its ascending columns with their relevances, then padding that points at
    one extra column of weight -0.0 and mass 0, so every padding term is -0.0.
    A row's entries may come in any order: this is the one place that sorts them.
    """

    def __init__(self, rows: RelevanceRows, costs: Sequence[int]):
        self.lengths = lengths = np.diff(rows.indptr)
        self.widths = np.where(lengths <= _PAIRWISE_BLOCK, np.minimum(lengths | 7, _PAIRWISE_BLOCK), lengths)
        self.starts = np.cumsum(self.widths) - self.widths
        self.n_features = n = len(rows.weights)
        # row * n + col fits int64 for int32 rows and columns; one argsort orders every row
        key = np.repeat(np.arange(len(lengths), dtype=np.int64) * n, lengths)
        key += rows.cols
        order = key.argsort()
        del key
        slots = np.repeat(self.starts - rows.indptr[:-1], lengths)  # the slot of each sorted entry
        slots += np.arange(len(slots))
        dest = np.empty_like(slots)
        dest[order] = slots
        del order, slots  # each entry goes straight to its sorted slot: no sorted copy is held
        self.cols = np.full(int(self.widths.sum()), n, dtype=np.int32)
        self.cols[dest] = rows.cols
        self.vals = np.zeros(len(self.cols))
        self.vals[dest] = rows.vals
        self.weights = np.append(rows.weights, -0.0)
        self.costs = np.asarray(costs, dtype=np.int64)
        self.col_names = rows.names

    def zero_mass(self) -> np.ndarray:
        return np.zeros(self.n_features + 1, dtype=np.float64)  # the last column is the padding's

    def gains(self, ids, mass: np.ndarray, concave: ConcaveSpec) -> np.ndarray:
        """Gain of adding each row in ``ids`` to ``mass``: bit for bit np.sum of its terms.

        Row r's terms are ``w * (phi(m + v) - phi(m))`` over its ascending
        columns, or ``w * v`` for the linear curve, whose gain does not
        depend on the mass. An empty row gains 0.0.
        """
        ids = np.asarray(ids, dtype=np.int64)
        order = self.widths[ids].argsort(kind="stable")  # rows of one width side by side
        ids = ids[order]
        widths = self.widths[ids]
        out = np.empty(len(ids), dtype=np.float64)
        for lo, hi in batches(widths, _CHUNK_SLOTS):
            out[order[lo:hi]] = self._sorted_gains(ids[lo:hi], widths[lo:hi], mass, concave)
        return out

    def _sorted_gains(self, ids, widths, mass: np.ndarray, concave: ConcaveSpec) -> np.ndarray:
        """``gains`` of rows sorted by width: one flat gather, then one 2-D sum per width."""
        ends = widths.cumsum()
        slots = (self.starts[ids] - (ends - widths)).repeat(widths) + np.arange(ends[-1])
        cols, vals = self.cols[slots], self.vals[slots]
        if concave.is_identity:
            # linear curve: the gain is mass-independent, so compute it without
            # the phi difference whose cancellation noise varies with mass
            terms = self.weights[cols] * vals
        else:
            current = mass[cols]
            terms = self.weights[cols] * (concave.apply(current + vals) - concave.apply(current))
        bounds = [0, *((widths[1:] != widths[:-1]).nonzero()[0] + 1).tolist(), len(ids)]
        sums = []
        for first, last in zip(bounds[:-1], bounds[1:]):
            block = terms[ends[first] - widths[first] : ends[last - 1]]
            sums.append(block.reshape(last - first, -1).sum(axis=1))
        return np.concatenate(sums)

    def add_to_mass(self, idx: int, mass: np.ndarray) -> None:
        lo = int(self.starts[idx])
        hi = lo + int(self.lengths[idx])
        mass[self.cols[lo:hi]] += self.vals[lo:hi]


def _entry_rows(plain: list[Mapping], weights: FeatureSet | Mapping | None) -> RelevanceRows:
    """Relevance vectors as a CSR matrix in entry order, columns numbered as keys are first seen."""
    col_of: dict = {}
    cols = np.array([col_of.setdefault(key, len(col_of)) for entries in plain for key in entries], dtype=np.int32)
    vals = np.fromiter(chain.from_iterable(entries.values() for entries in plain), np.float64, len(cols))
    warr = np.array(list(map(_weight_of(weights), col_of)), dtype=np.float64)
    return RelevanceRows(np.cumsum([0, *map(len, plain)], dtype=np.int64), cols, vals, list(col_of), warr)


def _plain(vectors: Iterable[FeatureVector | Mapping]) -> list[Mapping]:
    return [vec.entries if isinstance(vec, FeatureVector) else vec for vec in vectors]


def _check_nonnegative(what: str, values: Iterable) -> None:
    for value in values:
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
            raise ConfigError(f"every {what} must be a finite number >= 0, got {value!r}")


def _vector_instance(vectors, costs, weights: Mapping | None) -> tuple[list[Mapping], list[int], Mapping]:
    """Check an explicit instance; return its plain vectors, integer costs and weights."""
    if len(vectors) != len(costs):
        raise ConfigError(f"{len(vectors)} vectors but {len(costs)} costs")
    for cost in costs:
        if not (math.isfinite(cost) and cost == int(cost) and 1 <= cost <= np.iinfo(np.int64).max):
            raise ConfigError(f"every cost must be a positive integer within int64's range, got {cost!r}")
    plain, weights = _plain(vectors), weights or {}
    _check_nonnegative("relevance", chain.from_iterable(entries.values() for entries in plain))
    _check_nonnegative("weight", weights.values())
    return plain, [int(c) for c in costs], weights


def sentence_costs(sentences: Corpus | TokenStream, cost_mode: str) -> np.ndarray:
    """Each sentence's cost: its source-word count under ``"words"``, 1 under ``"unit"``.

    Under unit costs a budget is a sentence count.
    """
    if cost_mode not in COST_MODES:
        raise ConfigError(f"unknown cost mode {cost_mode!r}; expected one of: {', '.join(COST_MODES)}")
    lens = as_stream(sentences).lens
    return lens if cost_mode == "words" else np.ones(len(lens), dtype=lens.dtype)


def check_budget(budget: float) -> None:
    """A budget must be a positive number; NaN is not one."""
    if not budget > 0:
        raise ConfigError(f"budget must be positive, got {budget}")


def _corpus_costs(ground: Corpus, features: FeatureSet, cost_mode: str) -> list[int]:
    """Check a corpus instance; return each sentence's cost under ``cost_mode``."""
    _check_fitted(features)
    if features.ground_size != len(ground):
        raise StateError(
            f"feature set was fitted against {features.ground_size} sentences, "
            f"but this ground set has {len(ground)}"
        )
    return sentence_costs(ground, cost_mode).tolist()


# ---------------------------------------------------------------------------
# the objective and its reference gain


def _weighted_sum(weights: np.ndarray, mass: np.ndarray, concave: ConcaveSpec) -> float:
    """The sum of ``weights * phi(mass)``, added left to right onto 0.0."""
    return float(np.add.accumulate(weights * concave.apply(mass))[-1]) + 0.0 if len(mass) else 0.0


def objective(cols, vals, weights: np.ndarray, concave: ConcaveSpec) -> float:
    """f(X) from scratch, over X's (column, relevance) pairs in selection order.

    Masses add up in pair order; the curve values times ``weights[column]`` are
    then summed left to right, columns in the order the pairs first touch them.
    ``evaluate``, the report and the oracle all score so, agreeing bit for bit.
    """
    first = np.full(len(weights), len(cols))
    np.minimum.at(first, cols, np.arange(len(cols)))  # each column's first pair, len(cols) if none
    mass = np.bincount(cols, weights=vals, minlength=len(weights))  # adds in pair order, onto 0.0
    touched = np.flatnonzero(first < len(cols))
    touched = touched[np.argsort(first[touched])]
    return _weighted_sum(weights[touched], mass[touched], concave)


def reference_gain(entries: Mapping, mass: Mapping, weight_of: Callable, concave: ConcaveSpec) -> float:
    """Gain of adding one relevance vector to accumulated ``mass``, feature by feature.

    The scalar definition that ``marginal_gain`` and the kernel tests use
    to check ``_Problem.gains``, the greedy's array kernel, with code the
    kernel does not share.
    """
    gain = 0.0
    for key, val in entries.items():
        current = mass.get(key, 0.0)
        # as in the kernel: a linear curve's gain is mass-independent, so skip the phi difference
        step = val if concave.is_identity else float(concave.apply(current + val) - concave.apply(current))
        gain += weight_of(key) * step
    return gain


def _weight_of(weights: FeatureSet | Mapping | None) -> Callable:
    """Key -> weight, from a feature set, or from a mapping with 1.0 where absent."""
    if isinstance(weights, FeatureSet):
        position_of = weights._index.position_of
        return lambda key: float(weights.weight[position_of[key]])
    return lambda key: float((weights or {}).get(key, 1.0))


def evaluate(selection, features: FeatureSet | None = None, concave: ConcaveSpec = DEFAULT_CONCAVE) -> float:
    """Objective value of a selection, from scratch, by ``objective``.

    ``selection`` is a SelectionState (its mass scored as one vector) or an iterable
    of FeatureVector / mapping, summed in order. Feature weights come from
    ``features`` when given, else 1.0. The empty selection scores 0.
    """
    vectors = [selection.mass] if isinstance(selection, SelectionState) else _plain(selection)
    rows = _entry_rows(vectors, features)
    return objective(rows.cols, rows.vals, rows.weights, concave)


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
    return reference_gain(vec.entries, state.mass, _weight_of(features), concave)


# ---------------------------------------------------------------------------
# greedy selection


def _finish_state(state: SelectionState, problem: _Problem, mass: np.ndarray) -> SelectionState:
    cols = np.flatnonzero(mass > 0.0)
    names, values = problem.col_names, mass[cols]
    state.mass = _LazyMapping(
        len(cols), lambda: dict(zip(map(names.__getitem__, cols.tolist()), values.tolist()))
    )
    return state


def _take(problem: _Problem, vid: int, gain: float, ratio: float, mass: np.ndarray, state: SelectionState) -> None:
    problem.add_to_mass(vid, mass)
    state.spent += int(problem.costs[vid])
    state.objective += gain
    state.selected.append(vid)
    state.trajectory.append(SelectionStep(vid, gain, ratio, state.spent))


def _greedy_naive(problem: _Problem, concave, budget, remaining: np.ndarray, mass, state: SelectionState) -> None:
    while True:
        # one full pass over the candidates that still fit
        remaining = remaining[problem.costs[remaining] <= budget - state.spent]
        state.evaluations_per_step.append(remaining.size)
        if not remaining.size:
            break
        gains = problem.gains(remaining, mass, concave)
        ratios = gains / problem.costs[remaining]
        best = int(np.argmax(ratios))  # the first, so the lowest id, of the highest ratios
        if gains[best] <= 0.0:
            break
        _take(problem, int(remaining[best]), float(gains[best]), float(ratios[best]), mass, state)
        remaining = np.delete(remaining, best)


def _keys(gains: np.ndarray, costs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Keys ``-ratio + 1j * id``: numpy orders complex numbers by real, then imaginary
    part, so keys order as the tuples ``(-ratio, id)``, equal ratios by the lower id."""
    keys = np.empty(len(ids), dtype=np.complex128)
    keys.real, keys.imag = -gains / costs[ids], ids
    return keys


def _greedy_lazy(problem: _Problem, concave, budget, candidates: np.ndarray, mass, state: SelectionState) -> None:
    """Lazy greedy over one sorted array of stale keys (``_keys``) and one gain array.

    ``fresh`` holds the keys computed against the current picks (at step 0,
    every candidate's) and ``stale[head:]`` the older ones, upper bounds in
    ascending order. The least fresh key ``top`` is taken once it precedes
    every stale key. Until then the stale keys ahead of it are recomputed
    from the head in growing batches, committing only those that one at a
    time recomputation would reach: it stops after key i once the best
    recomputed key so far precedes stale key i + 1. After a pick the other
    fresh keys merge back, and keys that can no longer fit are dropped once
    the widest cost left could overspend. Picks, gains and evaluation
    counts are those of the one-at-a-time heap loop.
    """
    costs = problem.costs
    gains = np.zeros(len(costs))  # by id: the gain its current key was computed with
    gains[candidates] = problem.gains(candidates, mass, concave)
    fresh = [_keys(gains[candidates], costs, candidates)]
    top = fresh[0].min() if len(candidates) else None
    stale, head = fresh[0][:0], 0
    evals, batch, widest = len(candidates), _FIRST_BATCH, int(costs[candidates].max(initial=0))
    while top is not None or head < stale.size:
        if top is None or (head < stale.size and stale[head] < top):
            popped = stale[head : head + batch]
            if top is not None:
                popped = popped[: np.searchsorted(popped, top)]
            ids = popped.imag.astype(np.int64)
            new = problem.gains(ids, mass, concave)
            best = np.minimum.accumulate(keys := _keys(new, costs, ids))
            stops = best[:-1] < popped[1:]
            commit = int(stops.argmax()) + 1 if stops.any() else len(keys)
            top = best[commit - 1] if top is None or best[commit - 1] < top else top
            gains[ids[:commit]] = new[:commit]
            fresh.append(keys[:commit])
            head, evals, batch = head + commit, evals + commit, batch * 2
            continue
        vid = int(top.imag)
        if gains[vid] <= 0.0:
            break
        _take(problem, vid, float(gains[vid]), float(-top.real), mass, state)
        state.evaluations_per_step.append(evals)
        rest, stale = np.sort(np.concatenate(fresh))[1:], stale[head:]  # the pick was the least
        stale = np.insert(stale, np.searchsorted(stale, rest), rest)
        if state.spent + widest > budget:
            stale = stale[costs[stale.imag.astype(np.int64)] <= budget - state.spent]  # spent only grows
            widest = int(costs[stale.imag.astype(np.int64)].max(initial=0))
        fresh, top, head, evals, batch = [], None, 0, 0, _FIRST_BATCH
    state.evaluations_per_step.append(evals)


def _run_greedy(problem, concave, budget, cost_mode, variant) -> SelectionState:
    check_budget(budget)
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of: {', '.join(VARIANTS)}")
    # a row that costs nothing (no words, under word costs) gains nothing: never a candidate
    costs = problem.costs
    limit = math.floor(budget) if math.isfinite(budget) else budget  # int costs fit it as they fit budget, exactly
    candidates = np.flatnonzero((costs > 0) & (costs <= limit))
    if not candidates.size and costs.any():
        logger.warning("budget %s is below every sentence cost; selection is empty", budget)
    state = SelectionState(budget=float(budget), cost_mode=cost_mode, variant=variant)
    mass = problem.zero_mass()
    loop = _greedy_naive if variant == "naive" else _greedy_lazy
    loop(problem, concave, limit, candidates, mass, state)
    state.gain_evaluations = sum(state.evaluations_per_step)
    return _finish_state(state, problem, mass)


def greedy_select(
    ground: Corpus,
    features: FeatureSet,
    concave: ConcaveSpec = DEFAULT_CONCAVE,
    budget: float = 100000,
    cost_mode: str = "words",
    variant: str = "lazy",
) -> SelectionState:
    """Select a sub-corpus by budgeted greedy coverage maximization.

    Sentences are taken by descending gain-per-cost among those that
    still fit the budget; selection stops when nothing feasible has
    positive gain. Ties go to the higher ratio and then the lower id. A
    budget below the cost of every sentence with words yields an empty
    selection with a logged warning, not an error; empty sentences are
    never candidates, so they neither silence the warning nor raise it.
    Every variant is single-threaded.
    """
    costs = _corpus_costs(ground, features, cost_mode)
    problem = _Problem(relevance_rows(ground, features), costs)
    return _run_greedy(problem, concave, budget, cost_mode, variant)


def greedy_select_vectors(
    vectors: Sequence[FeatureVector | Mapping],
    costs: Sequence[int],
    concave: ConcaveSpec = DEFAULT_CONCAVE,
    budget: float = 1,
    weights: Mapping | None = None,
    variant: str = "lazy",
) -> SelectionState:
    """greedy_select over explicit relevance vectors instead of a corpus.

    Useful for hand-built instances; item i has vector vectors[i] and
    positive integer cost costs[i]. Relevances and ``weights`` (1.0 where
    absent) must be finite and >= 0.
    """
    plain, costs, weights = _vector_instance(vectors, costs, weights)
    cost_mode = "unit" if all(c == 1 for c in costs) else "words"
    problem = _Problem(_entry_rows(plain, weights), costs)
    return _run_greedy(problem, concave, budget, cost_mode, variant)
