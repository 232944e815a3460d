"""The greedy's one-row-at-a-time gain kernel and heap loops, as they were
before gains were evaluated in batches.

Kept verbatim as references: the batched kernel must give every row the
same float, and the batched greedy must select, score and count its gain
evaluations exactly as these loops do. A reference row sums its terms in
the order it holds them, while the batched ``_Problem`` orders each row's
columns itself; so build a problem with ``_Problem(ascending(rows), costs)``
from the same ``RelevanceRows`` the code under test gets, in whatever
order within a row those come.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from subselect.features import RelevanceRows
from subselect.submodular import ConcaveSpec, SelectionState, SelectionStep, _finish_state


def ascending(rows: RelevanceRows) -> RelevanceRows:
    """``rows`` with each row's columns ascending, the order the batched kernel sums in."""
    by_col = np.lexsort((rows.cols, np.repeat(np.arange(len(rows.indptr) - 1), np.diff(rows.indptr))))
    return replace(rows, cols=rows.cols[by_col], vals=rows.vals[by_col])


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


def _greedy_naive(problem: _Problem, concave, budget, state: SelectionState) -> SelectionState:
    mass = np.zeros(problem.n_features, dtype=np.float64)
    remaining = list(range(problem.n_rows))
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
    return _finish_state(state, problem, mass)


def _greedy_lazy(problem: _Problem, concave, budget, state: SelectionState) -> SelectionState:
    mass = np.zeros(problem.n_features, dtype=np.float64)
    n = problem.n_rows
    heap: list[tuple[float, int]] = []
    cached_gain = [0.0] * n
    stamp = [-1] * n
    evals_this_step = 0
    for vid in range(n):
        if problem.costs[vid] > budget:
            continue
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
    return _finish_state(state, problem, mass)
