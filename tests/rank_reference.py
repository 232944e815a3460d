"""Rank-based selection as it was before it took ``(budget, cost_mode)``.

Kept verbatim as a reference: ``rank_and_select(ground, scores, k, "unit")``
must equal ``rank_and_select_reference(ground, scores, n=k)`` and
``rank_and_select(ground, scores, b, "words")`` must equal
``rank_and_select_reference(ground, scores, budget_words=b)``.
"""

from __future__ import annotations

from subselect.corpus import Corpus
from subselect.errors import ConfigError
from subselect.submodular import SelectionState, SelectionStep
from subselect.xent import ScoredSentence


def _rank_key(scored: ScoredSentence):
    # defined first, then score descending, then id ascending
    return (not scored.defined, -scored.score if scored.defined else 0.0, scored.id)


def rank_and_select_reference(
    ground: Corpus,
    scores: list[ScoredSentence],
    n: int | None = None,
    budget_words: float | None = None,
) -> SelectionState:
    """Take the best-scoring sentences, by count or by word budget.

    Exactly one of ``n`` (top-N) and ``budget_words`` must be given. The
    budget form takes the longest score-ordered prefix whose cumulative
    source-word cost fits: the walk stops at the first sentence that
    does not fit rather than skipping it, keeping the output a pure
    ranking prefix.
    """
    if (n is None) == (budget_words is None):
        raise ConfigError("exactly one of n and budget_words must be given")
    if n is not None and n <= 0:
        raise ConfigError(f"selection size must be positive, got {n}")
    if budget_words is not None and budget_words <= 0:
        raise ConfigError(f"word budget must be positive, got {budget_words}")

    ranked = sorted(scores, key=_rank_key)
    costs = ground.source.lens.tolist()
    state = SelectionState(
        budget=float(budget_words if budget_words is not None else n),
        cost_mode="words" if budget_words is not None else "unit",
        variant="rank",
    )
    for scored in ranked:
        if n is not None:
            if len(state.selected) >= n:
                break
            step_cost = 1
        else:
            step_cost = costs[scored.id]
            if state.spent + step_cost > budget_words:
                break
        state.spent += step_cost
        state.selected.append(scored.id)
        state.trajectory.append(
            SelectionStep(scored.id, scored.score, scored.score, state.spent)
        )
    return state
