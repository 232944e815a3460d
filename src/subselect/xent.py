"""Cross-entropy-difference scoring and rank-based selection.

Each candidate sentence is scored by the per-word log-probability gap
between an in-domain language model and an out-of-domain one:

    score(x) = (log P(x | in) - log P(x | out)) / len(x)

Higher means more in-domain-like. Ranking is pure: duplicates of a
well-scoring sentence all score the same and are all taken, which is
exactly the redundancy blindness the coverage selector avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import Corpus, TokenStream, as_stream
from .errors import ConfigError
from .lm import NgramLanguageModel, _log_probs, corpus_vocab, train_lm
from .submodular import SelectionState, SelectionStep, check_budget, sentence_costs


@dataclass(frozen=True)
class ScoredSentence:
    id: int
    score: float
    length: int
    defined: bool = True  # False for no words, or when both models assign zero probability


def _check_pair(lm_in: NgramLanguageModel, lm_out: NgramLanguageModel) -> None:
    if lm_in.order != lm_out.order:
        raise ConfigError(
            f"model orders differ: {lm_in.order} vs {lm_out.order}; train the pair together"
        )
    if lm_in.markers != lm_out.markers:
        raise ConfigError("models disagree on sentence markers; train the pair together")


def _score(
    stream: TokenStream, ids: Sequence[int], lm_in: NgramLanguageModel, lm_out: NgramLanguageModel
) -> list[ScoredSentence]:
    """Scores of a stream's sentences, which carry these sentence ids."""
    _check_pair(lm_in, lm_out)
    # orders and markers agree, so a pair over one vocabulary, as trained
    # pairs are, scores one id stream in one pass
    groups = [[lm_in, lm_out]] if lm_out.ids == lm_in.ids else [[lm_in], [lm_out]]
    lp_ins, lp_outs = (lp for models in groups for lp in _log_probs(models, stream))
    scored = []
    for sid, cost, lp_in, lp_out in zip(ids, stream.lens.tolist(), lp_ins, lp_outs):
        diff = lp_in - lp_out
        if math.isnan(diff) or not cost:
            scored.append(ScoredSentence(sid, float("nan"), cost, defined=False))
        else:
            scored.append(ScoredSentence(sid, diff / cost, cost))
    return scored


def xent_score(sentence, lm_in: NgramLanguageModel, lm_out: NgramLanguageModel) -> ScoredSentence:
    """Length-normalized log-probability difference for one sentence.

    If both models assign zero probability the difference is undefined,
    and a sentence of no words has no per-word score; either is flagged
    and will rank after every defined one.
    """
    return _score(as_stream([sentence]), [sentence.id], lm_in, lm_out)[0]


def score_corpus(ground: Corpus, lm_in: NgramLanguageModel, lm_out: NgramLanguageModel) -> list[ScoredSentence]:
    """Score every ground sentence, in id order."""
    return _score(ground.source, range(len(ground)), lm_in, lm_out)


def train_domain_pair(
    in_domain: Corpus,
    out_domain: Corpus,
    order: int = 4,
    smoothing: str = "interpolated-wb",
    markers: bool = True,
    unk_floor: int = 1,
) -> tuple[NgramLanguageModel, NgramLanguageModel]:
    """Train the two ranking models over one shared vocabulary: each is
    ``train_lm`` with the other side's vocabulary as ``extra_vocab``, as
    ``train-lm --extra-vocab-src`` runs it, so the score stays well-defined
    for tokens known to only one side.
    """
    lm_in = train_lm(in_domain, order, smoothing, markers, unk_floor, corpus_vocab(out_domain, unk_floor))
    lm_out = train_lm(out_domain, order, smoothing, markers, unk_floor, corpus_vocab(in_domain, unk_floor))
    return lm_in, lm_out


def _rank_key(scored: ScoredSentence):
    # defined first, then score descending, then id ascending
    return (not scored.defined, -scored.score if scored.defined else 0.0, scored.id)


def rank_and_select(
    ground: Corpus,
    scores: list[ScoredSentence],
    budget: float,
    cost_mode: str = "words",
) -> SelectionState:
    """Take the longest score-ordered prefix whose cost fits the budget.

    Costs are the greedy's (``sentence_costs``): under ``"unit"`` costs
    the budget is a sentence count, so this is top-N. The walk stops at
    the first sentence that does not fit rather than skipping it,
    keeping the output a pure ranking prefix.
    """
    check_budget(budget)
    costs = sentence_costs(ground, cost_mode).tolist()
    state = SelectionState(budget=float(budget), cost_mode=cost_mode, variant="rank")
    for scored in sorted(scores, key=_rank_key):
        if state.spent + costs[scored.id] > budget:
            break
        state.spent += costs[scored.id]
        state.selected.append(scored.id)
        state.trajectory.append(SelectionStep(scored.id, scored.score, scored.score, state.spent))
    return state
