#!/usr/bin/env python3
"""Cross-entropy-difference ranking: the classic intelligent-selection baseline.

Each candidate is scored by the per-word gap between its log-probability
under an in-domain n-gram model and under an out-of-domain one; the
selection is a prefix of the ranking, by count or by word budget. The
demo ends on the baseline's known blind spot: duplicates rank together.
"""

from subselect import Corpus, Sentence, rank_and_select, score_corpus, train_domain_pair


def corpus_of(*lines):
    return Corpus(tuple(Sentence(i, tuple(l.split())) for i, l in enumerate(lines)))


def main() -> None:
    in_domain = corpus_of(
        "the committee approved the budget",
        "the committee rejected the motion",
        "the board approved the plan",
    )
    out_domain = corpus_of(
        "rain fell across the valley all night",
        "the trail climbs through dense forest",
        "wind shook the tents at dawn",
    )
    ground = corpus_of(
        "the committee approved the plan",      # strongly in-domain
        "the board rejected the budget",        # in-domain words, new mix
        "rain fell at dawn",                    # strongly out-of-domain
        "the committee camped in the forest",   # mixed
        "the committee approved the plan",      # exact duplicate of 0
    )

    lm_in, lm_out = train_domain_pair(in_domain, out_domain, order=2)
    scores = score_corpus(ground, lm_in, lm_out)

    print("per-word log-probability difference (higher = more in-domain):")
    for s in sorted(scores, key=lambda s: -s.score):
        text = " ".join(ground[s.id].source_tokens)
        print(f"  {s.score:+.4f}  [{s.id}] {text}")

    top = rank_and_select(ground, scores, 2, "unit")
    print(f"\ntop-2 by count: ids {top.selected}")

    fitted = rank_and_select(ground, scores, 11, "words")
    print(f"word budget 11: ids {fitted.selected}, spent {fitted.spent} words")
    print("(the walk stops at the first sentence that does not fit, so the")
    print(" output stays a pure prefix of the ranking)")

    dup_scores = [s for s in scores if s.id in (0, 4)]
    assert dup_scores[0].score == dup_scores[1].score
    print(f"\nids 0 and 4 are duplicates and score identically ({dup_scores[0].score:+.4f}):")
    print(" a pure ranking takes both. The coverage objective is the cure;")
    print(" demo 04 puts the two methods side by side.")


if __name__ == "__main__":
    main()
