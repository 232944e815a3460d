"""Workload inputs and the CLI command lines each workload runs.

The generator is the acceptance suite's criterion-7 recipe (Zipf tokens
over a 10k vocabulary, 15 tokens a sentence, an in-domain sample of every
10th pool sentence), extended with a pool size, an exact-duplicate share
and a budget ratio. The same seed gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

VOCAB_SIZE = 10_000
TOKENS_PER_SENTENCE = 15
IN_DOMAIN_STRIDE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    pool_sentences: int
    dup_share: float  # share of pool sentences that exactly repeat an earlier one
    budget_ratio: float  # word budget as a share of pool words
    select_args: tuple[str, ...] = ()  # extra `select` flags; empty for the staged chain

    @property
    def staged(self) -> bool:
        return not self.select_args


# select-both-o7 and staged-files share pool size and shares, so that for one
# seed their inputs are identical and their xent scores must be too.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("select-both-o7", 4000, 0.0, 0.07, ("--method", "both")),
        Workload("submod-o1-dup", 12000, 0.3, 0.10, ("--method", "submod", "--max-order", "1")),
        Workload("staged-files", 4000, 0.0, 0.07),
    )
}


@dataclass(frozen=True)
class Inputs:
    pool: Path
    in_domain: Path
    selection: Path  # a given selection TSV that `report` reads in the staged chain
    pool_lines: list[str]
    budget_words: int

    @property
    def pool_words(self) -> int:
        return len(self.pool_lines) * TOKENS_PER_SENTENCE


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def generate(workload: Workload, seed: int, scale: float, out_dir: Path) -> Inputs:
    """Write the pool, in-domain sample and given selection for one seed."""
    rng = random.Random(seed)
    n = max(20, int(workload.pool_sentences * scale))
    vocab = [f"t{i}" for i in range(VOCAB_SIZE)]
    weights = [1.0 / (r + 1) for r in range(VOCAB_SIZE)]
    tokens = rng.choices(vocab, weights=weights, k=n * TOKENS_PER_SENTENCE)
    lines: list[str] = []
    for i in range(n):
        if i and rng.random() < workload.dup_share:
            lines.append(lines[rng.randrange(i)])
        else:
            lines.append(" ".join(tokens[i * TOKENS_PER_SENTENCE : (i + 1) * TOKENS_PER_SENTENCE]))
    budget = max(TOKENS_PER_SENTENCE, round(workload.budget_ratio * n * TOKENS_PER_SENTENCE))

    order = list(range(n))
    rng.shuffle(order)
    given = []
    spent = 0
    for sid in order:
        if spent + TOKENS_PER_SENTENCE > budget:
            break
        spent += TOKENS_PER_SENTENCE
        given.append(f"{len(given) + 1}\t{sid}\t0.0\t{spent}")

    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        pool=out_dir / "pool.src",
        in_domain=out_dir / "indomain.src",
        selection=out_dir / "given.selection.tsv",
        pool_lines=lines,
        budget_words=budget,
    )
    _write_lines(inputs.pool, lines)
    _write_lines(inputs.in_domain, lines[::IN_DOMAIN_STRIDE])
    _write_lines(inputs.selection, given)
    return inputs


def commands(workload: Workload, inputs: Inputs, out: Path) -> list[list[str]]:
    """The `subselect` argument lists one iteration of the workload runs, in order.

    Every output lands under ``out``.
    """
    pool, ind = str(inputs.pool), str(inputs.in_domain)
    if not workload.staged:
        return [[
            "select", *workload.select_args, "--threads", "1",
            "--budget-words", str(inputs.budget_words),
            "--in-domain-src", ind, "--ground-src", pool, "--out-dir", str(out),
        ]]
    return [
        ["extract-features", "--in-domain-src", ind, "--ground-src", pool,
         "--out", str(out / "features.tsv")],
        ["train-lm", "--src", ind, "--extra-vocab-src", pool, "--out", str(out / "lm_in.json")],
        ["train-lm", "--src", pool, "--extra-vocab-src", ind, "--out", str(out / "lm_out.json")],
        ["score", "--ground-src", pool, "--lm-in", str(out / "lm_in.json"),
         "--lm-out", str(out / "lm_out.json"), "--out", str(out / "xent.scores.tsv")],
        ["report", "--features", str(out / "features.tsv"), "--ground-src", pool,
         "--selection", str(inputs.selection), "--out-dir", str(out)],
    ]
