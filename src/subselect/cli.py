"""Command-line interface.

Subcommands: extract-features, train-lm, score, select, oracle, report.
Options may also come from a flat key=value config file (--config);
explicit flags win. Diagnostics go to stderr, data to the output files.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
`run_select` is the one `select` pipeline, run by `oracle.compare_methods`
too. `_submod` (the coverage branch), `_write_method` and `_write_report`
are each spelled once; `--concave` is parsed by argparse, before any input.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from .corpus import TOKENIZERS, load_corpus, read_lines
from .errors import ConfigError, SubselectError
from .features import FEATURE_WEIGHTINGS, check_feature_settings, extract_feature_set, fit_idf, load_feature_set
from .features import save_feature_set
from .lm import check_lm_settings, corpus_vocab, load_lm, save_lm, train_lm
from .oracle import GUARANTEE_FLOOR, _check_size, brute_force_optimal, brute_force_vectors, build_report
from .output import (
    read_selection_ids,
    write_report_files,
    write_scores_tsv,
    write_selected_corpus,
    write_selection_tsv,
    write_summary,
)
from .submodular import ConcaveSpec, check_budget, greedy_select, greedy_select_vectors, sentence_costs
from .xent import rank_and_select, score_corpus, train_domain_pair

logger = logging.getLogger(__name__)

DEFAULT_WORD_BUDGET = 100000.0

# the hand-checkable instance behind `subselect oracle --fixture`
FIXTURE_VECTORS = [{"u1": 9.0}, {"u1": 9.0}, {"u2": 4.0, "u3": 4.0}]
FIXTURE_COSTS = [1, 1, 1]
FIXTURE_BUDGET = 2
# the options that describe an instance, none of which --fixture takes
FIXTURE_FIXED = (
    "budget_words", "budget_sentences", "budget_percent", "cost_mode",
    "ground_src", "in_domain_src", "max_order", "feature_weights", "tokenizer",
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value file of defaults; flags win")
    sub.add_argument("--tokenizer", choices=TOKENIZERS, default="whitespace")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-words", type=float, default=None,
                     help=f"source-word budget (default {DEFAULT_WORD_BUDGET:.0f} when no budget given)")
    sub.add_argument("--budget-sentences", type=int, default=None, help="sentence-count budget")
    sub.add_argument("--budget-percent", type=float, default=None,
                     help="budget as a percentage of the ground set, in (0, 100]")
    sub.add_argument("--cost-mode", choices=("words", "unit"), default=None)


def _add_feature_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-order", type=int, default=7, help="highest n-gram order (default 7)")
    sub.add_argument("--feature-weights", choices=FEATURE_WEIGHTINGS, default="uniform")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="subselect",
        description="Budgeted in-domain subselection of text corpora.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("extract-features", help="build and fit an n-gram feature set")
    _add_common(sub)
    _add_feature_opts(sub)
    sub.add_argument("--in-domain-src", required=True)
    sub.add_argument("--ground-src", required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_extract_features)

    sub = commands.add_parser("train-lm", help="train an n-gram language model")
    _add_common(sub)
    sub.add_argument("--src", required=True)
    sub.add_argument("--order", type=int, default=4)
    sub.add_argument("--smoothing", default="interpolated-wb",
                     help="mle, add-k[:k], or interpolated-wb (default)")
    sub.add_argument("--unk-floor", type=int, default=1)
    sub.add_argument("--no-markers", action="store_true",
                     help="drop sentence start/end markers (analytic test cases)")
    sub.add_argument("--extra-vocab-src", default=None,
                     help="corpus whose tokens join the vocabulary, for a shared event space")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_train_lm)

    sub = commands.add_parser("score", help="cross-entropy-difference score dump")
    _add_common(sub)
    sub.add_argument("--ground-src", required=True)
    sub.add_argument("--lm-in", required=True)
    sub.add_argument("--lm-out", required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_score)

    sub = commands.add_parser("select", help="select a sub-corpus under a budget")
    _add_common(sub)
    _add_budget(sub)
    _add_feature_opts(sub)
    sub.add_argument("--method", choices=("submod", "xent", "both"), default="submod")
    sub.add_argument("--in-domain-src", required=True)
    sub.add_argument("--in-domain-tgt", default=None)
    sub.add_argument("--ground-src", required=True)
    sub.add_argument("--ground-tgt", default=None)
    sub.add_argument("--concave", type=ConcaveSpec.parse, default="sqrt", help="sqrt, log1p, or power:<alpha>")
    sub.add_argument("--variant", choices=("naive", "lazy"), default="lazy")
    sub.add_argument("--lm-order", type=int, default=4)
    sub.add_argument("--lm-smoothing", default="interpolated-wb")
    sub.add_argument("--unk-floor", type=int, default=1)
    sub.add_argument("--threads", type=int, default=1,
                     help="must be >= 1; selection is single-threaded, so it never changes the output")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_select)

    sub = commands.add_parser("oracle", help="check the greedy against the exhaustive optimum")
    _add_common(sub)
    _add_budget(sub)
    _add_feature_opts(sub)
    sub.add_argument("--fixture", action="store_true", help="run the built-in 3-sentence instance")
    sub.add_argument("--in-domain-src", default=None)
    sub.add_argument("--ground-src", default=None)
    sub.add_argument("--concave", type=ConcaveSpec.parse, default="sqrt")
    # None until given, so that --fixture can reject them; cmd_oracle fills
    # in the usual defaults for a corpus instance
    given_only = ("tokenizer", "max_order", "feature_weights")
    sub.set_defaults(func=cmd_oracle, instance_defaults={name: sub.get_default(name) for name in given_only},
                     **dict.fromkeys(given_only))

    sub = commands.add_parser("report", help="coverage/redundancy report for finished selections")
    _add_common(sub)
    sub.add_argument("--features", required=True, help="fitted feature-set file")
    sub.add_argument("--ground-src", required=True)
    sub.add_argument("--selection", action="append", required=True,
                     help="selection TSV (repeatable); named by the file name up to its first dot, "
                          "which must differ between files")
    sub.add_argument("--concave", type=ConcaveSpec.parse, default="sqrt")
    sub.add_argument("--cost-mode", choices=("words", "unit"), default="words")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_report)

    return parser, commands.choices


# ---------------------------------------------------------------------------
# config file


def _parse_config_file(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _apply_config_file(argv: list[str], subs: dict[str, argparse.ArgumentParser]) -> list[str]:
    """Turn --config entries into argv tokens placed before the user's flags."""
    path = None
    rest: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
            continue
        rest.append(tok)
        i += 1
    if path is None:
        return argv
    if not rest or rest[0] not in subs:
        raise ConfigError("--config must follow a subcommand")
    command = rest[0]
    sub = subs[command]
    valid = sub._option_string_actions  # option string -> action
    injected: list[str] = []
    _require_files(path)
    for key, value in _parse_config_file(path).items():
        flag = "--" + key
        action = valid.get(flag)
        if action is None or flag in ("--config", "--help"):  # neither is a setting
            raise ConfigError(f"config file {path}: unknown key {key!r} for command {command}")
        if action.nargs == 0:  # boolean switch
            low = value.lower()
            if low in _TRUE:
                injected.append(flag)
            elif low not in _FALSE:
                raise ConfigError(f"config file {path}: {key} must be a boolean, got {value!r}")
        else:
            injected.extend((flag, value))
    return [command] + injected + rest[1:]


# ---------------------------------------------------------------------------
# budget resolution


def _resolve_budget(args, ground) -> tuple[float, str]:
    given = [
        args.budget_words is not None,
        args.budget_sentences is not None,
        args.budget_percent is not None,
    ]
    if sum(given) > 1:
        raise ConfigError("give exactly one of --budget-words, --budget-sentences, --budget-percent")
    if args.budget_words is not None:
        check_budget(args.budget_words)
        if args.cost_mode == "unit":
            raise ConfigError("--budget-words implies word costs; drop --cost-mode unit")
        return float(args.budget_words), "words"
    if args.budget_sentences is not None:
        check_budget(args.budget_sentences)
        if args.cost_mode == "words":
            raise ConfigError("--budget-sentences implies unit costs; drop --cost-mode words")
        return float(args.budget_sentences), "unit"
    if args.budget_percent is not None:
        p = args.budget_percent
        if not 0.0 < p <= 100.0:
            raise ConfigError(f"percent budget must be in (0, 100], got {p}")
        mode = args.cost_mode or "words"
        share = p / 100.0 * int(sentence_costs(ground, mode).sum())
        return (float(math.ceil(share)) if mode == "unit" else share), mode
    if args.cost_mode == "unit":
        raise ConfigError("unit cost mode needs --budget-sentences or --budget-percent")
    return DEFAULT_WORD_BUDGET, "words"


# ---------------------------------------------------------------------------
# subcommands


def _require_files(*paths: str | None) -> None:
    """A nonexistent input path is a usage error (exit 2), not a runtime one."""
    for path in paths:
        if path is not None and not Path(path).is_file():
            raise ConfigError(f"no such file: {path}")


def _submod(ground, in_domain, budget, cost_mode, concave, max_order, weighting, variant="lazy"):
    """The coverage branch: fit the in-domain n-grams against the pool, then run the greedy."""
    features = fit_idf(extract_feature_set(in_domain, max_order, weighting), ground)
    return features, greedy_select(ground, features, concave, budget, cost_mode=cost_mode, variant=variant)


def run_select(ground, in_domain, method, budget, cost_mode, concave, max_order, weighting,
               variant, lm_order, lm_smoothing, unk_floor):
    """The `select` pipeline for ``method`` (submod, xent or both): each method's (name, state),
    the xent scores (or None) and the `both` report (or None). It calls every layer by its name
    in this module, where perfbench/traced.py and tools/phase_peaks.py patch it."""
    states, scores, report = [], None, None
    if method in ("submod", "both"):
        features, state = _submod(ground, in_domain, budget, cost_mode, concave, max_order, weighting, variant)
        states.append(("submod", state))
    if method in ("xent", "both"):
        lm_in, lm_out = train_domain_pair(in_domain, ground, lm_order, lm_smoothing, unk_floor=unk_floor)
        scores = score_corpus(ground, lm_in, lm_out)
        del lm_in, lm_out  # nothing after scoring reads the pair; free it before rank and report
        states.append(("xent", rank_and_select(ground, scores, budget, cost_mode)))
    if method == "both":
        selections = [(name, state.selected) for name, state in states]
        report = build_report(ground, features, concave, selections, budget, cost_mode)
    return states, scores, report


def _write_method(out_dir: Path, method: str, ground, state) -> None:
    """One method's selection TSV, selected sentences and summary."""
    write_selection_tsv(out_dir / f"{method}.selection.tsv", state)
    tgt = (out_dir / f"{method}.selected.tgt") if ground.parallel else None
    write_selected_corpus(ground, state.selected, out_dir / f"{method}.selected.src", tgt)
    write_summary(out_dir / f"{method}.summary.txt", state, method)


def _write_report(out_dir: Path, report) -> None:
    write_report_files(report, out_dir / "report.txt", out_dir / "report.csv")
    print(report.format_table(), file=sys.stderr)


def cmd_extract_features(args) -> int:
    _require_files(args.in_domain_src, args.ground_src)
    in_domain = load_corpus(args.in_domain_src, None, args.tokenizer)
    ground = load_corpus(args.ground_src, None, args.tokenizer)
    features = fit_idf(extract_feature_set(in_domain, args.max_order, args.feature_weights), ground)
    features.release_ground()  # nothing here reads the ground's enumeration again
    save_feature_set(features, args.out)
    logger.info("wrote %d features (max order %d) to %s", len(features), features.max_order, args.out)
    return 0


def cmd_train_lm(args) -> int:
    _require_files(args.src, args.extra_vocab_src)
    corpus = load_corpus(args.src, None, args.tokenizer)
    extra = None
    if args.extra_vocab_src:
        extra = corpus_vocab(load_corpus(args.extra_vocab_src, None, args.tokenizer), args.unk_floor)
    lm = train_lm(
        corpus,
        order=args.order,
        smoothing=args.smoothing,
        markers=not args.no_markers,
        unk_floor=args.unk_floor,
        extra_vocab=extra,
    )
    save_lm(lm, args.out)
    logger.info("trained order-%d %s model on %d sentence(s), wrote %s",
                lm.order, lm.smoothing, len(corpus), args.out)
    return 0


def cmd_score(args) -> int:
    _require_files(args.ground_src, args.lm_in, args.lm_out)
    ground = load_corpus(args.ground_src, None, args.tokenizer)
    lm_in = load_lm(args.lm_in)
    lm_out = load_lm(args.lm_out)
    scores = score_corpus(ground, lm_in, lm_out)
    write_scores_tsv(args.out, scores)
    logger.info("scored %d sentence(s) to %s", len(scores), args.out)
    return 0


def cmd_select(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    if args.method in ("submod", "both"):
        check_feature_settings(args.max_order, args.feature_weights)
    if args.method in ("xent", "both"):
        check_lm_settings(args.lm_order, args.lm_smoothing, args.unk_floor)
    _require_files(args.ground_src, args.ground_tgt, args.in_domain_src, args.in_domain_tgt)
    ground = load_corpus(args.ground_src, args.ground_tgt, args.tokenizer)
    in_domain = load_corpus(args.in_domain_src, args.in_domain_tgt, args.tokenizer)
    budget, cost_mode = _resolve_budget(args, ground)
    total = int(sentence_costs(ground, cost_mode).sum())
    if budget >= total:
        logger.warning(
            "budget %g covers the whole ground set (total cost %g); "
            "selection is unconstrained", budget, total,
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    states, scores, report = run_select(
        ground, in_domain, args.method, budget, cost_mode, args.concave, args.max_order, args.feature_weights,
        args.variant, args.lm_order, args.lm_smoothing, args.unk_floor,
    )
    if scores is not None:
        write_scores_tsv(out_dir / "xent.scores.tsv", scores)
    for name, state in states:
        _write_method(out_dir, name, ground, state)
        logger.info("%s: %d sentence(s), spent %d", name, len(state.selected), state.spent)
    if report is not None:
        _write_report(out_dir, report)
    return 0


def cmd_oracle(args) -> int:
    if args.fixture:
        given = ["--" + name.replace("_", "-") for name in FIXTURE_FIXED if getattr(args, name) is not None]
        if given:
            raise ConfigError(
                f"--fixture is a fixed instance with its own budget of {FIXTURE_BUDGET}; drop {', '.join(given)}"
            )
        optimal_ids, optimal_f = brute_force_vectors(FIXTURE_VECTORS, FIXTURE_COSTS, args.concave, FIXTURE_BUDGET)
        greedy = greedy_select_vectors(FIXTURE_VECTORS, FIXTURE_COSTS, args.concave, FIXTURE_BUDGET)
    else:
        for name, default in args.instance_defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        if not args.ground_src or not args.in_domain_src:
            raise ConfigError("oracle needs --ground-src and --in-domain-src (or --fixture)")
        _require_files(args.ground_src, args.in_domain_src)
        ground = load_corpus(args.ground_src, None, args.tokenizer)
        in_domain = load_corpus(args.in_domain_src, None, args.tokenizer)
        budget, cost_mode = _resolve_budget(args, ground)
        _check_size(len(ground))  # before the greedy, which brute_force_optimal does not need
        features, greedy = _submod(ground, in_domain, budget, cost_mode, args.concave,
                                   args.max_order, args.feature_weights)
        optimal_ids, optimal_f = brute_force_optimal(ground, features, args.concave, budget, cost_mode)
    # with nothing to cover, the greedy trivially matches
    ratio = greedy.objective / optimal_f if optimal_f > 0 else 1.0
    print(f"optimal_objective={optimal_f!r}")
    print(f"optimal_ids={' '.join(str(i) for i in optimal_ids)}")
    print(f"greedy_objective={greedy.objective!r}")
    print(f"greedy_ids={' '.join(str(i) for i in greedy.selected)}")
    print(f"ratio={ratio!r}")
    if ratio >= GUARANTEE_FLOOR:
        return 0
    logger.warning("greedy/optimal ratio %.4f fell below %.2f", ratio, GUARANTEE_FLOOR)
    return 1


def cmd_report(args) -> int:
    _require_files(args.features, args.ground_src, *args.selection)
    features = load_feature_set(args.features)
    ground = load_corpus(args.ground_src, None, args.tokenizer)
    if features.ground_size != len(ground):
        raise ConfigError(
            f"feature set was fitted against {features.ground_size} sentences, "
            f"but {args.ground_src} has {len(ground)}"
        )
    selections = []
    path_of: dict[str, str] = {}
    for path in args.selection:
        name = Path(path).stem.split(".")[0]
        if not name or any(c in name for c in ",=\n\r"):
            raise ConfigError(f"{path}: its report name {name!r} is empty or holds ',', '=' or a line break")
        if name in path_of:
            raise ConfigError(f"{path_of[name]} and {path} would both be reported as {name!r}; rename one")
        path_of[name] = path
        ids = read_selection_ids(path)
        for sid, lineno in ids.items():
            if sid >= len(ground):
                raise ConfigError(f"{path} line {lineno}: sentence {sid} is not in the {len(ground)}-sentence pool")
        selections.append((name, list(ids)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # no budget is known here: 0.0 says so, and build_report adds no optimum
    _write_report(out_dir, build_report(ground, features, args.concave, selections, 0.0, args.cost_mode))
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    parser, subs = build_parser()
    try:
        argv = _apply_config_file(list(argv), subs)
        args = parser.parse_args(argv)
        if args.config is not None:  # the scanner strips every full --config, so this was abbreviated
            raise ConfigError("spell --config in full; an abbreviated --config is not read")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SubselectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
