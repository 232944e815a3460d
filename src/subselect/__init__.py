"""Budgeted in-domain subselection of text corpora.

Two selectors over a line-aligned ground corpus: greedy maximization of
a concave-saturated feature-coverage objective under a word or sentence
budget (naive and lazy variants), and a cross-entropy-difference ranking
baseline backed by n-gram language models. A brute-force oracle and
coverage/redundancy metrics support desk-scale verification.
"""

from .corpus import Corpus, Sentence, load_corpus, tokenize
from .errors import (
    AlignmentError,
    ConfigError,
    EmptyCorpusError,
    SizeCapError,
    StateError,
    SubselectError,
)
from .features import (
    FeatureInfo,
    FeatureSet,
    FeatureVector,
    extract_feature_set,
    featurize,
    fit_idf,
    load_feature_set,
    save_feature_set,
)
from .lm import (
    NgramLanguageModel,
    corpus_vocab,
    load_lm,
    log_prob,
    save_lm,
    train_lm,
)
from .oracle import (
    ComparisonReport,
    CoverageStats,
    MethodMetrics,
    brute_force_optimal,
    brute_force_vectors,
    build_report,
    compare_methods,
    coverage_report,
    method_metrics,
)
from .submodular import (
    ConcaveSpec,
    SelectionState,
    SelectionStep,
    evaluate,
    greedy_select,
    greedy_select_vectors,
    marginal_gain,
)
from .xent import (
    ScoredSentence,
    rank_and_select,
    score_corpus,
    train_domain_pair,
    xent_score,
)

__version__ = "0.1.0"
