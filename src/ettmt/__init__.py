"""Etruscan-English statistical machine translation toolkit."""

from .augment import AugmentConfig, augment_damage, augment_names, augment_pairs
from .baselines import (
    DictModel,
    RandomModel,
    build_dict_model,
    train_random,
    translate_dict,
    translate_random,
)
from .corpus import (
    Inscription,
    Lexicon,
    LexiconEntry,
    ParallelCorpus,
    load_corpus,
    load_lexicon,
    load_suffixes,
    normalize,
    normalize_english,
    save_corpus,
    split_corpus,
)
from .errors import BenchmarkError, DataError
from .harness import BenchmarkConfig, BenchmarkResult, format_table, run_benchmark
from .ibm import AlignTable, IbmModel, TTable, corpus_log_likelihood, train_ibm1, train_ibm2, translate_ibm
from .metrics import MetricReport, bleu, chrf, score_corpus, ter
from .ngram import (
    NaiveBayesModel,
    NgramModel,
    align_pair,
    beam_translate,
    nb_posterior,
    ngram_distribution,
    train_naive_bayes,
    train_ngram,
)
from .tokenize import detokenize, tokenize_suffix, tokenize_whitespace

__version__ = "0.1.0"
