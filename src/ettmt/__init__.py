"""Etruscan-English statistical machine translation toolkit.

Each layer is imported on first use of one of its names (PEP 562), so
`import ettmt` followed by loading or normalizing data never imports numpy
or the model modules. A resolved name is not cached here: every access
reads the owning module's current attribute.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "augment": ("AugmentConfig", "augment_damage", "augment_names", "augment_pairs"),
    "baselines": (
        "DictModel",
        "RandomModel",
        "build_dict_model",
        "train_random",
        "translate_dict",
        "translate_random",
    ),
    "corpus": (
        "Inscription",
        "Lexicon",
        "LexiconEntry",
        "ParallelCorpus",
        "load_corpus",
        "load_lexicon",
        "load_suffixes",
        "normalize",
        "normalize_english",
        "save_corpus",
        "split_corpus",
    ),
    "errors": ("BenchmarkError", "DataError"),
    "harness": ("BenchmarkConfig", "BenchmarkResult", "format_table", "run_benchmark"),
    "ibm": ("AlignTable", "IbmModel", "TTable", "train_ibm1", "train_ibm2", "translate_ibm"),
    "metrics": ("MetricReport", "bleu", "chrf", "score_corpus", "ter"),
    "ngram": (
        "NaiveBayesModel",
        "NgramModel",
        "align_pair",
        "beam_translate",
        "train_naive_bayes",
        "train_ngram",
    ),
    "tokenize": ("detokenize", "tokenize_suffix", "tokenize_whitespace"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    # Any other name, a submodule's included, raises, so `from ettmt import
    # harness` falls back to importing the submodule.
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
