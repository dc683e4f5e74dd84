"""The `ettmt` package's lazy exports: the names it gives and the modules it imports for them."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ettmt

from test_harness import write_corpus, write_lexicon

SRC = Path(__file__).resolve().parent.parent / "src"

# submodule -> the names `ettmt` exports from it, in `__all__` order
EXPORTS = {
    "augment": ["AugmentConfig", "augment_damage", "augment_names", "augment_pairs"],
    "baselines": ["DictModel", "RandomModel", "build_dict_model", "train_random", "translate_dict",
                  "translate_random"],
    "corpus": ["Inscription", "Lexicon", "LexiconEntry", "ParallelCorpus", "load_corpus", "load_lexicon",
               "load_suffixes", "normalize", "normalize_english", "save_corpus", "split_corpus"],
    "errors": ["BenchmarkError", "DataError"],
    "harness": ["BenchmarkConfig", "BenchmarkResult", "format_table", "run_benchmark"],
    "ibm": ["AlignTable", "IbmModel", "TTable", "train_ibm1", "train_ibm2", "translate_ibm"],
    "metrics": ["MetricReport", "bleu", "chrf", "score_corpus", "ter"],
    "ngram": ["NaiveBayesModel", "NgramModel", "align_pair", "beam_translate", "train_naive_bayes",
              "train_ngram"],
    "tokenize": ["detokenize", "tokenize_suffix", "tokenize_whitespace"],
}
OWNED = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_is_the_export_list():
    assert ettmt.__all__ == [name for _, name in OWNED]


@pytest.mark.parametrize("module, name", OWNED, ids=[name for _, name in OWNED])
def test_name_is_its_modules_object(module, name):
    assert getattr(ettmt, name) is getattr(importlib.import_module(f"ettmt.{module}"), name)


def test_dir_lists_every_name():
    assert set(ettmt.__all__) <= set(dir(ettmt))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from ettmt import *", namespace)
    assert all(namespace[name] is getattr(ettmt, name) for name in ettmt.__all__)


def test_names_follow_a_rebound_module_attribute(monkeypatch):
    # perfbench/tracing.py swaps a layer's functions in and back out; the package must not keep either
    monkeypatch.setattr(ettmt.corpus, "load_corpus", stand_in := object())
    assert ettmt.load_corpus is stand_in
    monkeypatch.undo()
    assert ettmt.load_corpus is importlib.import_module("ettmt.corpus").load_corpus


# Run in a fresh interpreter, since this process has imported every layer already.
FRESH = """
import json, sys
import ettmt

corpus_path, lexicon_path, suffix_path = sys.argv[1:]
corpus, _ = ettmt.load_corpus(corpus_path)
lexicon = ettmt.load_lexicon(lexicon_path, suffix_path)
assert ettmt.normalize("mi θ") == "mi th" and len(corpus) and lexicon.suffixes
after_load = sorted(m for m in ("numpy", "ettmt.harness", "ettmt.metrics", "ettmt.fetch") if m in sys.modules)
import ettmt.cli
after_cli = "ettmt.fetch" in sys.modules
try:
    ettmt.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([after_load, after_cli, unknown]))
"""


def test_loading_data_imports_no_model_layer(tmp_path):
    corpus = write_corpus(tmp_path / "c.tsv")
    lexicon = write_lexicon(tmp_path / "lex.tsv", tmp_path / "suffixes.txt")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", FRESH, str(corpus), str(lexicon), str(tmp_path / "suffixes.txt")],
                         env=env, capture_output=True, text=True, check=True).stdout
    after_load, after_cli, unknown = json.loads(out.splitlines()[-1])
    assert after_load == []
    assert after_cli is False
    assert unknown == "module 'ettmt' has no attribute 'no_such_name'"
