"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The dataset-scale check needs the converted public dataset under
``ETTMT_DATA_DIR`` and skips when the files are absent.
"""

import itertools
import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from ettmt.augment import AugmentConfig, augment_damage
from ettmt.baselines import build_dict_model, train_random, translate_dict
from ettmt.corpus import normalize
from ettmt.harness import BenchmarkConfig, run_benchmark
from ettmt.ibm import IbmModel, train_ibm1
from ettmt.metrics import bleu, chrf, score_corpus, ter
from ettmt.modelio import translate
from ettmt.ngram import beam_translate, ngram_distribution, train_naive_bayes, train_ngram
from ettmt.tokenize import detokenize, tokenize_suffix, tokenize_whitespace

from test_harness import write_corpus, write_lexicon

DATA = Path(__file__).parent / "data"


def _report(criterion: str):
    print(f"acceptance - {criterion}: PASS")


def copy_corpus(n_pairs=50, vocab=30, seed=4):
    rnd = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        size = int(rnd.integers(4, 9))
        idx = rnd.choice(vocab, size=size, replace=False)
        pairs.append(([f"s{j}" for j in idx], [f"t{j}" for j in idx]))
    return pairs


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run each kernel once, so first-call costs (imports, numpy set-up) stay
    # outside the timed sections
    from ettmt import _kernels

    a = np.array([1, 2], dtype=np.int32)
    _kernels.levenshtein(a, a)
    train_ibm1([(["a"], ["x"])], iterations=1)


def test_criterion_1_metric_oracle_equivalence():
    fixture = json.loads((DATA / "metric_fixture.json").read_text())
    hyps = [p["hyp"] for p in fixture["pairs"]]
    refs = [p["ref"] for p in fixture["pairs"]]
    started = time.perf_counter()
    got = (bleu(hyps, refs), chrf(hyps, refs), ter(hyps, refs))
    elapsed = time.perf_counter() - started
    assert got[0] == pytest.approx(fixture["bleu"], abs=0.01)
    assert got[1] == pytest.approx(fixture["chrf"], abs=0.01)
    assert got[2] == pytest.approx(fixture["ter"], abs=0.01)
    assert elapsed < 1.0
    _report("1 metric oracle equivalence (10-pair frozen fixture, tol 0.01)")


def test_criterion_2_identity_triple():
    segments = [
        "mi karkanas thahvna",
        "this is the tomb of ane cuclnies",
        "boundaries",
        "venel atelinas dedicated this vase to the sons of tinia",
    ]
    report = score_corpus(segments, list(segments))
    assert report.bleu == 100.0
    assert report.chrf == 100.0
    assert report.ter == 0.0
    _report("2 identity triple (BLEU 100, chr-F 100, TER 0 exactly)")


def test_criterion_3_ibm1_em_sanity():
    pairs = [
        (["das", "haus"], ["the", "house"]),
        (["das", "buch"], ["the", "book"]),
        (["ein", "buch"], ["a", "book"]),
    ]
    started = time.perf_counter()
    table = train_ibm1(pairs, iterations=10)
    elapsed = time.perf_counter() - started
    row = table.row("buch")
    assert max(row, key=row.get) == "book"
    history = table.loglik_history
    for before, after in zip(history, history[1:]):
        assert after >= before - 1e-9
    # brute-force EM oracle agrees with the trained table
    oracle_t, oracle_hist = oracles.oracle_ibm1(pairs, 10)
    assert history[:10] == pytest.approx(oracle_hist, abs=1e-9)
    assert table.prob("buch", "book") == pytest.approx(oracle_t[("buch", "book")], abs=1e-9)
    assert elapsed < 1.0
    _report("3 alignment EM sanity (argmax buch->book, log-likelihood monotone)")


def test_criterion_4_copy_corpus_perfection():
    pairs = copy_corpus()
    sources = [src for src, _ in pairs]
    refs = [" ".join(eng) for _, eng in pairs]
    started = time.perf_counter()

    ngram_model = train_ngram(pairs, n=1)
    ngram_hyps = [" ".join(beam_translate(ngram_model, src)) for src in sources]
    assert bleu(ngram_hyps, refs) == pytest.approx(100.0, abs=0.01)

    ibm_model = IbmModel(train_ibm1(pairs, iterations=10))
    ibm_hyps = [" ".join(translate("ibm1", ibm_model, src)) for src in sources]
    assert bleu(ibm_hyps, refs) == pytest.approx(100.0, abs=0.01)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("4 copy-corpus perfection (unigram + alignment models, BLEU 100)")


def test_criterion_5_dictionary_worked_example(lexicon):
    model = build_dict_model(lexicon)
    tokens = tokenize_whitespace(normalize("itun turuce venel atelinas tinas dlniiaras"))
    assert translate_dict(model, tokens) == ["this", "dedicated", "venel", "atelina", "tinia"]
    _report("5 dictionary worked example reproduced")


def test_criterion_6_dataset_scale_reproduction():
    data_dir = Path(os.environ.get("ETTMT_DATA_DIR", Path.home() / ".cache" / "ettmt"))
    corpus_path = data_dir / "etp.tsv"
    lexicon_path = data_dir / "lexicon.tsv"
    suffix_path = data_dir / "suffixes.txt"
    if not (corpus_path.exists() and lexicon_path.exists()):
        pytest.skip(
            f"prepared dataset not found under {data_dir} (expected etp.tsv and lexicon.tsv; "
            "run `ettmt fetch` and convert the files as described in the README)"
        )
    started = time.perf_counter()

    dict_cfg = BenchmarkConfig(
        corpus=str(corpus_path),
        lexicon=str(lexicon_path),
        suffix_file=str(suffix_path) if suffix_path.exists() else None,
        models=[{"family": "dict"}],
        repeats=1,
        full_eval=True,
    )
    dict_res = run_benchmark(dict_cfg).results[0]
    assert dict_res.mean["bleu"] == pytest.approx(4.505, abs=1.0)
    assert dict_res.mean["chrf"] == pytest.approx(40.771, abs=4.0)
    assert dict_res.mean["ter"] == pytest.approx(68.135, abs=4.0)

    split_cfg = BenchmarkConfig(
        corpus=str(corpus_path),
        lexicon=str(lexicon_path),
        models=[{"family": "random"}, {"family": "ibm1"}],
        repeats=10,
        train_size=0.8,
        seed=0,
    )
    random_res, ibm_res = run_benchmark(split_cfg).results
    assert random_res.mean["bleu"] == pytest.approx(0.324, abs=0.2)
    assert ibm_res.mean["bleu"] == pytest.approx(2.187, abs=1.0)

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report("6 dataset-scale reproduction (dictionary, random, alignment means)")


class TestCriterion7Properties:
    def test_normalization_idempotent_1000(self):
        rnd = random.Random(0)
        pools = [
            lambda: chr(rnd.randint(32, 127)),
            lambda: chr(rnd.randint(0x370, 0x3FF)),  # Greek block
            lambda: rnd.choice("·:|⋮'’́ -śσθφχ"),
        ]
        for _ in range(1000):
            text = "".join(rnd.choice(pools)() for _ in range(rnd.randint(0, 40)))
            once = normalize(text)
            assert normalize(once) == once
            assert set(once) <= set("abcdefghijklmnopqrstuvwxyz -")

    def test_tokenizer_roundtrip_1000(self):
        rnd = random.Random(1)
        letters = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(1000):
            words = []
            for _ in range(rnd.randint(0, 8)):
                core = "".join(rnd.choice(letters + "-") for _ in range(rnd.randint(0, 7)))
                words.append(rnd.choice(letters) + core)
            text = " ".join(words)
            assert detokenize(tokenize_whitespace(text)) == text
            suffixes = ["".join(rnd.choice(letters) for _ in range(rnd.randint(1, 3)))
                        for _ in range(rnd.randint(0, 4))]
            assert detokenize(tokenize_suffix(text, suffixes)) == text

    def test_distributions_normalized_all_families(self):
        pairs = [(["a", "b"], ["x", "y"]), (["c"], ["z", "x", "w"]), (["b", "a", "c"], ["y"])]
        contexts = [("a",), ("b",), ("zz",)]
        for mode in ("ett", "ett-eng"):
            ngram_model = train_ngram(pairs, n=1, context_mode=mode)
            nb_model = train_naive_bayes(pairs, n=1, context_mode=mode)
            eng_slots = ("x",) if mode == "ett-eng" else ()
            for ctx in contexts:
                for model in (ngram_model, nb_model):
                    dist = model.distribution(ctx, eng_slots)
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
                    assert all(p > 0 for p in dist.values())
        ttable = train_ibm1(pairs, iterations=3)
        for f in ttable.source_vocab:
            assert sum(ttable.row(f).values()) == pytest.approx(1.0, abs=1e-6)
        random_model = train_random([eng for _, eng in pairs])
        assert float(random_model.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_beam_width_equality_source_only(self):
        pairs = [(["a", "b", "c"], ["x", "y"]), (["b", "a"], ["z"]), (["c"], ["w", "x"])]
        for n in (1, 2, 3):
            model = train_ngram(pairs, n=n)
            for source in (["a", "b", "c"], ["c", "a"], ["q", "b"], []):
                assert beam_translate(model, source, beams=1) == beam_translate(model, source, beams=8)

    def test_unordered_permutation_invariance(self):
        pairs = [(["a", "b", "c"], ["x", "y", "z"]), (["c", "a"], ["y", "w"])]
        model = train_ngram(pairs, n=3, ordered=False)
        for ctx in [("a", "b", "c"), ("c", "a", "<pad>")]:
            expected = ngram_distribution(model, ctx)
            for perm in itertools.permutations(ctx):
                assert ngram_distribution(model, perm) == expected

    def test_augmentation_preserves_shape(self):
        cfg = AugmentConfig(damage_prob=0.6, damage_geom_p=0.4)
        rng = np.random.default_rng(2)
        for _ in range(300):
            n_tok = int(rng.integers(1, 6))
            tokens = ["".join(rng.choice(list("abcdef"), size=rng.integers(1, 9))) for _ in range(n_tok)]
            damaged, eng = augment_damage((tokens, ["ref"]), cfg, rng)
            assert eng == ["ref"]
            assert len(damaged) == len(tokens)
            for before, after in zip(tokens, damaged):
                assert len(after) == len(before)
                assert set(after) <= set(before) | {"-"}

    def test_benchmark_determinism(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.tsv")
        lexicon = write_lexicon(tmp_path / "l.tsv", tmp_path / "s.txt")
        cfg = dict(
            corpus=str(corpus),
            lexicon=str(lexicon),
            models=[{"family": "random"}, {"family": "ngram", "n": 1}],
            repeats=2,
            seed=9,
            augment={"max_name_replacements": 1, "damage_prob": 0.3, "damage_iterations": 1},
        )
        one = run_benchmark(BenchmarkConfig(**cfg)).to_json(include_wall_clock=False)
        two = run_benchmark(BenchmarkConfig(**cfg)).to_json(include_wall_clock=False)
        assert one == two

    def test_runtime_budget(self, tmp_path):
        started = time.perf_counter()
        self.test_normalization_idempotent_1000()
        self.test_tokenizer_roundtrip_1000()
        self.test_distributions_normalized_all_families()
        self.test_beam_width_equality_source_only()
        self.test_unordered_permutation_invariance()
        self.test_augmentation_preserves_shape()
        self.test_benchmark_determinism(tmp_path)
        assert time.perf_counter() - started < 30.0
        _report("7 property suites (normalization, tokenizer, distributions, beams, augment, determinism)")
