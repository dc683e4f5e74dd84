import json
import logging
import re

import numpy as np
import pytest

import oracles
from ettmt.baselines import (
    MAX_LENGTH,
    DictModel,
    RandomModel,
    build_dict_model,
    train_random,
    translate_dict,
    translate_random,
)
from ettmt.errors import DataError
from ettmt.tokenize import tokenize_suffix, tokenize_whitespace


class TestTrainRandom:
    def test_mean_and_sample_std(self):
        model = train_random([["a", "b"], ["a", "b", "c", "d"]])
        assert model.length_mean == pytest.approx(3.0)
        assert model.length_std == pytest.approx(2 ** 0.5, abs=1e-9)

    def test_identical_sequences_zero_std(self):
        model = train_random([["a", "b"], ["c", "d"], ["e", "f"]])
        assert model.length_std == 0.0

    def test_single_sequence_errors(self):
        with pytest.raises(ValueError):
            train_random([["a", "b"]])

    def test_longest_sentence_bounds_the_model_file(self):
        # the widest spread two sentences can give still loads
        model = train_random([["a"] * MAX_LENGTH, []])
        assert RandomModel.from_dict(model.to_dict()).length_std > MAX_LENGTH / 2
        with pytest.raises(DataError, match=f"at most {MAX_LENGTH} tokens, got {MAX_LENGTH + 1}"):
            train_random([["a"] * (MAX_LENGTH + 1), []])

    def test_unigram_distribution(self):
        model = train_random([["a", "a", "b"], ["b", "c", "b"]])
        dist = dict(zip(model.tokens, model.probs))
        assert dist["a"] == pytest.approx(2 / 6)
        assert dist["b"] == pytest.approx(3 / 6)
        assert sum(model.probs) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in model.probs)


class TestTranslateRandom:
    def test_degenerate_length(self):
        model = train_random([["a", "b", "c"], ["d", "e", "f"]])
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert len(translate_random(model, ["whatever"], rng)) == 3

    def test_seed_deterministic(self):
        model = train_random([["a", "b"], ["c", "d", "e"]])
        one = translate_random(model, [], np.random.default_rng(7))
        two = translate_random(model, [], np.random.default_rng(7))
        assert one == two

    def test_source_ignored(self):
        model = train_random([["a", "b"], ["c", "d", "e"]])
        one = translate_random(model, ["x"], np.random.default_rng(3))
        two = translate_random(model, ["completely", "different"], np.random.default_rng(3))
        assert one == two

    def test_concentrated_distribution(self):
        model = train_random([["x", "x"], ["x", "x", "x"]])
        out = translate_random(model, [], np.random.default_rng(1))
        assert set(out) <= {"x"}

    def test_length_statistics(self):
        # sample mean over many draws stays within 3 sigma of the mean
        model = RandomModel(
            length_mean=10.0, length_std=2.0, tokens=("w",), probs=np.array([1.0])
        )
        rng = np.random.default_rng(99)
        draws = [len(translate_random(model, [], rng)) for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(10.0, abs=3 * 2.0 / 100 + 0.01)

    def test_negative_lengths_clamp_to_empty(self):
        model = RandomModel(length_mean=-5.0, length_std=0.5, tokens=("w",), probs=np.array([1.0]))
        assert translate_random(model, [], np.random.default_rng(0)) == []


    def test_draws_on_a_cdf_step_skip_zero_probability_tokens(self):
        class FixedDraws:  # a generator whose length draw is the mean and whose uniforms are given
            def normal(self, mean, std):
                return mean

            def random(self, size):
                return np.array([0.0, 0.5])[:size]

        model = RandomModel(length_mean=2.0, length_std=0.0, tokens=("a", "b", "c"), probs=np.array([0.0, 0.5, 0.5]))
        # 0.0 and 0.5 equal the CDF's first two steps; the token after each step is drawn
        assert translate_random(model, [], FixedDraws()) == ["b", "c"]

    def test_cdf_is_built_once(self):
        model = train_random([["a", "a", "b"], ["b", "c", "b"]])
        assert model.cdf is model.cdf
        assert model.cdf.tolist() == pytest.approx([2 / 6, 5 / 6, 1.0])
        assert model.cdf[-1] == 1.0


# vocabulary sizes: the smallest ones, the score workload's (about 1,800) and a large one
SIZES = [1, 2, 3, 1_785, 20_000]


def _probs(kind: str, size: int) -> np.ndarray:
    """A distribution over size tokens: equal, with zero entries (first and last among them),
    with subnormal entries, or with one entry holding nearly all the mass."""
    if kind == "uniform":
        weights = np.ones(size)
    elif kind == "zeros":
        weights = (np.arange(size) % 3).astype(np.float64)
        if size > 2:
            weights[-1] = 0.0
        weights[size // 2] = 1.0
    elif kind == "subnormal":  # every other entry, the first among them
        probs = np.ones(1) if size == 1 else (np.arange(size) % 2) / (size // 2)
        probs[probs == 0] = np.finfo(np.float64).tiny / 4
        return probs
    else:
        weights = np.full(size, 1e-9)
        weights[size // 2] = 1.0
    return weights / weights.sum()


class TestTranslateRandomOracle:
    """translate_random against the former Generator.choice(p=probs) draw (tests/oracles.py):
    the same tokens, and the generator left in the same state, sentence after sentence."""

    @staticmethod
    def _agree(model, seeds=(0, 1, 7, 2**40 + 3), sentences=25) -> set[int]:
        lengths = set()
        for seed in seeds:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(sentences):
                got = translate_random(model, ["ignored"], rng)
                assert got == oracles.oracle_translate_random(model, ["ignored"], ref)
                assert rng.bit_generator.state == ref.bit_generator.state
                lengths.add(len(got))
        return lengths

    @pytest.mark.parametrize("kind", ["uniform", "zeros", "subnormal", "dominant"])
    @pytest.mark.parametrize("size", SIZES)
    def test_constructed_and_loaded(self, size, kind):
        probs = _probs(kind, size)
        if kind == "subnormal" and size > 1:
            assert 0.0 < probs.min() < np.finfo(np.float64).tiny
        # mean 2, spread 3: about a third of the drawn lengths are <= 0
        model = RandomModel(length_mean=2.0, length_std=3.0, tokens=tuple(f"w{i}" for i in range(size)), probs=probs)
        loaded = RandomModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert np.array_equal(loaded.probs, probs)
        for built in (model, loaded):
            lengths = self._agree(built)
            assert 0 in lengths and max(lengths) > 0

    @pytest.mark.parametrize("size", SIZES)
    def test_trained(self, size):
        gen = np.random.default_rng(size)
        # every word once, then skewed repeats; empty sentences make some drawn lengths <= 0
        words = [f"w{i}" for i in range(size)] + [f"w{i}" for i in (gen.random(3 * size) ** 4 * size).astype(int)]
        sentences, start = [[], []], 0
        while start < len(words):
            stop = start + int(gen.integers(0, 6))
            sentences.append(words[start:stop])
            start = stop
        model = train_random(sentences)
        assert len(model.tokens) == size
        lengths = self._agree(model)
        assert 0 in lengths and max(lengths) > 0


class TestRandomModelChecks:
    """A random model checks its numbers when it is built, whether trained, loaded or constructed."""

    @pytest.mark.parametrize("probs, message", [
        ([1.5, -0.5], "probs entry must be >= 0, got -0.5"),
        ([np.nan, 1.0], "probs entry must be finite, got nan"),
        ([-np.inf, 1.0], "probs entry must be finite, got -inf"),
        ([0.9, 0.9], "probs must sum to 1, got 1.8"),
        ([0.5, 0.5 - 1e-6], "probs must sum to 1, got 0.999999"),
        ([1.0], "probs must be as long as tokens (2)"),
        ([[0.5, 0.5]], "probs must be as long as tokens (2)"),
    ])
    def test_probs(self, probs, message):
        with pytest.raises(DataError, match=re.escape(message)):
            RandomModel(length_mean=3.0, length_std=1.0, tokens=("i", "am"), probs=np.array(probs))

    @pytest.mark.parametrize("mean, std, message", [
        (np.nan, 1.0, "length_mean must be finite, got nan"),
        (1e20, 1.0, f"length_mean must be <= {MAX_LENGTH} tokens, got 1e+20"),
        (3.0, -1.0, "length_std must be >= 0, got -1.0"),
        (3.0, np.inf, "length_std must be finite, got inf"),
    ])
    def test_lengths(self, mean, std, message):
        with pytest.raises(DataError, match=re.escape(message)):
            RandomModel(length_mean=mean, length_std=std, tokens=("i",), probs=np.array([1.0]))

    def test_no_tokens(self):
        with pytest.raises(DataError, match=re.escape("probs must sum to 1, got 0.0")):
            RandomModel(length_mean=3.0, length_std=1.0, tokens=(), probs=np.array([]))


class TestDictModel:
    def test_build_size(self, lexicon):
        model = build_dict_model(lexicon)
        # translatable entries only
        assert "dlniiaras" not in model.table
        assert model.table["itun"] == "this"

    def test_duplicate_keeps_first(self, caplog):
        from ettmt.corpus import Lexicon, LexiconEntry

        z = tuple([0] * 54)
        lex = Lexicon(
            (
                LexiconEntry("itun", "this", z),
                LexiconEntry("itun", "that", z),
            )
        )
        with caplog.at_level(logging.WARNING):
            model = build_dict_model(lex)
        assert model.table["itun"] == "this"
        assert any("duplicate" in r.message for r in caplog.records)

    def test_duplicates_give_one_warning(self, caplog):
        from ettmt.corpus import Lexicon, LexiconEntry

        z = tuple([0] * 54)
        keys = [f"k{i}" for i in range(8)]
        entries = [LexiconEntry(k, "first", z) for k in keys]
        entries += [LexiconEntry(k, "again", z) for k in keys + keys[:2]]
        with caplog.at_level(logging.WARNING):
            model = build_dict_model(Lexicon(tuple(entries)))
        assert set(model.table.values()) == {"first"}
        assert [r.getMessage() for r in caplog.records] == [
            "8 duplicate dictionary keys kept their first gloss: 'k0', 'k1', 'k2', 'k3', 'k4', ..."
        ]

    def test_worked_sentence(self, lexicon):
        model = build_dict_model(lexicon)
        tokens = tokenize_whitespace("itun turuce venel atelinas tinas dlniiaras")
        assert translate_dict(model, tokens) == ["this", "dedicated", "venel", "atelina", "tinia"]

    def test_all_unknown(self, lexicon):
        model = build_dict_model(lexicon)
        assert translate_dict(model, ["zzz", "qqq"]) == []

    def test_multiword_gloss_expands(self, lexicon):
        model = build_dict_model(lexicon)
        assert translate_dict(model, ["mi"]) == ["i", "am"]

    def test_suffix_tokens_looked_up(self, lexicon):
        model = build_dict_model(lexicon)
        tokens = tokenize_suffix("tinas clan", lexicon.suffixes)
        # "tinas" splits to tina / -s; the root is unknown but the suffix
        # entry "-s" resolves to "of"
        assert tokens == ["tina", "-s", "clan"]
        assert translate_dict(model, tokens) == ["of", "son"]

    def test_order_preserved_and_unknown_invariance(self, lexicon):
        model = build_dict_model(lexicon)
        with_unknown = translate_dict(model, ["itun", "zz", "turuce"])
        without = translate_dict(model, ["itun", "turuce"])
        assert with_unknown == without == ["this", "dedicated"]

    def test_roundtrip_serialization(self, lexicon):
        model = build_dict_model(lexicon)
        again = DictModel.from_dict(model.to_dict())
        assert again.table == model.table

    def test_tsv_serialization(self, lexicon, tmp_path):
        from ettmt.baselines import load_dict_tsv, save_dict_tsv

        model = build_dict_model(lexicon)
        path = tmp_path / "dict.tsv"
        save_dict_tsv(model, path)
        again = load_dict_tsv(path)
        assert again.table == model.table
        header = path.read_text().splitlines()[0]
        assert header == "etruscan\tenglish"

    def test_tsv_model_via_modelio(self, lexicon, tmp_path):
        from ettmt.modelio import load_model, save_model

        model = build_dict_model(lexicon)
        path = tmp_path / "dict.tsv"
        save_model("dict", model, path)
        family, again = load_model(path)
        assert family == "dict"
        assert again.table == model.table
