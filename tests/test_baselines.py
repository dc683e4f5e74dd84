import logging

import numpy as np
import pytest

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
