import numpy as np
import pytest

from ettmt.augment import AugmentConfig, augment_damage, augment_names, augment_pairs


class TestNames:
    def test_single_substitution(self, lexicon, rng):
        pair = (["mi", "aveles"], ["i", "am", "of", "avele"])
        out = augment_names(pair, lexicon, AugmentConfig(max_name_replacements=2), rng)
        assert out == [(["mi", "larthes"], ["i", "am", "of", "larth"])]
        # input untouched
        assert pair == (["mi", "aveles"], ["i", "am", "of", "avele"])

    def test_no_name_no_output(self, lexicon, rng):
        out = augment_names((["clan", "turuce"], ["son", "dedicated"]), lexicon,
                            AugmentConfig(max_name_replacements=3), rng)
        assert out == []

    def test_zero_cap(self, lexicon, rng):
        pair = (["mi", "aveles"], ["i", "am", "of", "avele"])
        assert augment_names(pair, lexicon, AugmentConfig(max_name_replacements=0), rng) == []

    def test_cap_respected(self, lexicon, rng):
        pair = (["aveles", "larthes"], ["avele", "larth"])
        out = augment_names(pair, lexicon, AugmentConfig(max_name_replacements=1), rng)
        assert len(out) == 1

    def test_gloss_must_appear_in_english(self, lexicon, rng):
        # "aveles" present but its gloss is not on the English side
        out = augment_names((["mi", "aveles"], ["something", "else"]), lexicon,
                            AugmentConfig(max_name_replacements=2), rng)
        assert out == []

    def test_no_feature_partner(self, lexicon, rng):
        # "venel" is the only praenomen-nominative entry
        out = augment_names((["venel"], ["venel"]), lexicon, AugmentConfig(max_name_replacements=2), rng)
        assert out == []

    def test_multiword_gloss_span(self, lexicon, rng):
        # substitution positions: token counts match when glosses are single tokens
        pair = (["mi", "larthes"], ["i", "am", "of", "larth"])
        out = augment_names(pair, lexicon, AugmentConfig(max_name_replacements=1), rng)
        assert out == [(["mi", "aveles"], ["i", "am", "of", "avele"])]
        assert len(out[0][0]) == len(pair[0]) and len(out[0][1]) == len(pair[1])

    def test_deterministic_under_seed(self, lexicon):
        pair = (["mi", "aveles"], ["i", "am", "of", "avele"])
        cfg = AugmentConfig(max_name_replacements=2)
        a = augment_names(pair, lexicon, cfg, np.random.default_rng(9))
        b = augment_names(pair, lexicon, cfg, np.random.default_rng(9))
        assert a == b

    def test_multiword_gloss_changes_english_length(self, rng):
        from ettmt.corpus import Lexicon, LexiconEntry
        from conftest import feature_vector

        feats = feature_vector("place name", "locative")
        lex = Lexicon(
            (
                LexiconEntry("velsnalthi", "at velzna", feats),
                LexiconEntry("tarchnalthi", "at tarquinia proper", feats),
            )
        )
        pair = (["mi", "velsnalthi"], ["i", "am", "at", "velzna"])
        out = augment_names(pair, lex, AugmentConfig(max_name_replacements=1), rng)
        assert out == [(["mi", "tarchnalthi"], ["i", "am", "at", "tarquinia", "proper"])]


class _ScriptedRng:
    """Minimal stand-in for a Generator with scripted draw outcomes."""

    def __init__(self, randoms, geometrics):
        self._randoms = list(randoms)
        self._geometrics = list(geometrics)

    def random(self):
        return self._randoms.pop(0)

    def geometric(self, p):
        return self._geometrics.pop(0)


class TestDamage:
    def test_forced_end_damage(self):
        cfg = AugmentConfig(damage_prob=1.0, damage_geom_p=1.0)
        out, eng = augment_damage((["clan"], ["son"]), cfg, np.random.default_rng(0))
        assert out == ["-la-"]
        assert eng == ["son"]

    def test_end_only_single_character(self):
        # start coin fails, end coin succeeds with one damaged character
        cfg = AugmentConfig(damage_prob=0.5, damage_geom_p=0.5)
        rng = _ScriptedRng(randoms=[0.9, 0.1], geometrics=[1])
        out, _ = augment_damage((["clan"], ["son"]), cfg, rng)
        assert out == ["cla-"]

    def test_both_ends_start_one_end_two(self):
        cfg = AugmentConfig(damage_prob=0.5, damage_geom_p=0.5)
        rng = _ScriptedRng(randoms=[0.1, 0.1], geometrics=[1, 2])
        out, _ = augment_damage((["clan"], ["son"]), cfg, rng)
        assert out == ["-l--"]

    def test_start_only_two_characters(self):
        cfg = AugmentConfig(damage_prob=0.5, damage_geom_p=0.5)
        rng = _ScriptedRng(randoms=[0.1, 0.9], geometrics=[2])
        out, _ = augment_damage((["clan"], ["son"]), cfg, rng)
        assert out == ["--an"]

    def test_zero_prob_unchanged(self, rng):
        cfg = AugmentConfig(damage_prob=0.0)
        pair = (["clan", "thahvna"], ["son", "container"])
        assert augment_damage(pair, cfg, rng) == (["clan", "thahvna"], ["son", "container"])

    def test_lengths_and_alphabet_preserved(self):
        cfg = AugmentConfig(damage_prob=0.7, damage_geom_p=0.3)
        rng = np.random.default_rng(42)
        tokens = ["cleusinas", "laris", "larisal", "clan", "mi"]
        for _ in range(50):
            out, _ = augment_damage((tokens, ["x"]), cfg, rng)
            assert len(out) == len(tokens)
            for before, after in zip(tokens, out):
                assert len(after) == len(before)
                assert set(after) <= set(before) | {"-"}

    def test_truncation_short_token(self):
        # a one-letter token cannot lose more than one character
        cfg = AugmentConfig(damage_prob=1.0, damage_geom_p=1.0)
        out, _ = augment_damage((["a"], ["x"]), cfg, np.random.default_rng(1))
        assert out == ["-"]

    def test_geometric_tail(self):
        # with p=0.5 some draws must exceed one damaged character
        cfg = AugmentConfig(damage_prob=1.0, damage_geom_p=0.5)
        rng = np.random.default_rng(3)
        seen_multi = False
        for _ in range(100):
            out, _ = augment_damage((["cleusinas"], ["x"]), cfg, rng)
            if out[0].startswith("--") or out[0].endswith("--"):
                seen_multi = True
        assert seen_multi

    def test_deterministic_under_seed(self):
        cfg = AugmentConfig(damage_prob=0.5, damage_geom_p=0.4)
        pair = (["cleusinas", "laris"], ["x"])
        a = augment_damage(pair, cfg, np.random.default_rng(5))
        b = augment_damage(pair, cfg, np.random.default_rng(5))
        assert a == b


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(damage_prob=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(damage_geom_p=0.0)
        with pytest.raises(ValueError):
            AugmentConfig(max_name_replacements=-1)

    def test_defaults_damage_once(self):
        # with no damage pass the damage_prob / damage_geom_p defaults would do nothing
        assert AugmentConfig().damage_iterations == 1


class TestAugmentPairs:
    def test_expansion_counts(self, lexicon):
        pairs = [(["mi", "aveles"], ["i", "am", "of", "avele"]), (["clan"], ["son"])]
        cfg = AugmentConfig(max_name_replacements=1, damage_prob=1.0, damage_geom_p=1.0,
                            damage_iterations=2, seed=0)
        out = augment_pairs(pairs, lexicon, cfg)
        # originals + 1 name swap + 2 damaged copies of each original
        assert len(out) == 2 + 1 + 4
        assert out[:2] == pairs

    def test_deterministic(self, lexicon):
        pairs = [(["mi", "aveles"], ["i", "am", "of", "avele"])]
        cfg = AugmentConfig(max_name_replacements=1, damage_prob=0.5, damage_iterations=1, seed=11)
        assert augment_pairs(pairs, lexicon, cfg) == augment_pairs(pairs, lexicon, cfg)
