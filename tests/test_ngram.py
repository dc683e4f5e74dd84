import itertools
import math
import random
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ettmt.ngram
from ettmt import modelio
from ettmt.errors import DataError
from ettmt.ngram import (
    CONTEXT_ETT,
    CONTEXT_ETT_ENG,
    EOS,
    PAD,
    NaiveBayesModel,
    _log,
    NgramModel,
    align_pair,
    beam_translate,
    check_settings,
    train_naive_bayes,
    train_ngram,
    training_positions,
)


class TestAlignment:
    def test_left_padding_contexts(self):
        positions = list(training_positions(["e1", "e2"], ["g1", "g2"], 3, CONTEXT_ETT))
        assert positions[0] == ((PAD, PAD, "e1"), (), "g1")
        assert positions[1] == ((PAD, "e1", "e2"), (), "g2")
        # the end-of-sequence marker gets its own position
        assert positions[2] == (("e1", "e2", PAD), (), EOS)

    def test_n1_no_left_padding(self):
        src, targets = align_pair(["a", "b"], ["x", "y"], 1)
        assert src == ["a", "b", PAD]
        assert targets == ["x", "y", EOS]

    def test_short_english_pads_targets(self):
        _, targets = align_pair(["a", "b", "c", "d"], ["x"], 1)
        assert targets == ["x", EOS, PAD, PAD]

    def test_short_source_pads_source(self):
        src, targets = align_pair(["a"], ["x", "y", "z"], 2)
        assert src == [PAD, "a", PAD, PAD, PAD]
        assert targets == ["x", "y", "z", EOS]

    def test_english_history_slots(self):
        positions = list(training_positions(["e1", "e2"], ["g1", "g2"], 2, CONTEXT_ETT_ENG))
        assert positions[0] == ((PAD, "e1"), (PAD, PAD), "g1")
        assert positions[1] == (("e1", "e2"), (PAD, "g1"), "g2")


def _probs(model, src_slots, eng_slots=()) -> dict[str, float]:
    """exp(-costs) by target: the probabilities the decoder runs on."""
    return dict(zip(model.vocab, np.exp(-model.costs(src_slots, eng_slots)).tolist()))


class TestTrainNgram:
    def test_single_pair_count(self):
        model = train_ngram([(["a"], ["x"])], n=1)
        assert model.counts[("a",)] == {"x": 1}

    def test_unordered_contexts_share_keys(self):
        pairs = [(["a", "b"], ["x", "y"]), (["b", "a"], ["x", "y"])]
        model = train_ngram(pairs, n=2, ordered=False)
        # both orderings of the source bigram land on the sorted key
        assert model.counts[("a", "b")]["y"] == 2

    def test_even_split_before_smoothing(self):
        model = train_ngram([(["a"], ["x"]), (["a"], ["y"])], n=1)
        bucket = model.counts[("a",)]
        assert bucket["x"] == bucket["y"] == 1

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            train_ngram([], n=1)

    def test_serialization_roundtrip(self):
        model = train_ngram([(["a", "b"], ["x"]), (["b"], ["y", "z"])], n=2, ordered=False)
        again = NgramModel.from_dict(model.to_dict())
        assert again.counts == model.counts
        assert again.vocab == model.vocab
        ctx = ((PAD, "a"), ())
        assert again.costs(*ctx).tolist() == model.costs(*ctx).tolist()


class TestNgramDistribution:
    def test_unseen_context_uniform(self):
        model = train_ngram([(["a"], ["x"]), (["b"], ["y"])], n=1)
        dist = _probs(model, ("never-seen",))
        assert len(dist) == 4  # x, y, EOS, PAD
        for p in dist.values():
            assert p == pytest.approx(0.25)

    def test_smoothing_formula(self):
        model = train_ngram([(["a"], ["x"])], n=1, alpha=1.0)
        dist = _probs(model, ("a",))
        # V = {x, EOS, PAD}; count(x|a)=1, total(a)=1
        assert dist["x"] == pytest.approx(2 / 4)
        assert dist[EOS] == pytest.approx(1 / 4)
        assert dist[PAD] == pytest.approx(1 / 4)

    def test_sums_to_one_and_positive(self):
        pairs = [(["a", "b"], ["x"]), (["c"], ["y", "z", "w"]), (["a"], [])]
        for n, mode, ordered in itertools.product((1, 2, 3), (CONTEXT_ETT, CONTEXT_ETT_ENG), (True, False)):
            model = train_ngram(pairs, n=n, context_mode=mode, ordered=ordered)
            for src_slots, eng_slots, _ in training_positions(["a", "q"], ["x"], n, mode):
                dist = _probs(model, src_slots, eng_slots)
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
                assert all(p > 0 for p in dist.values())

    def test_permutation_invariance_unordered(self):
        pairs = [(["a", "b", "c"], ["x", "y", "z"]), (["c", "b"], ["y", "x"])]
        model = train_ngram(pairs, n=3, ordered=False)
        base = ("a", "b", "c")
        expected = model.costs(base).tolist()
        for perm in itertools.permutations(base):
            assert model.costs(perm).tolist() == expected

    def test_arity_checked(self):
        model = train_ngram([(["a"], ["x"])], n=2)
        with pytest.raises(ValueError, match="expected 2 source slots, got 1"):
            model.costs(("a",))

    def test_unordered_keeps_english_slot_order(self):
        # only the source slots are canonicalized; the generated-English
        # history is inherently ordered
        pairs = [(["a", "b"], ["x", "y"]), (["b", "a"], ["y", "x"])]
        model = train_ngram(pairs, n=2, context_mode=CONTEXT_ETT_ENG, ordered=False)
        src = ("a", "b")
        assert model.costs(("b", "a"), (PAD, "x")).tolist() == model.costs(src, (PAD, "x")).tolist()
        assert model.costs(src, ("x", PAD)).tolist() != model.costs(src, (PAD, "x")).tolist()


class TestNaiveBayes:
    def test_posterior_argmax_single_pair(self):
        model = train_naive_bayes([(["a"], ["x"])], n=1)
        assert model.vocab[int(model.costs(("a",)).argmin())] == "x"

    def test_posterior_sums_to_one(self):
        model = train_naive_bayes([(["a", "b"], ["x", "y"]), (["b"], ["z"])], n=2)
        post = _probs(model, ("a", "b"))
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        model = train_naive_bayes([(["a"], ["x"]), (["a"], ["y"])], n=1)
        post = _probs(model, ("a",))
        assert post["x"] == pytest.approx(post["y"], abs=1e-12)

    def test_log_space_matches_direct_space(self):
        pairs = [(["a", "b"], ["x", "y"]), (["b", "c"], ["y"]), (["a"], ["z"])]
        model = train_naive_bayes(pairs, n=2, context_mode=CONTEXT_ETT_ENG)
        prior = oracles.oracle_nb_prior(model)
        conditionals = [
            {t: {v: oracles.oracle_nb_slot_likelihood(model, slot, t, v) for v in model.slot_vocabs[slot]}
             for t in model.vocab}
            for slot in range(len(model.slot_vocabs))
        ]
        context = ("a", "b", PAD, "x")
        direct = oracles.oracle_factored_posterior(prior, conditionals, context)
        log_space = _probs(model, ("a", "b"), (PAD, "x"))
        for target in model.vocab:
            assert log_space[target] == pytest.approx(direct[target], abs=1e-9)

    def test_prior_scaling_keeps_argmax(self):
        # multiplying every prior by a constant cancels in the normalization
        pairs = [(["a"], ["x"]), (["a"], ["x"]), (["a"], ["y"])]
        model = train_naive_bayes(pairs, n=1)
        costs = model.costs(("a",))
        prior = oracles.oracle_nb_prior(model)
        scaled = {t: 7.5 * p for t, p in prior.items()}
        scores = {
            t: scaled[t] * oracles.oracle_nb_slot_likelihood(model, 0, t, "a") for t in model.vocab
        }
        assert max(scores, key=scores.get) == model.vocab[int(costs.argmin())]

    def test_conditionals_sum_to_one(self):
        # the log-likelihoods `costs` adds: a slot value's override, else the slot's default
        model = train_naive_bayes([(["a", "b"], ["x"]), (["c"], ["y", "z"])], n=2)
        _, defaults, overrides = model._cost_tables
        for slot, vocab in enumerate(model.slot_vocabs):
            for t in range(len(model.vocab)):
                total = 0.0
                for v in vocab:
                    idx, logs = overrides[slot].get(v, ([], []))
                    hits = [log for i, log in zip(list(idx), list(logs)) if i == t]
                    total += math.exp(hits[0] if hits else defaults[slot][t])
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_serialization_roundtrip(self):
        model = train_naive_bayes([(["a", "b"], ["x", "y"])], n=2, context_mode=CONTEXT_ETT_ENG)
        again = NaiveBayesModel.from_dict(model.to_dict())
        ctx = (("a", "b"), (PAD, "x"))
        assert again.costs(*ctx).tolist() == pytest.approx(model.costs(*ctx).tolist())


# (setting, bad value, the DataError message every entry point gives for it)
BAD_NUMBERS = [
    ("alpha", 0, "alpha must be a finite number > 0, got 0"),
    ("alpha", -0.5, "alpha must be a finite number > 0, got -0.5"),
    ("alpha", math.nan, "alpha must be a finite number > 0, got nan"),
    ("alpha", math.inf, "alpha must be a finite number > 0, got inf"),
    ("alpha", "1", "alpha must be float, not str '1'"),
    ("alpha", True, "alpha must be float, not bool True"),
    ("n", 0, "n must be >= 1, got 0"),
    ("n", -1, "n must be >= 1, got -1"),
    ("n", 1.5, "n must be int, not float 1.5"),
    ("n", "1", "n must be int, not str '1'"),
    ("n", True, "n must be int, not bool True"),
]
BAD_SETTINGS = BAD_NUMBERS + [
    ("n", 65, "n must be <= 64, got 65"),
    ("n", 10**32, f"n must be <= 64, got {10**32}"),
    ("context_mode", "foo", "context_mode must be one of ett, ett-eng, got 'foo'"),
    ("ordered", "no", "ordered must be bool, not str 'no'"),
    ("ordered", 1, "ordered must be bool, not int 1"),
]


def _settings_entry_points(family):
    """(name, call) pairs that each pass one setting, by key and value, to a model family."""
    pairs = [(["a", "b"], ["x", "q"]), (["b"], ["y", "r"])]
    train, cls = (train_ngram, NgramModel) if family == "ngram" else (train_naive_bayes, NaiveBayesModel)
    yield "train", lambda key, value: train(pairs, **{"n": 1, key: value})
    yield "from_dict", lambda key, value: cls.from_dict({**train(pairs, n=1).to_dict(), key: value})
    yield "modelio.settings", lambda key, value: modelio.settings({"family": family, key: value})


class TestOneSettingsRule:
    """Training, model files and model configs share `check_settings`: same value, same DataError."""

    @pytest.mark.parametrize("key, value, message", BAD_SETTINGS,
                             ids=[f"{key}={value!r}" for key, value, _ in BAD_SETTINGS])
    def test_same_error_at_every_entry_point(self, key, value, message):
        families = ["ngram"] if key == "ordered" else ["ngram", "naive-bayes"]  # naive Bayes has no `ordered`
        for family in families:
            for name, call in _settings_entry_points(family):
                with pytest.raises(DataError) as info:
                    call(key, value)
                assert isinstance(info.value, ValueError)
                assert str(info.value) == message, (family, name)

    def test_int_alpha_beyond_float_range_rejected(self):
        # 10**400 compares below math.inf but has no float value
        for family in ("ngram", "naive-bayes"):
            for name, call in _settings_entry_points(family):
                with pytest.raises(DataError, match="alpha must be a finite number > 0, got 1000"):
                    call("alpha", 10**400)

    @pytest.mark.parametrize("n, context_mode, alpha, ordered", [
        (1, CONTEXT_ETT, 1.0, True), (3, CONTEXT_ETT_ENG, 2, False), (2, CONTEXT_ETT, 1e-300, True),
        (1, CONTEXT_ETT, np.float64(0.5), True),
    ])
    def test_good_settings_accepted(self, n, context_mode, alpha, ordered):
        check_settings(n, context_mode, alpha, ordered)


class TestLoadChecks:
    """`from_dict` rejects models whose vocabulary breaks what decoding needs."""

    @pytest.fixture(params=["ngram", "naive-bayes"])
    def payload(self, request):
        pairs = [(["a", "b"], ["x", "q"]), (["b"], ["y", "r"])]
        if request.param == "ngram":
            return NgramModel, train_ngram(pairs, n=1).to_dict()
        return NaiveBayesModel, train_naive_bayes(pairs, n=1).to_dict()

    def test_valid_payload_loads(self, payload):
        cls, doc = payload
        assert cls.from_dict(doc).vocab == tuple(doc["vocab"])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda v: v[::-1], "not strictly sorted"),
            (lambda v: v + [v[-1]], "not strictly sorted"),
            (lambda v: [t for t in v if t != EOS], "lacks <eos>"),
            (lambda v: [t for t in v if t != PAD], "lacks <pad>"),
            (lambda v: [t for t in v if t != "y"], "outside its vocabulary: y"),
            (lambda v: v + [3], "only strings"),
        ],
        ids=["reversed", "duplicate", "no-eos", "no-pad", "unknown-target", "non-string"],
    )
    def test_bad_vocab_rejected(self, payload, edit, message):
        cls, doc = payload
        doc["vocab"] = edit(doc["vocab"])
        with pytest.raises(DataError, match=message):
            cls.from_dict(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        BAD_NUMBERS,
        ids=["alpha-0-smoothing", "alpha--0.5-smoothing", "alpha-nan-smoothing", "alpha-inf-smoothing",
             "alpha-1-smoothing", "alpha-True-smoothing", "n-0-context size", "n--1-context size",
             "n-1.5-context size", "n-1-context size", "n-True-context size"],
    )
    def test_bad_settings_rejected(self, payload, key, value, message):
        cls, doc = payload
        doc[key] = value
        with pytest.raises(DataError, match=re.escape(message)):
            cls.from_dict(doc)

    def test_int_alpha_loads(self, payload):
        cls, doc = payload
        doc["alpha"] = 2
        assert cls.from_dict(doc).alpha == 2


@pytest.mark.parametrize("train", [train_ngram, train_naive_bayes])
class TestTrainingSettings:
    PAIRS = [(["a", "b"], ["x", "q"])]

    @pytest.mark.parametrize("alpha", [0, -1.0])
    def test_non_positive_alpha_rejected(self, train, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            train(self.PAIRS, n=1, alpha=alpha)

    @pytest.mark.parametrize("n", [0, -2])
    def test_context_size_below_one_rejected(self, train, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            train(self.PAIRS, n=n)


def _random_pairs(rng, n_pairs):
    """A tiny corpus whose vocabularies straddle the sort position of <eos>/<pad>."""
    src_types = ["a", "b", "c", "Ab", "0s"][: rng.randint(2, 5)]
    tgt_types = ["x", "y", "z", "Wy", "0t", "~"][: rng.randint(2, 6)]
    return [
        (rng.choices(src_types, k=rng.randint(0, 4)), rng.choices(tgt_types, k=rng.randint(0, 4)))
        for _ in range(n_pairs)
    ]


def _random_models(rng):
    """Both families, both context modes, n 1-3, (un)ordered keys, float and int alpha."""
    for n, mode, alpha in itertools.product((1, 2, 3), (CONTEXT_ETT, CONTEXT_ETT_ENG), (1.0, 0.5, 0.01, 1)):
        pairs = _random_pairs(rng, rng.randint(1, 6))
        for ordered in (True, False):
            yield train_ngram(pairs, n=n, context_mode=mode, ordered=ordered, alpha=alpha)
        yield train_naive_bayes(pairs, n=n, context_mode=mode, alpha=alpha)


def _tie_heavy_nb(rng, n, context_mode, alpha, n_targets=300):
    """A naive-Bayes model whose hundreds of targets share a handful of counts.

    Targets with equal counts and no slot override for a context score the
    same. Each slot gives a tenth of the targets counts for two of its first
    eight values (s0-s5 and PAD on source slots, the first vocabulary entries
    on English slots), so some contexts override a few targets and others
    (unseen values) none.
    """
    vocab = tuple(sorted({EOS, PAD} | {f"t{i:03d}" for i in range(n_targets)}))
    target_counts = {t: rng.choice((1, 2, 3, 5)) for t in vocab}
    src_vocab = tuple(sorted({PAD} | {f"s{i}" for i in range(6)}))
    n_slots = 2 * n if context_mode == CONTEXT_ETT_ENG else n
    slot_vocabs = [src_vocab] * n + [vocab] * (n_slots - n)
    slot_counts = [
        {
            t: {v: rng.randint(1, target_counts[t]) for v in rng.sample(slot_vocabs[slot][:8], 2)}
            for t in rng.sample(vocab, len(vocab) // 10)
        }
        for slot in range(n_slots)
    ]
    return NaiveBayesModel(n=n, context_mode=context_mode, alpha=alpha, target_counts=target_counts,
                           slot_counts=slot_counts, slot_vocabs=slot_vocabs, vocab=vocab)


def _tie_heavy_contexts(rng, model, k):
    """The all-unseen context (no overrides) and k drawn from seen and unseen values."""
    history = model.context_mode == CONTEXT_ETT_ENG
    src_values = list(model.slot_vocabs[0]) + ["unseen"]
    eng_values = list(model.vocab[:8]) + ["unseen"]
    contexts = [(("unseen",) * model.n, ("unseen",) * model.n if history else ())]
    for _ in range(k):
        src = tuple(rng.choices(src_values, k=model.n))
        contexts.append((src, tuple(rng.choices(eng_values, k=model.n)) if history else ()))
    return contexts


class _CountingMath:
    """Stands in for the math module and counts the calls to each function."""

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        target = getattr(math, name)
        if not callable(target):
            return target

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return target(*args)

        return counted


class TestCostVectors:
    # `costs` must equal `-math.log` of the oracle's distribution exactly, not
    # approximately: np.log / np.exp can differ from math.log / math.exp in
    # the last bit, and np.sum adds in another order than a sequential sum.
    # One ulp is enough to reorder two nearly tied hypotheses in the beam.
    # About 0.4% of np.log results differ, so the larger models below supply
    # thousands of distinct probabilities.
    def test_costs_equal_distribution_exactly(self):
        rng = random.Random(11)
        for model in _random_models(rng):
            src_values = [PAD, "a", "b", "Ab", "unseen"]
            eng_values = list(model.vocab) + ["unseen"]
            for _ in range(20):
                src = tuple(rng.choices(src_values, k=model.n))
                eng = tuple(rng.choices(eng_values, k=model.n)) if model.context_mode == CONTEXT_ETT_ENG else ()
                expected = [-math.log(p) for p in oracles.oracle_distribution(model, src, eng).values()]
                assert model.costs(src, eng).tolist() == expected, (model, src, eng)

    def test_costs_equal_distribution_exactly_larger_models(self):
        rng = random.Random(12)
        pairs = [
            ([f"s{rng.randrange(30)}" for _ in range(rng.randint(0, 6))],
             [f"t{rng.randrange(40)}" for _ in range(rng.randint(0, 6))])
            for _ in range(80)
        ]
        for n, mode, alpha in itertools.product((1, 2), (CONTEXT_ETT, CONTEXT_ETT_ENG), (1.0, 0.01)):
            contexts = [(s, e) for ett, eng in pairs[:15] for s, e, _ in training_positions(ett, eng, n, mode)]
            for model in (
                train_ngram(pairs, n=n, context_mode=mode, alpha=alpha),
                train_naive_bayes(pairs, n=n, context_mode=mode, alpha=alpha),
            ):
                for src, eng in contexts:
                    expected = [-math.log(p) for p in oracles.oracle_distribution(model, src, eng).values()]
                    assert model.costs(src, eng).tolist() == expected, (model, src, eng)

    def test_ngram_costs_equal_distribution_over_many_counts(self):
        # n-gram probabilities are ratios of small integers, for which np.log
        # differs far more rarely, so this model spreads counts widely
        rng = random.Random(13)
        vocab = tuple(sorted({EOS, PAD} | {f"t{i}" for i in range(50)}))
        counts = {
            (f"c{k}",): {t: rng.randint(1, 400) for t in rng.sample(vocab, rng.randint(1, 50))}
            for k in range(2500)
        }
        for alpha in (1.0, 0.5, 0.01, 1):
            model = NgramModel(n=1, context_mode=CONTEXT_ETT, ordered=True, alpha=alpha, counts=counts, vocab=vocab)
            for key in counts:
                expected = [-math.log(p) for p in oracles.oracle_ngram_distribution(model, key).values()]
                assert model.costs(key).tolist() == expected, (alpha, key)

    def test_normalizer_adds_left_to_right(self):
        # a compensated sum (Python 3.12's sum()) would give 2.0 here and move
        # every naive-Bayes cost in the last bit
        from ettmt.ngram import _left_sum

        assert _left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        rng = random.Random(14)
        for _ in range(200):
            values = [rng.random() * 10 ** rng.randint(-8, 8) for _ in range(rng.randint(1, 300))]
            total = 0.0
            for v in values:
                total += v
            assert _left_sum(values) == total

    def test_costs_equal_former_costs_on_tied_scores(self):
        # the per-distinct-value exp and log must give what one exp and one
        # log per target gave, on vectors where most targets tie
        rng = random.Random(15)
        for n, mode, alpha in itertools.product((1, 2), (CONTEXT_ETT, CONTEXT_ETT_ENG), (1.0, 0.01)):
            model = _tie_heavy_nb(rng, n, mode, alpha)
            for src, eng in _tie_heavy_contexts(rng, model, 30):
                got = model.costs(src, eng).tolist()
                assert got == oracles.former_nb_costs(model, src, eng).tolist(), (n, mode, alpha, src, eng)
                assert got == [-math.log(p) for p in oracles.oracle_distribution(model, src, eng).values()]
                assert len(set(got)) < len(model.vocab) // 4

    def test_exp_and_log_run_once_per_distinct_value(self, monkeypatch):
        rng = random.Random(16)
        model = _tie_heavy_nb(rng, 2, CONTEXT_ETT_ENG, 1.0)
        model.costs((PAD, PAD), (PAD, PAD))  # builds the tables, which take logs of their own
        counting = _CountingMath()
        monkeypatch.setattr(ettmt.ngram, "math", counting)
        for src, eng in _tie_heavy_contexts(rng, model, 10):
            counting.calls.clear()
            distinct = len(set(model.costs(src, eng).tolist()))
            assert counting.calls == {"exp": distinct, "log": distinct}, (src, eng)

    def test_costs_arity_checked(self):
        for model in (train_ngram([(["a"], ["x"])], n=2), train_naive_bayes([(["a"], ["x"])], n=2)):
            with pytest.raises(ValueError):
                model.costs(("a",))

    def test_tables_stay_out_of_serialization_and_equality(self):
        # the cached tables and the totals derived from the counts are no fields
        pairs = [(["a", "b"], ["x", "y"]), (["a"], ["x", "y", "z"]), (["b", "a", "c"], [])]
        positions = [p for ett, eng in pairs for p in training_positions(ett, eng, 1, CONTEXT_ETT)]
        for model in (train_ngram(pairs, n=1), train_naive_bayes(pairs, n=1)):
            fresh = type(model).from_dict(model.to_dict())
            model.costs(("a",))
            beam_translate(model, ["a", "c"])
            assert model._summaries  # the greedy path's cache is filled
            assert model == fresh
            assert model.to_dict() == fresh.to_dict()
            for name in ("_index", "_cost_tables", "context_totals", "total_positions", "_summaries"):
                assert name not in repr(model)
            fresh.__dict__["context_totals" if isinstance(model, NgramModel) else "total_positions"] = -1
            assert model == fresh  # equality reads only the fields
        ngram, nb = train_ngram(pairs, n=1), train_naive_bayes(pairs, n=1)
        recount: dict[tuple, int] = {}
        for src, eng, _ in positions:
            recount[src + eng] = recount.get(src + eng, 0) + 1
        assert ngram.context_totals == recount
        assert nb.total_positions == len(positions) == nb.to_dict()["total_positions"]


# -math.log(math.exp(-k)) == k exactly for these k, so path costs are small
# integers and many different paths tie exactly
_EXACT_PROBS = [math.exp(-k) for k in range(4)]


class _SummaryFromCosts:
    """What a stand-in model needs besides `costs` for the greedy path: the row summary, taken
    from the full source-only row by the oracle, and the summary cache the decoder fills."""

    def summary(self, src_slots):
        return oracles.oracle_row_summary(self.costs(src_slots, ()))

    @cached_property
    def _summaries(self):
        return {}


@dataclass
class _IntegerCostModel(_SummaryFromCosts):
    """A stand-in model whose per-token costs are integers from 0 to 3.

    `table` maps (source slots, English slots) to {token: cost}, with 3 for
    anything it leaves out; without a table each context draws its costs
    from `seed`.
    """

    n: int
    context_mode: str
    seed: int = 0
    table: dict | None = None
    vocab: tuple = ("0t", EOS, PAD, "x", "y", "z")

    def distribution(self, src_slots, eng_slots=()):
        key = (tuple(src_slots), tuple(eng_slots))
        if self.table is not None:
            return {t: _EXACT_PROBS[self.table.get(key, {}).get(t, 3)] for t in self.vocab}
        rng = random.Random(repr((self.seed,) + key))
        return {t: rng.choice(_EXACT_PROBS) for t in self.vocab}

    def costs(self, src_slots, eng_slots=()):
        return np.array([-math.log(p) for p in self.distribution(src_slots, eng_slots).values()])


class TestDecoderMatchesOracle:
    """The array decoder against the tuple-sorting loop it replaced, exactly."""

    def test_tie_at_the_cut_keeps_the_lexicographically_smaller_parent(self):
        # "y" (cost 0) ranks above "x" (cost 1) at position 0, so the two live
        # parents are in cost order, not token order. At position 1 "y x" and
        # "x x" tie at cost 1 for the second beam slot behind "y y"; "x x"
        # must stay because "x" < "y", and it wins at position 2.
        table = {
            (("p0",), (PAD,)): {"y": 0, "x": 1},
            (("p1",), ("y",)): {"y": 0, "x": 1},
            (("p1",), ("x",)): {"x": 0},
            (("p2",), ("x",)): {"x": 0},
        }
        model = _IntegerCostModel(n=1, context_mode=CONTEXT_ETT_ENG, table=table)
        source = ["p0", "p1", "p2"]
        assert oracles.oracle_beam_translate(model, source, beams=2) == ["x", "x", "x"]
        assert beam_translate(model, source, beams=2) == ["x", "x", "x"]

    def test_exact_ties_follow_token_order(self):
        # with integer costs, hypotheses from different parents tie on cost
        # at the beam's cut, and only the token-sequence order separates them
        rng = random.Random(3)
        for seed, mode, n in itertools.product(range(25), (CONTEXT_ETT, CONTEXT_ETT_ENG), (1, 2)):
            model = _IntegerCostModel(n=n, context_mode=mode, seed=seed)
            source = rng.choices(["a", "b", "q"], k=rng.randint(0, 6))
            for beams in (1, 2, 3, 8, 64):
                got = beam_translate(model, source, beams=beams)
                assert got == oracles.oracle_beam_translate(model, source, beams=beams), (model, source, beams)

    def test_random_models_sources_and_beams(self):
        rng = random.Random(5)
        compared = 0
        for model in _random_models(rng):
            sources = [[], ["unseen"], ["a", "unseen", "b"]]
            sources += [rng.choices(["a", "b", "c", "Ab", "0s", "q"], k=rng.randint(1, 5)) for _ in range(3)]
            for source, beams in itertools.product(sources, (1, 2, 3, 8, 64)):
                got = beam_translate(model, source, beams=beams)
                want = oracles.oracle_beam_translate(model, source, beams=beams)
                assert got == want, (model, source, beams)
                compared += 1
        assert compared == 72 * 6 * 5

    def test_tie_heavy_naive_bayes(self):
        rng = random.Random(17)
        for n, mode, alpha in itertools.product((1, 2), (CONTEXT_ETT, CONTEXT_ETT_ENG), (1.0, 0.01)):
            model = _tie_heavy_nb(rng, n, mode, alpha, n_targets=120)
            src_values = list(model.slot_vocabs[0]) + ["unseen"]
            for source in (["unseen"], rng.choices(src_values, k=3)):
                for beams in range(1, 10):
                    want = oracles.oracle_beam_translate(model, source, beams=beams)
                    assert beam_translate(model, source, beams=beams) == want, (n, mode, alpha, source, beams)


def _tie_heavy_ngram(rng, n, alpha, n_targets=20, context_mode=CONTEXT_ETT_ENG):
    """An n-gram model whose contexts share a few small counts, so many costs tie exactly.

    Contexts count one to four of the first eight targets (<eos> and <pad>
    among them). In ett-eng mode their histories are drawn from the first
    six, so the histories the decoder builds often hit a counted context and
    <eos> finishes hypotheses at every position.
    """
    vocab = tuple(sorted({EOS, PAD} | {f"t{i:02d}" for i in range(n_targets)}))
    src_values = [PAD, "s0", "s1", "s2"]
    counts = {}
    for _ in range(200):
        key = tuple(rng.choices(src_values, k=n))
        if context_mode == CONTEXT_ETT_ENG:
            key += tuple(rng.choices(vocab[:6], k=n))
        counts[key] = {t: rng.choice((1, 2, 3)) for t in rng.sample(vocab[:8], rng.randint(1, 4))}
    return NgramModel(n=n, context_mode=context_mode, ordered=True, alpha=alpha, counts=counts, vocab=vocab)


def _assert_costs_non_negative(model, contexts):
    for src, eng in contexts:
        costs = model.costs(src, eng).tolist()
        assert all(c >= 0.0 for c in costs), (model, src, eng, costs)  # inf passes, nan does not


_PAIRS = st.lists(
    st.tuples(st.lists(st.sampled_from(["a", "b", "c"]), max_size=4),
              st.lists(st.sampled_from(["x", "y", "z"]), max_size=4)),
    min_size=1, max_size=5,
)
_ALPHAS = st.sampled_from([5e-324, 1e-200, 0.01, 1.0, 1e300]) | st.floats(min_value=5e-324, max_value=1e300)


def _count_calls(model, method="costs") -> list[int]:
    """Count the calls to the model's `method` in the returned one-element list."""
    calls = [0]
    target = getattr(model, method)

    def counted(*args):
        calls[0] += 1
        return target(*args)

    setattr(model, method, counted)
    return calls


class TestEarlyStop:
    """The ett-eng search returns once the best finished cost is <= every live score."""

    def test_tie_heavy_models_match_oracle(self):
        rng = random.Random(21)
        fired = compared = 0
        for n, alpha in itertools.product((1, 2), (1.0, 0.1)):
            for model in (_tie_heavy_ngram(rng, n, alpha), _tie_heavy_nb(rng, n, CONTEXT_ETT_ENG, alpha, 60)):
                calls = _count_calls(model)
                for _ in range(4):
                    source = rng.choices([PAD, "s0", "s1", "s2", "unseen"], k=rng.randint(1, 8))
                    for beams in range(1, 10):
                        calls[0] = 0
                        got = beam_translate(model, source, beams=beams)
                        assert got == oracles.oracle_beam_translate(model, source, beams=beams), (model, source, beams)
                        # every position that runs makes at least one call
                        fired += calls[0] < len(source)
                        compared += 1
        assert compared == 2 * 2 * 2 * 4 * 9
        assert fired > compared // 4

    # The stop is exact only because no cost is negative: a live score never falls.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=_PAIRS, n=st.integers(1, 3), mode=st.sampled_from([CONTEXT_ETT, CONTEXT_ETT_ENG]),
           alpha=_ALPHAS, data=st.data())
    def test_costs_never_negative(self, pairs, n, mode, alpha, data):
        for model in (train_ngram(pairs, n=n, context_mode=mode, alpha=alpha),
                      train_naive_bayes(pairs, n=n, context_mode=mode, alpha=alpha)):
            seen = [(src, eng) for ett, tokens in pairs for src, eng, _ in training_positions(ett, tokens, n, mode)]
            values = st.sampled_from([PAD, EOS, "a", "x", "unseen"])
            drawn = [(tuple(data.draw(st.lists(values, min_size=n, max_size=n))),
                      tuple(data.draw(st.lists(values, min_size=n, max_size=n))) if mode == CONTEXT_ETT_ENG else ())
                     for _ in range(3)]
            _assert_costs_non_negative(model, seen + drawn)

    def test_underflow_costs_never_negative(self):
        # the TestUnderflow models, whose costs include inf
        for model, eng in (
            (train_naive_bayes([(["a", "b", "c"], [])] * 2 + [(["a"], ["0t"])] * 2, n=1, alpha=5e-324), [()]),
            (train_naive_bayes([(["a", "b"], ["x", "y"]), (["c"], ["z"])], n=2, context_mode=CONTEXT_ETT_ENG,
                               alpha=1e-200), [("x", "y"), ("q", "q"), (PAD, PAD)]),
            (train_ngram([(["a"], ["x"])] * 2 + [(["a"], ["y"])], n=1, alpha=5e-324), [()]),
            (train_naive_bayes([(["a"], ["x"])] * 2 + [(["a", "b"], ["y"])], n=1, alpha=5e-324), [()]),
        ):
            src_values = [PAD, "a", "b", "c", "q"]
            contexts = [(src, e) for src in itertools.product(src_values, repeat=model.n) for e in eng]
            _assert_costs_non_negative(model, contexts)

    def test_finished_cost_equal_to_the_live_minimum_stops(self):
        # after position 0, "" finished at cost 1 and "x" lives at cost 1: the
        # stop fires on the tie. Going on would only find more hypotheses at
        # cost 1, and the earlier stop wins that tie.
        table = {
            (("p0",), (PAD,)): {EOS: 1, "x": 1, "y": 2},
            (("p1",), ("x",)): {"x": 0, EOS: 0},
            (("p2",), ("x",)): {"x": 0, EOS: 0},
        }
        model = _IntegerCostModel(n=1, context_mode=CONTEXT_ETT_ENG, table=table)
        calls = _count_calls(model)
        source = ["p0", "p1", "p2"]
        for beams in range(1, 10):
            calls[0] = 0
            assert beam_translate(model, source, beams=beams) == [] == oracles.oracle_beam_translate(
                model, source, beams=beams)
            assert calls[0] == 1

    @pytest.mark.parametrize("train, source, expected, n_calls", [
        # an unseen context is uniform, so <eos> at position 0 ties the best
        # live score and the search ends after one call
        (train_ngram, ["q", "r", "s", "t", "u", "v"], [], 1),
        (train_ngram, ["a", "b", "c", "a", "b", "c"], [], 5),
        (train_naive_bayes, ["q", "r", "s", "t", "u", "v"], ["y"], 5),
        (train_naive_bayes, ["a", "b", "c", "a", "b", "c"], ["z", "y"], 8),
    ], ids=["ngram-unseen", "ngram-seen", "naive-bayes-unseen", "naive-bayes-seen"])
    def test_stop_saves_costs_calls(self, train, source, expected, n_calls):
        # without the stop every one of the six positions makes at least one
        # call per distinct history, 8 beams wide
        pairs = [(["a", "b"], ["x", "y"]), (["b", "c"], ["y"]), (["a"], ["z", "x"]), (["c", "a", "b"], ["x", "z", "y"])]
        model = train(pairs, n=1, context_mode=CONTEXT_ETT_ENG)
        calls = _count_calls(model)
        assert beam_translate(model, source, beams=8) == expected == oracles.oracle_beam_translate(model, source)
        assert calls[0] == n_calls

    @pytest.mark.parametrize("train", [train_ngram, train_naive_bayes])
    @pytest.mark.parametrize("mode, beams", [(CONTEXT_ETT, 8), (CONTEXT_ETT_ENG, 1)])
    def test_nothing_finishes_early(self, train, mode, beams):
        # in ett mode <eos> finishes nothing; in ett-eng mode with alpha 0.01
        # every <eos> costs more than the whole copied sentence. Either way
        # each position runs, with one live hypothesis or one shared context
        # per position, so one call per position: to `summary` on the ett
        # greedy path, to `costs` in the ett-eng beam search.
        pairs = [([f"s{i}", f"t{i}", f"u{i}"], [f"x{i}", f"y{i}", f"z{i}"]) for i in range(5)]
        model = train(pairs, n=1, context_mode=mode, alpha=0.01)
        calls = _count_calls(model, "summary" if mode == CONTEXT_ETT else "costs")
        for src, ref in pairs:
            calls[0] = 0
            assert beam_translate(model, src, beams=beams) == ref == oracles.oracle_beam_translate(model, src, beams)
            assert calls[0] == len(src)


@dataclass
class _ProbabilityModel(_SummaryFromCosts):
    """A source-only stand-in: `table` maps a source token to {token: probability}, 1e-305 for the rest."""

    table: dict
    n: int = 1
    context_mode: str = CONTEXT_ETT
    vocab: tuple = (EOS, PAD, "x", "y")

    def distribution(self, src_slots, eng_slots=()):
        return {t: self.table[src_slots[-1]].get(t, 1e-305) for t in self.vocab}

    def costs(self, src_slots, eng_slots=()):
        return np.array([-math.log(p) for p in self.distribution(src_slots, eng_slots).values()])


class TestGreedyPath:
    """Source-only decoding returns the greedy sequence only when the bound proves every beam would."""

    def test_matches_oracle(self):
        rng = random.Random(29)
        cases = [(model, [[], ["unseen"], ["a", "unseen", "b"]]
                  + [rng.choices(["a", "b", "c", "Ab", "0s", "q"], k=rng.randint(1, 5)) for _ in range(3)])
                 for model in _random_models(rng) if model.context_mode == CONTEXT_ETT]
        for n, alpha in itertools.product((1, 2), (1.0, 0.01)):
            tie_heavy = (_tie_heavy_nb(rng, n, CONTEXT_ETT, alpha, n_targets=120),
                         _tie_heavy_ngram(rng, n, alpha, context_mode=CONTEXT_ETT))
            cases += [(model, [["unseen"] * 3] + [rng.choices([PAD, "s0", "s1", "s2", "s5", "unseen"], k=4)
                                                 for _ in range(3)]) for model in tie_heavy]
        for seed, n in itertools.product(range(10), (1, 2)):
            cases.append((_IntegerCostModel(n=n, context_mode=CONTEXT_ETT, seed=seed),
                          [rng.choices(["a", "b", "q"], k=rng.randint(0, 6)) for _ in range(3)]))
        # uniform rows: every cost is 3, or every context is unseen
        cases.append((_IntegerCostModel(n=1, context_mode=CONTEXT_ETT, table={}), [["a", "b"]]))
        cases.append((train_ngram([(["a"], ["x"])], n=2), [["q", "r", "s"]]))
        # the TestUnderflow models; the naive-Bayes one gives "unseen" an all-inf row
        cases += [(model, [["a"], ["a", "b"], ["unseen", "a"], ["c", "unseen", "b"]]) for model in (
            train_naive_bayes([(["a", "b", "c"], [])] * 2 + [(["a"], ["0t"])] * 2, n=1, alpha=5e-324),
            train_naive_bayes([(["a", "b"], ["x", "y"]), (["c"], ["z"])], n=2, alpha=1e-200),
            train_ngram([(["a"], ["x"])] * 2 + [(["a"], ["y"])], n=1, alpha=5e-324),
            train_naive_bayes([(["a"], ["x"])] * 2 + [(["a", "b"], ["y"])], n=1, alpha=5e-324),
        )]
        greedy = fell_back = 0
        for model, sources in cases:
            for source in sources:
                if ettmt.ngram._greedy_translate(model, source) is None:
                    fell_back += 1
                else:
                    greedy += 1
                for beams in range(1, 10):
                    want = oracles.oracle_beam_translate(model, source, beams=beams)
                    assert beam_translate(model, source, beams=beams) == want, (model, source, beams)
        assert fell_back >= 2 and greedy > 10 * fell_back

    def test_rounding_tie_falls_back(self):
        # "y" costs 690.8 at position 0. At position 1 "x" costs one ulp more
        # than "y" and sorts before it, and adding either to 690.8 rounds to
        # the same score: "y x" ties "y y" and wins on token order, so
        # following the row minima would be wrong.
        p_y = math.exp(-1.5)
        p_x = p_y
        while -math.log(p_x) <= 1.5:
            p_x = math.nextafter(p_x, 0.0)
        assert -math.log(p_x) == math.nextafter(1.5, math.inf)
        assert -math.log(1e-300) + 1.5 == -math.log(1e-300) - math.log(p_x)
        model = _ProbabilityModel({"p0": {"y": 1e-300}, "p1": {"x": p_x, "y": p_y}})
        source = ["p0", "p1"]
        assert ettmt.ngram._greedy_translate(model, source) is None
        for beams in range(1, 10):
            assert beam_translate(model, source, beams=beams) == ["y", "x"] == oracles.oracle_beam_translate(
                model, source, beams=beams)

    @pytest.mark.parametrize("train", [train_ngram, train_naive_bayes])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_costs_call_per_distinct_source_context(self, train, n):
        # one `summary` call per distinct source context, and no `costs` row
        # while the greedy path returns
        pairs = [(["a", "b"], ["x", "y"]), (["b", "c"], ["y"]), (["a"], ["z", "x"]), (["c", "a", "b"], ["x", "z", "y"])]
        model = train(pairs, n=n)
        sources = [["a", "b", "a"], ["b", "a"], ["a", "b", "a"], ["q", "a", "c"], [], ["c"]]
        contexts = {tuple(([PAD] * (n - 1) + s)[i : i + n]) for s in sources for i in range(len(s))}
        calls = _count_calls(model, "summary")
        rows = _count_calls(model, "costs")
        decoded = [beam_translate(model, s) for s in sources]
        assert rows[0] == 0
        assert decoded == [oracles.oracle_beam_translate(model, s) for s in sources]
        assert calls[0] == len(contexts)
        # a second pass reads every row summary from the model
        assert [beam_translate(model, s, beams=1) for s in sources] == decoded
        assert calls[0] == len(contexts)
        assert rows[0] == 0


def _near_tie_nb(k: int) -> NaiveBayesModel:
    """A naive-Bayes model over 300 targets whose log scores, given here as the log prior, are the
    peak -1.0 (last target), the k floats just below it (cycled over the middle targets) and -30.0
    (first target)."""
    vocab = tuple(sorted({EOS, PAD} | {f"t{i:03d}" for i in range(298)}))
    model = NaiveBayesModel(n=1, context_mode=CONTEXT_ETT, alpha=1.0, target_counts=dict.fromkeys(vocab, 1),
                            slot_counts=[{}], slot_vocabs=[(PAD,)], vocab=vocab)
    steps = [-1.0]
    for _ in range(k):
        steps.append(math.nextafter(steps[-1], -math.inf))
    log_prior = np.array([-30.0] + [steps[1 + i % k] for i in range(1, len(vocab) - 1)] + [steps[0]])
    model.__dict__["_cost_tables"] = (log_prior, [np.zeros(len(vocab))], [{}])
    return model


def _assert_summaries_equal(model, contexts) -> list[tuple[int, float, float]]:
    """`summary` equals the oracle's summary of the full source-only row, under ==; returns them."""
    summaries = []
    for src in contexts:
        want = oracles.oracle_row_summary(model.costs(src, ()))
        got = model.summary(src)
        assert got == want, (model, src, got, want)
        summaries.append(got)
    return summaries


class TestRowSummary:
    """`summary` gives what `oracle_row_summary(costs(src_slots, ()))` gives, with no tolerance."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=_PAIRS, n=st.integers(1, 3), ordered=st.booleans(), alpha=_ALPHAS, data=st.data())
    def test_trained_models(self, pairs, n, ordered, alpha, data):
        seen = [src for ett, eng in pairs for src, _, _ in training_positions(ett, eng, n, CONTEXT_ETT)]
        values = st.sampled_from([PAD, EOS, "a", "b", "c", "x", "unseen"])
        drawn = [tuple(data.draw(st.lists(values, min_size=n, max_size=n))) for _ in range(4)]
        for model in (train_ngram(pairs, n=n, ordered=ordered, alpha=alpha),
                      train_naive_bayes(pairs, n=n, alpha=alpha)):
            _assert_summaries_equal(model, seen + drawn + [("unseen",) * n])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), alpha=st.sampled_from([1.0, 0.01, 1e-200]))
    def test_tie_heavy_models(self, seed, n, alpha):
        rng = random.Random(seed)
        values = [PAD] + [f"s{i}" for i in range(6)] + ["unseen"]
        for model in (_tie_heavy_nb(rng, n, CONTEXT_ETT, alpha), _tie_heavy_ngram(rng, n, alpha, context_mode=CONTEXT_ETT)):
            _assert_summaries_equal(model, [tuple(rng.choices(values, k=n)) for _ in range(30)] + [("unseen",) * n])

    def test_all_inf_rows(self):
        # the TestUnderflow models: alpha 5e-324 and 1e-200 underflow every
        # score of some contexts, whose rows are then all inf
        models = (
            train_naive_bayes([(["a", "b", "c"], [])] * 2 + [(["a"], ["0t"])] * 2, n=1, alpha=5e-324),
            train_naive_bayes([(["a", "b"], ["x", "y"]), (["c"], ["z"])], n=2, alpha=1e-200),
            train_ngram([(["a"], ["x"])] * 2 + [(["a"], ["y"])], n=1, alpha=5e-324),
            train_naive_bayes([(["a"], ["x"])] * 2 + [(["a", "b"], ["y"])], n=1, alpha=5e-324),
        )
        all_inf = 0
        for model in models:
            contexts = list(itertools.product([PAD, "a", "b", "c", "q"], repeat=model.n))
            all_inf += _assert_summaries_equal(model, contexts).count((0, math.inf, math.inf))
        assert all_inf > 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=8), ordered=st.booleans(),
           alpha=st.sampled_from([1.0, 0.5, 1e-200, 5e-324]))
    def test_bucket_covering_the_vocabulary(self, counts, ordered, alpha):
        # no target of ("b", "a") is uncounted, so its row holds no default cost
        vocab = tuple(sorted({EOS, PAD} | {f"t{i}" for i in range(len(counts))}))
        bucket = dict(zip(vocab, counts + [counts[0]] * (len(vocab) - len(counts))))
        model = NgramModel(n=2, context_mode=CONTEXT_ETT, ordered=ordered, alpha=alpha,
                           counts={("a", "b") if not ordered else ("b", "a"): bucket, ("a", "a"): {PAD: 1}},
                           vocab=vocab)
        _assert_summaries_equal(model, [("b", "a"), ("a", "b"), ("a", "a"), ("q", "q")])

    def test_naive_bayes_rounding_ties_at_the_minimum(self):
        # scores a few ulps apart: after exp and the division by z, several
        # ranks round to the least cost m, so the summary walks down from the
        # top rank while the cost stays m
        tied = 0
        for k in range(1, 40):
            model = _near_tie_nb(k)
            _, m, _ = _assert_summaries_equal(model, [("a",)])[0]
            _, probs = model._posterior(("a",), ())
            tied += len({q for q in probs.tolist() if -_log(q) == m}) > 1
        assert tied >= 20

    def test_ngram_logs_only_its_bucket(self, monkeypatch):
        rng = random.Random(31)
        model = _tie_heavy_ngram(rng, 2, 1.0, n_targets=200, context_mode=CONTEXT_ETT)
        counting = _CountingMath()
        monkeypatch.setattr(ettmt.ngram, "math", counting)
        for src in list(model.counts)[:20] + [("unseen", "unseen")]:
            counting.calls.clear()
            model.summary(src)
            # one log per counted target and one for the default cost
            assert counting.calls == {"log": len(model.counts.get(src, {})) + 1}, src

    def test_naive_bayes_logs_only_what_the_summary_reads(self, monkeypatch):
        rng = random.Random(32)
        model = _tie_heavy_nb(rng, 2, CONTEXT_ETT, 1.0)
        cases = [(model, src) for src, _ in _tie_heavy_contexts(rng, model, 20)]
        cases += [(_near_tie_nb(k), ("a",)) for k in (10, 21, 35)]
        counting = _CountingMath()
        for model, src in cases:
            _, probs = model._posterior(src, ())  # also builds the tables, which take logs of their own
            t, m, _ = model.summary(src)
            at_m = sum(-_log(q) == m for q in probs.tolist())  # probs holds one entry per rank
            below = at_m < len(probs)
            monkeypatch.setattr(ettmt.ngram, "math", counting)
            counting.calls.clear()
            model.summary(src)
            monkeypatch.setattr(ettmt.ngram, "math", math)
            # one exp per distinct score; a log for each rank at cost m, for
            # the next one down when there is one, and for the least cost before t*
            assert counting.calls == {"exp": len(probs), "log": at_m + below + (t > 0)}, src


class TestBeamTranslate:
    def test_copy_corpus(self):
        model = train_ngram([(["a"], ["x"]), (["b"], ["y"])], n=1)
        assert beam_translate(model, ["a", "b"]) == ["x", "y"]

    def test_beam_width_irrelevant_with_source_only_context(self):
        pairs = [(["a", "b", "c"], ["x", "y"]), (["b", "a"], ["z"]), (["c", "c"], ["x", "w"])]
        for n in (1, 2):
            model = train_ngram(pairs, n=n)
            for source in (["a", "b"], ["c", "a", "b"], ["q"], []):
                assert beam_translate(model, source, beams=1) == beam_translate(model, source, beams=8)

    def test_source_only_output_covers_every_position(self):
        model = train_ngram([(["a", "b", "c"], ["x"])], n=1)
        # EOS and PAD wins at padded positions are dropped, never truncating
        out = beam_translate(model, ["a", "b", "c"])
        assert len(out) <= 3

    def test_eos_dominant_model_yields_empty(self):
        pairs = [(["a"], []), (["b"], []), (["c", "d"], [])]
        model = train_ngram(pairs, n=1, context_mode=CONTEXT_ETT_ENG)
        assert beam_translate(model, ["a", "b"], beams=8) == []

    def test_invalid_beams(self):
        model = train_ngram([(["a"], ["x"])], n=1)
        with pytest.raises(ValueError):
            beam_translate(model, ["a"], beams=0)

    def test_training_set_reproduced_exactly(self):
        pairs = [([f"s{i}", f"t{i}"], [f"u{i}", f"v{i}"]) for i in range(30)]
        model = train_ngram(pairs, n=1)
        for src, ref in pairs:
            assert beam_translate(model, src) == ref

    def test_naive_bayes_decodes(self):
        pairs = [(["a"], ["x"]), (["b"], ["y"])]
        model = train_naive_bayes(pairs, n=1)
        assert beam_translate(model, ["a"], beams=2) == ["x"]

    def _exhaustive_best(self, model, source):
        """Enumerate every emission sequence and score it exactly.

        Mirrors the decoder contract: at most len(source) positions, EOS may
        end the sequence early (its emission cost counts), PAD emissions stay
        in the history but not the output. Ties prefer earlier EOS, then the
        lexicographically smaller sequence.
        """
        n = model.n
        padded = [PAD] * (n - 1) + list(source)
        candidates = []

        def walk(pos, emitted, cost):
            src_slots = tuple(padded[pos : pos + n])
            history = tuple(([PAD] * n + list(emitted))[-n:])
            dist = oracles.oracle_distribution(model, src_slots, history)
            for tok, p in dist.items():
                step = cost - math.log(p)
                if tok == EOS:
                    candidates.append((step, float(pos), emitted))
                elif pos + 1 == len(source):
                    candidates.append((step, math.inf, emitted + (tok,)))
                else:
                    walk(pos + 1, emitted + (tok,), step)

        if source:
            walk(0, (), 0.0)
        else:
            candidates.append((0.0, math.inf, ()))
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        return [t for t in candidates[0][2] if t not in (PAD, EOS)]

    def test_beam_matches_exhaustive_search(self):
        pairs = [(["a", "b"], ["x", "y"]), (["b", "c"], ["y"]), (["a"], ["z", "x"])]
        model = train_ngram(pairs, n=1, context_mode=CONTEXT_ETT_ENG)
        nb = train_naive_bayes(pairs, n=1, context_mode=CONTEXT_ETT_ENG)
        wide = 10 ** 4  # larger than the whole search space
        for source in (["a"], ["a", "b"], ["c", "a", "b"], ["q", "q"]):
            for m in (model, nb):
                assert beam_translate(m, source, beams=wide) == self._exhaustive_best(m, source)

    def test_narrow_beam_is_no_better_than_wide(self):
        pairs = [(["a", "b"], ["x", "y"]), (["b", "a"], ["y", "z"]), (["a", "a"], ["z"])]
        model = train_ngram(pairs, n=2, context_mode=CONTEXT_ETT_ENG)

        def cost(tokens, source):
            # replay the emissions through the model to score a full path
            padded = [PAD] * (model.n - 1) + list(source)
            total = 0.0
            emitted = []
            for pos, tok in enumerate(tokens):
                src_slots = tuple(padded[pos : pos + model.n])
                history = tuple(([PAD] * model.n + emitted)[-model.n :])
                total += model.costs(src_slots, history)[model.vocab.index(tok)]
                emitted.append(tok)
            return total

        source = ["a", "b"]
        narrow = beam_translate(model, source, beams=1)
        wide = beam_translate(model, source, beams=64)
        # the wide beam's winner never scores worse than the greedy one when
        # both run the full length (no early EOS in this construction)
        if len(narrow) == len(wide) == len(source):
            assert cost(wide, source) <= cost(narrow, source) + 1e-12


class TestUnderflow:
    """A probability that underflows to 0.0 costs inf; decoding goes on with the others."""

    @staticmethod
    def _expected_costs(model, src, eng):
        return [-math.log(p) if p > 0.0 else math.inf for p in oracles.oracle_distribution(model, src, eng).values()]

    def test_naive_bayes_posterior_underflow(self):
        model = train_naive_bayes([(["a", "b"], ["x", "y"]), (["c"], ["z"])], n=2,
                                  context_mode=CONTEXT_ETT_ENG, alpha=1e-200)
        for src, eng, _ in training_positions(["a", "b"], ["x", "y"], 2, CONTEXT_ETT_ENG):
            costs = model.costs(src, eng).tolist()
            assert math.inf in costs
            assert costs == self._expected_costs(model, src, eng)
        assert beam_translate(model, ["a", "b"]) == ["x", "y"]

    def test_ngram_smoothed_probability_underflow(self):
        model = train_ngram([(["a"], ["x"])] * 2 + [(["a"], ["y"])], n=1, alpha=5e-324)
        costs = model.costs(("a",)).tolist()
        assert costs[:2] == [math.inf, math.inf]  # <eos>, <pad>: smoothing alone, 5e-324 / 3 == 0.0
        assert costs == self._expected_costs(model, ("a",), ())
        assert beam_translate(model, ["a"]) == ["x"]

    def test_naive_bayes_every_score_underflows(self):
        # every target was seen at least twice, so with an unseen value each
        # likelihood is 5e-324 / (2 + 1e-323) == 0.0 and no score is left
        model = train_naive_bayes([(["a", "b", "c"], [])] * 2 + [(["a"], ["0t"])] * 2, n=1, alpha=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.costs(("unseen",)).tolist() == [math.inf] * 3
            # every hypothesis costs inf from position 0 on, so the smallest
            # token sequence wins, and source-only decoding still runs both positions
            assert beam_translate(model, ["unseen", "a"]) == ["0t", "0t"]

    @pytest.mark.parametrize("pairs, src, zeros", [
        ([(["a", "b", "c"], [])] * 2 + [(["a"], ["x"])] * 2, ("zz",), 3),  # every score underflows
        ([(["a"], ["x"])] * 2 + [(["a", "b"], ["y"])], ("b",), 2),  # the b likelihoods of <pad> and x underflow
    ], ids=["every-target", "some-targets"])
    def test_naive_bayes_reference_underflow(self, pairs, src, zeros):
        # the reference posterior scores an underflowed probability -inf, as the cost tables do
        model = train_naive_bayes(pairs, n=1, alpha=5e-324)
        dist = oracles.oracle_nb_posterior(model, src)
        assert list(dist.values()).count(0.0) == zeros
        expected = np.array([-_log(p) for p in dist.values()])
        assert model.costs(src).tobytes() == expected.tobytes()

    def test_ngram_denominator_overflow(self):
        # alpha * len(vocab) would overflow to inf and make every probability, seen or not, 0.0
        pairs = [(["a"], ["x"])] * 2 + [(["a"], ["y"])]
        message = re.escape("alpha 1e+308 is too large: alpha * 4 (vocabulary size) overflows")
        with pytest.raises(DataError, match=message):
            train_ngram(pairs, n=1, alpha=1e308)
        payload = train_ngram(pairs, n=1).to_dict() | {"alpha": 1e308}
        with pytest.raises(DataError, match=message):
            NgramModel.from_dict(payload)

    @pytest.mark.parametrize("pairs", [
        [(["a"], ["x", "y", "z"])],  # 5 target types ({<eos>, <pad>, x, y, z}), 2 source types
        [(["a", "b", "c", "d"], ["x"])],  # 3 target types, 5 source types ({<pad>, a, b, c, d})
    ], ids=["target-vocab", "source-vocab"])
    def test_naive_bayes_denominator_overflow(self, pairs):
        # 5e307 times 2 or 3 is finite, times 5 it is not; any slot's vocabulary counts
        message = re.escape("alpha 5e+307 is too large: alpha * 5 (vocabulary size) overflows")
        with pytest.raises(DataError, match=message):
            train_naive_bayes(pairs, n=1, alpha=5e307)
        payload = train_naive_bayes(pairs, n=1).to_dict() | {"alpha": 5e307}
        with pytest.raises(DataError, match=message):
            NaiveBayesModel.from_dict(payload)
        assert max(train_naive_bayes(pairs, n=1, alpha=3e307).costs(("a",)).tolist()) < math.inf  # 3e307 * 5 is finite

    def test_naive_bayes_likelihood_underflow(self):
        # 5e-324 / 2 == 0.0: the smoothed likelihoods in the cost tables underflow themselves
        model = train_naive_bayes([(["a"], ["x"])] * 2 + [(["a", "b"], ["y"])], n=1, alpha=5e-324)
        assert math.inf in model.costs(("b",)).tolist()
        assert beam_translate(model, ["a", "b"]) == ["x"]  # a -> x (2 of 3), b -> <eos>
