import math
import re

import numpy as np
import pytest

import oracles
from ettmt import _kernels, ibm
from ettmt.errors import DataError
from ettmt.ibm import (
    NULL_TOKEN,
    _encode,
    AlignTable,
    TTable,
    train_ibm1,
    train_ibm2,
    translate_ibm,
)

THREE_PAIRS = [
    (["das", "haus"], ["the", "house"]),
    (["das", "buch"], ["the", "book"]),
    (["ein", "buch"], ["a", "book"]),
]


def entries(t: TTable) -> dict[tuple[str, str], float]:
    """{(source, target): t(target | source)} for every stored pair, as the model file writes them."""
    return {(f, e): p for f, e, p in t.to_dict(prune=0.0)["entries"]}


def copy_corpus(n_pairs=50, vocab=30, seed=4):
    """Pairs drawn from a global bijection s_k -> t_k.

    Tokens recur across pairs in varying company, so EM can isolate the
    one-to-one mapping.
    """
    rnd = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        size = int(rnd.integers(4, 9))
        idx = rnd.choice(vocab, size=size, replace=False)
        pairs.append(([f"s{j}" for j in idx], [f"t{j}" for j in idx]))
    return pairs


class TestModel1:
    def test_three_pair_argmaxes(self):
        t = train_ibm1(THREE_PAIRS, iterations=10)
        assert t.emission("buch") == "book"
        table = entries(t)
        assert ("the", "") not in table  # unknown target
        assert table[("das", "the")] > table[("das", "house")]

    def test_matches_brute_force_oracle(self):
        t = train_ibm1(THREE_PAIRS, iterations=10)
        oracle_t, oracle_hist = oracles.oracle_ibm1(THREE_PAIRS, 10)
        table = entries(t)
        for (f, e), p in oracle_t.items():
            assert table.get((f if f != oracles.NULL else NULL_TOKEN, e), 0.0) == pytest.approx(p, abs=1e-9)
        assert t.loglik_history[:10] == pytest.approx(oracle_hist, abs=1e-9)

    def test_single_pair_single_tokens(self):
        t = train_ibm1([(["a"], ["x"])], iterations=1)
        assert entries(t)[("a", "x")] == pytest.approx(1.0)
        assert entries(t)[(NULL_TOKEN, "x")] == pytest.approx(1.0)

    def test_rows_normalized(self):
        t = train_ibm1(THREE_PAIRS, iterations=5)
        assert len(t.indptr) == len(t.source_vocab) + 1
        for lo, hi in zip(t.indptr[:-1], t.indptr[1:]):
            assert t.probs[lo:hi].sum() == pytest.approx(1.0, abs=1e-6)

    def test_loglik_non_decreasing(self):
        t = train_ibm1(THREE_PAIRS, iterations=10)
        hist = t.loglik_history
        assert len(hist) == 11
        for a, b in zip(hist, hist[1:]):
            assert b >= a - 1e-9

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            train_ibm1([], iterations=3)

    @pytest.mark.parametrize("train", [train_ibm1, train_ibm2])
    def test_null_source_token_rejected(self, train):
        # a real "<null>" would share the empty source word's name, and a
        # reloaded table would fold the two rows into one
        pairs = [([NULL_TOKEN, "a"], ["x", "y"]), (["a"], ["y"]), (["b"], ["z"])]
        with pytest.raises(DataError, match="reserved"):
            train(pairs, iterations=2)

    def test_deterministic(self):
        a = train_ibm1(THREE_PAIRS, iterations=6)
        b = train_ibm1(THREE_PAIRS, iterations=6)
        assert np.array_equal(a.probs, b.probs)
        assert a.loglik_history == b.loglik_history

    def test_target_order_permutation_invariant(self):
        shuffled = [(ett, list(reversed(eng))) for ett, eng in THREE_PAIRS]
        a = train_ibm1(THREE_PAIRS, iterations=8)
        b = train_ibm1(shuffled, iterations=8)
        assert np.allclose(a.probs, b.probs)


class TestModel2:
    def test_alignment_rows_normalized(self):
        _, a = train_ibm2(THREE_PAIRS, iterations=5)
        for block in a.blocks.values():
            assert np.allclose(block.sum(axis=1), 1.0, atol=1e-6)

    def test_monotone_corpus_prefers_diagonal(self):
        # sliding windows over a shared bijection: target order always
        # mirrors source order
        pairs = [
            ([f"s{j}" for j in range(k, k + 4)], [f"t{j}" for j in range(k, k + 4)])
            for k in range(8)
        ]
        pairs += [([f"s{j}" for j in range(k, k + 3)], [f"t{j}" for j in range(k, k + 3)]) for k in range(6)]
        _, a = train_ibm2(pairs, iterations=10)
        block = a.blocks[(4, 4)]
        for j in range(4):
            assert int(np.argmax(block[j])) == j + 1  # position 0 is the empty token

    def test_degenerate_single_pair(self):
        t, a = train_ibm2([(["a"], ["x"])], iterations=1)
        assert entries(t)[("a", "x")] == pytest.approx(1.0)
        assert (1, 1) in a.blocks

    def test_loglik_non_decreasing_joint(self):
        t, _ = train_ibm2(THREE_PAIRS, iterations=8)
        hist = t.loglik_history
        for a_, b_ in zip(hist, hist[1:]):
            assert b_ >= a_ - 1e-9

    def test_deterministic(self):
        t1, a1 = train_ibm2(THREE_PAIRS, iterations=5)
        t2, a2 = train_ibm2(THREE_PAIRS, iterations=5)
        assert np.array_equal(t1.probs, t2.probs)
        for shape in a1.blocks:
            assert np.array_equal(a1.blocks[shape], a2.blocks[shape])


class TestLogLikelihood:
    """`loglik_history`: one value under the table entering each iteration, and a last one under the trained table."""

    def test_uniform_single_pair(self):
        # the first iteration starts from the uniform table over two targets:
        # P = (1/2 + 1/2) / 2 per position, one position per pair
        pairs = [(["a"], ["x"]), (["a"], ["y"])]
        t = train_ibm1(pairs, iterations=1)
        assert t.loglik_history[0] == pytest.approx(2 * math.log(0.5), abs=1e-12)

    def test_peaked_copy_corpus_near_zero(self):
        pairs = [(["a"], ["x"]), (["b"], ["y"]), (["c"], ["z"])]
        t = train_ibm1(pairs, iterations=25)
        per_token = t.loglik_history[-1] / 3
        assert per_token > math.log(0.45)  # the empty token keeps its half share

    def test_matches_oracle(self):
        t = train_ibm1(THREE_PAIRS, iterations=4)
        oracle_t, _ = oracles.oracle_ibm1(THREE_PAIRS, 4)
        renamed = {
            (NULL_TOKEN if f == oracles.NULL else f, e): p for (f, e), p in oracle_t.items()
        }
        expected = sum(
            math.log(
                sum(renamed.get((f, e), 0.0) for f in [NULL_TOKEN] + list(ett)) / (len(ett) + 1)
            )
            for ett, eng in THREE_PAIRS
            for e in eng
        )
        assert t.loglik_history[-1] == pytest.approx(expected, abs=1e-9)
        trained = {(oracles.NULL if f == NULL_TOKEN else f, e): p for (f, e), p in entries(t).items()}
        assert t.loglik_history[-1] == pytest.approx(oracles.oracle_ibm1_loglik(trained, THREE_PAIRS), abs=1e-9)


class TestTranslate:
    def test_copy_corpus_exact(self):
        pairs = copy_corpus()
        t = train_ibm1(pairs, iterations=10)
        for src, ref in pairs:
            assert translate_ibm(t, src) == ref

    def test_unknown_tokens_dropped(self):
        t = train_ibm1(THREE_PAIRS, iterations=5)
        assert translate_ibm(t, ["qqq"]) == []

    def test_model2_reorders(self):
        # target order is the reverse of the source order in every pair; the
        # position table should learn to flip the lexical decode
        pairs = [
            ([f"s{j}" for j in range(k, k + 3)], [f"t{j}" for j in reversed(range(k, k + 3))])
            for k in range(8)
        ]
        t, a = train_ibm2(pairs, iterations=10)
        out = translate_ibm(t, ["s0", "s1", "s2"], a)
        assert out == ["t2", "t1", "t0"]

    def test_emission_tie_goes_to_smaller_token(self):
        table = TTable.from_dict({"entries": [["a", "y", 0.5], ["a", "x", 0.5], ["b", "z", 0.25], ["b", "w", 0.75]]})
        assert table.emission("a") == "x"
        assert table.emission("b") == "w"

    def test_emission_drop_mass_must_exceed_best(self):
        entries_ = [["a", "x", 0.5], ["a", "y", 0.25], ["b", "x", 0.5]]
        table = TTable.from_dict({"entries": entries_, "drop_probs": {"a": 0.5, "b": float(np.nextafter(0.5, 1.0))}})
        assert table.emission("a") == "x"  # equal to the best probability: still emitted
        assert table.emission("b") is None
        assert translate_ibm(table, ["b", "a", "b"]) == ["x"]

    def test_emission_unknown_token(self):
        table = TTable.from_dict({"entries": [["a", "x", 1.0]]})
        assert table.emission("q") is None
        assert table.emission("x") is None  # a target token is no source type

    def test_emission_empty_row(self):
        # with no entry for it the empty source keeps its row 0, which holds no cells
        table = TTable.from_dict({"entries": [["a", "x", 1.0]]})
        assert table.indptr[1] == table.indptr[0]
        assert table.emission(NULL_TOKEN) is None
        assert table.emission("a") == "x"

    def test_serialization_roundtrip(self):
        t, a = train_ibm2(THREE_PAIRS, iterations=4)
        t2 = TTable.from_dict(t.to_dict(prune=0.0))
        a2 = AlignTable.from_dict(a.to_dict(prune=0.0))
        assert translate_ibm(t2, ["das", "buch"], a2) == translate_ibm(t, ["das", "buch"], a)
        assert entries(t2)[("buch", "book")] == pytest.approx(entries(t)[("buch", "book")], abs=1e-12)

    @pytest.mark.parametrize("key", ["02,2", "2,02", " 2,2", "2, 2", "2,2 ", "+2,2", "2_0,2", "٢,2"])
    def test_block_key_spelled_only_as_written(self, key):
        # int() reads each of these as a length of 2 (or 20), so two of them could name one block
        with pytest.raises(DataError, match="must be written"):
            AlignTable.from_dict({"blocks": {key: [[1.0, 0.0, 0.0]] * 2}})

    def test_pruning_bounds_size(self):
        t = train_ibm1(THREE_PAIRS, iterations=10)
        full = len(t.to_dict(prune=0.0)["entries"])
        pruned = len(t.to_dict(prune=5e-2)["entries"])
        assert pruned < full


# ---------------------------------------------------------------------------
# Exact agreement with the former per-pair trainer
# ---------------------------------------------------------------------------
#
# Training runs its E-steps on link arrays; `oracles.oracle_train_ibm` is the
# per-pair numpy trainer those replaced.  Every trained number must be equal
# bit for bit: no tolerance.  The shapes below are where numpy's rounding
# changes: a lone target over eight or more sources (its denominator is a
# pairwise 1-D sum), eight or more targets (a pairwise row sum for each
# source's received mass and for the pair's log-likelihood), NULL-only
# sources, pairs without targets, and repeated tokens that hit one t-table
# entry several times within a pair.


def assert_same_training(pairs, iterations, model):
    ref = oracles.oracle_train_ibm(pairs, iterations, model)
    if model == 1:
        ttable, align = train_ibm1(pairs, iterations), None
    else:
        ttable, align = train_ibm2(pairs, iterations)
    assert ttable.source_vocab == ref["source_vocab"]
    assert ttable.target_vocab == ref["target_vocab"]
    assert np.array_equal(ttable.indptr, ref["indptr"])
    assert np.array_equal(ttable.cols, ref["cols"])
    assert np.array_equal(ttable.probs, ref["probs"])
    assert np.array_equal(ttable.drop_probs, ref["drop_probs"])
    assert ttable.loglik_history == ref["loglik_history"]
    if model == 2:
        assert align.blocks.keys() == ref["blocks"].keys()
        for shape, block in ref["blocks"].items():
            assert np.array_equal(align.blocks[shape], block), shape


def random_corpus(rnd, n_pairs, n_types=12, max_len=12):
    """Pairs over a few skewed vocabularies, so tokens repeat within and across pairs."""
    weights = 1.0 / np.arange(1, n_types + 1)
    weights /= weights.sum()

    def sentence(prefix, lo, hi):
        size = int(rnd.integers(lo, hi + 1))
        return [f"{prefix}{k}" for k in rnd.choice(n_types, size=size, p=weights)]

    pairs = []
    for _ in range(n_pairs):
        shape = rnd.integers(6)
        if shape == 0:  # one target, many sources
            pairs.append((sentence("s", 7, 2 * max_len), sentence("t", 1, 1)))
        elif shape == 1:  # many targets
            pairs.append((sentence("s", 0, max_len), sentence("t", 8, 2 * max_len)))
        elif shape == 2:  # no source word, or no target word
            pairs.append((sentence("s", 0, 0), sentence("t", 0, 3)))
            pairs.append((sentence("s", 1, 4), sentence("t", 0, 0)))
        else:
            pairs.append((sentence("s", 0, max_len), sentence("t", 0, max_len)))
    pairs.append((["s0"], ["t0"]))  # at least one target word
    return pairs


EDGE_PAIRS = [
    ([f"w{k % 3}" for k in range(11)], ["one"]),  # lone target, 12 sources with NULL
    (["w0"] * 9, ["one"]),  # lone target, one source type repeated
    (["a", "b"], [f"e{k % 5}" for k in range(13)]),  # 13 targets, repeats
    ([], ["x", "y"]),  # NULL only
    (["a", "a", "b"], []),  # no targets
    (["a", "b", "a"], ["x", "x", "one"]),
    ([f"w{k}" for k in range(8)], [f"e{k}" for k in range(8)]),  # 9 x 8 block
]


class TestMatchesFormerTrainer:
    @pytest.mark.parametrize("model", [1, 2])
    def test_edge_shapes(self, model):
        assert_same_training(EDGE_PAIRS, 6, model)

    @pytest.mark.parametrize("model", [1, 2])
    @pytest.mark.parametrize(
        "pair", [p for p in EDGE_PAIRS if p[1]], ids=lambda p: f"{len(p[0])}x{len(p[1])}"
    )
    def test_single_pair(self, model, pair):
        assert_same_training([pair], 4, model)

    @pytest.mark.parametrize("model", [1, 2])
    def test_random_corpora(self, model):
        rnd = np.random.default_rng(1993 + model)
        for _ in range(60):
            pairs = random_corpus(rnd, int(rnd.integers(1, 40)))
            assert_same_training(pairs, int(rnd.integers(1, 6)), model)

    @pytest.mark.parametrize("model", [1, 2])
    def test_several_default_chunks(self, model):
        pairs = random_corpus(np.random.default_rng(7), 300, n_types=40)
        assert_same_training(pairs, 3, model)

    def test_one_link_per_chunk(self):
        assert len(_encode(THREE_PAIRS)[1].links) == 18
        assert_same_training(THREE_PAIRS, 5, 2)


# Non-ASCII tokens and U+10300 (Old Italic A), outside the Basic Multilingual
# Plane: the vocabularies must sort by code point, which puts U+FFFF before
# U+10300 where a sort by UTF-16 units would not, and map every token to its id.
WIDE_PAIRS = [
    (["ś", "θ", "\U00010300", "s"], ["ś", "\U00010300"]),
    (["\U00010300θ", "θ", "ś"], ["θ", "z", "\uffff"]),
    (["s", "\uffff"], ["\U00010300", "s"]),
    ([], ["ś"]),
]


class TestEncode:
    def test_wide_tokens_equal_oracle_encode(self):
        (table, links), ref = _encode(WIDE_PAIRS), oracles._oracle_encode(WIDE_PAIRS)
        assert table.source_vocab == ref["source_vocab"]
        assert table.target_vocab == ref["target_vocab"]
        assert np.array_equal(links.src_types, ref["src_flat"])
        assert np.array_equal(table.indptr, ref["indptr"])
        assert np.array_equal(table.cols, ref["cols"])
        layout = (ref["src_flat"], ref["src_indptr"], ref["tgt_flat"], ref["tgt_indptr"])
        want, _, link_tgt = oracles.oracle_links(*layout, ref["indptr"], ref["cols"])
        assert (links.links.tolist(), links.link_tgt.tolist()) == (want, link_tgt)

    @pytest.mark.parametrize("model", [1, 2])
    def test_wide_tokens_train_as_former_trainer(self, model):
        assert_same_training(WIDE_PAIRS, 4, model)

    def test_link_indices_are_intp(self):
        _, links = _encode(THREE_PAIRS, oracles.oracle_align_layout(THREE_PAIRS)[0])
        for name in ("links", "a_links", "link_tgt"):
            assert getattr(links, name).dtype == np.intp, (
                f"Links.{name} must be np.intp: numpy converts any other index array on every E-step "
                "gather and bincount (int32 gathers took about twice, int32 bincounts about four times "
                "as long on the align workload's 40,475 links)"
            )


class TestLinks:
    """`build_links` against `oracles.oracle_links`, compared with ==, with and without position-table bases."""

    @staticmethod
    def assert_oracle_links(pairs):
        enc = oracles._oracle_encode(pairs)
        layout = (enc["src_flat"], enc["src_indptr"], enc["tgt_flat"], enc["tgt_indptr"])
        for bases in (None, oracles.oracle_align_layout(pairs)[0]):
            indptr, cols, links = _kernels.build_links(*layout, len(enc["source_vocab"]), bases)
            assert np.array_equal(indptr, enc["indptr"])
            assert np.array_equal(cols, enc["cols"])
            a_links = None if links.a_links is None else links.a_links.tolist()
            got = (links.links.tolist(), a_links, links.link_tgt.tolist())
            assert got == oracles.oracle_links(*layout, indptr, cols, bases)

    def test_edge_pairs(self):
        self.assert_oracle_links(EDGE_PAIRS)

    def test_random_corpora(self):
        rnd = np.random.default_rng(1853)
        for _ in range(40):
            self.assert_oracle_links(random_corpus(rnd, int(rnd.integers(1, 40))))


class TestFromDictMatchesRowLists:
    """`TTable.from_dict` against the former row-list builder, `oracles.oracle_ttable_layout`."""

    @staticmethod
    def assert_oracle_layout(payload):
        table, ref = TTable.from_dict(payload), oracles.oracle_ttable_layout(payload)
        assert table.source_vocab == ref["source_vocab"]
        assert table.target_vocab == ref["target_vocab"]
        assert table.indptr.dtype == ref["indptr"].dtype == np.int64
        assert table.cols.dtype == ref["cols"].dtype == np.int32
        for name in ("indptr", "cols", "probs", "drop_probs"):
            assert np.array_equal(getattr(table, name), ref[name]), name
        return table

    @staticmethod
    def trained_payloads():
        """Unpruned payloads of trained tables, their entries shuffled."""
        rnd = np.random.default_rng(1993)
        for model in (1, 2):
            for pairs in (THREE_PAIRS, EDGE_PAIRS, WIDE_PAIRS, random_corpus(rnd, 30), copy_corpus()):
                table = train_ibm1(pairs, 3) if model == 1 else train_ibm2(pairs, 3)[0]
                payload = table.to_dict(prune=0.0)
                payload["entries"] = [payload["entries"][k] for k in rnd.permutation(len(payload["entries"]))]
                yield table, payload

    def test_trained_tables_shuffled(self):
        for trained, payload in self.trained_payloads():
            assert any(f == NULL_TOKEN for f, _, _ in payload["entries"])
            table = self.assert_oracle_layout(payload)
            assert np.array_equal(table.probs, trained.probs)  # nothing pruned, so every cell comes back

    def test_without_null_entries(self):
        for _, payload in self.trained_payloads():
            payload["entries"] = [entry for entry in payload["entries"] if entry[0] != NULL_TOKEN]
            table = self.assert_oracle_layout(payload)
            assert table.indptr[1] == 0  # the empty source keeps row 0, with no cells

    def test_source_with_every_entry_pruned(self):
        for trained, _ in self.trained_payloads():
            rows = zip(trained.source_vocab, trained.indptr[:-1], trained.indptr[1:])
            best = {f: trained.probs[lo:hi].max() for f, lo, hi in rows if hi > lo}
            gone = min(best, key=best.get)  # pruned just above its best cell, so all its cells go
            payload = trained.to_dict(prune=float(np.nextafter(best[gone], 1.0)))
            payload["drop_probs"][gone] = 0.5  # a drop mass whose source no entry names is dropped
            assert all(f != gone for f, _, _ in payload["entries"])
            self.assert_oracle_layout(payload)

    @pytest.mark.parametrize("drop_probs", [{}, {"x": 0.5, NULL_TOKEN: 0.25}])
    def test_empty_entries(self, drop_probs):
        table = self.assert_oracle_layout({"entries": [], "drop_probs": drop_probs})
        assert table.source_vocab == (NULL_TOKEN,) and table.target_vocab == ()
        assert table.indptr.tolist() == [0, 0]

    def test_integer_probabilities(self):
        self.assert_oracle_layout({"entries": [["b", "y", 1], ["a", "y", 0.5], ["a", "x", 0], [NULL_TOKEN, "x", 1]],
                                   "drop_probs": {"a": 1, "b": 0.0}})


class TestLinkBudget:
    # one 5,000 x 5,000-token pair has 25,005,000 links, over MAX_LINKS; the
    # check runs before any per-link array is built, so these tests stay cheap
    HUGE = (["f"] * 5000, ["e"] * 5000)
    MESSAGE = (
        "training needs 25,005,012 links, more than the budget of 20,000,000 (MAX_LINKS); "
        "the longest pair, pair 1, has 5,000 source and 5,000 target tokens"
    )

    @pytest.mark.parametrize("train", [train_ibm1, train_ibm2])
    def test_over_budget_refused_before_allocation(self, monkeypatch, train):
        def no_links(*args, **kwargs):
            raise AssertionError("build_links called over the link budget")

        monkeypatch.setattr(_kernels, "build_links", no_links)
        with pytest.raises(DataError, match=f"^{re.escape(self.MESSAGE)}$"):
            train([THREE_PAIRS[0], self.HUGE, THREE_PAIRS[1]])

    def test_budget_counts_the_empty_slot(self, monkeypatch):
        monkeypatch.setattr(ibm, "MAX_LINKS", 12)
        train_ibm1([(["a", "b", "c"], ["x", "y", "z"])])  # (3 + 1) * 3 = 12 links
        with pytest.raises(DataError, match="training needs 15 links, more than the budget of 12"):
            train_ibm1([(["a", "b", "c", "d"], ["x", "y", "z"])])

    def test_cli_and_benchmark_report_it(self, tmp_path, capsys):
        from ettmt.cli import cli_dispatch
        from ettmt.errors import BenchmarkError
        from ettmt.harness import BenchmarkConfig, run_benchmark

        corpus = tmp_path / "c.tsv"
        rows = ["id\tsource\tetruscan\tenglish\tdate\tlocation", "e0\tETP\tmi\ti am\t\t",
                "e1\tETP\t" + " ".join(self.HUGE[0]) + "\t" + " ".join(self.HUGE[1]) + "\t\t"]
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert cli_dispatch(["train", "--family", "ibm1", "--in", str(corpus), "--out", str(model)]) == 2
        one_line = self.MESSAGE.replace("25,005,012", "25,005,004")  # "mi" / "i am" has 2 * 2 links
        assert capsys.readouterr().err == f"error: {one_line}\n"
        assert not model.exists()
        cfg = BenchmarkConfig(corpus=str(corpus), models=[{"family": "ibm2"}], repeats=1, full_eval=True)
        with pytest.raises(BenchmarkError, match=f"^run 0, stage 'train': {re.escape(one_line)}$"):
            run_benchmark(cfg)
