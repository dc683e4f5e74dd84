import json
import logging
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ettmt import _kernels, metrics
from ettmt.metrics import (
    MAX_SHIFT_CANDIDATES,
    SPAN_TARGETS,
    MetricReport,
    _shift_search,
    _shifts,
    _trace,
    bleu,
    chrf,
    score_corpus,
    ter,
)

FIXTURE = json.loads((Path(__file__).parent / "data" / "metric_fixture.json").read_text())
HYPS = [p["hyp"] for p in FIXTURE["pairs"]]
REFS = [p["ref"] for p in FIXTURE["pairs"]]


class TestBleu:
    def test_identity_is_exactly_100(self):
        segs = ["mi karkanas thahvna spurena", "this is the tomb of ane cuclnies"]
        assert bleu(segs, segs) == 100.0

    def test_empty_hypothesis_zero(self):
        assert bleu([""], ["a"]) == 0.0

    def test_clipping_by_hand(self):
        # one shared unigram type, clipped at the reference count of 2;
        # zero higher-order matches fall back to exponential smoothing
        value = bleu(["the the the the the the the"], ["the cat is on the mat"])
        hand = (100.0 * 2 / 7 * 100.0 / 12 * 100.0 / 20 * 100.0 / 32) ** 0.25
        assert value == pytest.approx(hand, abs=1e-9)

    def test_brevity_penalty(self):
        import math

        # perfect prefix: every n-gram matches, so only the penalty bites
        value = bleu(["a b c d e"], ["a b c d e f g"])
        assert value == pytest.approx(100.0 * math.exp(1.0 - 7.0 / 5.0), abs=1e-9)

    def test_short_corpus_without_high_order_ngrams(self):
        # no trigram anywhere in the hypotheses: score collapses to zero
        assert bleu(["a b"], ["a b c d"]) == 0.0

    def test_frozen_oracle_value(self):
        assert bleu(HYPS, REFS) == pytest.approx(FIXTURE["bleu"], abs=0.01)

    def test_matches_oracle_on_random_corpora(self):
        rnd = random.Random(0)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(25):
            hyps = [" ".join(rnd.choices(vocab, k=rnd.randint(0, 8))) for _ in range(6)]
            refs = [" ".join(rnd.choices(vocab, k=rnd.randint(1, 8))) for _ in range(6)]
            assert bleu(hyps, refs) == pytest.approx(oracles.oracle_bleu(hyps, refs), abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            bleu(["a"], ["a", "b"])
        with pytest.raises(ValueError):
            bleu([], [])

    def test_pair_order_invariant(self):
        assert bleu(HYPS, REFS) == pytest.approx(bleu(HYPS[::-1], REFS[::-1]), abs=1e-12)


class TestChrf:
    def test_identity(self):
        segs = ["mi karkanas", "tularspu"]
        assert chrf(segs, segs) == 100.0

    def test_disjoint_zero(self):
        assert chrf(["abcd"], ["wxyz"]) == 0.0

    def test_frozen_oracle_value(self):
        assert chrf(HYPS, REFS) == pytest.approx(FIXTURE["chrf"], abs=0.01)

    def test_matches_oracle_on_random_corpora(self):
        rnd = random.Random(1)
        vocab = ["ab", "bc", "cad", "d", "efg"]
        for _ in range(25):
            hyps = [" ".join(rnd.choices(vocab, k=rnd.randint(0, 8))) for _ in range(5)]
            refs = [" ".join(rnd.choices(vocab, k=rnd.randint(1, 8))) for _ in range(5)]
            assert chrf(hyps, refs) == pytest.approx(oracles.oracle_chrf(hyps, refs), abs=1e-9)

    def test_whitespace_removed(self):
        # spacing differences are invisible to the character statistics
        assert chrf(["ab cd"], ["abcd"]) == 100.0

    def test_pair_order_invariant(self):
        assert chrf(HYPS, REFS) == pytest.approx(chrf(HYPS[::-1], REFS[::-1]), abs=1e-12)


class TestTer:
    def test_identity(self):
        segs = ["mi karkanas thahvna"]
        assert ter(segs, segs) == 0.0

    def test_single_substitution(self):
        assert ter(["a b d"], ["a b c"]) == pytest.approx(100.0 / 3, abs=1e-9)

    def test_empty_hyp_insertions(self):
        assert ter([""], ["a b"]) == 100.0

    def test_block_shift_counts_one_edit(self):
        assert ter(["a b c d"], ["c d a b"]) == 25.0

    def test_can_exceed_100(self):
        assert ter(["a b c d e f"], ["x"]) > 100.0

    def test_frozen_oracle_value(self):
        assert ter(HYPS, REFS) == pytest.approx(FIXTURE["ter"], abs=0.01)

    def test_matches_oracle_on_random_corpora(self):
        rnd = random.Random(2)
        vocab = ["a", "b", "c", "d"]
        for _ in range(25):
            hyps = [" ".join(rnd.choices(vocab, k=rnd.randint(0, 10))) for _ in range(5)]
            refs = [" ".join(rnd.choices(vocab, k=rnd.randint(1, 10))) for _ in range(5)]
            assert ter(hyps, refs) == pytest.approx(oracles.oracle_ter(hyps, refs), abs=1e-9)

    def test_matches_oracle_on_shift_rich_pairs(self):
        # references are block permutations of the hypotheses, the regime
        # where the greedy shift search does all the work
        rnd = random.Random(7)
        for _ in range(30):
            words = [f"w{i}" for i in range(rnd.randint(4, 14))]
            blocks = []
            i = 0
            while i < len(words):
                j = min(len(words), i + rnd.randint(1, 4))
                blocks.append(words[i:j])
                i = j
            rnd.shuffle(blocks)
            hyp = " ".join(w for b in blocks for w in b)
            ref = " ".join(words)
            assert ter([hyp], [ref]) == pytest.approx(oracles.oracle_ter([hyp], [ref]), abs=1e-9)

    def test_zero_ref_words(self):
        with pytest.raises(ValueError):
            ter(["a"], [""])

    def test_candidate_cap_agrees_with_oracle(self):
        # long repetitive pair: the shift search hits its candidate budget,
        # and both implementations must stop shifting at the same point
        rnd = random.Random(3)
        hyp = " ".join(rnd.choice("ab") for _ in range(60))
        ref = " ".join(rnd.choice("ab") for _ in range(60))
        assert ter([hyp], [ref]) == pytest.approx(oracles.oracle_ter([hyp], [ref]), abs=1e-9)

    def test_pair_order_invariant(self):
        assert ter(HYPS, REFS) == pytest.approx(ter(HYPS[::-1], REFS[::-1]), abs=1e-12)

    def test_candidate_cap_is_logged(self, caplog):
        # the 30-word "ab" pair of test_candidate_cap_equal, twice
        rnd = random.Random(3)
        hyp = " ".join(rnd.choice("ab") for _ in range(30))
        ref = " ".join(rnd.choice("ab") for _ in range(30))
        with caplog.at_level(logging.WARNING, logger="ettmt.metrics"):
            ter([hyp, "a b", hyp], [ref, "a b", ref])
        assert [r.getMessage() for r in caplog.records] == [
            f"TER: the shift search of 2 of 3 segments stopped at MAX_SHIFT_CANDIDATES ({MAX_SHIFT_CANDIDATES} candidates)"
        ]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ettmt.metrics"):
            ter(HYPS + ["a b c d"], REFS + ["c d a b"])
        assert not caplog.records


class TestRanges:
    segments = st.lists(
        st.text(alphabet="abcd -", min_size=0, max_size=12).map(lambda s: " ".join(s.split())),
        min_size=1,
        max_size=6,
    )

    @settings(max_examples=150, deadline=None)
    @given(segments, segments)
    def test_bleu_chrf_bounded(self, hyps, refs):
        k = min(len(hyps), len(refs))
        hyps, refs = hyps[:k], refs[:k]
        if not hyps:
            return
        assert 0.0 <= bleu(hyps, refs) <= 100.0
        assert 0.0 <= chrf(hyps, refs) <= 100.0

    @settings(max_examples=150, deadline=None)
    @given(segments, segments)
    def test_ter_non_negative(self, hyps, refs):
        k = min(len(hyps), len(refs))
        hyps, refs = hyps[:k], refs[:k]
        if not hyps or sum(len(r.split()) for r in refs) == 0:
            return
        assert ter(hyps, refs) >= 0.0


class TestReport:
    def test_score_corpus(self):
        report = score_corpus(HYPS, REFS)
        assert isinstance(report, MetricReport)
        assert report.n_pairs == 10
        assert report.bleu == pytest.approx(FIXTURE["bleu"], abs=0.01)
        assert report.chrf == pytest.approx(FIXTURE["chrf"], abs=0.01)
        assert report.ter == pytest.approx(FIXTURE["ter"], abs=0.01)

    def test_identity_triple(self):
        segs = ["eca shuthic velus ezpus clensi cerine", "mi karkanas thahvna"]
        report = score_corpus(segs, list(segs))
        assert (report.bleu, report.chrf, report.ter) == (100.0, 100.0, 0.0)

    def test_text_format(self):
        report = score_corpus(HYPS, REFS)
        text = report.format_text()
        assert "BLEU" in text and "chr-F" in text and "TER" in text

    def test_fixture_still_reproduces(self):
        # guards against silent drift of the frozen fixture file
        assert oracles.oracle_bleu(HYPS, REFS) == pytest.approx(FIXTURE["bleu"], abs=1e-6)
        assert oracles.oracle_chrf(HYPS, REFS) == pytest.approx(FIXTURE["chrf"], abs=1e-6)
        assert oracles.oracle_ter(HYPS, REFS) == pytest.approx(FIXTURE["ter"], abs=1e-6)


# one-character, multi-character and non-ASCII words; few enough that
# n-grams repeat within and across segments
WORDS = ["a", "b", "ab", "ba", "c", "θ", "śa", "über", "χi"]


def _block_permuted(rnd, words):
    blocks = []
    i = 0
    while i < len(words):
        j = min(len(words), i + rnd.randint(1, 4))
        blocks.append(words[i:j])
        i = j
    rnd.shuffle(blocks)
    return [w for b in blocks for w in b]


def _random_pair(rnd):
    ref = rnd.choices(WORDS, k=rnd.randint(0, 14))
    kind = rnd.random()
    if kind < 0.15:
        hyp = []
    elif kind < 0.25:
        hyp = rnd.choices(WORDS[:1] + WORDS[5:6], k=1)
    elif kind < 0.55:
        hyp = _block_permuted(rnd, ref)
        if hyp and rnd.random() < 0.5:
            hyp[rnd.randrange(len(hyp))] = rnd.choice(WORDS)
    else:
        hyp = rnd.choices(WORDS, k=rnd.randint(0, 14))
    return " ".join(hyp), " ".join(ref)


def _alignment(hyp, ref):
    """`_trace` of hyp against a non-empty ref, from the bit-parallel columns the shift search runs."""
    return _trace(hyp, ref, _kernels.columns(_kernels.bitmasks(ref), len(ref), hyp))


def _former_shifts(hyp, ref):
    """The (hyp start, length, target) shifts of one round of
    ``oracles.former_pair_edits``, in the order it scores them."""
    _, path = oracles.former_edit_ops(hyp, ref)
    align, hyp_err, ref_err = oracles._former_path_alignment(path)
    shifts = []
    for sh, sr, length in oracles.former_shift_candidates(hyp, ref):
        if not any(hyp_err[sh : sh + length]) or not any(ref_err[sr : sr + length]):
            continue
        if sh <= align[sr] < sh + length:
            continue
        prev_target = -1
        for offset in range(-1, length):
            target = 0 if sr + offset == -1 else align[sr + offset] + 1
            if target != prev_target:
                shifts.append((sh, length, target))
            prev_target = target
    return shifts


class TestMatchesFormerImplementation:
    """The metrics against the package's former code in tests/oracles.py:
    every count is an integer, so the values must be equal, not close."""

    def test_corpus_scores_equal(self):
        rnd = random.Random(11)
        for _ in range(150):
            pairs = [_random_pair(rnd) for _ in range(rnd.randint(1, 8))]
            if not any(ref for _, ref in pairs):
                pairs.append(("a", "a b"))
            hyps = [h for h, _ in pairs]
            refs = [r for _, r in pairs]
            assert bleu(hyps, refs) == oracles.former_bleu(hyps, refs)
            assert chrf(hyps, refs) == oracles.former_chrf(hyps, refs)
            assert ter(hyps, refs) == oracles.former_ter(hyps, refs)
            for h, r in pairs:
                assert _shift_search(h.split(), r.split())[0] == oracles.former_pair_edits(h.split(), r.split())

    @staticmethod
    def _assert_ngram_scores_equal(hyps, refs):
        assert bleu(hyps, refs) == oracles.former_bleu(hyps, refs)
        assert chrf(hyps, refs) == oracles.former_chrf(hyps, refs)

    def test_unicode_items_and_separators(self):
        # astral code points, a lone surrogate, combining marks and
        # whitespace other than the space: tab, newline, ideographic space
        items = ["a", "ab", "\U0001F600", "\U00010900x", "\ud800", "e\u0301", "θ", "\u3000", "\t", "\n", " "]
        rnd = random.Random(21)
        for _ in range(300):
            segs = ["".join(rnd.choices(items, k=rnd.randint(0, 12))) for _ in range(2 * rnd.randint(1, 6))]
            self._assert_ngram_scores_equal(segs[::2], segs[1::2])

    def test_empty_and_whitespace_only_segments(self):
        cases = [
            ([""], ["a b"]),
            (["a b"], [""]),
            ([""], [""]),
            (["  \t"], ["\u3000"]),
            (["", "", ""], ["a", "b c", "d e f g h"]),
            (["\t \u3000", "", " "], ["a b c d e", "", "x"]),
            (["a b c d e", "", "a a"], ["", " ", "a a"]),
            (["", "a b c d"], ["", "a b c d"]),
        ]
        for hyps, refs in cases:
            self._assert_ngram_scores_equal(hyps, refs)
        rnd = random.Random(22)
        for _ in range(100):
            refs = [rnd.choice(["", " ", "\t", "a", "a b", "b a b c d e"]) for _ in range(rnd.randint(1, 6))]
            hyps = [rnd.choice(["", " ", "\u3000", "a", "b a"]) for _ in refs]
            self._assert_ngram_scores_equal(hyps, refs)
            self._assert_ngram_scores_equal([""] * len(refs), refs)

    def test_long_single_item_runs(self):
        # every n-gram of a run repeats, so only clipping separates the counts
        rnd = random.Random(23)
        for _ in range(60):
            hyps, refs = [], []
            for _ in range(rnd.randint(1, 4)):
                c = rnd.choice("ab")
                hyps.append(rnd.choice([c * rnd.randint(0, 40), " ".join(c * rnd.randint(0, 40))]))
                refs.append(rnd.choice([c * rnd.randint(0, 40), " ".join(c * rnd.randint(0, 40)), "ab" * 10]))
            self._assert_ngram_scores_equal(hyps, refs)

    @pytest.mark.parametrize("chunk_items", [1, 3, 17, 200, None])
    def test_corpora_spanning_several_chunks(self, monkeypatch, chunk_items):
        if chunk_items is not None:
            monkeypatch.setattr(metrics, "CHUNK_ITEMS", chunk_items)
        size = metrics.CHUNK_ITEMS
        rnd = random.Random(24 + size)
        pairs = [_random_pair(rnd) for _ in range(max(25, size // 4))]
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        assert sum(len((h + r).split()) for h, r in pairs) > 2 * size  # three chunks or more
        self._assert_ngram_scores_equal(hyps, refs)
        # one segment longer than a whole chunk, between shorter ones
        long_hyp = " ".join(rnd.choices(WORDS, k=size))
        long_ref = " ".join(rnd.choices(WORDS, k=size))
        self._assert_ngram_scores_equal(hyps[:5] + [long_hyp] + hyps[5:8], refs[:5] + [long_ref] + refs[5:8])
        self._assert_ngram_scores_equal([long_hyp], [long_hyp + " " + long_ref])

    @pytest.mark.parametrize("chunk_items", [5, None])
    def test_prefix_on_one_side_only(self, monkeypatch, chunk_items):
        # each order ranks only the positions whose shorter n-gram occurs on
        # both sides of its segment; the totals still count every n-gram
        if chunk_items is not None:
            monkeypatch.setattr(metrics, "CHUNK_ITEMS", chunk_items)
        cases = [
            (["a b c"], ["a b d"]),  # the bigram matches, the trigrams differ
            (["a b c d"], ["x b c d"]),  # "a b" is hypothesis-only, "b c d" still matches
            (["x b c d"], ["a b c d"]),
            (["a b a b a"], ["b a b a b"]),
            # the same n-grams on opposite sides of different segments never match
            (["a b c", "x y"], ["x y", "a b c"]),
            (["a b c d e", "", "a b c d e"], ["", "a b c d e", "a b x d e"]),
            (["abcabc", "abcab"], ["abcab", "abcabc"]),
            (["", "", "a a a a"], ["a a a", "", ""]),
        ]
        for hyps, refs in cases:
            self._assert_ngram_scores_equal(hyps, refs)
        rnd = random.Random(25)
        for _ in range(100):
            # a two-word vocabulary, so prefixes often occur on one side only
            pairs = [(" ".join(rnd.choices("ab", k=rnd.randint(0, 9))), " ".join(rnd.choices("ab", k=rnd.randint(0, 9))))
                     for _ in range(rnd.randint(1, 6))]
            self._assert_ngram_scores_equal([h for h, _ in pairs], [r for _, r in pairs])
        # one segment longer than a whole chunk, between empty ones
        size = metrics.CHUNK_ITEMS
        long_hyp = "".join(rnd.choices("abc", k=size + 3))
        long_ref = long_hyp[: size // 2] + "".join(rnd.choices("abc", k=size))
        self._assert_ngram_scores_equal(["", long_hyp, "a"], ["a b", long_ref, ""])
        self._assert_ngram_scores_equal([" ".join(long_hyp)], [" ".join(long_ref)])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.text(max_size=20), st.text(max_size=20)), min_size=1, max_size=6))
    def test_arbitrary_text_equal(self, pairs):
        self._assert_ngram_scores_equal([h for h, _ in pairs], [r for _, r in pairs])

    def test_edit_ops_equal(self):
        rnd = random.Random(12)
        for k in range(420):
            vocab = rnd.randint(1, 6)
            max_len = 25 if k < 400 else 70
            hyp = [rnd.randrange(vocab) for _ in range(rnd.randint(0, max_len))]
            ref = [rnd.randrange(vocab) for _ in range(rnd.randint(0, max_len))]
            self._assert_edit_ops_equal(hyp, ref)

    def test_edit_ops_equal_on_ties(self):
        # with one or two word types nearly every cell is a tie
        rnd = random.Random(14)
        for _ in range(400):
            vocab = rnd.randint(1, 2)
            hyp = [rnd.randrange(vocab) for _ in range(rnd.randint(0, 25))]
            ref = [rnd.randrange(vocab) for _ in range(rnd.randint(0, 25))]
            self._assert_edit_ops_equal(hyp, ref)

    def test_edit_ops_equal_past_machine_words(self):
        # the bit vectors of a reference past 64 and 128 words span several machine words
        rnd = random.Random(15)
        for n, m in [(64, 65), (65, 64), (70, 130), (129, 128), (128, 140), (0, 130), (130, 1), (1, 129)]:
            for vocab in (1, 2, 5, 40):
                hyp = [rnd.randrange(vocab) for _ in range(n)]
                ref = [rnd.randrange(vocab) for _ in range(m)]
                self._assert_edit_ops_equal(hyp, ref)

    @staticmethod
    def _assert_edit_ops_equal(hyp, ref):
        distance, path = oracles.former_edit_ops(hyp, ref)
        if not ref:  # the shift search traces nothing: it returns the hyp length, deleted word by word
            assert _shift_search(hyp, ref) == (distance, False)
            return
        align, hyp_err, ref_err = oracles._former_path_alignment(path)
        after = [0] + [align[r] + 1 for r in range(len(ref))]
        assert _alignment(hyp, ref) == (distance, after, hyp_err, ref_err)

    def test_pair_edits_equal_past_machine_words(self):
        rnd = random.Random(16)
        for n in (66, 130):
            ref = [f"w{i}" for i in range(n)]
            # two swapped blocks and a substitution, so the search shifts
            hyp = ref[:20] + ref[50:58] + ref[20:50] + ref[58:]
            hyp[rnd.randrange(n)] = "x"
            assert _shift_search(hyp, ref)[0] == oracles.former_pair_edits(hyp, ref)

    def test_shift_candidates_equal(self):
        # the shifts scored in one round, in the former search's order;
        # lengths past MAX_SHIFT_DIST exercise the distance bound
        rnd = random.Random(13)
        for _ in range(60):
            vocab = rnd.randint(1, 5)
            hyp = [rnd.randrange(vocab) for _ in range(rnd.randint(0, 70))]
            ref = [rnd.randrange(vocab) for _ in range(rnd.randint(0, 70))]
            starts = {}
            for sr, word in enumerate(ref):
                starts.setdefault(word, []).append(sr)
            if not ref:  # the shift search returns before it looks for a shift
                assert _former_shifts(hyp, ref) == []
                continue
            _, after, hyp_err, ref_err = _alignment(hyp, ref)
            assert list(_shifts(hyp, ref, starts, after, hyp_err, ref_err)) == _former_shifts(hyp, ref)

    def test_repeated_pairs_equal(self):
        # repeated (hypothesis, reference) pairs, one hypothesis against
        # several references, and a cache shared by two calls
        rnd = random.Random(17)
        for _ in range(60):
            pool = [_random_pair(rnd) for _ in range(3)] + [("a", "a b")]
            pairs = [rnd.choice(pool) for _ in range(rnd.randint(1, 10))] + [("a", "a b")]
            hyp = rnd.choice(pool)[0]
            pairs += [(hyp, ref) for _, ref in pool]
            rnd.shuffle(pairs)
            hyps = [h for h, _ in pairs]
            refs = [r for _, r in pairs]
            assert ter(hyps, refs) == oracles.former_ter(hyps, refs)
            cache = {}
            for lo, hi in ((0, 3), (3, None)):
                part_h, part_r = hyps[lo:hi] + ["a"], refs[lo:hi] + ["a b"]
                assert ter(part_h, part_r, cache) == oracles.former_ter(part_h, part_r)
            assert len(cache) == len(set(pairs))

    def test_each_distinct_pair_searched_once(self, monkeypatch):
        rnd = random.Random(18)
        pairs = [_random_pair(rnd) for _ in range(6)] + [("a", "a b")]
        calls = []
        distance = _kernels.levenshtein
        monkeypatch.setattr(_kernels, "levenshtein", lambda *args: calls.append(1) or distance(*args))
        ter([h for h, _ in pairs], [r for _, r in pairs])
        once = len(calls)
        assert once > 0
        calls.clear()
        ter([h for h, _ in pairs * 3], [r for _, r in pairs * 3])
        assert len(calls) == once

    def test_candidate_cap_equal(self, monkeypatch):
        rnd = random.Random(3)
        hyp = [rnd.choice("ab") for _ in range(30)]
        ref = [rnd.choice("ab") for _ in range(30)]
        calls = []
        distance = _kernels.levenshtein
        monkeypatch.setattr(_kernels, "levenshtein", lambda *args: calls.append(1) or distance(*args))
        assert _shift_search(hyp, ref)[0] == oracles.former_pair_edits(hyp, ref)
        assert len(calls) == MAX_SHIFT_CANDIDATES


@st.composite
def _word_pairs(draw, max_len=18):
    """A (hyp, ref) pair of word lists over a vocabulary of 1-6 words."""
    words = [f"w{i}" for i in range(draw(st.integers(1, 6)))]
    side = st.lists(st.sampled_from(words), max_size=max_len)
    return draw(side), draw(side)


def _moved_blocks(rnd, words, k):
    """words with k random blocks of 1-4 words each moved elsewhere."""
    words = list(words)
    for _ in range(k):
        start = rnd.randrange(len(words))
        block = words[start : start + rnd.randint(1, 4)]
        del words[start : start + len(block)]
        at = rnd.randint(0, len(words))
        words[at:at] = block
    return words


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the count list."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or fn(*args))
    return calls


class TestShiftSearchFloor:
    """The shift search ends at the bag-of-words floor max(n, m) - |hyp & ref|
    only where the full search would stop there too: ``(edits, capped)``
    equal the former search's, which runs every round."""

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(_word_pairs())
    def test_equals_former_search(self, pair):
        hyp, ref = pair
        assert _shift_search(hyp, ref) == oracles.former_shift_search(hyp, ref)

    @pytest.mark.parametrize("cap", [1, 2, 30, 65, 66, 130])
    def test_equals_former_search_under_lower_caps(self, monkeypatch, cap):
        # a cap this low is soon within checked + bound, so the search must
        # run the rounds it would otherwise end by proof, and some reach the cap
        monkeypatch.setattr(metrics, "MAX_SHIFT_CANDIDATES", cap)
        rnd = random.Random(cap)
        capped = 0
        for _ in range(300):
            words = [f"w{i}" for i in range(rnd.randint(1, 6))]
            ref = rnd.choices(words, k=rnd.randint(1, 14))
            if rnd.random() < 0.6:
                hyp = _moved_blocks(rnd, ref, rnd.randint(0, 3))
            else:
                hyp = rnd.choices(words, k=rnd.randint(1, 14))
            found = _shift_search(hyp, ref)
            assert found == oracles.former_shift_search(hyp, ref), (hyp, ref)
            capped += found[1]
        assert capped > 0

    def test_long_few_word_pairs_reach_the_cap(self):
        rnd = random.Random(31)
        capped = 0
        for k in range(24):
            words = ["a", "b", "c"][: 2 + k % 2]
            ref = rnd.choices(words, k=rnd.randint(30, 60))
            hyp = _moved_blocks(rnd, ref, 3) if k % 3 == 0 else rnd.choices(words, k=rnd.randint(30, 60))
            found = _shift_search(hyp, ref)
            assert found == oracles.former_shift_search(hyp, ref), (hyp, ref)
            capped += found[1]
        assert capped >= 10

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_pairs_reaching_the_floor_after_k_shifts(self, k):
        rnd = random.Random(40 + k)
        for _ in range(40):
            ref = [f"w{i}" for i in range(rnd.randint(4, 18))]
            if rnd.random() < 0.5:  # a repeated word and a word the hyp lacks
                ref[rnd.randrange(len(ref))] = ref[0]
            hyp = _moved_blocks(rnd, ref, k)
            if rnd.random() < 0.5:
                hyp[rnd.randrange(len(hyp))] = "x"
            assert _shift_search(hyp, ref) == oracles.former_shift_search(hyp, ref), (hyp, ref)

    def test_candidate_bound(self):
        # a round scores at most SPAN_TARGETS shifts per (hyp start, ref start)
        # pair of equal words: the bound the search ends under
        rnd = random.Random(32)
        for _ in range(300):
            words = [f"w{i}" for i in range(rnd.randint(1, 5))]
            ref = rnd.choices(words, k=rnd.randint(1, 20))
            hyp = rnd.choices(words + ["x"], k=rnd.randint(1, 20))
            starts = {}
            for sr, word in enumerate(ref):
                starts.setdefault(word, []).append(sr)
            spans = sum(len(starts.get(word, ())) for word in hyp)
            _, after, hyp_err, ref_err = _alignment(hyp, ref)
            assert len(list(_shifts(hyp, ref, starts, after, hyp_err, ref_err))) <= spans * SPAN_TARGETS
        # and one pair of words reaches it: ten words that both sides hold once,
        # substituted on both sides (a tie), each length 1-10 with length + 1 targets
        a = [f"a{i}" for i in range(10)]
        hyp, ref = [f"y{i}" for i in range(10)] + a, a + [f"z{i}" for i in range(10)]
        starts = {word: [sr] for sr, word in enumerate(ref)}
        _, after, hyp_err, ref_err = _alignment(hyp, ref)
        from_a0 = [sh for sh, _, _ in _shifts(hyp, ref, starts, after, hyp_err, ref_err) if sh == 10]
        assert len(from_a0) == SPAN_TARGETS

    def test_search_at_the_floor_neither_traces_nor_shifts(self, monkeypatch):
        traced = _counting(monkeypatch, metrics, "_trace")
        scanned = _counting(monkeypatch, metrics, "_shifts")
        passes = _counting(monkeypatch, _kernels, "columns")
        scored = _counting(monkeypatch, _kernels, "levenshtein")
        # one substitution: the distance is already max(3, 3) - 2
        assert _shift_search("a b x".split(), "a b c".split()) == (1, False)
        assert (len(traced), len(scanned), len(passes)) == (0, 0, 1)
        # one shift reaches the floor 0, so no column pass follows it; of the
        # round's 14 shifts, those after the first with gain 4 are scored only
        # when longer or earlier than it
        hyp, ref = "c d a b".split(), "a b c d".split()
        assert _shift_search(hyp, ref) == (1, False)
        assert (len(traced), len(scanned), len(passes), len(scored)) == (1, 1, 2, 5)
        _, after, hyp_err, ref_err = _alignment(hyp, ref)
        assert len(list(_shifts(hyp, ref, {w: [i] for i, w in enumerate(ref)}, after, hyp_err, ref_err))) == 14

    def test_pair_sharing_no_word_makes_no_column_pass(self, monkeypatch):
        passes = _counting(monkeypatch, _kernels, "columns")
        assert _shift_search("a b c d".split(), "x y".split()) == (4, False)
        assert _shift_search("a".split(), "x y z".split()) == (3, False)
        assert passes == []

    def test_score_corpus_is_the_three_metrics(self):
        rnd = random.Random(19)
        for _ in range(20):
            pairs = [_random_pair(rnd) for _ in range(rnd.randint(1, 6))] + [("a", "a b")]
            hyps = [h for h, _ in pairs]
            refs = [r for _, r in pairs]
            expected = MetricReport(bleu(hyps, refs), chrf(hyps, refs), ter(hyps, refs), len(hyps))
            assert score_corpus(hyps, refs) == expected
