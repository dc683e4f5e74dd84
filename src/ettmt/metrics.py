"""Corpus-level translation metrics: BLEU, character F-score, and edit rate.

All three follow the behavior of the standard scorer on pre-normalized,
single-reference corpora:

* ``bleu`` - BLEU-4 over whitespace tokens, clipped n-gram precisions with
  exponential smoothing of zero counts, brevity penalty, scale 0-100.
* ``chrf`` - character n-grams up to order 6 with whitespace removed,
  precision/recall macro-averaged over effective orders, F-score with
  beta = 2, scale 0-100.
* ``ter`` - word edits (insert/delete/substitute) plus greedy block shifts,
  per 100 reference words; lower is better and values above 100 are legal.

BLEU and chr-F are computed from integer sufficient statistics: per order,
the n-gram totals of each side and the clipped matches.  The totals follow
from the segment lengths; the matches are counted with numpy over chunks of
whole segments (sort-based n-gram ids, one ``np.bincount`` per side), each
order over only the positions whose shorter n-gram occurs on both sides of
its segment.  Since integer counts add up exactly over segments, the scores
equal those of counting segment by segment, bit for bit; the float formulas
after the counts are the standard scorer's.

TER searches each distinct (hypothesis, reference) pair once.  A round of
its greedy shift search makes one bit-parallel pass over the hypothesis
(``_kernels.columns``, with the bit vectors over the reference), traces the
alignment back from the bits of that pass, and scores each candidate shift
by resuming ``_kernels.levenshtein`` after the hypothesis prefix the shift
leaves in place.  All of it is integer arithmetic, so the edits equal those
of a full DP table per round and a fresh distance per candidate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _kernels

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0

log = logging.getLogger(__name__)


def _check_corpus(hypotheses, references):
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("cannot score an empty corpus")


# ---------------------------------------------------------------------------
# n-gram statistics
# ---------------------------------------------------------------------------
#
# BLEU and chr-F need, per order n, the n-gram totals of each side and the
# clipped matches: per segment and distinct n-gram, the smaller of its
# hypothesis and reference counts.  These are integers that add up over
# segments, so the corpus is counted in chunks of whole segments.  Inside a
# chunk each segment's hypothesis and reference items lie end to end; the
# 1-gram id of a position is (segment, item), and its n-gram id is the dense
# rank of (its (n-1)-gram id, the item n - 1 places on), so equal ids mean
# the same segment and the same n-gram.  An n-gram can match only where its
# (n-1)-gram prefix occurs in both the hypothesis and the reference of its
# segment, so each order ranks only the positions whose prefix did: over
# the BLEU and chr-F calls of a `score` workload call (seed 1) that is
# 90/55/37/29/23% of the chr-F n-grams at orders 2-6 and 43/13/5% of the
# BLEU ones at orders 2-4.  The n-gram totals count every position, pruned
# or not, so they come from the run lengths.

# Items (hypothesis plus reference) per chunk.  It bounds the temporaries, a
# few int64 arrays as long as the chunk.  With the default sort in
# dense_rank and the pruning above, BLEU plus chr-F over a `score` workload
# call (seed 1) took 0.054-0.056 / 0.045-0.050 / 0.043-0.046 /
# 0.042-0.046 s (medians of 15, two runs) at 2,048 / 4,096 / 8,192 /
# 16,384 items on 2 cores; before the pruning, each doubling added about
# 0.3-0.7 MB to the call's peak RSS.
CHUNK_ITEMS = 8192


def _chunks(pairs):
    """Lists hyp 0, ref 0, hyp 1, ref 1, ... of about ``CHUNK_ITEMS`` items."""
    runs = []
    filled = 0
    for hyp, ref in pairs:
        runs += (hyp, ref)
        filled += len(hyp) + len(ref)
        if filled >= CHUNK_ITEMS:
            yield runs
            runs = []
            filled = 0
    if runs:
        yield runs


def _encode_chars(runs: list[str]) -> tuple[np.ndarray, int]:
    """The code points of ``runs`` end to end, and a bound above them."""
    codes = np.frombuffer("".join(runs).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return codes.astype(np.int64), int(codes.max(initial=0)) + 1


def _ngram_stats(pairs, order: int, encode):
    """Per order 1..``order``: clipped matches, hypothesis and reference n-gram totals.

    ``pairs`` yields each segment's (hypothesis, reference) item sequences;
    ``encode`` maps a list of sequences to their items' integer codes, end
    to end, and a bound above the codes.
    """
    matches = [0] * order
    hyp_totals = np.zeros(order, dtype=np.int64)
    ref_totals = np.zeros(order, dtype=np.int64)
    for runs in _chunks(pairs):
        lengths = np.array([len(seq) for seq in runs], dtype=np.int64)
        # a run of L items holds max(0, L - n + 1) n-grams
        starts = np.maximum(lengths[:, None] - np.arange(order), 0)
        hyp_totals += starts[0::2].sum(axis=0)
        ref_totals += starts[1::2].sum(axis=0)
        codes, width = encode(runs)
        if not len(codes):
            continue
        run = np.repeat(np.arange(len(runs)), lengths)
        pos = np.arange(len(codes))
        left = np.cumsum(lengths)[run] - pos  # items from a position to its run's end
        ids, kinds = _kernels.dense_rank((run >> 1) * width + codes)  # run >> 1: the segment
        for n in range(1, order + 1):
            if n > 1:
                keep = shared[ids] & (left[pos] >= n)
                pos = pos[keep]
                if not len(pos):
                    break
                ids, kinds = _kernels.dense_rank(ids[keep] * width + codes[pos + n - 1])
            from_hyp = run[pos] % 2 == 0
            clipped = np.minimum(np.bincount(ids[from_hyp], minlength=kinds),
                                 np.bincount(ids[~from_hyp], minlength=kinds))
            matches[n - 1] += int(clipped.sum())
            shared = clipped > 0  # only an n-gram on both sides can start a matching (n+1)-gram
    return matches, hyp_totals.tolist(), ref_totals.tolist()


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def bleu(hypotheses: list[str], references: list[str]) -> float:
    """Corpus BLEU-4 in [0, 100] with exponential smoothing of zero counts."""
    _check_corpus(hypotheses, references)
    # words become ids segment by segment, so a chunk holds ints, not strings
    vocab: dict[str, int] = {}

    def word_ids(text: str) -> list[int]:
        return [vocab.setdefault(w, len(vocab)) for w in text.split()]

    correct, total, ref_total = _ngram_stats(
        ((word_ids(hyp), word_ids(ref)) for hyp, ref in zip(hypotheses, references)),
        BLEU_ORDER,
        lambda runs: (np.fromiter(chain.from_iterable(runs), dtype=np.int64), len(vocab)),
    )
    sys_len = total[0]
    ref_len = ref_total[0]
    correct = np.asarray(correct, dtype=np.int64)
    total = np.asarray(total, dtype=np.int64)

    precisions = np.zeros(BLEU_ORDER)
    smooth = 1.0
    for n in range(BLEU_ORDER):
        if total[n] == 0:
            break
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 100.0 / (smooth * total[n])
        else:
            precisions[n] = 100.0 * correct[n] / total[n]

    if sys_len == 0:
        return 0.0
    penalty = math.exp(1.0 - ref_len / sys_len) if sys_len < ref_len else 1.0
    if np.any(precisions == 0.0):
        return 0.0
    score = penalty * math.exp(float(np.log(precisions).mean()))
    # the geometric mean can drift a few ulp past the mathematical bound
    return min(score, 100.0)


# ---------------------------------------------------------------------------
# Character F-score
# ---------------------------------------------------------------------------

def chrf(hypotheses: list[str], references: list[str]) -> float:
    """Corpus character F-score in [0, 100], order 6, beta 2, spaces removed."""
    _check_corpus(hypotheses, references)
    matches, hyp_totals, ref_totals = _ngram_stats(
        (("".join(hyp.split()), "".join(ref.split())) for hyp, ref in zip(hypotheses, references)),
        CHRF_ORDER,
        _encode_chars,
    )
    hyp_totals = np.asarray(hyp_totals, dtype=np.int64)
    ref_totals = np.asarray(ref_totals, dtype=np.int64)
    matches = np.asarray(matches, dtype=np.int64)

    effective = (hyp_totals > 0) & (ref_totals > 0)
    if not effective.any():
        return 0.0
    precision = float((matches[effective] / hyp_totals[effective]).mean())
    recall = float((matches[effective] / ref_totals[effective]).mean())
    if precision + recall == 0.0:
        return 0.0
    b2 = CHRF_BETA * CHRF_BETA
    return 100.0 * (1.0 + b2) * precision * recall / (b2 * precision + recall)


# ---------------------------------------------------------------------------
# Translation edit rate
# ---------------------------------------------------------------------------

MAX_SHIFT_SIZE = 10
MAX_SHIFT_DIST = 50
MAX_SHIFT_CANDIDATES = 1000


def _trace(hyp: list[int], ref: list[int], cols) -> tuple[int, list[int], list[int], list[int]]:
    """Edit distance transforming hyp into a non-empty ref, with the alignment of its path.

    ``cols`` are the columns of hyp's prefixes against ref
    (``_kernels.columns``).  Returns the distance; ``after``, where
    ``after[r + 1]`` is the number of hyp words the path has consumed on
    reaching reference word r, so a block shifted to follow that word lands
    there, and ``after[0]`` is 0; and the 0/1 error flags of each hyp and ref
    word.  Tie order is diagonal first, then reference insertion, then
    hypothesis deletion, which pins down a unique alignment for the shift
    search.

    Costs are unit, so a matching cell always takes the diagonal under the
    tie order.  At a mismatch in cell (i, j), insertion beats the diagonal
    only when D[i][j-1] = D[i-1][j-1] - 1, which is bit j - 1 of step i's
    ``mh``; failing that, deletion beats it only when D[i-1][j] =
    D[i-1][j-1] - 1, bit j - 1 of column i - 1's ``mv``; otherwise it is a
    substitution.
    """
    pvs, mvs, mhs = cols
    i, j = len(hyp), len(ref)
    after = [0] * (j + 1)
    hyp_err = [1] * i
    ref_err = [1] * j
    bit = 1 << (j - 1)
    # once j is 0 the path only deletes the remaining hyp words, and once i
    # is 0 it only inserts ref words, whose ``after`` is 0
    while i and j:
        if hyp[i - 1] == ref[j - 1]:
            after[j] = i
            i -= 1
            j -= 1
            hyp_err[i] = ref_err[j] = 0
            bit >>= 1
        elif mhs[i] & bit:
            after[j] = i
            j -= 1
            bit >>= 1
        elif mvs[i - 1] & bit:
            i -= 1
        else:
            after[j] = i
            i -= 1
            j -= 1
            bit >>= 1
    return len(hyp) + pvs[-1].bit_count() - mvs[-1].bit_count(), after, hyp_err, ref_err


def _next_errors(err: list[int]) -> list[int]:
    """For each position p, the first error position at or after p (len(err) if none)."""
    nxt = [len(err)] * (len(err) + 1)
    for p in range(len(err) - 1, -1, -1):
        nxt[p] = p if err[p] else nxt[p + 1]
    return nxt


def _shifts(hyp, ref, starts, after, hyp_err, ref_err):
    """Each (hyp start, length, target) block shift worth scoring, in tercom's order.

    ``starts`` maps each ref word to its positions; ``after``, ``hyp_err``
    and ``ref_err`` are the alignment ``_trace`` returns for hyp and ref.  A
    span hyp[sh:sh + length] that equals ref[sr:sr + length], with at most
    ``MAX_SHIFT_SIZE`` words and ``|sr - sh| <= MAX_SHIFT_DIST``, is moved
    only if it holds an error on both sides and the hyp word aligned to ref
    word sr lies outside it.  Each condition bounds the length from one
    side, so the lengths of one (sh, sr) form a range.  Spans come by hyp
    start, then ref start, then length; the targets are the places right
    after the hyp words aligned to the ref words just before and inside the
    span.
    """
    n, m = len(hyp), len(ref)
    hyp_next = _next_errors(hyp_err)
    ref_next = _next_errors(ref_err)
    for sh in range(n):
        reach = hyp_next[sh] - sh + 1  # the shortest span from sh holding a hyp error
        room = n - sh if n - sh < MAX_SHIFT_SIZE else MAX_SHIFT_SIZE
        if reach > room:
            continue
        for sr in starts.get(hyp[sh], ()):
            if abs(sr - sh) > MAX_SHIFT_DIST:
                continue
            shortest = ref_next[sr] - sr + 1
            if shortest < reach:
                shortest = reach
            longest = m - sr if m - sr < room else room
            if sh < after[sr + 1] <= sh + longest:
                longest = after[sr + 1] - sh - 1
            if shortest > longest:
                continue
            k = 1
            while k < longest and hyp[sh + k] == ref[sr + k]:
                k += 1
            for length in range(shortest, k + 1):
                for target in dict.fromkeys(after[sr : sr + length + 1]):
                    yield sh, length, target


def _shifted(words: list[int], start: int, length: int, target: int) -> list[int]:
    if target < start:
        return words[:target] + words[start : start + length] + words[target:start] + words[start + length :]
    if target > start + length:
        return words[:start] + words[start + length : target] + words[start : start + length] + words[target:]
    return list(words)


def _shift_search(hyp_words: list[str], ref_words: list[str]) -> tuple[int, bool]:
    """Edits for one segment pair, greedy block shifts + final edit distance,
    and whether the search stopped at ``MAX_SHIFT_CANDIDATES``."""
    if not ref_words:
        return len(hyp_words), False
    if not hyp_words:
        return len(ref_words), False
    vocab: dict[str, int] = {}
    hyp = [vocab.setdefault(w, len(vocab)) for w in hyp_words]
    ref = [vocab.setdefault(w, len(vocab)) for w in ref_words]
    peq = _kernels.bitmasks(ref)
    starts: dict[int, list[int]] = {}
    for sr, word in enumerate(ref):
        starts.setdefault(word, []).append(sr)

    shifts = 0
    checked = 0
    while True:
        cols = _kernels.columns(peq, len(ref), hyp)
        pre, after, hyp_err, ref_err = _trace(hyp, ref, cols)
        pvs, mvs, _ = cols
        best = None
        for sh, length, target in _shifts(hyp, ref, starts, after, hyp_err, ref_err):
            moved = _shifted(hyp, sh, length, target)
            # moved[:p] is hyp[:p], whose column is already known
            p = min(sh, target)
            gain = pre - _kernels.levenshtein(ref, moved, (p, peq, pvs[p], mvs[p]))
            checked += 1
            candidate = (gain, length, -sh, -target, moved)
            if best is None or candidate > best:
                best = candidate
            if checked >= MAX_SHIFT_CANDIDATES:
                break
        if best is None or checked >= MAX_SHIFT_CANDIDATES or best[0] <= 0:
            return shifts + pre, checked >= MAX_SHIFT_CANDIDATES
        hyp = best[4]
        shifts += 1


def ter(hypotheses: list[str], references: list[str], cache: dict | None = None) -> float:
    """Corpus translation edit rate: 100 * edits / reference words.

    Each distinct (hypothesis, reference) pair is searched once.  ``cache``,
    a dict the caller keeps, carries the searched pairs on to later calls.
    Logs one warning when the shift search of any segment stopped at
    ``MAX_SHIFT_CANDIDATES``, because that can leave its edits too high.
    """
    _check_corpus(hypotheses, references)
    found = {} if cache is None else cache
    total_edits = 0
    total_ref_words = 0
    capped = 0
    for pair in zip(hypotheses, references):
        stats = found.get(pair)
        if stats is None:
            rtoks = pair[1].split()
            stats = found[pair] = (*_shift_search(pair[0].split(), rtoks), len(rtoks))
        total_edits += stats[0]
        capped += stats[1]
        total_ref_words += stats[2]
    if total_ref_words == 0:
        raise ValueError("references contain zero words in total")
    if capped:
        log.warning(
            "TER: the shift search of %d of %d segments stopped at "
            "MAX_SHIFT_CANDIDATES (%d candidates)",
            capped, len(hypotheses), MAX_SHIFT_CANDIDATES,
        )
    return 100.0 * total_edits / total_ref_words


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    bleu: float
    chrf: float
    ter: float
    n_pairs: int

    def to_dict(self) -> dict:
        return {"bleu": self.bleu, "chrf": self.chrf, "ter": self.ter, "n_pairs": self.n_pairs}

    def format_text(self) -> str:
        return (
            f"pairs: {self.n_pairs}\n"
            f"BLEU:  {self.bleu:.3f}\n"
            f"chr-F: {self.chrf:.3f}\n"
            f"TER:   {self.ter:.3f}"
        )


def score_corpus(hypotheses: list[str], references: list[str], ter_cache: dict | None = None) -> MetricReport:
    """All three metrics on one corpus of (hypothesis, reference) segments;
    ``ter_cache`` is passed on to ``ter``."""
    return MetricReport(
        bleu=bleu(hypotheses, references),
        chrf=chrf(hypotheses, references),
        ter=ter(hypotheses, references, ter_cache),
        n_pairs=len(hypotheses),
    )
