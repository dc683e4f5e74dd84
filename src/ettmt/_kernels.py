"""Numeric inner loops: word-level edit distance, EM expected counts and dense ranks.

The edit distance is evaluated thousands of times per sentence while
searching for block shifts.  It runs Myers' bit-parallel algorithm (Myers
1999, JACM 46(3), in Hyyrö's 2001 formulation) on Python ints, so one
column of the DP matrix is a pair of integers whatever the sentence length,
and the bit counts of the last column give the distance.  The shift search
steps a changing sequence (the hypothesis) against a fixed one (the
reference), whose bit masks it builds once.  ``columns`` keeps the column
after every prefix together with each step's horizontal deltas.  That is
enough to trace an alignment back from the bits (Hyyrö 2004, "A note on
bit-parallel alignment computation") and to resume ``levenshtein`` from any
prefix, so a sequence that shares a prefix with one already stepped costs
only the steps after it.
The expected-count steps of the alignment-model EM training are numpy array
operations over one flat array of links, built once per training: each
E-step is a single pass over every link of the training set.  The link
arrays hold ``np.intp`` indices, numpy's own index type: numpy converts any
other integer index array to intp on every gather and every ``bincount``.
On the 40,475 Model-2 links of perfbench's ``align`` workload (2-core Xeon
VM, numpy 2.4) an int32 gather took 146 us against 68 us for intp, and an
int32 ``bincount`` about 410 us against 95 us.  The expected counts are
scattered with ``np.bincount``, which adds the weights in link order
starting from 0.0, the same additions ``np.add.at`` makes into a zeroed
array, so the counts are bit for bit those of the per-pair trainer.

Translation tables use a CSR layout over (source type, target type) pairs
that co-occur in training data: ``t_indptr[f] .. t_indptr[f+1]`` delimits the
sorted target-id columns of source type ``f`` in ``t_cols``/``t_vals``.
Sentence pairs are passed as flattened id arrays with indptr offsets; every
source sentence starts with the virtual empty-source id 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Word-level Levenshtein distance (unit costs)
# ---------------------------------------------------------------------------

def bitmasks(a) -> dict:
    """Each token of ``a`` with the bit mask of its positions in ``a``."""
    peq: dict = {}
    for i, token in enumerate(a):
        peq[token] = peq.get(token, 0) | (1 << i)
    return peq


def levenshtein(a, b, start=None) -> int:
    """Edit distance between two sequences of hashable tokens.

    Bit i of ``pv`` / ``mv`` says whether the DP value in row i + 1 of the
    current column is one more / one less than in row i; one step of
    integer arithmetic advances the whole column by one token of ``b``, and
    the last column's bits add up to the distance.  ``start`` resumes from a
    column that ``columns`` gave for a sequence whose first k tokens are
    ``b[:k]``: ``(k, bitmasks(a), pv[k], mv[k])``.  Only ``b[k:]`` is then
    stepped, and the distance is the same.
    """
    m = len(a)
    if start is None:
        if m == 0:
            return len(b)
        peq = bitmasks(a)
        pv, mv = (1 << m) - 1, 0
        steps = b
    else:
        k, peq, pv, mv = start
        steps = b[k:]
    mask = (1 << m) - 1
    for token in steps:
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def columns(peq: dict, m: int, b) -> tuple[list[int], list[int], list[int]]:
    """The column of every prefix of ``b`` against a sequence ``a`` of length m >= 1.

    ``peq`` is ``bitmasks(a)``.  Returns lists ``pv``, ``mv`` and ``mh``
    indexed by the prefix length k = 0 .. len(b): ``pv[k]`` / ``mv[k]`` are
    the vertical deltas after ``b[:k]`` as in ``levenshtein``, so the
    distance of ``b[:k]`` to ``a`` is k + their bit count difference, and
    bit j of ``mh[k]`` (k >= 1) says that the DP value of the first j tokens
    of ``a`` falls by one from ``b[:k - 1]`` to ``b[:k]``.
    """
    mask = (1 << m) - 1
    pv, mv = mask, 0
    pvs, mvs, mhs = [pv], [mv], [0]
    for token in b:  # levenshtein's step, keeping every column
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
        pvs.append(pv)
        mvs.append(mv)
        mhs.append(mh)
    return pvs, mvs, mhs


# ---------------------------------------------------------------------------
# EM expected counts on precomputed links
# ---------------------------------------------------------------------------
#
# A link is one (source occurrence, target occurrence) combination of a
# sentence pair.  Its t-table position, and for the position model its
# position-table position, stay fixed through training, so ``build_links``
# looks them up once as flat arrays over the whole training set, and each
# E-step is one pass of array operations over them.  Links run in (pair,
# source position, target position) order.
#
# The E-steps round exactly as evaluating each pair as one (n_src, n_tgt)
# numpy block does: counts are added in link order from 0.0 (``np.bincount``,
# so ``counts`` must start at zero to be bit-identical), a target's denominator
# adds its sources in order (numpy sums a block down axis 0 row by row),
# every sum numpy forms over one contiguous run goes through ``Segments`` (a
# source's received mass, a pair's log-likelihood, and the denominator of a
# pair with a single target, whose column numpy sums as a 1-D array), and
# the training set's log-likelihood adds the pairs' in order (``left_sum``).

PAIRWISE_MIN = 8  # numpy sums 1-D runs of this many terms or more pairwise


class Segments:
    """Runs ``values[s:s + n]`` of an array, summed as numpy sums each run alone.

    numpy adds fewer than eight terms in order and eight or more pairwise.
    The runs of one length are gathered into a 2-D array and summed along
    axis 1, which gives each row that same rounding, so ``sums`` equals
    ``[values[s:s + n].sum() for s, n in zip(starts, lengths)]`` bit for bit
    with one reduction per distinct length.  The gather indices are built
    with the runs and kept, so runs summed at every E-step build them once.
    """

    def __init__(self, starts: np.ndarray, lengths: np.ndarray):
        self.size = len(starts)
        self.groups = []  # (rows, index): the runs of one length n and their (rows, n) value positions
        for n in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
            rows = np.flatnonzero(lengths == n)
            self.groups.append((rows, starts[rows, None] + np.arange(n)))

    def sums(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size)
        for rows, index in self.groups:
            out[rows] = values[index].sum(axis=1)
        return out


def left_sum(values) -> float:
    """Sum strictly left to right from the first term, whatever the Python version (3.12's
    sum() compensates): ``np.cumsum`` makes the additions of a plain loop, in its order."""
    return float(np.cumsum(values)[-1])


@dataclass
class Links:
    """Every link of a training corpus, with what the E-steps need per target and source."""

    # the three per-link index arrays are np.intp, so no gather or bincount
    # over them converts them first (about twice as fast; see the module docstring)
    links: np.ndarray  # t-table position per link
    a_links: np.ndarray | None  # position-table position per link (Model 2)
    link_tgt: np.ndarray  # target occurrence per link
    tgt_n_src: np.ndarray  # source length, empty slot included, per target occurrence
    src_n_tgt: np.ndarray  # target length per source occurrence
    src_types: np.ndarray  # source type per source occurrence, the empty slot's 0 included
    # pairs with one target and at least PAIRWISE_MIN sources, whose
    # denominator numpy sums as a 1-D column: their targets and their links
    lone_tgt: np.ndarray
    lone: Segments
    pair_targets: Segments  # the target occurrences of each pair that has any


def build_links(
    src_flat, src_indptr, tgt_flat, tgt_indptr, n_src_types, align_bases=None
) -> tuple[np.ndarray, np.ndarray, Links]:
    """The t-table layout and every link's table positions.

    Pair p has sources ``src_flat[src_indptr[p]:src_indptr[p + 1]]`` (empty
    slot first) and targets ``tgt_flat[tgt_indptr[p]:tgt_indptr[p + 1]]``.
    The t-table holds every (source type, target type) that co-occurs in a
    pair: returns its ``t_indptr`` over ``n_src_types`` rows and its sorted
    ``t_cols``, then the links.  A link's t-table position is the dense rank
    of its (source type, target type) key.  With ``align_bases``, link (i, j)
    of pair p also gets the position-table position
    ``align_bases[p] + j * n_src + i``.
    """
    n_src = np.diff(src_indptr)
    n_tgt = np.diff(tgt_indptr)
    tgt_n_src = np.repeat(n_src, n_tgt)
    src_n_tgt = np.repeat(n_tgt, n_src)
    # each source occurrence has a run of links, one per target of its pair
    src_first = np.cumsum(src_n_tgt) - src_n_tgt
    # a link's target occurrence: its offset in its run plus its pair's first target
    link_tgt = np.arange(src_n_tgt.sum()) - np.repeat(src_first - np.repeat(tgt_indptr[:-1], n_src), src_n_tgt)
    link_tgt = link_tgt.astype(np.intp, copy=False)

    width = int(tgt_flat.max(initial=0)) + 1
    keys = np.repeat(src_flat.astype(np.int64) * width, src_n_tgt)
    keys += tgt_flat[link_tgt]
    ranks, distinct = dense_rank(keys)
    del keys  # the position-table positions come after the sort, so its temporaries and theirs never coexist
    t_indptr = np.zeros(n_src_types + 1, dtype=np.int64)
    np.cumsum(np.bincount(distinct // width, minlength=n_src_types), out=t_indptr[1:])
    t_cols = (distinct % width).astype(np.int32)

    a_links = None
    if align_bases is not None:
        src_base = np.repeat(align_bases - src_indptr[:-1], n_src) + np.arange(len(src_flat))  # base + i
        tgt_row = (np.arange(len(tgt_flat)) - np.repeat(tgt_indptr[:-1], n_tgt)) * tgt_n_src  # j * n_src
        a_links = np.repeat(src_base, src_n_tgt).astype(np.intp, copy=False)
        a_links += tgt_row[link_tgt]

    lone = (n_tgt == 1) & (n_src >= PAIRWISE_MIN)
    links = Links(
        links=ranks.astype(np.intp, copy=False),
        a_links=a_links,
        link_tgt=link_tgt,
        tgt_n_src=tgt_n_src,
        src_n_tgt=src_n_tgt,
        src_types=src_flat,
        lone_tgt=tgt_indptr[:-1][lone],
        lone=Segments(src_first[src_indptr[:-1][lone]], n_src[lone]),
        pair_targets=Segments(tgt_indptr[:-1][n_tgt > 0], n_tgt[n_tgt > 0]),
    )
    return t_indptr, t_cols, links


def _estep(links, t_vals, a_vals, counts, a_counts, recv):
    probs = t_vals[links.links]
    if a_vals is not None:
        probs *= a_vals[links.a_links]
    denom = np.bincount(links.link_tgt, probs, len(links.tgt_n_src))
    denom[links.lone_tgt] = links.lone.sums(probs)
    delta = np.divide(probs, denom[links.link_tgt], out=probs)
    counts += np.bincount(links.links, delta, len(counts))
    if a_counts is not None:
        a_counts += np.bincount(links.a_links, delta, len(a_counts))
    if recv is not None:
        # each source occurrence's links are a run as long as its pair's target count
        lengths = links.src_n_tgt
        recv += Segments(np.cumsum(lengths) - lengths, lengths).sums(delta)
    logs = np.log(denom / links.tgt_n_src) if a_vals is None else np.log(denom)
    return left_sum(links.pair_targets.sums(logs))


def ibm1_estep(links, t_vals, counts, recv=None):
    """Model-1 expected counts over ``build_links`` output; returns the log-likelihood.

    Adds each t-table entry's expected count into ``counts`` and, when
    ``recv`` is given, each source occurrence's expected number of aligned
    target words into ``recv``.  A target word's likelihood averages
    t(e | f) over the sources of its pair.
    """
    return _estep(links, t_vals, None, counts, None, recv)


def ibm2_estep(links, t_vals, a_vals, counts, a_counts, recv=None):
    """Model-2 expected counts: as ``ibm1_estep``, with each link weighted by
    its position probability and position counts added into ``a_counts``.
    The links must carry position-table positions."""
    return _estep(links, t_vals, a_vals, counts, a_counts, recv)


# ---------------------------------------------------------------------------
# Dense ranks
# ---------------------------------------------------------------------------

def dense_rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct keys, and the distinct keys, ascending.

    Used for BLEU / chr-F n-gram ids, for the distinct naive-Bayes scores and
    log arguments and for the t-table positions of EM links, so ``keys`` may
    be integers or floats.  Equal keys get one rank whatever order the sort
    leaves them in, so numpy's default (unstable, SIMD) sort serves; which of
    two equal keys (0.0 and -0.0) stands for them in the distinct keys is
    left open.  On a 2-core Xeon VM with numpy 2.4 it argsorts 2,048 int64
    keys in about 40 us, where a stable sort takes 110-130 us.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)  # True where a new key starts
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered  # one key-sized array fewer while the ranks are scattered back
    step = np.empty(len(keys), dtype=np.int64)
    step[:1] = 0
    np.cumsum(starts[1:], out=step[1:])
    ranks = np.empty_like(step)
    ranks[order] = step
    del step
    return ranks, keys[order[starts]]
