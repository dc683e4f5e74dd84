"""EM-trained word-alignment translation models (lexical, and lexical+position).

Model 1 learns t(e | f), the probability that source token f translates to
target token e, ignoring positions; every source sentence is prefixed with a
virtual empty token so target words can align to nothing. Model 2 adds a
position table a(i | j, l_e, l_f) conditioned on the sentence-length pair and
is initialized from a Model-1 run.

The t-table is stored sparsely over co-occurring (f, e) type pairs: with a
uniform initialization, EM provably never moves mass onto pairs that do not
co-occur in some training pair, so the sparse table is exact, not an
approximation. Every (source occurrence, target occurrence) link is looked up
in the tables once per training; the expected-count steps over those links
live in ``_kernels``.

Decoding is a lexical argmax per source token. A token is skipped when its
trained drop mass (expected fraction of its occurrences left unaligned in a
final expectation pass) outweighs its best lexical probability; Model 2
additionally reorders the emitted tokens by their most probable target
position.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

import numpy as np

from . import _kernels
from .errors import DataError, check_type

NULL_TOKEN = "<null>"
# The most links a training may hold.  A link is one (source occurrence or
# empty slot, target occurrence) combination of a pair, so a pair of l_f
# source and l_e target tokens has (l_f + 1) * l_e.  Training takes about 80
# bytes per link, so the budget is about 1.6 GB; the ibm2 training of a
# 3,000-pair synthetic corpus (5,361 pairs after augmentation) has 529,319.
MAX_LINKS = 2 * 10**7

Pair = tuple[list[str], list[str]]


def _check_prob(key: str, value) -> None:
    """DataError unless value is a number in [0, 1] (so not NaN)."""
    check_type(key, value, 1.0)
    if not 0.0 <= value <= 1.0:
        raise DataError(f"{key} must be in [0, 1], got {value!r}")


@dataclass
class TTable:
    source_vocab: tuple[str, ...]  # index 0 is the virtual empty token
    target_vocab: tuple[str, ...]
    indptr: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    drop_probs: np.ndarray = field(repr=False)
    # per E-step, from np.log: may differ in the last bit between CPUs; nothing decodes with it
    loglik_history: list[float] = field(default_factory=list)

    @cached_property
    def _src_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.source_vocab)}

    def emission(self, f: str) -> str | None:
        """The most probable target for f, ties going to the smaller token; None when f is
        unknown, its row is empty, or its drop mass is greater than that probability."""
        fi = self._src_index.get(f)
        if fi is None:
            return None
        lo, hi = self.indptr[fi], self.indptr[fi + 1]
        if hi == lo:
            return None
        k = lo + int(np.argmax(self.probs[lo:hi]))
        return None if self.drop_probs[fi] > self.probs[k] else self.target_vocab[self.cols[k]]

    def to_dict(self, prune: float = 1e-6) -> dict:
        entries = []
        for fi, f in enumerate(self.source_vocab):
            lo, hi = self.indptr[fi], self.indptr[fi + 1]
            for c, p in zip(self.cols[lo:hi], self.probs[lo:hi]):
                if p >= prune:
                    entries.append([f, self.target_vocab[c], float(p)])
        return {
            "entries": entries,
            "drop_probs": {
                f: float(d) for f, d in zip(self.source_vocab, self.drop_probs) if d > 0.0
            },
            "loglik_history": list(self.loglik_history),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TTable":
        entries = payload["entries"]
        seen = set()
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3 and all(isinstance(t, str) for t in entry[:2])):
                raise DataError(f"t-table entry {entry!r} is not [source, target, probability]")
            _check_prob("t-table probability", entry[2])
            if (entry[0], entry[1]) in seen:
                raise DataError(f"t-table entry {entry[:2]!r} is repeated")
            seen.add((entry[0], entry[1]))
        history = payload.get("loglik_history", [])
        if not isinstance(history, list):
            raise DataError(f"loglik_history must be a list of numbers, not {type(history).__name__}")
        for value in history:
            check_type("loglik_history entry", value, 1.0)
        source_vocab = (NULL_TOKEN,) + tuple(sorted({f for f, _, _ in entries} - {NULL_TOKEN}))
        target_vocab = tuple(sorted({e for _, e, _ in entries}))
        src_index = {t: i for i, t in enumerate(source_vocab)}
        tgt_index = {t: i for i, t in enumerate(target_vocab)}
        cells = sorted((src_index[f], tgt_index[e], p) for f, e, p in entries)  # no two share (row, col)
        indptr = np.zeros(len(source_vocab) + 1, dtype=np.int64)
        rows = np.array([r for r, _, _ in cells], dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(source_vocab)), out=indptr[1:])
        drop = np.zeros(len(source_vocab))
        for f, d in payload.get("drop_probs", {}).items():
            _check_prob("drop probability", d)
            if f in src_index:
                drop[src_index[f]] = d
        return cls(
            source_vocab=source_vocab,
            target_vocab=target_vocab,
            indptr=indptr,
            cols=np.array([c for _, c, _ in cells], dtype=np.int32),
            probs=np.array([p for _, _, p in cells], dtype=np.float64),
            drop_probs=drop,
            loglik_history=list(history),
        )


@dataclass
class AlignTable:
    """Position distributions a(i | j, l_e, l_f), one block per length pair."""

    blocks: dict[tuple[int, int], np.ndarray]  # shape (l_e, l_f + 1)

    def to_dict(self, prune: float = 1e-6) -> dict:
        return {
            "blocks": {
                f"{l_e},{l_f}": [[p if p >= prune else 0.0 for p in row] for row in block.tolist()]
                for (l_e, l_f), block in sorted(self.blocks.items())
            }
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AlignTable":
        blocks = {}
        for key, rows in payload["blocks"].items():
            l_e, l_f = (int(x) for x in key.split(","))
            if key != f"{l_e},{l_f}":  # one spelling per length pair, so no two keys name one block
                raise DataError(f"alignment block key {key!r} must be written '{l_e},{l_f}'")
            block = np.asarray(rows, dtype=np.float64)
            if block.shape != (l_e, l_f + 1):
                raise DataError(f"alignment block {key!r} has shape {block.shape}, not {(l_e, l_f + 1)}")
            for row in rows:
                for p in row:
                    _check_prob(f"alignment block {key!r} probability", p)
            blocks[(l_e, l_f)] = block
        return cls(blocks=blocks)


@dataclass
class IbmModel:
    """An IBM Model 1 (a t-table) or Model 2 (a t-table and a position table)."""

    ttable: TTable
    align: AlignTable | None = None

    def to_dict(self) -> dict:
        payload = {"ttable": self.ttable.to_dict()}
        if self.align is not None:
            payload["aligntable"] = self.align.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict, positional: bool) -> "IbmModel":
        """Model 2 when positional, else Model 1 (which ignores any position table)."""
        ttable = TTable.from_dict(payload["ttable"])
        return cls(ttable, AlignTable.from_dict(payload["aligntable"]) if positional else None)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _token_ids(sentences: list[list[str]], vocab: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every token's id in vocab as one flat array, and each sentence's length."""
    index = {t: i for i, t in enumerate(vocab)}
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    flat = np.fromiter(map(index.__getitem__, chain.from_iterable(sentences)), np.int32, lengths.sum())
    return flat, lengths


def _encode(pairs: list[Pair], align_bases: np.ndarray | None = None) -> tuple[TTable, _kernels.Links]:
    """The uniform t-table over the co-occurring types, and every link's table positions.

    Its values and drop mass are zero-stride views, so the start holds no
    array as long as the table.  With ``align_bases`` (from ``_align_layout``)
    the links also carry their position-table positions, so Model 2 and its
    Model-1 start share them.  Pairs with more than ``MAX_LINKS`` links in
    all are refused with ``DataError`` before any per-link array is built.
    """
    if not pairs:
        raise DataError("cannot train on an empty pair list")
    sizes = [(len(ett) + 1) * len(eng) for ett, eng in pairs]
    total = sum(sizes)
    if total > MAX_LINKS:
        k = max(range(len(pairs)), key=sizes.__getitem__)
        raise DataError(
            f"training needs {total:,} links, more than the budget of {MAX_LINKS:,} (MAX_LINKS); "
            f"the longest pair, pair {k}, has {len(pairs[k][0]):,} source and {len(pairs[k][1]):,} target tokens"
        )
    sources = [ett for ett, _ in pairs]
    targets = [eng for _, eng in pairs]
    source_types = set(chain.from_iterable(sources))
    if NULL_TOKEN in source_types:
        raise DataError(f"source token {NULL_TOKEN!r} is reserved for the empty source word")
    source_vocab = (NULL_TOKEN,) + tuple(sorted(source_types))
    target_vocab = tuple(sorted(set(chain.from_iterable(targets))))
    if not target_vocab:
        raise DataError("training pairs have no target tokens")

    src_words, src_lengths = _token_ids(sources, source_vocab)
    tgt_flat, tgt_lengths = _token_ids(targets, target_vocab)
    src_indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    tgt_indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum(src_lengths + 1, out=src_indptr[1:])  # the empty-source slot leads each sentence
    np.cumsum(tgt_lengths, out=tgt_indptr[1:])
    src_arr = np.insert(src_words, np.cumsum(src_lengths) - src_lengths, 0)
    indptr, cols, links = _kernels.build_links(
        src_arr, src_indptr, tgt_flat, tgt_indptr, len(source_vocab), align_bases,
    )
    uniform = np.broadcast_to(1.0 / len(target_vocab), len(cols))
    no_drop = np.broadcast_to(0.0, len(source_vocab))
    return TTable(source_vocab, target_vocab, indptr, cols, uniform, no_drop), links


def _normalize(values: np.ndarray, rows: _kernels.Segments, lengths: np.ndarray) -> np.ndarray:
    """Each row of a flat table divided by its sum; a row summing to zero stays as it is."""
    totals = np.repeat(rows.sums(values), lengths)
    out = values.copy()
    np.divide(values, totals, out=out, where=totals > 0.0)
    return out


def _drop_probs(src_types: np.ndarray, rows: _kernels.Segments, counts: np.ndarray, recv: np.ndarray) -> np.ndarray:
    """Drop mass per source type from a final expectation pass.

    recv holds the expected number of target words aligned to each source
    occurrence; the shortfall below one word accumulates as evidence that the
    type translates to nothing.
    """
    shortfall = np.maximum(0.0, 1.0 - recv)
    eps_counts = np.bincount(src_types, shortfall, rows.size)  # adds in order from 0.0, as np.add.at would
    total = eps_counts + rows.sums(counts)
    out = np.zeros(rows.size)
    mask = total > 0
    out[mask] = eps_counts[mask] / total[mask]
    out[0] = 0.0  # the virtual empty token is never emitted anyway
    return out


def _em(
    start: TTable, links: _kernels.Links, iterations: int, align: np.ndarray | None = None
) -> tuple[TTable, np.ndarray | None]:
    """EM from the t-table ``start``: Model 1, or Model 2 when ``align`` holds
    the row lengths of the position table from ``_align_layout``, whose values
    start uniform.

    Returns the trained t-table and position values (None for Model 1).  The
    log-likelihood history has one value per iteration, under the parameters
    entering it, plus one under the trained parameters from a final
    expectation pass, which also gives the drop mass.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    probs = start.probs
    t_lengths = np.diff(start.indptr)
    t_rows = _kernels.Segments(start.indptr[:-1], t_lengths)
    a_vals = None
    if align is not None:
        a_vals = np.repeat(1.0 / align, align)
        a_rows = _kernels.Segments(np.cumsum(align) - align, align)
    history: list[float] = []
    for it in range(iterations + 1):
        counts = np.zeros(len(probs))
        recv = np.zeros(len(links.src_types)) if it == iterations else None
        if a_vals is None:
            history.append(_kernels.ibm1_estep(links, probs, counts, recv))
        else:
            a_counts = np.zeros_like(a_vals)
            history.append(_kernels.ibm2_estep(links, probs, a_vals, counts, a_counts, recv))
        if recv is None:
            probs = _normalize(counts, t_rows, t_lengths)
            if a_vals is not None:
                a_vals = _normalize(a_counts, a_rows, align)
    drop = _drop_probs(links.src_types, t_rows, counts, recv)
    return replace(start, probs=probs, drop_probs=drop, loglik_history=history), a_vals


def train_ibm1(pairs: list[Pair], iterations: int = 10) -> TTable:
    """EM training of the lexical table; uniform initialization.

    The recorded log-likelihood history has one value per iteration,
    evaluated under the parameters entering that iteration, plus a final
    value under the trained parameters.
    """
    return _em(*_encode(pairs), iterations)[0]


def _align_layout(pairs: list[Pair]) -> tuple[dict[tuple[int, int], int], np.ndarray, np.ndarray]:
    """Flat layout for the shared position blocks, one per (l_e, l_f): each
    block's offset, each pair's block offset, and the length of every block row."""
    offsets: dict[tuple[int, int], int] = {}
    lengths: list[int] = []
    size = 0
    for ett, eng in pairs:
        shape = (len(eng), len(ett))
        if shape not in offsets:
            offsets[shape] = size
            size += len(eng) * (len(ett) + 1)
            lengths += [len(ett) + 1] * len(eng)
    bases = np.array([offsets[(len(eng), len(ett))] for ett, eng in pairs], dtype=np.int64)
    return offsets, bases, np.array(lengths, dtype=np.int64)


def train_ibm2(pairs: list[Pair], iterations: int = 10) -> tuple[TTable, AlignTable]:
    """Model-1 initialization, then joint EM over the lexical and position tables."""
    offsets, bases, row_lengths = _align_layout(pairs)
    start, links = _encode(pairs, bases)
    start, _ = _em(start, links, iterations)  # rebound, so the uniform table is gone before Model 2 runs
    ttable, a_vals = _em(start, links, iterations, row_lengths)
    ttable.loglik_history = start.loglik_history + ttable.loglik_history
    blocks = {
        (l_e, l_f): a_vals[off : off + l_e * (l_f + 1)].reshape(l_e, l_f + 1)
        for (l_e, l_f), off in offsets.items()
    }
    return ttable, AlignTable(blocks=blocks)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def translate_ibm(
    ttable: TTable, source: list[str], align_table: AlignTable | None = None
) -> list[str]:
    """Per-token lexical argmax; unknown and drop-dominated tokens are skipped.

    With a position table, emitted tokens are reordered by their most
    probable target position (stable on ties).
    """
    emitted = [(i, e) for i, e in enumerate(map(ttable.emission, source), start=1) if e is not None]
    block = None if align_table is None else align_table.blocks.get((len(emitted), len(source)))
    if block is None:
        return [t for _, t in emitted]
    keyed = sorted((int(np.argmax(block[:, i])), k, t) for k, (i, t) in enumerate(emitted))
    return [t for _, _, t in keyed]
