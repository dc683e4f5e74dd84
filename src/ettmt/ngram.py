"""Context-conditioned token translators and their shared beam-search decoder.

Training aligns each pair position-by-position: both sides are left-padded
with n-1 padding tokens, the target sequence is the English tokens followed
by an end-of-sequence marker, and whichever side is shorter is right-padded
so every position has a full context. The context of position i consists of
the n source tokens ending at i, plus, in "ett-eng" mode, the n previously
generated English tokens.

Two estimators share that alignment:

* ``NgramModel`` stores raw context -> target counts and answers with
  additive smoothing; with ``ordered=False`` the source slots of the key are
  sorted so permuted contexts collapse onto one entry.
* ``NaiveBayesModel`` factors the conditional into a target prior times
  per-slot likelihoods and scores candidates in log space.

``check_settings`` holds the one rule for ``n``, ``context_mode``, ``alpha``
and ``ordered``; both trainers, both ``from_dict`` loaders and the model
configs of ``ettmt.modelio`` call it, so a value is accepted or rejected with
the same message wherever it comes from. Each model stores only the counts
training makes; totals are derived from them, never read from a file. The
loaders take each count only as an int >= 1, and the trainers and loaders
reject an ``alpha`` or counts so large that a smoothed denominator (a count
total plus ``alpha`` times a vocabulary size) overflows.

``beam_translate`` decodes either model. Each model's ``costs`` method gives
-log P(target | context) as one numpy vector over its sorted ``vocab``, and
the beam search scores every expansion of every live hypothesis as one array
addition, then keeps the best with a partition and an exact sort. With a
source-only context every live hypothesis sees the same cost row, so the
decoder first follows each row's lowest-index minimum, read from the model's
``summary`` of the row: that minimum, its cost and the least cost before it,
computed without building the row. It returns that greedy sequence when a
running bound shows no other sequence can reach its cost at any beam width;
when a float rounding tie leaves that open (or a row is all ``inf``), it runs
the beam search on that sentence. Each model caches the summary of every
source context it has decoded. With English context the hypotheses diverge
and the beam matters.

Every cost value is built with the same ``math.log`` / ``math.exp`` calls
on the same arguments as the per-target n-gram and naive-Bayes references in
``tests/oracles.py``, though the naive-Bayes costs call them once per
distinct score value rather than once per target. numpy is used only for
steps that IEEE arithmetic makes exact: add, subtract, correctly rounded
division, max, fill, scatter, gather, ranking, partition and sort.
``np.log`` and ``np.exp`` may differ from ``math`` in the last bit and
``np.sum`` adds in another order; any of these could reorder two nearly
tied hypotheses and change a decoded sentence. A probability that
underflows to 0.0 costs ``inf`` rather than failing ``math.log``, so the
decoder picks it only when nothing else is left.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import dense_rank
from .errors import DataError, check_type

PAD = "<pad>"
EOS = "<eos>"

CONTEXT_ETT = "ett"
CONTEXT_ETT_ENG = "ett-eng"
CONTEXT_MODES = (CONTEXT_ETT, CONTEXT_ETT_ENG)
MAX_N = 64  # source tokens per context; inscriptions are far shorter, and padding is built n slots wide

Pair = tuple[list[str], list[str]]


def align_pair(ett: list[str], eng: list[str], n: int) -> tuple[list[str], list[str]]:
    """Pad a pair for position-wise alignment.

    Returns (padded source, targets): the source carries n-1 left pads plus
    right pads up to the number of training positions; the targets are the
    English tokens, then EOS, then pads filling up to the source length.
    """
    n_pos = max(len(ett), len(eng) + 1)
    src = [PAD] * (n - 1) + list(ett) + [PAD] * (n_pos - len(ett))
    targets = list(eng) + [EOS] + [PAD] * (n_pos - len(eng) - 1)
    return src, targets


def training_positions(ett: list[str], eng: list[str], n: int, context_mode: str):
    """Yield (source slots, english slots, target) for every aligned position."""
    src, targets = align_pair(ett, eng, n)
    history = [PAD] * n + targets
    for i, target in enumerate(targets):
        src_slots = tuple(src[i : i + n])
        eng_slots = tuple(history[i : i + n]) if context_mode == CONTEXT_ETT_ENG else ()
        yield src_slots, eng_slots, target


def _context_key(src_slots: tuple, eng_slots: tuple, ordered: bool) -> tuple:
    if not ordered:
        src_slots = tuple(sorted(src_slots))
    return src_slots + eng_slots


def _left_sum(values: list[float] | np.ndarray) -> float:
    """Sum strictly left to right, whatever the Python version (3.12's sum() compensates)."""
    return float(np.cumsum(values)[-1])


def _check_arity(model, src_slots: tuple) -> None:
    if len(src_slots) != model.n:
        raise ValueError(f"expected {model.n} source slots, got {len(src_slots)}")


def _check_training(pairs: list[Pair]) -> None:
    if not pairs:
        raise DataError("cannot train on an empty pair list")


def check_settings(n, context_mode, alpha, ordered=True) -> int:
    """The context slots per position: n source tokens, plus n English ones in ett-eng mode.

    DataError unless n is an int in [1, MAX_N], context_mode one of CONTEXT_MODES, alpha a finite
    number > 0 (an int too large for a float is not) and ordered a bool (a bool is no number): the
    rule for training, model files and configs."""
    for key, value, default in (("n", n, 1), ("context_mode", context_mode, CONTEXT_ETT),
                                ("alpha", alpha, 1.0), ("ordered", ordered, True)):
        check_type(key, value, default)
    if n < 1:
        raise DataError(f"n must be >= 1, got {n!r}")
    if n > MAX_N:
        raise DataError(f"n must be <= {MAX_N}, got {n!r}")
    if not 0 < alpha <= sys.float_info.max:
        raise DataError(f"alpha must be a finite number > 0, got {alpha!r}")
    if context_mode not in CONTEXT_MODES:
        raise DataError(f"context_mode must be one of {', '.join(CONTEXT_MODES)}, got {context_mode!r}")
    return 2 * n if context_mode == CONTEXT_ETT_ENG else n


def _check_scale(alpha: float, total: int, *vocabs) -> None:
    """DataError if a smoothed denominator, at most total (the largest count total) plus alpha times
    a vocabulary size, overflows: it would be inf and every probability 0.0, so every cost inf."""
    size = max(len(v) for v in vocabs)
    if not math.isfinite(alpha * size):
        raise DataError(f"alpha {alpha!r} is too large: alpha * {size} (vocabulary size) overflows")
    if total > sys.float_info.max or not math.isfinite(total + alpha * size):  # a larger int is no float
        raise DataError(f"model counts are too large: their total plus alpha * {size} overflows")


def _counts(items) -> dict:
    """{key: count} from (key, count) pairs; DataError unless each count is an int >= 1, as training writes."""
    out = {}
    for key, count in items:
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise DataError(f"model count must be an int >= 1, not {type(count).__name__} {count!r}")
        out[key] = count
    return out


def _log(p: float) -> float:
    """math.log(p), or -inf for a probability that underflowed to 0.0."""
    return math.log(p) if p > 0.0 else -math.inf


def _checked_vocab(vocab, counted, name="vocabulary", required=(EOS, PAD)) -> tuple[str, ...]:
    """A loaded model's vocabulary (`name`), checked against what decoding needs.

    The decoder breaks ties by vocabulary index, which equals the token order
    only when the vocabulary is strictly sorted; a naive-Bayes slot vocabulary
    is used for its size, which a repeated entry would inflate. Every token
    `counted` and every `required` one must be in it.
    """
    vocab = tuple(vocab)
    if not all(isinstance(t, str) for t in vocab):
        raise DataError(f"model {name} must hold only strings")
    if any(a >= b for a, b in zip(vocab, vocab[1:])):
        raise DataError(f"model {name} is not strictly sorted")
    missing = sorted(set(required).difference(vocab))
    if missing:
        raise DataError(f"model {name} lacks {', '.join(missing)}")
    unknown = sorted(set(counted).difference(vocab))
    if unknown:
        raise DataError(f"model counts name tokens outside its {name}: {', '.join(unknown[:5])}")
    return vocab


@dataclass
class NgramModel:
    n: int
    context_mode: str
    ordered: bool
    alpha: float
    counts: dict[tuple, dict[str, int]]
    vocab: tuple[str, ...]  # sorted; always contains EOS and PAD

    def __post_init__(self):
        _check_scale(self.alpha, max(self.context_totals.values(), default=0), self.vocab)

    # Derived from the fields once and cached. They are not dataclass fields,
    # so equality, repr and to_dict ignore them; do not mutate the fields after.

    @cached_property
    def context_totals(self) -> dict[tuple, int]:
        return {ctx: sum(bucket.values()) for ctx, bucket in self.counts.items()}

    @cached_property
    def _index(self) -> dict[str, int]:
        """token -> position in vocab."""
        return {tok: i for i, tok in enumerate(self.vocab)}

    @cached_property
    def _summaries(self) -> dict[tuple, tuple[int, float, float]]:
        """source slots -> `summary`, filled by the greedy decoder."""
        return {}

    def _cells(self, src_slots: tuple, eng_slots: tuple) -> tuple[float, dict[int, float]]:
        """The context's default cost, and {vocab index: cost} of the targets its bucket counts."""
        _check_arity(self, src_slots)
        key = _context_key(tuple(src_slots), tuple(eng_slots), self.ordered)
        bucket = self.counts.get(key, {})
        denom = self.context_totals.get(key, 0) + self.alpha * len(self.vocab)
        counted = {}
        if bucket and denom < math.inf:  # a count over a finite denominator never underflows
            counted = {self._index[t]: -math.log((c + self.alpha) / denom) for t, c in bucket.items()}
        return -_log(self.alpha / denom), counted

    def costs(self, src_slots: tuple, eng_slots: tuple = ()) -> np.ndarray:
        """-log P(target | context) over `vocab`: additive smoothing, uniform on an unseen context.

        Equal bit for bit to -math.log of the per-target n-gram reference in `tests/oracles.py`."""
        default, counted = self._cells(src_slots, eng_slots)
        out = np.full(len(self.vocab), default)
        out[list(counted)] = list(counted.values())
        return out

    def summary(self, src_slots: tuple) -> tuple[int, float, float]:
        """(t*, m, m_lt) of the source-only cost row: its lowest-index minimum, that cost, and the
        least cost at a lower index (inf if none), from the context's bucket alone.

        Every uncounted target costs the default, so the lowest uncounted index stands for all of
        them; the row itself is never built."""
        default, cells = self._cells(src_slots, ())
        free = 0
        while free in cells:
            free += 1
        if free < len(self.vocab):
            cells[free] = default
        t, m, m_lt = 0, math.inf, math.inf
        for i, cost in sorted(cells.items()):  # index 0 comes first, counted or free
            if cost < m:  # a new minimum; the old one was the least cost before it
                t, m, m_lt = i, cost, m
        return t, m, m_lt

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "context_mode": self.context_mode,
            "ordered": self.ordered,
            "alpha": self.alpha,
            "vocab": list(self.vocab),
            "counts": [[list(ctx), list(tgts.items())] for ctx, tgts in sorted(self.counts.items())],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NgramModel":
        n, context_mode, ordered, alpha = (payload[key] for key in ("n", "context_mode", "ordered", "alpha"))
        # training counts at least one context, and each key holds `width` slots
        if not payload["counts"]:
            raise DataError("model counts are empty; training writes at least one context")
        width = check_settings(n, context_mode, alpha, ordered)
        counts = {}
        for ctx, tgts in payload["counts"]:
            if len(ctx) != width:
                raise DataError(f"model counts do not fit n={n}, {context_mode}: "
                                f"{ctx!r} has {len(ctx)} slots, not {width}")
            counts[tuple(ctx)] = _counts(tgts)
        vocab = _checked_vocab(payload["vocab"], (t for tgts in counts.values() for t in tgts))
        return cls(n=n, context_mode=context_mode, ordered=ordered, alpha=alpha, counts=counts, vocab=vocab)


def train_ngram(
    pairs: list[Pair],
    n: int,
    context_mode: str = CONTEXT_ETT,
    ordered: bool = True,
    alpha: float = 1.0,
) -> NgramModel:
    """Accumulate context -> target counts over all aligned positions."""
    _check_training(pairs)
    check_settings(n, context_mode, alpha, ordered)
    counts: dict[tuple, dict[str, int]] = {}
    vocab = {EOS, PAD}
    for ett, eng in pairs:
        vocab.update(eng)
        for src_slots, eng_slots, target in training_positions(ett, eng, n, context_mode):
            key = _context_key(src_slots, eng_slots, ordered)
            bucket = counts.setdefault(key, {})
            bucket[target] = bucket.get(target, 0) + 1
    return NgramModel(n=n, context_mode=context_mode, ordered=ordered, alpha=alpha, counts=counts,
                      vocab=tuple(sorted(vocab)))


@dataclass
class NaiveBayesModel:
    """Factored estimator: prior(target) times per-slot P(slot value | target)."""

    n: int
    context_mode: str
    alpha: float
    target_counts: dict[str, int]
    # one map per context slot: target -> {value -> count}
    slot_counts: list[dict[str, dict[str, int]]] = field(repr=False)
    slot_vocabs: list[tuple[str, ...]] = field(default_factory=list, repr=False)
    vocab: tuple[str, ...] = ()

    def __post_init__(self):
        _check_scale(self.alpha, self.total_positions, self.vocab, *self.slot_vocabs)

    # Derived from the fields once and cached, as in NgramModel.

    @cached_property
    def total_positions(self) -> int:
        return sum(self.target_counts.values())

    def costs(self, src_slots: tuple, eng_slots: tuple = ()) -> np.ndarray:
        """-log of the normalized posterior over `vocab`, computed in log space.

        Equal bit for bit to -math.log of the per-target posterior in `tests/oracles.py`:
        each target's log score adds the same `math.log` terms in the same
        slot order, one vector addition per slot. The `math.exp` and
        `math.log` of the normalization run once per distinct score value,
        not once per target: equal scores give equal results. A probability
        that underflows to 0.0 costs inf, and when every score does, every
        target does.
        """
        posterior = self._posterior(src_slots, eng_slots)
        if posterior is None:  # every target's score underflowed, so every probability is 0.0
            return np.full(len(self.vocab), math.inf)
        ranks, probs = posterior
        return np.array([-_log(q) for q in probs.tolist()])[ranks]

    def summary(self, src_slots: tuple) -> tuple[int, float, float]:
        """(t*, m, m_lt) of the source-only cost row: its lowest-index minimum, that cost, and the
        least cost at a lower index (inf if none), each equal to what `costs` gives.

        `math.exp`, the division by z and `math.log` are monotone, so a higher-ranked score never
        costs more: m is the cost of the top rank, the targets at cost m are those ranked at or
        above the lowest rank whose cost still rounds to m, and m_lt is the cost of the highest
        rank before t*. So `math.log` runs for the top rank, for each rank below it while the
        cost is m (and the first one that is not), and for m_lt."""
        posterior = self._posterior(src_slots, ())
        if posterior is None:
            return 0, math.inf, math.inf
        ranks, probs = posterior
        low = len(probs) - 1
        m = -_log(probs[low])
        while low and -_log(probs[low - 1]) == m:
            low -= 1  # rounds to m too, so its targets are minima as well
        t = int(np.argmax(ranks >= low))
        return t, m, -_log(probs[ranks[:t].max()]) if t else math.inf

    @cached_property
    def _summaries(self) -> dict[tuple, tuple[int, float, float]]:
        """source slots -> `summary`, filled by the greedy decoder."""
        return {}

    def _posterior(self, src_slots: tuple, eng_slots: tuple) -> tuple[np.ndarray, np.ndarray] | None:
        """(ranks, probs): each target's dense rank among the distinct log scores, and the
        normalized probability of each distinct score; None when every score is -inf."""
        _check_arity(self, src_slots)
        log_prior, defaults, overrides = self._cost_tables
        score = log_prior
        for slot, value in enumerate(tuple(src_slots) + tuple(eng_slots)):
            summed = score + defaults[slot]
            override = overrides[slot].get(value)
            if override is not None:
                idx, logs = override
                summed[idx] = score[idx] + logs
            score = summed
        peak = score.max()
        if peak == -math.inf:
            return None
        shifted = score - peak
        ranks, kinds = dense_rank(shifted)
        distinct = np.empty(kinds)
        distinct[ranks] = shifted
        exps = np.array([math.exp(s) for s in distinct.tolist()])
        return ranks, exps / _left_sum(exps[ranks])

    @cached_property
    def _cost_tables(self) -> tuple:
        """The log-prior vector, per-slot default log-likelihood vectors and per-slot
        {value: (target indices, log-likelihoods)} overrides."""
        alpha = self.alpha
        prior_denom = self.total_positions + alpha * len(self.vocab)
        log_prior = np.array([_log((self.target_counts.get(t, 0) + alpha) / prior_denom) for t in self.vocab])
        index = {t: i for i, t in enumerate(self.vocab)}
        defaults, overrides = [], []
        for slot, by_target in enumerate(self.slot_counts):
            size = len(self.slot_vocabs[slot])
            defaults.append(np.array(
                [_log(alpha / (self.target_counts.get(t, 0) + alpha * size)) for t in self.vocab]
            ))
            by_value: dict[str, tuple[list[int], list[float]]] = {}
            for target, values in by_target.items():
                denom = self.target_counts.get(target, 0) + alpha * size
                for value, count in values.items():
                    idx, logs = by_value.setdefault(value, ([], []))
                    idx.append(index[target])
                    logs.append(_log((count + alpha) / denom))
            overrides.append(
                {v: (np.array(idx, dtype=np.intp), np.array(logs)) for v, (idx, logs) in by_value.items()}
            )
        return log_prior, defaults, overrides

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "context_mode": self.context_mode,
            "alpha": self.alpha,
            "target_counts": dict(self.target_counts),
            "total_positions": self.total_positions,
            "slot_counts": [
                {t: dict(vals) for t, vals in slot.items()} for slot in self.slot_counts
            ],
            "slot_vocabs": [list(v) for v in self.slot_vocabs],
            "vocab": list(self.vocab),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NaiveBayesModel":
        n, context_mode, alpha = (payload[key] for key in ("n", "context_mode", "alpha"))
        width = check_settings(n, context_mode, alpha)
        for key in ("slot_counts", "slot_vocabs"):
            if len(payload[key]) != width:
                raise DataError(f"model {key} do not fit n={n}, {context_mode}: "
                                f"{len(payload[key])} entries, not {width}")
        # training counts every position once in total_positions, in target_counts and in each slot
        target_counts = _counts(payload["target_counts"].items())
        total = payload["total_positions"]
        check_type("total_positions", total, 0)
        counted = sum(target_counts.values())
        if total != counted:
            raise DataError(f"total_positions {total} is not the sum of target_counts, {counted}")
        slot_counts = [{t: _counts(vals.items()) for t, vals in slot.items()} for slot in payload["slot_counts"]]
        for slot, by_target in enumerate(slot_counts):
            if {t: sum(vals.values()) for t, vals in by_target.items()} != target_counts:
                raise DataError(f"model slot_counts[{slot}] do not sum to target_counts")
        vocab = _checked_vocab(payload["vocab"], target_counts)
        if not all(PAD in v for v in payload["slot_vocabs"]):  # as training writes; an empty one would divide by zero
            raise DataError("model slot_vocabs must each hold <pad>")
        slot_vocabs = [_checked_vocab(v, (value for vals in by_target.values() for value in vals),
                                      f"slot_vocabs[{slot}]", required=())
                       for slot, (v, by_target) in enumerate(zip(payload["slot_vocabs"], slot_counts))]
        return cls(n=n, context_mode=context_mode, alpha=alpha, target_counts=target_counts,
                   slot_counts=slot_counts, slot_vocabs=slot_vocabs, vocab=vocab)


def train_naive_bayes(
    pairs: list[Pair],
    n: int,
    context_mode: str = CONTEXT_ETT,
    alpha: float = 1.0,
) -> NaiveBayesModel:
    """Estimate the target prior and the per-slot conditionals."""
    _check_training(pairs)
    n_slots = check_settings(n, context_mode, alpha)
    target_counts: dict[str, int] = {}
    slot_counts: list[dict[str, dict[str, int]]] = [{} for _ in range(n_slots)]
    src_vocab = {PAD}
    tgt_vocab = {EOS, PAD}
    for ett, eng in pairs:
        src_vocab.update(ett)
        tgt_vocab.update(eng)
        for src_slots, eng_slots, target in training_positions(ett, eng, n, context_mode):
            target_counts[target] = target_counts.get(target, 0) + 1
            for slot, value in enumerate(src_slots + eng_slots):
                bucket = slot_counts[slot].setdefault(target, {})
                bucket[value] = bucket.get(value, 0) + 1
    src_sorted = tuple(sorted(src_vocab))
    tgt_sorted = tuple(sorted(tgt_vocab))
    return NaiveBayesModel(n=n, context_mode=context_mode, alpha=alpha, target_counts=target_counts,
                           slot_counts=slot_counts, slot_vocabs=[src_sorted] * n + [tgt_sorted] * (n_slots - n),
                           vocab=tgt_sorted)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _source_slots(source: list[str], n: int):
    """Each position's source slots: the n source tokens ending at it, left-padded with PAD."""
    padded = [PAD] * (n - 1) + list(source)
    return (tuple(padded[i : i + n]) for i in range(len(source)))


def _greedy_translate(model, source: list[str]) -> list[str] | None:
    """The source-only decode as greedy search, or None when another sequence might win.

    Every hypothesis expands with the same row, so no score is below the
    greedy score g. A sibling before the greedy child scores >= g + m_lt, and
    a child of a sequence before the greedy one >= b + m, because float
    addition is monotone. So if g' < b' at every position, the greedy
    sequence comes first in (cost, token sequence) order at every position,
    and every beam width keeps it and returns it.
    """
    summaries = model._summaries
    g, b = 0.0, math.inf
    tokens = []
    for src_slots in _source_slots(source, model.n):
        summary = summaries.get(src_slots)
        if summary is None:
            summary = summaries[src_slots] = model.summary(src_slots)
        t, m, m_lt = summary
        g, b = g + m, min(g + m_lt, b + m)
        if not g < b:
            return None
        tokens.append(model.vocab[t])
    return [tok for tok in tokens if tok not in (PAD, EOS)]


def beam_translate(model, source: list[str], beams: int = 8) -> list[str]:
    """Decode position by position, keeping the `beams` best hypotheses.

    Generation runs for at most len(source) positions. With English context
    a hypothesis finishes early when it emits EOS; with source-only context
    EOS is just another dropped emission, so the output covers every source
    position. The winner is the completed hypothesis with the highest summed
    log-probability, ties going to the one that stopped earlier and then to
    the lexicographically smaller token sequence. PAD emissions never reach
    the output.

    At each position the live hypotheses' summed costs plus their contexts'
    cost vectors (`model.costs`, one per distinct context) form a
    hypotheses x vocab matrix. The beam keeps its `beams` smallest entries,
    ordered by (cost, token sequence). The live hypotheses are kept in
    token-sequence order and `vocab` is sorted, so an entry's flat index
    is its sequence order. The cost vectors are computed with `math.log` /
    `math.exp`, not numpy's, so each entry equals `-math.log(p)` of the
    per-target reference in `tests/oracles.py` to the last bit and near-ties
    resolve exactly as a per-expansion sort would; a naive-Bayes vector runs
    them once per distinct score value.

    The search returns early, before the last position, once the lowest
    finished cost is <= the lowest live score (the optimality stop of Huang,
    Zhao & Ma 2017, "When to Finish? Optimal Beam Search for Neural Text
    Generation (modulo beam size)"). This is exact: every cost is -log p with
    p <= 1, so it is >= 0 (inf if p underflowed), and float addition of a
    cost >= 0 never lowers a score. A live hypothesis can therefore only
    finish at or above its current score, and any later finish has a larger
    stop position, which loses a cost tie. Only English context finishes a
    hypothesis early, so source-only decoding always runs every position.
    A length rule would break the bound: with a per-token reward a live
    hypothesis can still gain the reward at every position left, and a
    length-normalized final score can fall as a hypothesis grows.

    Source-only decoding first tries `_greedy_translate`, which needs one
    `summary` call per distinct source context and model, and no `costs`.
    It returns the greedy sequence when, at every position, the greedy score g' = g + m
    stays below b' = min(g + m_lt, b + m), the bound on every sequence that
    sorts before it (m is the row's least cost, m_lt the least cost at a
    lower vocabulary index; g starts at 0 and b at inf). The greedy sequence
    is then what the beam search would return at any width. Otherwise, after
    a float rounding tie or an all-inf row, the beam search below decodes
    the sentence.
    """
    if beams < 1:
        raise ValueError(f"beam count must be >= 1, got {beams}")
    if model.context_mode == CONTEXT_ETT:
        greedy = _greedy_translate(model, source)
        if greedy is not None:
            return greedy
    n = model.n
    uses_history = model.context_mode == CONTEXT_ETT_ENG
    vocab = model.vocab
    eos = vocab.index(EOS)

    # live hypotheses in token-sequence order: emitted tokens, summed -log p
    alive: list[tuple[str, ...]] = [()]
    scores = np.zeros(1)
    done: list[tuple[float, float, tuple[str, ...]]] = []
    best_done = math.inf  # lowest cost in `done`
    for i, src_slots in enumerate(_source_slots(source, n)):
        if done and best_done <= float(scores.min()):
            break  # no live hypothesis can still win
        shared: dict[tuple, np.ndarray] = {}
        rows = []
        for tokens in alive:
            history = tuple(([PAD] * n + list(tokens))[-n:]) if uses_history else ()
            if history not in shared:
                shared[history] = model.costs(src_slots, history)
            rows.append(shared[history])
        cand = scores[:, None] + np.stack(rows)
        n_open = cand.size
        if uses_history:
            finished = cand[:, eos].tolist()
            done.extend((cost, float(i), tokens) for cost, tokens in zip(finished, alive))
            best_done = min(best_done, *finished)
            cand[:, eos] = math.inf
            n_open -= len(alive)
        flat = cand.ravel()
        k = min(beams, n_open)
        # every entry up to the k-th smallest cost, ties at the cut included
        picked = np.flatnonzero(flat <= np.partition(flat, k - 1)[k - 1])
        # stable: among equal costs the lowest (hypothesis, token) index survives the cut, and that
        # choice reaches the output, unlike the order of equal keys in a dense rank
        kept = np.sort(picked[np.argsort(flat[picked], kind="stable")[:k]])
        parent, tok = np.divmod(kept, len(vocab))
        scores = flat[kept]
        alive = [alive[p] + (vocab[t],) for p, t in zip(parent.tolist(), tok.tolist())]
    done.extend((score, math.inf, tokens) for score, tokens in zip(scores.tolist(), alive))
    done.sort(key=lambda h: (h[0], h[1], h[2]))
    best_tokens = done[0][2]
    return [t for t in best_tokens if t not in (PAD, EOS)]
