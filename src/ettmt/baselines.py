"""The two context-free translators: a random generator and a dictionary lookup."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import Lexicon, read_tsv, write_tsv
from .errors import DataError, check_type

log = logging.getLogger(__name__)

# The largest length_mean and length_std a random model may hold. The mean and
# the sample spread of sentence lengths never exceed the longest sentence, so
# training on sentences of at most MAX_LENGTH tokens always meets the bound,
# and a translation never asks for an array too large to draw.
MAX_LENGTH = 10_000


@dataclass(frozen=True)
class RandomModel:
    """Emits token sequences whose length is normally distributed and whose
    tokens are drawn i.i.d. from the training unigram distribution.

    Building one checks its numbers, so a model that cannot be sampled never
    exists: both lengths finite and at most MAX_LENGTH, `length_std` >= 0, and
    `probs` one finite, non-negative entry per token, summing to 1 within
    `Generator.choice`'s tolerance."""

    length_mean: float
    length_std: float
    tokens: tuple[str, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        for key, value in (("length_mean", self.length_mean), ("length_std", self.length_std)):
            if not math.isfinite(value):
                raise DataError(f"{key} must be finite, got {value!r}")
            if value > MAX_LENGTH:
                raise DataError(f"{key} must be <= {MAX_LENGTH} tokens, got {value!r}")
        if self.length_std < 0:
            raise DataError(f"length_std must be >= 0, got {self.length_std!r}")
        if probs.shape != (len(self.tokens),):
            raise DataError(f"probs must be as long as tokens ({len(self.tokens)})")
        bad = probs[~(np.isfinite(probs) & (probs >= 0))]
        if bad.size:
            value = float(bad[0])
            raise DataError(f"probs entry must be {'>= 0' if math.isfinite(value) else 'finite'}, got {value!r}")
        total = math.fsum(probs.tolist())  # 0.0 for no tokens
        if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):  # Generator.choice's own tolerance
            raise DataError(f"probs must sum to 1, got {total!r}")

    @cached_property
    def cdf(self) -> np.ndarray:
        """The cumulative distribution over `tokens`, scaled to end at 1.0: the table
        `Generator.choice(p=probs)` rebuilds on every call, built here once."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    def to_dict(self) -> dict:
        return {
            "length_mean": self.length_mean,
            "length_std": self.length_std,
            "tokens": list(self.tokens),
            "probs": [float(p) for p in self.probs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomModel":
        tokens, probs = payload["tokens"], payload["probs"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError("tokens must be a list of strings")
        if not isinstance(probs, list):
            raise DataError("probs must be a list of numbers")
        for key, value in [("length_mean", payload["length_mean"]), ("length_std", payload["length_std"]),
                           *(("probs entry", p) for p in probs)]:
            check_type(key, value, 1.0)
        return cls(
            length_mean=payload["length_mean"],
            length_std=payload["length_std"],
            tokens=tuple(tokens),
            probs=probs,
        )


def train_random(sequences: list[list[str]]) -> RandomModel:
    """Estimate length mean/sample std and unigram frequencies from English sides."""
    if len(sequences) < 2:
        raise ValueError(f"need at least 2 sequences to estimate a spread, got {len(sequences)}")
    lengths = np.array([len(s) for s in sequences], dtype=np.float64)
    if lengths.max() > MAX_LENGTH:
        raise DataError(f"sentences must have at most {MAX_LENGTH} tokens, got {int(lengths.max())}")
    counts: dict[str, int] = {}
    for seq in sequences:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise ValueError("training sequences contain no tokens")
    tokens = tuple(sorted(counts))
    probs = np.array([counts[t] for t in tokens], dtype=np.float64)
    probs /= probs.sum()
    return RandomModel(
        length_mean=float(lengths.mean()),
        length_std=float(lengths.std(ddof=1)),
        tokens=tokens,
        probs=probs,
    )


def translate_random(model: RandomModel, source: list[str], rng: np.random.Generator) -> list[str]:
    """Sample a translation; the source is ignored by construction. A normal draw gives the
    length, then one uniform draw per token is looked up in the model's cached `cdf`:
    the same arithmetic on the same stream as `rng.choice(len(tokens), size=length, p=probs)`."""
    length = int(round(rng.normal(model.length_mean, model.length_std)))
    if length <= 0:
        return []
    tokens = model.tokens
    return [tokens[i] for i in model.cdf.searchsorted(rng.random(length), side="right").tolist()]


@dataclass(frozen=True)
class DictModel:
    """Exact-match, order-preserving token lookup; unknown tokens are dropped."""

    table: dict[str, str]

    def to_dict(self) -> dict:
        return {"table": dict(self.table)}

    @classmethod
    def from_dict(cls, payload: dict) -> "DictModel":
        table = payload["table"]
        if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
            raise DataError("table must map strings to strings")
        return cls(table=dict(table))


DUPLICATES_NAMED = 5  # duplicate lexicon keys the warning names


def build_dict_model(lexicon: Lexicon) -> DictModel:
    """One gloss per vocable; duplicate keys keep the first, and one warning
    counts them and names the first few."""
    table: dict[str, str] = {}
    duplicates: dict[str, None] = {}
    for entry in lexicon.entries:
        if not entry.translatable:
            continue
        if entry.etruscan in table:
            duplicates[entry.etruscan] = None
            continue
        table[entry.etruscan] = entry.english
    if duplicates:
        named = ", ".join(map(repr, list(duplicates)[:DUPLICATES_NAMED]))
        more = ", ..." if len(duplicates) > DUPLICATES_NAMED else ""
        log.warning("%d duplicate dictionary keys kept their first gloss: %s%s", len(duplicates), named, more)
    return DictModel(table=table)


def translate_dict(model: DictModel, tokens: list[str]) -> list[str]:
    """Look each token up in source order; multiword glosses expand."""
    out: list[str] = []
    for token in tokens:
        gloss = model.table.get(token)
        if gloss is not None:
            out.extend(gloss.split())
    return out


_DICT_COLUMNS = ("etruscan", "english")


def save_dict_tsv(model: DictModel, path):
    """Write the lookup table as a two-column TSV (etruscan, english)."""
    write_tsv(path, _DICT_COLUMNS, sorted(model.table.items()))


def load_dict_tsv(path) -> DictModel:
    """Read a two-column dictionary TSV; a repeated Etruscan form keeps its first gloss."""
    header, rows = read_tsv(path, len(_DICT_COLUMNS))
    if tuple(header) != _DICT_COLUMNS:
        raise DataError(f"{path}: expected header etruscan<TAB>english, got {header}")
    table: dict[str, str] = {}
    for _, (etruscan, english) in rows:
        table.setdefault(etruscan, english)
    return DictModel(table=table)
