"""Training-pair augmentation: proper-noun substitution and simulated damage.

Name substitution swaps a proper noun for another lexicon entry with the
identical grammatical-feature vector, on both sides of the pair at once.
Damage replaces characters at word boundaries with '-', the placeholder used
for unreadable characters; the number of damaged characters per affected end
follows a geometric distribution, so a word like "clan" may come out as
"cla-", "--an", or "-l--" while keeping its length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Lexicon
from .errors import check_seed

Pair = tuple[list[str], list[str]]


@dataclass(frozen=True)
class AugmentConfig:
    max_name_replacements: int = 1
    damage_prob: float = 0.1
    damage_geom_p: float = 0.5
    damage_iterations: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_name_replacements < 0:
            raise ValueError("max_name_replacements must be >= 0")
        if not 0.0 <= self.damage_prob <= 1.0:
            raise ValueError("damage_prob must be in [0, 1]")
        if not 0.0 < self.damage_geom_p <= 1.0:
            raise ValueError("damage_geom_p must be in (0, 1]")
        if self.damage_iterations < 0:
            raise ValueError("damage_iterations must be >= 0")
        check_seed("seed", self.seed)


def _find_span(haystack: list[str], needle: list[str]) -> int:
    """Index of the first contiguous occurrence of needle in haystack, or -1."""
    if not needle or len(needle) > len(haystack):
        return -1
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return i
    return -1


def augment_names(
    pair: Pair, lexicon: Lexicon, cfg: AugmentConfig, rng: np.random.Generator
) -> list[Pair]:
    """Generate new pairs by swapping proper nouns for feature-identical ones.

    A source token qualifies when it exactly matches a proper-noun lexicon
    entry whose gloss occurs as a token span on the English side. The
    replacement entry is drawn uniformly among entries with an identical
    feature vector; source token and gloss span are replaced simultaneously.
    At most cfg.max_name_replacements pairs are emitted; the input pair is
    never mutated.
    """
    if cfg.max_name_replacements == 0:
        return []
    ett, eng = pair
    by_surface = lexicon.names_by_surface
    by_features = lexicon.names_by_features

    out: list[Pair] = []
    for pos, token in enumerate(ett):
        if len(out) >= cfg.max_name_replacements:
            break
        entry = by_surface.get(token)
        if entry is None:
            continue
        gloss = entry.english.split()
        span = _find_span(eng, gloss)
        if span < 0:
            continue
        candidates = [
            e
            for e in by_features[entry.features]
            if e.etruscan != entry.etruscan
        ]
        if not candidates:
            continue
        chosen = candidates[int(rng.integers(len(candidates)))]
        new_ett = ett[:pos] + [chosen.etruscan] + ett[pos + 1 :]
        new_eng = eng[:span] + chosen.english.split() + eng[span + len(gloss) :]
        out.append((new_ett, new_eng))
    return out


def _geometric(rng: np.random.Generator, p: float) -> int:
    """Geometric draw on {1, 2, ...} with success probability p."""
    return int(rng.geometric(p))


def _damage_token(token: str, cfg: AugmentConfig, rng: np.random.Generator) -> str:
    start_k = 0
    end_k = 0
    if rng.random() < cfg.damage_prob:
        start_k = _geometric(rng, cfg.damage_geom_p)
    if rng.random() < cfg.damage_prob:
        end_k = _geometric(rng, cfg.damage_geom_p)
    start_k = min(start_k, len(token))
    end_k = min(end_k, len(token) - start_k)
    if start_k == 0 and end_k == 0:
        return token
    middle = token[start_k : len(token) - end_k]
    return "-" * start_k + middle + "-" * end_k


def augment_damage(pair: Pair, cfg: AugmentConfig, rng: np.random.Generator) -> Pair:
    """Damage source tokens at their ends with probability cfg.damage_prob per end.

    Characters are replaced by '-', never deleted, so token count and every
    token's length are preserved; the English side is untouched.
    """
    ett, eng = pair
    return [_damage_token(t, cfg, rng) for t in ett], list(eng)


def augment_pairs(
    pairs: list[Pair], lexicon: Lexicon | None, cfg: AugmentConfig
) -> list[Pair]:
    """Expand a training set: originals, then name swaps, then damaged copies.

    Each pair gets its own RNG seeded from (cfg.seed, pair index), so the
    expansion is deterministic and could be parallelized over pairs.
    """
    out = list(pairs)
    if lexicon is not None and cfg.max_name_replacements > 0:
        for idx, pair in enumerate(pairs):
            rng = np.random.default_rng([cfg.seed, 1, idx])
            out.extend(augment_names(pair, lexicon, cfg, rng))
    if cfg.damage_iterations > 0 and cfg.damage_prob > 0.0:
        for it in range(cfg.damage_iterations):
            for idx, pair in enumerate(pairs):
                rng = np.random.default_rng([cfg.seed, 2 + it, idx])
                out.append(augment_damage(pair, cfg, rng))
    return out
