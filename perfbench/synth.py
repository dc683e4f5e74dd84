"""Seeded generator of benchmark inputs: corpus TSV, lexicon TSV and suffix list.

The files have the shape of the real data set: short inscriptions over a
Zipfian source vocabulary, raw transcriptions with Greek aspirates and word
separators that `load_corpus` must normalize, and a lexicon whose proper-noun
entries share feature vectors in small groups, so that name swaps find
candidates.  A share of pairs carries a lexicon name on the source side and
its gloss on the English side, so name swaps and dictionary lookups happen.

Only Python's own `random.Random` is used, so a seed gives the same bytes on
every platform and numpy version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

N_FEATURES = 54
# 1-based feature columns, in the lexicon's file order (see ettmt.corpus.FEATURE_NAMES)
NAME_COLUMNS = (1, 2, 3, 5, 6, 7, 8)
GRAMMAR_COLUMNS = tuple(range(9, 55))

SUFFIXES = ("al", "ial", "isa", "sa", "si", "ce", "ne", "thi", "ur", "le", "s", "l")

_ONSETS = ("c", "th", "ph", "kh", "l", "m", "n", "r", "s", "sh", "t", "v", "z", "p", "h", "")
_VOWELS = ("a", "e", "i", "u")
_ENG_ONSETS = ("b", "br", "d", "f", "g", "gr", "h", "k", "l", "m", "n", "p", "pl", "r", "s", "st", "t", "w")
_ENG_VOWELS = ("a", "e", "i", "o", "u", "ea", "ou")
_ENG_CODAS = ("", "d", "k", "l", "m", "n", "r", "s", "t", "ng", "st")
# raw-transcription spellings that normalize back to the ASCII digraph
_RAW_SPELLINGS = {"th": ("th", "θ"), "ph": ("ph", "φ"), "kh": ("kh", "χ")}

ZIPF_S = 1.05  # exponent of both vocabularies' rank-frequency law
DROP_SHARE = 0.2  # source words without a gloss on the English side
INSERT_SHARE = 0.25  # source words followed by an extra English word
REORDER_SHARE = 0.6  # pairs whose English side is reordered by block moves
UNTRANSLATED_SHARE = 0.05  # rows without English, dropped by the protocol


@dataclass(frozen=True)
class Shape:
    """Sizes of one generated data set."""

    n_pairs: int
    src_types: int = 3000
    tgt_types: int = 2500
    lexicon_entries: int = 800
    name_entries: int = 240
    name_share: float = 0.35
    min_len: int = 2
    max_len: int = 14


@dataclass(frozen=True)
class Files:
    corpus: Path
    lexicon: Path
    suffixes: Path


def _unique_words(rng: random.Random, count: int, make, accept=lambda rank, word: True) -> list[str]:
    """Distinct words by rank; `make` and `accept` see the rank being filled."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        word = make(rng, len(out))
        if word not in seen and accept(len(out), word):
            seen.add(word)
            out.append(word)
    return out


# Syllable counts follow the rank, so word lengths do not depend on the seed.
def _ett_word(rng: random.Random, rank: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(2 + rank % 3))


def _eng_word(rng: random.Random, rank: int) -> str:
    return "".join(
        rng.choice(_ENG_ONSETS) + rng.choice(_ENG_VOWELS) + rng.choice(_ENG_CODAS)
        for _ in range(1 if rank % 4 == 0 else 2)
    )


def _ends_with_suffix(word: str) -> bool:
    return any(len(word) - len(s) >= 2 and word.endswith(s) for s in SUFFIXES)


def _raw(rng: random.Random, tokens: list[str]) -> str:
    """Spell normalized tokens the way editions print them."""
    words = []
    for tok in tokens:
        for digraph, spellings in _RAW_SPELLINGS.items():
            if digraph in tok:
                tok = tok.replace(digraph, rng.choice(spellings))
        words.append(tok.upper() if rng.random() < 0.1 else tok)
    return rng.choice((" ", "·", ":")).join(words)


def _zipf_pool(rng: random.Random, n_types: int, s: float, total: int) -> list[int]:
    """`total` type ranks whose counts follow Zipf's law exactly, in random order.

    Counts are the expected frequencies rounded by largest remainder, so every
    seed draws the same multiset of ranks and only their order varies.
    """
    weights = [rank ** -s for rank in range(1, n_types + 1)]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(n_types), key=lambda r: (counts[r] - weights[r] * scale, r))
    for r in by_remainder[: total - sum(counts)]:
        counts[r] += 1
    pool = [r for r in range(n_types) for _ in range(counts[r])]
    rng.shuffle(pool)
    return pool


def generate(seed: int, shape: Shape, out_dir: Path) -> Files:
    """Write corpus.tsv, lexicon.tsv and suffixes.txt into out_dir."""
    rng = random.Random(seed)
    names = _unique_words(rng, shape.name_entries, _ett_word, lambda r, w: not _ends_with_suffix(w))
    taken = set(names)
    # every third source word by rank carries a suffix the suffix tokenizer splits off
    src_vocab = _unique_words(
        rng, shape.src_types, _ett_word,
        lambda r, w: w not in taken and _ends_with_suffix(w) == (r % 3 == 1),
    )
    name_glosses = _unique_words(rng, shape.name_entries, _eng_word)
    taken = set(name_glosses)
    tgt_vocab = _unique_words(rng, shape.tgt_types, _eng_word, lambda r, w: w not in taken)
    # the latent translation: source rank r glosses as target rank ~r * |tgt| / |src|
    gloss = [tgt_vocab[r * shape.tgt_types // shape.src_types] for r in range(shape.src_types)]

    # Every seed gets the same multisets of sentence lengths, source and target
    # ranks, dropped glosses, inserted words, names and untranslated rows; only
    # their order and the letters of each word vary, so the work per seed
    # barely varies.
    span = shape.max_len - shape.min_len + 1
    lengths = [shape.min_len + idx % span for idx in range(shape.n_pairs)]
    rng.shuffle(lengths)
    n_tokens = sum(lengths)
    src_pool = _zipf_pool(rng, shape.src_types, ZIPF_S, n_tokens)
    dropped = set(rng.sample(range(n_tokens), round(n_tokens * DROP_SHARE)))
    inserted = set(rng.sample(range(n_tokens), round(n_tokens * INSERT_SHARE)))
    insert_pool = _zipf_pool(rng, shape.tgt_types, ZIPF_S, len(inserted))
    with_name = set(rng.sample(range(shape.n_pairs), round(shape.n_pairs * shape.name_share)))
    untranslated = set(rng.sample(range(shape.n_pairs), round(shape.n_pairs * UNTRANSLATED_SHARE)))
    rows = []
    pos = 0
    for idx, length in enumerate(lengths):
        ett, eng = [], []
        for r in src_pool[pos : pos + length]:
            ett.append(src_vocab[r])
            if pos not in dropped:
                eng.append(gloss[r])
            if pos in inserted:
                eng.append(tgt_vocab[insert_pool.pop()])
            pos += 1
        if len(eng) > 2 and rng.random() < REORDER_SHARE:
            # English order differs from the Etruscan one by block moves
            cuts = sorted(rng.sample(range(1, len(eng)), min(2, len(eng) - 1)))
            blocks = [eng[i:j] for i, j in zip([0] + cuts, cuts + [len(eng)])]
            eng = [tok for block in reversed(blocks) for tok in block]
        if idx in with_name:
            k = rng.randrange(shape.name_entries)
            at = rng.randrange(len(ett) + 1)
            ett.insert(at, names[k])
            eng.insert(min(at, len(eng)), name_glosses[k])
        english = "" if idx in untranslated else " ".join(eng)
        source = rng.choice(("ETP", "CIEP"))
        rows.append((f"{source}{idx:05d}", source, _raw(rng, ett), english, "", ""))

    # name entries: a handful of feature templates so each shares its vector with ~dozens
    templates = []
    for col in NAME_COLUMNS:
        for gender in (11, 12):
            templates.append({col, gender, 9})
    lex_rows = []
    for k, name in enumerate(names):
        lex_rows.append((name, name_glosses[k], templates[k % len(templates)]))
    plain = shape.lexicon_entries - shape.name_entries
    # plain entries cover the same frequent source ranks for every seed, so dict
    # lookups hit equally often; every 33rd has no gloss
    for k in range(plain):
        r = k * (shape.src_types // 4) // plain
        feats = set(rng.sample(GRAMMAR_COLUMNS, rng.randint(1, 3)))
        lex_rows.append((src_vocab[r], "" if k % 33 == 32 else gloss[r], feats))

    out_dir.mkdir(parents=True, exist_ok=True)
    files = Files(out_dir / "corpus.tsv", out_dir / "lexicon.tsv", out_dir / "suffixes.txt")
    with open(files.corpus, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\tsource\tetruscan\tenglish\tdate\tlocation\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")
    with open(files.lexicon, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(["etruscan", "english"] + [f"f{k}" for k in range(1, N_FEATURES + 1)]) + "\n")
        for form, english, feats in lex_rows:
            cells = ["1" if k in feats else "0" for k in range(1, N_FEATURES + 1)]
            fh.write("\t".join([_raw(rng, [form]), english] + cells) + "\n")
    with open(files.suffixes, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(SUFFIXES) + "\n")
    return files
