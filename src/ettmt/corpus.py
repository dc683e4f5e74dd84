"""Corpus loading, normalization, and splitting for the Etruscan-English data.

Etruscan transcriptions arrive in mixed conventions (Greek letters for
aspirates and sibilants, several word-separator glyphs, damage hyphens).
`normalize` maps everything onto a small Latin alphabet {a-z, space, '-'};
the mapping is deterministic but not reversible. Two regexes and a tuple of
(glyph, replacement) pairs, all built at import, do it: one regex turns a
marked s into "sh", one `str.replace` pass per pair maps the transcription
glyphs and separators, and the other regex deletes (and counts) what is left
outside {a-z, whitespace, '-'}.
`normalize_english` keeps the runs of [a-z0-9].
"""

from __future__ import annotations

import csv
import json
import random
import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DataError

# Grammatical feature columns of the lexicon, in file order.
FEATURE_NAMES = (
    "city name",
    "place name",
    "name",
    "epithet",
    "theonomin",
    "cognomen",
    "praenomen",
    "nomen",
    "nominative",
    "accusative",
    "masculine",
    "feminine",
    "nas-particle",
    "nasa-particle",
    "u-particle",
    "th-imperative",
    "th-particle",
    "thas-particle",
    "as-particle",
    "active",
    "passive",
    "non-past",
    "past",
    "imperative",
    "jussive",
    "necessitative",
    "inanimate",
    "animate",
    "indefinite (pronoun)",
    "definite (article)",
    "deictic particle",
    "enclitic particle",
    "enclitic conjunction",
    "demonstrative",
    "adverb",
    "article",
    "conjunction",
    "post-position",
    "pronoun",
    "relative",
    "subordinator",
    "negation",
    "numeral",
    "1st genitive",
    "2nd genitive",
    "1st ablative",
    "2nd ablative",
    "locative",
    "1st pertinentive",
    "2nd pertinentive",
    "1st person",
    "2nd person",
    "3rd person",
    "plural",
)
N_FEATURES = len(FEATURE_NAMES)

# Feature columns that mark an entry as a proper noun (used by augmentation).
NAME_FEATURES = ("city name", "place name", "name", "theonomin", "cognomen", "praenomen", "nomen")
NAME_FEATURE_INDICES = tuple(FEATURE_NAMES.index(f) for f in NAME_FEATURES)

SOURCES = ("ETP", "CIEP")

# Transcription symbols with a multi-char or non-identity target.
_CHAR_MAP = {
    "θ": "th",  # theta
    "ϑ": "th",  # theta symbol variant
    "φ": "ph",  # phi
    "ϕ": "ph",  # phi symbol variant
    "χ": "kh",  # chi
    "σ": "s",   # sigma
    "ς": "s",   # final sigma
    "ś": "sh",  # s with acute
    "⊞": "s",   # boxed s ("marked" sibilant)
    "‐": "-",   # hyphen variants fold onto the damage placeholder
    "‑": "-",
    "‒": "-",
    "–": "-",
    "—": "-",
    "―": "-",
}

# Bases that an acute-like mark turns into "sh" (s / sigma / final sigma).
_S_LIKE = "sσς"
# Marks that behave like the acute in transcriptions: combining acute,
# apostrophes, acute accent, modifier prime.
_ACUTE_MARKS = "́'’´ʹ"
_OVERCROSS = "̽"  # combining x above: s-with-cross reads "sh"

# Word separators collapse to a single space; '|' marks a line break in the
# source editions and is treated the same way.
_SEPARATORS = "·:⋮|"

# A base and a mark never overlap, so a left-to-right scan pairs them as a
# character-by-character walk would.
_MARKED_S = re.compile(f"[{_S_LIKE}][{re.escape(_ACUTE_MARKS + _OVERCROSS)}]")
# (glyph, replacement) pairs for one str.replace each; no replacement holds a
# mapped glyph, so the order of the passes cannot change the result.
_TRANSCRIPTION = tuple({**_CHAR_MAP, **dict.fromkeys(_SEPARATORS, " ")}.items())
# What the pairs leave without a mapping; every replacement is outside this
# class, so only unmapped input characters are counted. \s matches exactly
# where str.isspace() is true, so all whitespace is kept for the final split.
_UNMAPPED = re.compile(r"[^a-z\-\s]+")


def _normalize_with_stats(raw: str) -> tuple[str, int]:
    """Normalize and also report how many characters had no mapping."""
    text = _MARKED_S.sub("sh", unicodedata.normalize("NFC", raw).lower())
    for glyph, replacement in _TRANSCRIPTION:
        text = text.replace(glyph, replacement)
    kept = _UNMAPPED.sub("", text)
    return " ".join(kept.split()), len(text) - len(kept)


def normalize(raw: str) -> str:
    """Map a raw Etruscan transcription onto {a-z, space, '-'}.

    Aspirates become digraphs (th, ph, kh), marked sibilants become "sh",
    separator glyphs become a single space, '-' survives as the damaged
    character placeholder, and anything without a mapping is dropped.
    Never fails; idempotent; empty output is legal.
    """
    return _normalize_with_stats(raw)[0]


_ENGLISH_WORD = re.compile("[a-z0-9]+")


def normalize_english(raw: str) -> str:
    """Lowercase an English gloss and strip punctuation to spaces.

    Apostrophes are removed outright so contractions stay one token;
    digits are kept.
    """
    text = unicodedata.normalize("NFC", raw).lower().replace("'", "").replace("’", "")
    return " ".join(_ENGLISH_WORD.findall(text))


@dataclass(frozen=True)
class Inscription:
    """One parallel example; `english is None` means untranslated."""

    id: str
    source: str
    etruscan_raw: str
    etruscan_norm: str
    english: str | None = None
    date: str | None = None
    location: str | None = None


@dataclass(frozen=True)
class ParallelCorpus:
    items: tuple[Inscription, ...]
    name: str = ""

    def __post_init__(self):
        seen: set[str] = set()
        for item in self.items:
            if item.id in seen:
                raise DataError(f"duplicate inscription id {item.id!r} in corpus {self.name!r}")
            seen.add(item.id)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def translated(self) -> "ParallelCorpus":
        """Sub-corpus restricted to items that carry a translation."""
        return ParallelCorpus(
            tuple(i for i in self.items if i.english), name=self.name
        )


@dataclass(frozen=True)
class LexiconEntry:
    etruscan: str
    english: str
    features: tuple[int, ...]

    def __post_init__(self):
        if not self.etruscan:
            raise DataError("lexicon entry with empty Etruscan form")
        if len(self.features) != N_FEATURES:
            raise DataError(
                f"lexicon entry {self.etruscan!r}: expected {N_FEATURES} features, "
                f"got {len(self.features)}"
            )

    @property
    def translatable(self) -> bool:
        return bool(self.english)

    @property
    def is_name(self) -> bool:
        return any(self.features[i] for i in NAME_FEATURE_INDICES)


@dataclass(frozen=True)
class Lexicon:
    entries: tuple[LexiconEntry, ...]
    suffixes: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.suffixes)) != len(self.suffixes) or "" in self.suffixes:
            raise DataError("suffix list must be unique and non-empty")

    # Name indexes for augmentation, built on first use. They are not
    # dataclass fields, so equality and repr ignore them; do not mutate them.

    @cached_property
    def names_by_surface(self) -> dict[str, LexiconEntry]:
        """First translatable proper-noun entry per Etruscan form."""
        out: dict[str, LexiconEntry] = {}
        for entry in self.entries:
            if entry.is_name and entry.translatable and entry.etruscan not in out:
                out[entry.etruscan] = entry
        return out

    @cached_property
    def names_by_features(self) -> dict[tuple[int, ...], list[LexiconEntry]]:
        """Translatable proper-noun entries per feature vector, in lexicon order."""
        out: dict[tuple[int, ...], list[LexiconEntry]] = {}
        for entry in self.entries:
            if entry.is_name and entry.translatable:
                out.setdefault(entry.features, []).append(entry)
        return out


@dataclass
class LoadReport:
    """Bookkeeping for one corpus load: what was read, kept, and dropped."""

    path: str = ""
    rows_read: int = 0
    rows_kept: int = 0
    rows_dropped: int = 0
    dropped_chars: int = 0
    reasons: list[str] = field(default_factory=list)

    def drop(self, where: str, reason: str):
        self.rows_dropped += 1
        self.reasons.append(f"{where}: {reason}")

    def summary(self) -> str:
        lines = [
            f"{self.path}: read {self.rows_read} rows, kept {self.rows_kept}, "
            f"dropped {self.rows_dropped}; {self.dropped_chars} unmappable characters removed"
        ]
        lines.extend("  " + r for r in self.reasons)
        return "\n".join(lines)


_CORPUS_COLUMNS = ("id", "source", "etruscan", "english", "date", "location")


def _row_to_inscription(row: dict, where: str, report: LoadReport) -> Inscription | None:
    """The inscription in one corpus row; `where` ("line N" / "entry N") locates the row in report.path."""
    ident = (row.get("id") or "").strip()
    if not ident:
        raise DataError(f"{report.path}, {where}: missing id")
    source = (row.get("source") or "").strip().upper()
    if source not in SOURCES:
        raise DataError(f"{report.path}, {where}: unknown source {row.get('source')!r}")
    raw = row.get("etruscan") or ""
    norm, dropped = _normalize_with_stats(raw)
    report.dropped_chars += dropped
    if not norm:
        report.drop(where, f"id {ident!r}: empty after normalization")
        return None
    english = normalize_english(row.get("english") or "") or None
    return Inscription(
        id=ident,
        source=source,
        etruscan_raw=raw,
        etruscan_norm=norm,
        english=english,
        date=(row.get("date") or "").strip() or None,
        location=(row.get("location") or "").strip() or None,
    )


def read_lines(path, newline: str | None = None) -> list[str]:
    """Every line of a UTF-8 text file, line ends kept, as the text reader splits them."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        # the text reader decodes in blocks, so find the line again byte-wise;
        # a newline byte never occurs inside a multi-byte UTF-8 character
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}, line {number}: not valid UTF-8 ({exc.reason})") from exc
        raise


def read_json(path, what: str, kind: type):
    """The JSON document in a UTF-8 file; DataError "<path>: not <what> (...)" unless it parses to a `kind`."""
    text = "".join(read_lines(path))
    try:
        doc = json.loads(text)
    # a JSONDecodeError, an int literal too long to convert (Python >= 3.11), or arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not {what} ({exc})") from exc
    if not isinstance(doc, kind):
        expected = "an object" if kind is dict else "an array"
        raise DataError(f"{path}: not {what} (top level is {type(doc).__name__}, not {expected})")
    return doc


def read_tsv(path, width: int) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header (line 1) and the (line number, cells) rows of a tab-separated UTF-8 file.

    Lines that hold only whitespace are skipped; every other line must have
    exactly `width` cells, else DataError "<path>, line N: ...".
    """
    reader = csv.reader(read_lines(path, newline=""), delimiter="\t", quoting=csv.QUOTE_NONE)
    rows: list[tuple[int, list[str]]] = []
    try:
        header = next(reader, [])
        if len(header) != width:
            raise DataError(f"{path}, line 1: expected a header of {width} columns, got {len(header)}")
        for cells in reader:
            if not "".join(cells).strip():
                continue
            if len(cells) != width:
                raise DataError(f"{path}, line {reader.line_num}: expected {width} columns, got {len(cells)}")
            rows.append((reader.line_num, cells))
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc
    return header, rows


_NO_TABS_OR_LINE_BREAKS = str.maketrans("\t\r\n", "   ")


def write_tsv(path, header, rows) -> None:
    """Write a header and rows of string cells as tab-separated UTF-8; a tab or line break in a cell becomes a space."""
    with open(path, "w", encoding="utf-8") as fh:
        for cells in (header, *rows):
            fh.write("\t".join(cell.translate(_NO_TABS_OR_LINE_BREAKS) for cell in cells) + "\n")


def _corpus_format(path, fmt: str | None) -> str:
    """fmt when given, else "json" for a .json path and "tsv" for any other."""
    return fmt if fmt is not None else "json" if str(path).endswith(".json") else "tsv"


def load_corpus(path, fmt: str | None = None) -> tuple[ParallelCorpus, LoadReport]:
    """Load a corpus file (fmt "tsv" or "json"; by default json for a .json path) and normalize every row.

    Rows whose Etruscan field normalizes to the empty string are dropped and
    counted in the returned LoadReport. Malformed rows and duplicate ids
    raise DataError naming the file and the offending line (TSV) or entry (JSON).
    """
    report = LoadReport(path=str(path))
    fmt = _corpus_format(path, fmt)
    if fmt == "tsv":
        header, lines = read_tsv(path, len(_CORPUS_COLUMNS))
        if [c.strip() for c in header] != list(_CORPUS_COLUMNS):
            raise DataError(f"{path}: expected header {' '.join(_CORPUS_COLUMNS)}, got {header}")
        rows = [(f"line {n}", dict(zip(_CORPUS_COLUMNS, cells))) for n, cells in lines]
    elif fmt == "json":
        rows = []
        for n, row in enumerate(read_json(path, "a JSON corpus", list), start=1):
            if not isinstance(row, dict):
                raise DataError(f"{path}, entry {n}: not an object")
            for key in _CORPUS_COLUMNS:  # null counts as absent, like a missing key
                value = row.get(key)
                if value is not None and not isinstance(value, str):
                    raise DataError(f"{path}, entry {n}: {key} must be a string, "
                                    f"not {type(value).__name__} {value!r}")
            rows.append((f"entry {n}", row))
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")
    report.rows_read = len(rows)
    items, first = [], {}  # first: kept id -> where it was read
    for where, row in rows:
        item = _row_to_inscription(row, where, report)
        if item is None:
            continue
        if item.id in first:
            raise DataError(f"{path}, {where}: duplicate inscription id {item.id!r} (first on {first[item.id]})")
        first[item.id] = where
        items.append(item)
    corpus = ParallelCorpus(tuple(items), name=str(path))
    report.rows_kept = len(items)
    return corpus, report


def save_corpus(corpus: ParallelCorpus, path, fmt: str | None = None):
    """Write a corpus with normalized fields; inverse of load_corpus (same format rule) up to normalization."""
    rows = [(i.id, i.source, i.etruscan_norm, i.english or "", i.date or "", i.location or "") for i in corpus]
    fmt = _corpus_format(path, fmt)
    if fmt == "tsv":
        write_tsv(path, _CORPUS_COLUMNS, rows)
    elif fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(_CORPUS_COLUMNS, row)) for row in rows], fh, ensure_ascii=False, indent=1)
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")


_FEATURE_VALUES = {"0": 0, "1": 1}


def load_lexicon(path, suffix_path=None) -> Lexicon:
    """Load the lexicon TSV (etruscan, english, f1..f54) plus an optional suffix file.

    Entries without an English gloss are kept but flagged untranslatable, so
    they still serve feature lookups.
    """
    entries: list[LexiconEntry] = []
    for line_no, row in read_tsv(path, 2 + N_FEATURES)[1]:
        cells = list(map(str.strip, row[2:]))
        feats = tuple(map(_FEATURE_VALUES.get, cells))
        if None in feats:
            k = feats.index(None)
            raise DataError(f"{path}, line {line_no}: feature f{k + 1} must be 0/1, got {cells[k]!r}")
        try:
            entries.append(LexiconEntry(normalize(row[0]), normalize_english(row[1]), feats))
        except DataError as exc:  # an Etruscan form that normalizes to nothing
            raise DataError(f"{path}, line {line_no}: {exc}") from exc
    suffixes: tuple[str, ...] = ()
    if suffix_path is not None:
        suffixes = load_suffixes(suffix_path)
    return Lexicon(tuple(entries), suffixes)


def load_suffixes(path) -> tuple[str, ...]:
    """Read one normalized suffix per line, ignoring blanks; order preserved."""
    out: list[str] = []
    seen: set[str] = set()
    for line in read_lines(path):
        suffix = normalize(line.strip())
        if suffix and suffix not in seen:
            out.append(suffix)
            seen.add(suffix)
    return tuple(out)


def split_corpus(
    corpus: ParallelCorpus, train_fraction: float, seed: int
) -> tuple[ParallelCorpus, ParallelCorpus]:
    """Deterministic shuffle split: floor(n * train_fraction) items to train.

    The corpus must already be restricted to translated items; the same seed
    always yields the same split.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    untranslated = [i.id for i in corpus if not i.english]
    if untranslated:
        raise DataError(
            f"split_corpus requires translated items only; {len(untranslated)} lack a translation "
            f"(first: {untranslated[0]!r})"
        )
    if len(corpus) < 2:
        raise DataError(f"cannot split a corpus of {len(corpus)} translated items")
    order = list(corpus.items)
    random.Random(seed).shuffle(order)
    # epsilon keeps floor() honest when n * fraction is an exact integer in
    # real arithmetic but lands a hair under it in floating point
    n_train = int(len(order) * train_fraction + 1e-9)
    train = ParallelCorpus(tuple(order[:n_train]), name=f"{corpus.name}/train")
    test = ParallelCorpus(tuple(order[n_train:]), name=f"{corpus.name}/test")
    return train, test
