"""Tokenization of normalized text: plain whitespace split and root+suffix split."""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .corpus import load_suffixes
from .errors import DataError

# A suffix must leave at least this many root characters behind.
MIN_ROOT_LEN = 2

TOKENIZERS = ("whitespace", "suffix")


def tokenize_whitespace(text: str) -> list[str]:
    """Split a normalized string on spaces; empty input gives an empty list."""
    return text.split()


class _LongestFirst(tuple):
    """Distinct suffixes grouped by length, longest first: a tuple of
    (length, frozenset of the suffixes of that length) pairs, the order in
    which `tokenize_suffix` tries them.

    Within one length at most one suffix can end a word, so one set lookup
    per length finds the longest match.  An empty suffix would turn every
    word into an empty root and a bare '-', so it is a ValueError.
    """

    def __new__(cls, suffixes: Iterable[str]):
        groups: dict[int, set[str]] = {}
        for suffix in suffixes:
            if not suffix:
                raise ValueError("a suffix must not be empty")
            groups.setdefault(len(suffix), set()).add(suffix)
        return super().__new__(cls, ((n, frozenset(groups[n])) for n in sorted(groups, reverse=True)))


def tokenize_suffix(text: str, suffixes: Iterable[str]) -> list[str]:
    """Split each word into root + suffix using the longest matching suffix.

    A suffix applies only when it matches the end of the word and leaves a
    root of at least MIN_ROOT_LEN characters; the split is applied once per
    word (no recursive stripping). The suffix token is emitted with a '-'
    prefix so later stages can tell it apart from a free word. The
    function from `tokenizer` passes its suffixes already grouped, so they
    are not grouped again on every call.
    """
    by_length = suffixes if isinstance(suffixes, _LongestFirst) else _LongestFirst(suffixes)
    out: list[str] = []
    for token in text.split():
        longest = len(token) - MIN_ROOT_LEN
        for n, group in by_length:
            if n <= longest and token[-n:] in group:
                out.append(token[:-n])
                out.append("-" + token[-n:])
                break
        else:
            out.append(token)
    return out


def tokenizer(kind: str, suffix_path=None) -> Callable[[str], list[str]]:
    """The tokenize function named by kind; the suffix tokenizer splits on the suffixes in suffix_path."""
    if kind not in TOKENIZERS:
        raise DataError(f"unknown tokenizer {kind!r} (one of {', '.join(TOKENIZERS)})")
    if kind == "whitespace":
        return tokenize_whitespace
    if suffix_path is None:
        raise DataError("the suffix tokenizer needs a suffix file")
    suffixes = _LongestFirst(load_suffixes(suffix_path))
    if not suffixes:
        raise DataError(f"{suffix_path}: no suffixes")
    return lambda text: tokenize_suffix(text, suffixes)


def detokenize(tokens: list[str]) -> str:
    """Join tokens with spaces, re-attaching '-'-prefixed suffix tokens to the previous word.

    This inverts both tokenizers except on a word that begins with '-' and
    has more letters (damage augmentation writes such words, e.g. '--an'):
    it is taken for a suffix token, so ``detokenize(["mi", "--an"])`` gives
    'mi-an', not 'mi --an'.
    """
    parts: list[str] = []
    for tok in tokens:
        if tok.startswith("-") and len(tok) > 1:
            if not parts:
                raise ValueError(f"token sequence begins with suffix token {tok!r}")
            parts[-1] += tok[1:]
        else:
            parts.append(tok)
    return " ".join(parts)
