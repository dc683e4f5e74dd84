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
    """Distinct suffixes, longest first and alphabetical within a length: the
    order in which `tokenize_suffix` tries them."""

    def __new__(cls, suffixes: Iterable[str]):
        return super().__new__(cls, sorted(set(suffixes), key=lambda s: (-len(s), s)))


def tokenize_suffix(text: str, suffixes: Iterable[str]) -> list[str]:
    """Split each word into root + suffix using the longest matching suffix.

    A suffix applies only when it matches the end of the word and leaves a
    root of at least MIN_ROOT_LEN characters; the split is applied once per
    word (no recursive stripping). The suffix token is emitted with a '-'
    prefix so later stages can tell it apart from a free word. The
    function from `tokenizer` passes its suffixes already in that order, so
    they are not sorted again on every call.
    """
    by_length = suffixes if isinstance(suffixes, _LongestFirst) else _LongestFirst(suffixes)
    out: list[str] = []
    for token in text.split():
        for suffix in by_length:
            if len(token) - len(suffix) >= MIN_ROOT_LEN and token.endswith(suffix):
                out.append(token[: -len(suffix)])
                out.append("-" + suffix)
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
    """Join tokens with spaces, re-attaching '-'-prefixed suffix tokens to the previous word."""
    parts: list[str] = []
    for tok in tokens:
        if tok.startswith("-") and len(tok) > 1:
            if not parts:
                raise ValueError(f"token sequence begins with suffix token {tok!r}")
            parts[-1] += tok[1:]
        else:
            parts.append(tok)
    return " ".join(parts)
