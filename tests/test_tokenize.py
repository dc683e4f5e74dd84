import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ettmt.errors import DataError
from ettmt.tokenize import MIN_ROOT_LEN, _LongestFirst, detokenize, tokenize_suffix, tokenize_whitespace, tokenizer
from oracles import former_tokenize_suffix

# normalized strings whose words do not begin with '-' (a leading hyphen is
# reserved for suffix tokens, so such words cannot round-trip)
words = st.from_regex(r"[a-z][a-z-]{0,8}", fullmatch=True)
normalized_texts = st.lists(words, max_size=8).map(" ".join)

# a few letters, so that suffixes overlap and share lengths, with non-ASCII
# ones and U+10300 (Old Italic A), which lies outside the Basic Multilingual Plane
LETTERS = "aelsuθś\U00010300"
letter_strings = st.text(alphabet=LETTERS, min_size=1, max_size=2 * MIN_ROOT_LEN + 2)


@st.composite
def texts_and_suffixes(draw):
    """Words and a suffix list holding tails of those words as well as free draws.

    A tail of every length up to the whole word lands on both sides of the
    MIN_ROOT_LEN boundary; suffix lists may repeat a suffix.
    """
    text_words = draw(st.lists(letter_strings, max_size=6))
    suffixes = draw(st.lists(st.text(alphabet=LETTERS, min_size=1, max_size=4), max_size=6))
    for word in text_words:
        suffixes.append(word[-draw(st.integers(1, len(word))):])
    return " ".join(text_words), draw(st.permutations(suffixes))


class TestWhitespace:
    def test_basic(self):
        assert tokenize_whitespace("mi karkanas thahvna") == ["mi", "karkanas", "thahvna"]

    def test_empty(self):
        assert tokenize_whitespace("") == []

    def test_six_tokens(self):
        assert len(tokenize_whitespace("eca shuthic velus ezpus clensi cerine")) == 6


class TestSuffix:
    def test_longest_match(self):
        assert tokenize_suffix("velus", ["us", "s"]) == ["vel", "-us"]

    @pytest.mark.parametrize("text, suffixes, want", [
        ("velus clenus", ["s", "us", "lus", "nus"], ["ve", "-lus", "cle", "-nus"]),
        ("velus larthas avil", ["as", "us", "il"], ["vel", "-us", "larth", "-as", "av", "-il"]),
    ], ids=["overlapping", "one-length"])
    def test_longest_match_among_alternatives(self, text, suffixes, want):
        assert tokenize_suffix(text, suffixes) == want

    def test_min_root_guard(self):
        # root "m" would be one character, so "mi" stays whole
        assert tokenize_suffix("mi", ["us", "s"]) == ["mi"]

    def test_empty(self):
        assert tokenize_suffix("", ["us", "s"]) == []

    def test_single_application(self):
        # no recursive stripping: "-us" is not re-scanned after the split
        assert tokenize_suffix("larisalus", ["us", "al"]) == ["larisal", "-us"]

    def test_whole_word_not_a_suffix(self):
        assert tokenize_suffix("us", ["us"]) == ["us"]

    def test_empty_suffix_list_is_whitespace(self):
        text = "mi karkanas thahvna"
        assert tokenize_suffix(text, []) == tokenize_whitespace(text)

    @settings(max_examples=200)
    @given(normalized_texts)
    def test_empty_suffix_list_property(self, text):
        assert tokenize_suffix(text, []) == tokenize_whitespace(text)

    def test_empty_suffix_rejected(self):
        # an empty suffix would split every word into itself and an empty root: ['', '-', '', '-']
        for suffixes in ([""], ["us", ""]):
            with pytest.raises(ValueError, match="must not be empty"):
                tokenize_suffix("larth velus", suffixes)

    def test_root_length_boundary(self):
        suffixes = ["θś", "\U00010300θś"]
        root = "a" * MIN_ROOT_LEN
        assert tokenize_suffix(root + "\U00010300θś", suffixes) == [root, "-\U00010300θś"]
        assert tokenize_suffix(root[1:] + "\U00010300θś", suffixes) == [root[1:] + "\U00010300", "-θś"]
        assert tokenize_suffix(root[1:] + "θś", suffixes) == [root[1:] + "θś"]

    @settings(max_examples=500)
    @given(texts_and_suffixes())
    def test_equal_to_former_endswith_loop(self, case):
        text, suffixes = case
        want = former_tokenize_suffix(text, suffixes)
        assert tokenize_suffix(text, suffixes) == want
        assert tokenize_suffix(text, _LongestFirst(suffixes)) == want


class TestTokenizer:
    def test_whitespace(self):
        assert tokenizer("whitespace") is tokenize_whitespace

    def test_suffix_reads_suffix_file(self, tmp_path):
        path = tmp_path / "suffixes.txt"
        path.write_text("s\nus\n", encoding="utf-8")
        assert tokenizer("suffix", path)("velus mi") == ["vel", "-us", "mi"]

    def test_suffix_needs_a_nonempty_suffix_file(self, tmp_path):
        with pytest.raises(DataError, match="needs a suffix file"):
            tokenizer("suffix")
        path = tmp_path / "suffixes.txt"
        path.write_text("\n  \n", encoding="utf-8")
        with pytest.raises(DataError, match="no suffixes"):
            tokenizer("suffix", path)

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown tokenizer 'bpe'"):
            tokenizer("bpe")


class TestDetokenize:
    def test_plain_join(self):
        assert detokenize(["mi", "karkanas"]) == "mi karkanas"

    def test_suffix_reattach(self):
        assert detokenize(["vel", "-us"]) == "velus"

    def test_leading_suffix_errors(self):
        with pytest.raises(ValueError):
            detokenize(["-us"])

    @settings(max_examples=300)
    @given(normalized_texts)
    def test_whitespace_roundtrip(self, text):
        assert detokenize(tokenize_whitespace(text)) == text

    @settings(max_examples=300)
    @given(normalized_texts, st.lists(st.from_regex(r"[a-z]{1,4}", fullmatch=True), max_size=6))
    def test_suffix_roundtrip(self, text, suffixes):
        assert detokenize(tokenize_suffix(text, suffixes)) == text
