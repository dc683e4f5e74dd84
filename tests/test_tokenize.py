import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ettmt.errors import DataError
from ettmt.tokenize import detokenize, tokenize_suffix, tokenize_whitespace, tokenizer

# normalized strings whose words do not begin with '-' (a leading hyphen is
# reserved for suffix tokens, so such words cannot round-trip)
words = st.from_regex(r"[a-z][a-z-]{0,8}", fullmatch=True)
normalized_texts = st.lists(words, max_size=8).map(" ".join)


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
