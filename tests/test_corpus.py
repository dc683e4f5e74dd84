import json
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ettmt.corpus import (
    _CHAR_MAP,
    _TRANSCRIPTION,
    _normalize_with_stats,
    FEATURE_NAMES,
    LexiconEntry,
    ParallelCorpus,
    Inscription,
    load_corpus,
    load_lexicon,
    load_suffixes,
    normalize,
    normalize_english,
    read_tsv,
    save_corpus,
    split_corpus,
    write_tsv,
)
from ettmt.errors import DataError
from oracles import former_normalize_english, former_normalize_with_stats


class TestNormalize:
    def test_theta_digraph(self):
        assert normalize("mi karkanas θahvna") == "mi karkanas thahvna"

    def test_empty(self):
        assert normalize("") == ""

    def test_separators_collapse(self):
        # hand application of the separator rule: '·' and ':' both become one space
        assert normalize("cleusinas : laris · larisal") == "cleusinas laris larisal"

    def test_full_symbol_set(self):
        assert normalize("φ χ θ") == "ph kh th"
        assert normalize("σa ς") == "sa s"
        assert normalize("śa") == "sha"

    def test_sigma_with_apostrophe_is_sh(self):
        assert normalize("eca : σ'uθic : velus") == "eca shuthic velus"

    def test_s_with_combining_acute(self):
        assert normalize("fulu.ς́.la") == "fulushla"

    def test_pipe_is_separator_and_dots_drop(self):
        assert normalize("mi numar | θevru.c.l.na.s.") == "mi numar thevruclnas"

    def test_damage_hyphens_kept(self):
        assert normalize("--an cla- -l--") == "--an cla- -l--"

    def test_unmappable_dropped(self):
        assert normalize("ab9!éc") == "abc"

    def test_uppercase_folds(self):
        assert normalize("MI ΘAHVNA") == "mi thahvna"

    def test_replacements_hold_no_mapped_glyph(self):
        # so the replace passes give one result in any order
        glyphs = {glyph for glyph, _ in _TRANSCRIPTION}
        assert all(len(glyph) == 1 for glyph in glyphs)
        assert not glyphs & set("".join(replacement for _, replacement in _TRANSCRIPTION))

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_output_alphabet(self, text):
        out = normalize(text)
        assert set(out) <= set("abcdefghijklmnopqrstuvwxyz -")
        assert out == out.strip()
        assert "  " not in out


class TestNormalizeEnglish:
    def test_lowercase_and_punct(self):
        assert normalize_english("Don't take me. I (am) nunar!") == "dont take me i am nunar"

    def test_digits_kept(self):
        assert normalize_english("room 12, side B") == "room 12 side b"


def _first_difference(package, former, prefix="", suffix=""):
    """The first prefix + c + suffix, over every code point c a str can hold (surrogates cannot be
    NFC-normalized), on which package and former disagree; None if none. Compared in blocks to bound memory."""
    for lo in range(0, 0x110000, 1 << 16):
        texts = [prefix + chr(c) + suffix for c in range(lo, lo + (1 << 16)) if not 0xD800 <= c <= 0xDFFF]
        if list(map(package, texts)) != list(map(former, texts)):
            return next(t for t in texts if package(t) != former(t))
    return None


# the glyphs normalization treats specially, their capitals, and characters around them
_MAPPED = "".join(_CHAR_MAP) + "ΘΦΧΣϴ" + "·:⋮|" + "sS"
_MARKS = "\u0301'’´ʹ\u033d\u0300\u0307"
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\xa0\u1680\u2003\u2028\u202f\u3000"
_UNMAPPED = "9!é?İẞÅſϲ\u200b\ufeff"


class TestFormerNormalization:
    """The table-and-regex normalization equals the former per-character loop, text and dropped count."""

    @pytest.mark.parametrize("prefix, suffix", [("", ""), ("s", ""), ("σ", ""), ("ς", ""), ("a", "b")],
                             ids=["alone", "after-s", "after-sigma", "after-final-sigma", "between-letters"])
    def test_every_code_point(self, prefix, suffix):
        assert _first_difference(_normalize_with_stats, former_normalize_with_stats, prefix, suffix) is None

    def test_every_code_point_english(self):
        assert _first_difference(normalize_english, former_normalize_english) is None

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.text(st.sampled_from(_MAPPED + _MARKS + _WHITESPACE + string.printable + _UNMAPPED)
                   | st.characters(exclude_categories=("Cs",)), max_size=40))
    def test_mixed_strings(self, text):
        assert _normalize_with_stats(text) == former_normalize_with_stats(text)
        assert normalize_english(text) == former_normalize_english(text)


def _write_corpus_tsv(path, rows):
    lines = ["id\tsource\tetruscan\tenglish\tdate\tlocation"]
    lines += ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCorpus:
    def test_three_rows(self, tmp_path):
        p = tmp_path / "c.tsv"
        _write_corpus_tsv(
            p,
            [
                ("a1", "ETP", "mi θahvna", "I am the container", "", ""),
                ("a2", "ETP", "cleusinas : laris", "Laris Cleusinas", "-500", "Tarquinia"),
                ("a3", "CIEP", "tularspu", "boundaries", "", ""),
            ],
        )
        corpus, report = load_corpus(p)
        assert len(corpus) == 3
        assert corpus.items[0].etruscan_norm == "mi thahvna"
        assert corpus.items[0].english == "i am the container"
        assert corpus.items[1].date == "-500"
        assert report.rows_read == 3 and report.rows_kept == 3

    def test_empty_after_normalization_dropped(self, tmp_path):
        p = tmp_path / "c.tsv"
        _write_corpus_tsv(
            p,
            [
                ("a1", "ETP", "···", "nothing", "", ""),
                ("a2", "ETP", "mi", "me", "", ""),
            ],
        )
        corpus, report = load_corpus(p)
        assert len(corpus) == 1
        assert report.rows_dropped == 1
        assert "a1" in report.summary()

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "c.tsv"
        _write_corpus_tsv(p, [("a1", "ETP", "mi", "", "", ""), ("a1", "ETP", "zi", "", "", "")])
        with pytest.raises(DataError, match=re.escape(f"{p}, line 3: duplicate inscription id 'a1' (first on line 2)")):
            load_corpus(p)

    def test_duplicate_id_json(self, tmp_path):
        p = tmp_path / "c.json"
        rows = [{"id": i, "source": "ETP", "etruscan": e} for i, e in (("a1", "mi"), ("b2", "zi"), ("a1", "ca"))]
        p.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{p}, entry 3: duplicate inscription id 'a1' (first on entry 1)")):
            load_corpus(p)

    def test_duplicate_id_of_a_dropped_row_loads(self, tmp_path):
        # only kept rows count: a row that normalizes to nothing may share an id
        p = tmp_path / "c.tsv"
        _write_corpus_tsv(p, [("a1", "ETP", "mi", "", "", ""), ("a1", "ETP", "···", "", "", "")])
        corpus, report = load_corpus(p)
        assert [i.id for i in corpus] == ["a1"] and report.rows_dropped == 1

    def test_bad_source(self, tmp_path):
        p = tmp_path / "c.tsv"
        _write_corpus_tsv(p, [("a1", "XYZ", "mi", "", "", "")])
        with pytest.raises(DataError, match="line 2"):
            load_corpus(p)

    def test_json_roundtrip_identical(self, tmp_path):
        p = tmp_path / "c.json"
        rows = [
            {"id": "a1", "source": "ETP", "etruscan": "mi θahvna", "english": "Me!", "date": "", "location": ""},
            {"id": "a2", "source": "CIEP", "etruscan": "vis--l", "english": "", "date": "", "location": "x"},
        ]
        p.write_text(json.dumps(rows), encoding="utf-8")
        corpus, _ = load_corpus(p, fmt="json")
        out = tmp_path / "out.tsv"
        save_corpus(corpus, out)
        again, _ = load_corpus(out)
        key = lambda c: [(i.id, i.source, i.etruscan_norm, i.english, i.date, i.location) for i in c]
        assert key(again) == key(corpus)

    def test_format_follows_json_extension(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('[{"id": "a1", "source": "ETP", "etruscan": "mi", "english": "me"}]', encoding="utf-8")
        corpus, _ = load_corpus(p)
        assert [(i.id, i.etruscan_norm, i.english) for i in corpus] == [("a1", "mi", "me")]
        out = tmp_path / "o.json"
        save_corpus(corpus, out)
        assert json.loads(out.read_text(encoding="utf-8"))[0]["etruscan"] == "mi"

    @pytest.mark.parametrize("key", ["id", "source", "etruscan", "english", "date", "location"])
    @pytest.mark.parametrize("value", [7, True, ["mi"]], ids=["int", "bool", "list"])
    def test_json_value_not_a_string(self, tmp_path, key, value):
        p = tmp_path / "c.json"
        rows = [{"id": "a1", "source": "ETP", "etruscan": "mi", "english": "", "date": "", "location": ""}] * 2
        rows = [rows[0], {**rows[1], "id": "a2", key: value}]
        p.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"entry 2: {key} must be a string, not {type(value).__name__}")):
            load_corpus(p, fmt="json")

    def test_json_null_value_counts_as_absent(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('[{"id": "a1", "source": "ETP", "etruscan": "mi", "english": null, "date": null}]',
                     encoding="utf-8")
        corpus, _ = load_corpus(p, fmt="json")
        assert [(i.english, i.date, i.location) for i in corpus] == [(None, None, None)]

    def test_unmappable_counted(self, tmp_path):
        p = tmp_path / "c.tsv"
        _write_corpus_tsv(p, [("a1", "ETP", "mi?!9", "", "", "")])
        _, report = load_corpus(p)
        assert report.dropped_chars == 3


class TestLoadLexicon:
    def _write(self, path, rows, n_features=54):
        header = "etruscan\tenglish\t" + "\t".join(f"f{i}" for i in range(1, n_features + 1))
        lines = [header]
        for ett, eng, feats in rows:
            lines.append("\t".join([ett, eng] + [str(x) for x in feats]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_basic_entry(self, tmp_path):
        p = tmp_path / "lex.tsv"
        feats = [0] * 54
        feats[8] = 1
        self._write(p, [("clan", "son", feats)])
        lex = load_lexicon(p)
        assert lex.entries[0].etruscan == "clan"
        assert lex.entries[0].english == "son"
        assert lex.entries[0].features[8] == 1
        assert lex.entries[0].translatable

    def test_wrong_feature_count(self, tmp_path):
        p = tmp_path / "lex.tsv"
        self._write(p, [("clan", "son", [0] * 53)], n_features=53)
        with pytest.raises(DataError):
            load_lexicon(p)

    @pytest.mark.parametrize("value", ["2", "", "yes", "01", "1.0"])
    def test_bad_feature_cell_in_any_column(self, tmp_path, value):
        p = tmp_path / "lex.tsv"
        for k in range(1, 55):
            feats = ["0"] * 54
            feats[k - 1] = value
            self._write(p, [("clan", "son", ["1"] * 54), ("mi", "i", feats)])
            with pytest.raises(DataError, match=re.escape(f"{p}, line 3: feature f{k} must be 0/1, got {value!r}")):
                load_lexicon(p)

    def test_first_bad_feature_cell_reported(self, tmp_path):
        p = tmp_path / "lex.tsv"
        self._write(p, [("clan", "son", ["0"] * 10 + ["x", "1", "y"] + ["0"] * 41)])
        with pytest.raises(DataError, match=re.escape(f"{p}, line 2: feature f11 must be 0/1, got 'x'")):
            load_lexicon(p)

    def test_feature_cells_padded_with_spaces_load(self, tmp_path):
        p = tmp_path / "lex.tsv"
        self._write(p, [("clan", "son", [" 1", "0 ", " 0 ", "\xa01\u3000"] + ["0"] * 50)])
        assert load_lexicon(p).entries[0].features == (1, 0, 0, 1) + (0,) * 50

    def test_empty_gloss_flagged(self, tmp_path):
        p = tmp_path / "lex.tsv"
        self._write(p, [("dlniiaras", "", [0] * 54)])
        lex = load_lexicon(p)
        assert not lex.entries[0].translatable

    def test_suffix_file(self, tmp_path):
        p = tmp_path / "lex.tsv"
        self._write(p, [("clan", "son", [0] * 54)])
        s = tmp_path / "suffixes.txt"
        s.write_text("us\ns\nal\n\n", encoding="utf-8")
        lex = load_lexicon(p, s)
        assert lex.suffixes == ("us", "s", "al")

    def test_feature_names_complete(self):
        assert len(FEATURE_NAMES) == 54

    def test_name_flags(self):
        feats = [0] * 54
        feats[FEATURE_NAMES.index("epithet")] = 1
        assert not LexiconEntry("x", "y", tuple(feats)).is_name
        feats = [0] * 54
        feats[FEATURE_NAMES.index("praenomen")] = 1
        assert LexiconEntry("x", "y", tuple(feats)).is_name


class TestTsv:
    def test_whitespace_only_lines_skipped(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tb\n\n\t\n \t \t\n1\t2\r\n\n3\t\"4\\\n", encoding="utf-8")
        assert read_tsv(p, 2) == (["a", "b"], [(5, ["1", "2"]), (7, ["3", '"4\\'])])

    def test_tabs_only_corpus_line_skipped(self, tmp_path):
        p = tmp_path / "c.tsv"
        _write_corpus_tsv(p, [("a1", "ETP", "mi", "me", "", ""), ("", "", "", "", "", ""), ("a2", "ETP", "zi", "", "", "")])
        corpus, report = load_corpus(p)
        assert [i.id for i in corpus] == ["a1", "a2"] and report.rows_read == 2

    @pytest.mark.parametrize("text", ["", "a\n", "a\tb\tc\n"], ids=["empty", "narrow", "wide"])
    def test_header_width(self, tmp_path, text):
        p = tmp_path / "t.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{p}, line 1: expected a header of 2 columns, got ")):
            read_tsv(p, 2)

    def test_oversized_cell_is_data_error(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tb\n1\t" + "x" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{p}, line 2: field larger than field limit")):
            read_tsv(p, 2)

    def test_write_replaces_tabs_and_line_breaks(self, tmp_path):
        p = tmp_path / "t.tsv"
        write_tsv(p, ("a", "b"), [("x\ty", "1\n2\r3"), ("", "z")])
        assert p.read_bytes() == b"a\tb\nx y\t1 2 3\n\tz\n"
        assert read_tsv(p, 2) == (["a", "b"], [(2, ["x y", "1 2 3"]), (3, ["", "z"])])


def _corpus(n, translated=True):
    items = tuple(
        Inscription(
            id=f"i{k}",
            source="ETP",
            etruscan_raw=f"tok{k}",
            etruscan_norm=f"tok{k}",
            english=f"word{k}" if translated else None,
        )
        for k in range(n)
    )
    return ParallelCorpus(items, name="synthetic")


class TestSplitCorpus:
    def test_sizes(self):
        train, test = split_corpus(_corpus(10), 0.8, seed=0)
        assert len(train) == 8 and len(test) == 2

    def test_floor(self):
        train, test = split_corpus(_corpus(5), 0.95, seed=0)
        assert len(train) == 4 and len(test) == 1

    def test_deterministic(self):
        a = split_corpus(_corpus(10), 0.8, seed=7)
        b = split_corpus(_corpus(10), 0.8, seed=7)
        assert [i.id for i in a[0]] == [i.id for i in b[0]]
        assert [i.id for i in a[1]] == [i.id for i in b[1]]

    def test_partition(self):
        corpus = _corpus(11)
        train, test = split_corpus(corpus, 0.8, seed=3)
        train_ids = {i.id for i in train}
        test_ids = {i.id for i in test}
        assert train_ids | test_ids == {i.id for i in corpus}
        assert not (train_ids & test_ids)

    def test_too_small(self):
        with pytest.raises(DataError):
            split_corpus(_corpus(1), 0.8, seed=0)

    def test_untranslated_rejected(self):
        with pytest.raises(DataError):
            split_corpus(_corpus(5, translated=False), 0.8, seed=0)
