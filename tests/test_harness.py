import copy
import json

import numpy as np
import pytest

from ettmt.cli import cli_dispatch
from ettmt.errors import BenchmarkError, DataError
from ettmt.harness import BenchmarkConfig, format_table, run_benchmark

from conftest import NAME_ENTRIES, SUFFIXES, WORD_ENTRIES


def write_corpus(path, n=12, translated=True):
    """Tiny deterministic corpus over the fixture vocabulary."""
    sentences = [
        ("itun turuce venel", "venel dedicated this"),
        ("mi aveles", "i am of avele"),
        ("mi larthes clan", "i am the son of larth"),
        ("itun turuce atelinas", "atelina dedicated this"),
        ("mi thahvna", "i am the container"),
        ("venel turuce itun tinas", "venel dedicated this to tinia"),
    ]
    rows = ["id\tsource\tetruscan\tenglish\tdate\tlocation"]
    for k in range(n):
        ett, eng = sentences[k % len(sentences)]
        rows.append(f"e{k}\tETP\t{ett}\t{eng if translated else ''}\t\t")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_lexicon(path, suffix_path=None):
    header = "etruscan\tenglish\t" + "\t".join(f"f{i}" for i in range(1, 55))
    rows = [header]
    for ett, eng, feats in WORD_ENTRIES + NAME_ENTRIES:
        rows.append("\t".join([ett, eng] + [str(x) for x in feats]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    if suffix_path is not None:
        suffix_path.write_text("\n".join(SUFFIXES) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def corpus_file(tmp_path):
    return write_corpus(tmp_path / "corpus.tsv")


@pytest.fixture
def lexicon_file(tmp_path):
    return write_lexicon(tmp_path / "lexicon.tsv", tmp_path / "suffixes.txt")


class TestRunBenchmark:
    def test_aggregation_arithmetic(self):
        from ettmt.harness import _aggregate

        mean, std = _aggregate([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(2.0 ** 0.5, abs=1e-9)

    def test_single_run_flagged(self, corpus_file, lexicon_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            lexicon=str(lexicon_file),
            models=[{"family": "dict"}],
            repeats=1,
            full_eval=True,
        )
        result = run_benchmark(cfg)
        assert result.results[0].single_run
        assert result.results[0].std["bleu"] == 0.0

    def test_deterministic_output(self, corpus_file, lexicon_file):
        cfg = dict(
            corpus=str(corpus_file),
            lexicon=str(lexicon_file),
            models=[{"family": "random"}, {"family": "ibm1", "iterations": 4}],
            repeats=3,
            seed=5,
        )
        one = run_benchmark(BenchmarkConfig(**cfg)).to_json(include_wall_clock=False)
        two = run_benchmark(BenchmarkConfig(**cfg)).to_json(include_wall_clock=False)
        assert one == two

    def test_mean_matches_runs(self, corpus_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            models=[{"family": "random"}],
            repeats=4,
        )
        res = run_benchmark(cfg).results[0]
        values = [r["bleu"] for r in res.runs]
        assert res.mean["bleu"] == pytest.approx(sum(values) / len(values), abs=1e-9)

    def test_full_eval_uses_whole_corpus(self, corpus_file, lexicon_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            lexicon=str(lexicon_file),
            models=[{"family": "dict"}],
            repeats=2,
            full_eval=True,
        )
        res = run_benchmark(cfg).results[0]
        assert all(r["n_pairs"] == 12 for r in res.runs)
        # deterministic model on a fixed set: zero spread
        assert res.std["bleu"] == 0.0

    def test_augmented_training(self, corpus_file, lexicon_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            lexicon=str(lexicon_file),
            models=[{"family": "ibm1", "iterations": 2}],
            repeats=2,
            augment={"max_name_replacements": 1, "damage_prob": 0.2, "damage_iterations": 1},
        )
        result = run_benchmark(cfg)
        assert len(result.results[0].runs) == 2

    def test_stage_error_names_run_and_stage(self, corpus_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            models=[{"family": "dict"}],  # no lexicon provided
            repeats=1,
        )
        with pytest.raises(BenchmarkError, match="run 0, stage 'train'"):
            run_benchmark(cfg)

    def test_suffix_tokenizer_path(self, corpus_file, lexicon_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            lexicon=str(lexicon_file),
            suffix_file=str(lexicon_file.parent / "suffixes.txt"),
            models=[{"family": "dict"}],
            tokenizer="suffix",
            repeats=1,
            full_eval=True,
        )
        result = run_benchmark(cfg)
        assert result.results[0].runs

    def test_suffix_tokenizer_without_lexicon(self, corpus_file, lexicon_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            suffix_file=str(lexicon_file.parent / "suffixes.txt"),
            models=[{"family": "ngram"}],
            tokenizer="suffix",
            repeats=1,
        )
        assert run_benchmark(cfg).results[0].runs

    def test_empty_suffix_file_fails_at_setup(self, tmp_path, corpus_file):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n", encoding="utf-8")
        cfg = BenchmarkConfig(corpus=str(corpus_file), suffix_file=str(empty), tokenizer="suffix",
                              models=[{"family": "random"}], repeats=1)
        with pytest.raises(BenchmarkError, match="run setup, stage 'tokenizer': .*: no suffixes"):
            run_benchmark(cfg)

    def test_models_share_each_repeats_preparation(self, monkeypatch, corpus_file, lexicon_file):
        # each model's runs are the same alone, first or last, and no model
        # changes the training pairs or test sources that the others share
        from ettmt import harness

        shared = []
        train, translate = harness.train_model, harness.translate

        def spy_train(model_cfg, pairs, *args):
            shared.append((pairs, copy.deepcopy(pairs)))
            return train(model_cfg, pairs, *args)

        def spy_translate(family, model, tokens, **kwargs):
            shared.append((tokens, list(tokens)))
            return translate(family, model, tokens, **kwargs)

        monkeypatch.setattr(harness, "train_model", spy_train)
        monkeypatch.setattr(harness, "translate", spy_translate)
        models = [
            {"family": "ngram", "n": 2, "context_mode": "ett-eng"},
            {"family": "random"},
            {"family": "ibm1", "iterations": 2, "use_lexicon": True},
            {"family": "naive-bayes"},
            {"family": "dict"},
            {"family": "ibm2", "iterations": 2},
        ]

        def results(order):
            cfg = BenchmarkConfig(corpus=str(corpus_file), lexicon=str(lexicon_file), models=order, repeats=3,
                                  augment={"max_name_replacements": 1, "damage_prob": 0.3})
            return [
                (res.label, [{k: v for k, v in run.items() if k != "wall_clock"} for run in res.runs])
                for res in run_benchmark(cfg).results
            ]

        forward = results(models)
        assert [label for label, _ in forward] == ["ngram:n=2:ett-eng", "random", "ibm1:with-lexicon",
                                                    "naive-bayes:n=2:ett", "dict", "ibm2"]
        assert results(models[::-1]) == forward[::-1]
        assert [results([model])[0] for model in models] == forward
        assert all(value == before for value, before in shared)

    def test_each_repeat_augmented_once(self, monkeypatch, corpus_file, lexicon_file):
        from ettmt import harness

        seeds = []
        augment = harness.augment_pairs
        monkeypatch.setattr(harness, "augment_pairs", lambda *args: seeds.append(args[2].seed) or augment(*args))
        cfg = BenchmarkConfig(corpus=str(corpus_file), lexicon=str(lexicon_file), repeats=3, seed=4,
                              models=[{"family": "ibm1", "iterations": 2}, {"family": "random"}],
                              augment={"damage_prob": 0.2})
        run_benchmark(cfg)
        assert seeds == [4, 5, 6]

    def test_table_layout(self, corpus_file, lexicon_file):
        cfg = BenchmarkConfig(
            corpus=str(corpus_file),
            lexicon=str(lexicon_file),
            models=[{"family": "dict"}, {"family": "random"}],
            repeats=2,
            full_eval=True,
        )
        table = format_table(run_benchmark(cfg))
        assert "BLEU" in table and "chr-F" in table and "TER" in table
        assert "dict" in table and "random" in table
        assert "(" in table  # std rows

    @pytest.mark.parametrize("family", ["ibm1", "ibm2"])
    def test_null_lexicon_entry_rejected(self, family):
        from ettmt.corpus import N_FEATURES, Lexicon, LexiconEntry
        from ettmt.modelio import train_model

        lexicon = Lexicon((LexiconEntry("<null>", "nothing", (0,) * N_FEATURES),))
        pairs = [(["mi"], ["i", "am"])]
        with pytest.raises(DataError, match="reserved"):
            train_model({"family": family, "use_lexicon": True}, pairs, lexicon, str.split)

    def test_default_naive_bayes_label_and_training(self, corpus_file):
        from ettmt.modelio import model_label, train_model

        cfg = BenchmarkConfig(corpus=str(corpus_file), models=[{"family": "naive-bayes"}], repeats=1)
        assert run_benchmark(cfg).results[0].label == "naive-bayes:n=2:ett"
        model = train_model({"family": "naive-bayes"}, [(["mi"], ["i", "am"])], None, str.split)
        assert model.n == 2
        assert model_label({"family": "ngram", "ordered": False}) == "ngram:n=1:ett:unordered"
        assert model_label({"family": "ibm2", "use_lexicon": True}) == "ibm2:with-lexicon"

    @pytest.mark.parametrize(
        "extra, loads",
        [
            ({"models": [{"family": "ngram", "n": 2}, {"family": "naive-bayes"}]}, False),
            ({"models": [{"family": "ibm1"}]}, False),
            ({"models": [{"family": "ibm1", "use_lexicon": True}]}, True),
            ({"models": [{"family": "random"}, {"family": "dict"}]}, True),
            ({"models": [{"family": "ngram"}], "augment": {"damage_prob": 0.1}}, True),
            ({"models": [{"family": "ngram"}], "tokenizer": "suffix"}, False),
        ],
        ids=["ngram-only", "ibm-without-lexicon", "ibm-with-lexicon", "dict", "augment", "suffix-tokenizer"],
    )
    def test_lexicon_loaded_only_when_used(self, monkeypatch, corpus_file, lexicon_file, extra, loads):
        from ettmt import harness

        calls = []
        load = harness.load_lexicon
        monkeypatch.setattr(harness, "load_lexicon", lambda *args: calls.append(args) or load(*args))
        cfg = BenchmarkConfig(corpus=str(corpus_file), lexicon=str(lexicon_file),
                              suffix_file=str(lexicon_file.parent / "suffixes.txt"), repeats=1, **extra)
        run_benchmark(cfg)
        assert len(calls) == int(loads)

    def test_config_file_roundtrip(self, tmp_path, corpus_file):
        doc = {"corpus": str(corpus_file), "model": {"family": "random"}, "repeats": 2, "seed": 3}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = BenchmarkConfig.from_json(cfg_path)
        assert cfg.models == [{"family": "random"}]
        assert cfg.seed == 3

    def test_unknown_config_key_rejected(self, tmp_path, corpus_file):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"corpus": str(corpus_file), "zzz": 1}), encoding="utf-8")
        from ettmt.errors import DataError

        with pytest.raises(DataError, match="zzz"):
            BenchmarkConfig.from_json(cfg_path)


class TestConfigChecks:
    @pytest.mark.parametrize(
        "models, message",
        [
            ({"family": "dict"}, "non-empty list"),
            ([], "non-empty list"),
            ([{"family": "dict"}, "ibm1"], "model 1: a model config must be an object"),
            ([{"iterations": 3}], "model 0: no 'family'"),
            ([{"family": "Dict"}], "unknown family 'Dict'"),
        ],
    )
    def test_bad_models_rejected(self, corpus_file, models, message):
        with pytest.raises(DataError, match=message):
            BenchmarkConfig(corpus=str(corpus_file), models=models)

    @pytest.mark.parametrize(
        "value, default, ok",
        [(2, 1, True), (True, 1, False), (2, 1.0, True), (2.0, 1, False), (1, False, False), ("2", 1, False)],
    )
    def test_type_rule(self, value, default, ok):
        from ettmt.modelio import check_type

        if ok:
            check_type("key", value, default)
        else:
            with pytest.raises(DataError, match="key must be"):
                check_type("key", value, default)

    def test_settings_lay_config_over_defaults(self):
        from ettmt.modelio import FAMILIES, settings

        assert settings({"family": "ngram", "n": 3}) == {**FAMILIES["ngram"].defaults, "n": 3}
        assert settings({"family": "dict"}) == {}
        with pytest.raises(DataError, match="ibm1 has no key 'iteration'"):
            settings({"family": "ibm1", "iteration": 1})

    def test_every_family_accepted(self, corpus_file):
        from ettmt.modelio import FAMILIES

        cfg = BenchmarkConfig(corpus=str(corpus_file), models=[{"family": f} for f in FAMILIES])
        assert [m["family"] for m in cfg.models] == list(FAMILIES)


class TestModelFiles:
    SOURCES = ["mi aveles", "itun turuce venel", "venel zilath tinas", "mi larthes clan itun", ""]

    @pytest.mark.parametrize(
        "model_cfg",
        [
            {"family": "random"},
            {"family": "dict"},
            {"family": "ngram"},
            {"family": "ngram", "n": 2, "context_mode": "ett-eng", "ordered": False},
            {"family": "naive-bayes"},
            {"family": "naive-bayes", "n": 1, "context_mode": "ett-eng", "alpha": 0.5},
            {"family": "ibm1", "iterations": 3, "use_lexicon": True},
            {"family": "ibm2", "iterations": 3},
        ],
        ids=["random", "dict", "ngram", "ngram-ett-eng-unordered", "naive-bayes", "naive-bayes-ett-eng",
             "ibm1-lexicon", "ibm2"],
    )
    def test_saved_model_translates_like_trained_one(self, tmp_path, corpus_file, lexicon_file, model_cfg):
        # every file the trainers write passes the load checks, decodes as the model in memory does,
        # and is written again byte for byte from the loaded model
        from ettmt.corpus import load_corpus, load_lexicon
        from ettmt.modelio import load_model, save_model, train_model, translate
        from ettmt.tokenize import tokenizer

        corpus, _ = load_corpus(corpus_file)
        tok = tokenizer("whitespace")
        pairs = [(tok(i.etruscan_norm), i.english.split()) for i in corpus.translated()]
        family = model_cfg["family"]
        model = train_model(model_cfg, pairs, load_lexicon(lexicon_file), tok)
        for suffix in (".json", ".tsv") if family == "dict" else (".json",):
            path, again = tmp_path / f"model{suffix}", tmp_path / f"again{suffix}"
            save_model(family, model, path)
            loaded_family, loaded = load_model(path)
            assert loaded_family == family
            for src in self.SOURCES:
                expected = translate(family, model, src.split(), rng=np.random.default_rng(1))
                assert translate(family, loaded, src.split(), rng=np.random.default_rng(1)) == expected, src
            save_model(family, loaded, again)
            assert again.read_bytes() == path.read_bytes()


class TestCli:
    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        assert "command" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert cli_dispatch([]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        code = cli_dispatch(
            ["translate", "--model", str(tmp_path / "absent.json"), "--in", str(tmp_path / "x.txt")]
        )
        assert code == 2

    def test_normalize_writes_file(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "norm.tsv"
        assert cli_dispatch(["normalize", "--in", str(corpus_file), "--out", str(out)]) == 0
        assert out.exists()
        assert "rows" in capsys.readouterr().err

    def test_tokenize_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "text.txt"
        src.write_text("mi : aveles\n", encoding="utf-8")
        assert cli_dispatch(["tokenize", "--in", str(src)]) == 0
        assert capsys.readouterr().out.strip() == "mi aveles"

    def test_train_translate_evaluate_flow(self, tmp_path, corpus_file, lexicon_file, capsys):
        model = tmp_path / "model.json"
        assert (
            cli_dispatch(
                ["train", "--family", "ibm1", "--in", str(corpus_file), "--out", str(model),
                 "--iterations", "3"]
            )
            == 0
        )
        src = tmp_path / "src.txt"
        src.write_text("mi aveles\nitun turuce venel\n", encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        assert cli_dispatch(["translate", "--model", str(model), "--in", str(src), "--out", str(hyp)]) == 0
        assert hyp.exists()
        ref = tmp_path / "ref.txt"
        ref.write_text("i am of avele\nvenel dedicated this\n", encoding="utf-8")
        report_json = tmp_path / "report.json"
        assert cli_dispatch(
            ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--json", str(report_json)]
        ) == 0
        payload = json.loads(report_json.read_text())
        assert set(payload) == {"bleu", "chrf", "ter", "n_pairs"}
        assert "BLEU" in capsys.readouterr().out

    def test_train_dict_and_worked_example(self, tmp_path, corpus_file, lexicon_file, capsys):
        model = tmp_path / "dict.json"
        assert (
            cli_dispatch(
                ["train", "--family", "dict", "--in", str(corpus_file), "--out", str(model),
                 "--lexicon", str(lexicon_file)]
            )
            == 0
        )
        src = tmp_path / "src.txt"
        src.write_text("itun turuce venel atelinas tinas dlniiaras\n", encoding="utf-8")
        assert cli_dispatch(["translate", "--model", str(model), "--in", str(src)]) == 0
        assert capsys.readouterr().out.strip() == "this dedicated venel atelina tinia"

    def test_augment_subcommand(self, tmp_path, corpus_file, lexicon_file, capsys):
        out = tmp_path / "aug.tsv"
        code = cli_dispatch(
            ["augment", "--in", str(corpus_file), "--out", str(out),
             "--lexicon", str(lexicon_file), "--damage-iterations", "1", "--seed", "1"]
        )
        assert code == 0
        assert out.exists()
        text = out.read_text()
        assert text.count("\n") > 12  # expanded beyond the originals

    def test_augment_json_output_trains(self, tmp_path, corpus_file, lexicon_file):
        out = tmp_path / "aug.json"
        argv = ["augment", "--in", str(corpus_file), "--out", str(out), "--lexicon", str(lexicon_file)]
        assert cli_dispatch(argv) == 0
        assert out.read_text(encoding="utf-8").startswith("[")
        assert cli_dispatch(["train", "--family", "ngram", "--in", str(out), "--out", str(tmp_path / "m.json")]) == 0

    def test_augment_flags_default_to_augment_config(self, tmp_path, corpus_file, lexicon_file):
        base = ["augment", "--in", str(corpus_file), "--lexicon", str(lexicon_file)]
        assert cli_dispatch(base + ["--out", str(tmp_path / "a.tsv")]) == 0
        explicit = ["--name-replacements", "1", "--damage-prob", "0.1", "--damage-geom-p", "0.5",
                    "--damage-iterations", "1", "--seed", "0"]
        assert cli_dispatch(base + ["--out", str(tmp_path / "b.tsv")] + explicit) == 0
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_augment_out_of_range_flag_exits_2(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "aug.tsv"
        assert cli_dispatch(["augment", "--in", str(corpus_file), "--out", str(out), "--damage-prob", "2"]) == 2
        assert capsys.readouterr().err == "error: damage_prob must be in [0, 1]\n"
        assert not out.exists()

    @pytest.mark.parametrize("family", ["ngram", "random"])  # a beam family and one without beams
    def test_translate_beams_0_exits_2(self, tmp_path, corpus_file, capsys, family):
        model = tmp_path / "model.json"
        assert cli_dispatch(["train", "--family", family, "--in", str(corpus_file), "--out", str(model)]) == 0
        src = tmp_path / "src.txt"
        src.write_text("mi aveles\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_dispatch(["translate", "--model", str(model), "--in", str(src), "--beams", "0"]) == 2
        assert capsys.readouterr().err == "error: beam count must be >= 1, got 0\n"

    @pytest.mark.parametrize("family", ["random", "ngram", "naive-bayes", "ibm1", "ibm2"])
    def test_train_non_dict_to_tsv_exits_2(self, tmp_path, corpus_file, capsys, family, monkeypatch):
        # only a dict model has a TSV file; any other family's .tsv path fails before training
        import ettmt.cli

        monkeypatch.setattr(ettmt.cli, "train_model", lambda *args: pytest.fail("trained"))
        model = tmp_path / "m.tsv"
        assert cli_dispatch(["train", "--family", family, "--in", str(corpus_file), "--out", str(model)]) == 2
        assert capsys.readouterr().err == f"error: {model}: only the dict family has a TSV model file, not {family}\n"
        assert not model.exists()

    def test_empty_suffix_file_exits_2(self, tmp_path, capsys):
        text = tmp_path / "text.txt"
        text.write_text("mi aveles\n", encoding="utf-8")
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        argv = ["tokenize", "--in", str(text), "--tokenizer", "suffix"]
        assert cli_dispatch(argv) == 2
        assert capsys.readouterr().err == "error: the suffix tokenizer needs a suffix file\n"
        assert cli_dispatch(argv + ["--suffixes", str(empty)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: no suffixes\n"

    def test_benchmark_subcommand(self, tmp_path, corpus_file, lexicon_file, capsys):
        cfg = {
            "corpus": str(corpus_file),
            "lexicon": str(lexicon_file),
            "models": [{"family": "dict"}],
            "repeats": 2,
            "full_eval": True,
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp_path / "results"
        assert cli_dispatch(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "result.json").exists()
        assert (out_dir / "result.txt").exists()
        assert "dict" in capsys.readouterr().out

    def test_ngram_flags_flow(self, tmp_path, corpus_file, capsys):
        model = tmp_path / "ng.json"
        code = cli_dispatch(
            ["train", "--family", "ngram", "--n", "2", "--context", "ett", "--unordered",
             "--in", str(corpus_file), "--out", str(model)]
        )
        assert code == 0
        src = tmp_path / "src.txt"
        src.write_text("mi aveles\n", encoding="utf-8")
        assert cli_dispatch(["translate", "--model", str(model), "--in", str(src), "--beams", "4"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")

    @pytest.mark.parametrize("family", ["ngram", "naive-bayes"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda v: v[::-1], "not strictly sorted"),
            (lambda v: [t for t in v if t != "<eos>"], "lacks <eos>"),
        ],
        ids=["reversed", "no-eos"],
    )
    def test_model_with_bad_vocab_exits_2(self, tmp_path, corpus_file, capsys, family, edit, message):
        model = tmp_path / "model.json"
        assert cli_dispatch(["train", "--family", family, "--in", str(corpus_file), "--out", str(model)]) == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["payload"]["vocab"] = edit(doc["payload"]["vocab"])
        model.write_text(json.dumps(doc), encoding="utf-8")
        src = tmp_path / "src.txt"
        src.write_text("mi aveles\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_dispatch(["translate", "--model", str(model), "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    @pytest.mark.parametrize("family", ["ngram", "naive-bayes"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("alpha", 0, "alpha must be a finite number > 0, got 0"),
            ("n", 0, "n must be >= 1, got 0"),
            # n-gram count contexts and naive-Bayes slot tables sized for another n or context_mode
            ("n", 3, "do not fit n=3, ett:"),
            ("context_mode", "ett-eng", "do not fit n="),
            ("alpha", 1e308, "alpha 1e+308 is too large"),
        ],
        ids=["alpha-0", "n-0", "n-3-shape", "ett-eng-shape", "alpha-overflow"],
    )
    def test_model_with_bad_settings_exits_2(self, tmp_path, corpus_file, capsys, family, key, value, message):
        model = tmp_path / "model.json"
        assert cli_dispatch(["train", "--family", family, "--in", str(corpus_file), "--out", str(model)]) == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["payload"][key] = value
        model.write_text(json.dumps(doc), encoding="utf-8")
        src = tmp_path / "src.txt"
        src.write_text("mi aveles\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_dispatch(["translate", "--model", str(model), "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {model}: ")
        assert captured.err.count("\n") == 1 and message in captured.err

    def test_null_in_corpus_cannot_reach_training(self, tmp_path):
        # normalization keeps only a-z, space and '-', so no corpus token can
        # be the reserved "<null>" and training succeeds with one such row
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(
            "id\tsource\tetruscan\tenglish\tdate\tlocation\n"
            "e0\tETP\t<null> mi\ti am\t\t\n",
            encoding="utf-8",
        )
        model = tmp_path / "m1.json"
        assert cli_dispatch(["train", "--family", "ibm1", "--in", str(corpus), "--out", str(model)]) == 0
        from ettmt.modelio import load_model

        _, loaded = load_model(model)
        assert loaded.ttable.source_vocab == ("<null>", "mi", "null")

    def test_ibm2_model_file_flow(self, tmp_path, corpus_file):
        model = tmp_path / "m2.json"
        code = cli_dispatch(
            ["train", "--family", "ibm2", "--in", str(corpus_file), "--out", str(model),
             "--iterations", "2"]
        )
        assert code == 0
        from ettmt.modelio import load_model

        family, loaded = load_model(model)
        assert family == "ibm2"
        assert loaded.ttable.prob("mi", "i") >= 0.0
        assert loaded.align.blocks

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format": "ettmt-model", "version": 1, "family": "dict", "payload": {', "not a model file"),
            ('["ettmt-model", 1]', "top level is list"),
            ('{"format": "ettmt-model", "version": 1, "family": "dict"}', "payload is missing"),
            ('{"format": "ettmt-model", "version": 1, "family": "dict", "payload": [1]}', "payload is missing or not an object"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {}}', "ibm1 model payload lacks key 'ttable'"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm2", "payload": {"ttable": {"entries": []}}}',
             "ibm2 model payload lacks key 'aligntable'"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": 5}}}',
             "bad ibm1 model payload"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm2", "payload": {"ttable": {"entries": []}, '
             '"aligntable": {"blocks": [1]}}}', "bad ibm2 model payload"),
            ('{"format": "ettmt-model", "version": 1, "family": "dict", "payload": {"table": 5}}',
             "bad dict model payload"),
            ('{"format": "ettmt-model", "version": 1, "family": "ngram", "payload": {"n": 1, "context_mode": "ett", '
             '"ordered": true, "alpha": 1.0, "vocab": ["<eos>", "<pad>"], "counts": 5}}', "bad ngram model payload"),
            ('{"format": "ettmt-model", "version": 1, "family": "naive-bayes", "payload": {"n": 1, '
             '"context_mode": "ett", "alpha": 1.0, "target_counts": [1], "total_positions": 1, "slot_counts": [{}], '
             '"slot_vocabs": [["<pad>"]], "vocab": ["<eos>", "<pad>"]}}', "bad naive-bayes model payload"),
            ('{"format": "ettmt-model", "version": 1, "family": "naive-bayes", "payload": {"n": 1, '
             '"context_mode": "ett", "alpha": 1.0, "target_counts": {"<eos>": 3}, "total_positions": "3", '
             '"slot_counts": [{}], "slot_vocabs": [["<pad>"]], "vocab": ["<eos>", "<pad>"]}}',
             "total_positions must be int, not str '3'"),
            ('{"format": "ettmt-model", "version": 1, "family": "naive-bayes", "payload": {"n": 1, '
             '"context_mode": "ett", "alpha": 1.0, "target_counts": {"<eos>": 3}, "total_positions": 4, '
             '"slot_counts": [{}], "slot_vocabs": [["<pad>"]], "vocab": ["<eos>", "<pad>"]}}',
             "total_positions 4 is not the sum of target_counts, 3"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm2", "payload": {"ttable": {"entries": '
             '[["mi", "i", 1.0]]}, "aligntable": {"blocks": {"2,2": [[0.5]]}}}}',
             "alignment block '2,2' has shape (1, 1), not (2, 3)"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm2", "payload": {"ttable": {"entries": '
             '[["mi", "i", 1.0]]}, "aligntable": {"blocks": {"2,2": [0.5, 0.5]}}}}',
             "alignment block '2,2' has shape (2,), not (2, 3)"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": "3", '
             '"length_std": 1.0, "tokens": ["i"], "probs": [1.0]}}', "length_mean must be float, not str '3'"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": 1.0, "tokens": [1], "probs": [1.0]}}', "tokens must be a list of strings"),
            ('{"format": "ettmt-model", "version": 1, "family": "dict", "payload": {"table": {"mi": 5}}}',
             "table must map strings to strings"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": '
             '[["mi", 5, 0.5]]}}}', "t-table entry ['mi', 5, 0.5] is not [source, target, probability]"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": 1.0, "tokens": [], "probs": []}}', "probs must sum to 1, got 0.0"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": 1.0, "tokens": ["i", "am"], "probs": [1.5, -0.5]}}', "probs entry must be >= 0, got -0.5"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": 1.0, "tokens": ["i", "am"], "probs": [NaN, 1.0]}}', "probs entry must be finite, got nan"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": 1.0, "tokens": ["i", "am"], "probs": [0.9, 0.9]}}', "probs must sum to 1, got 1.8"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": Infinity, '
             '"length_std": 1.0, "tokens": ["i"], "probs": [1.0]}}', "length_mean must be finite, got inf"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": -1, "tokens": ["i"], "probs": [1.0]}}', "length_std must be >= 0, got -1"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": NaN, "tokens": ["i"], "probs": [1.0]}}', "length_std must be finite, got nan"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 1e20, '
             '"length_std": 0.0, "tokens": ["i"], "probs": [1.0]}}', "length_mean must be <= 10000 tokens, got 1e+20"),
            ('{"format": "ettmt-model", "version": 1, "family": "random", "payload": {"length_mean": 3, '
             '"length_std": 10001, "tokens": ["i"], "probs": [1.0]}}', "length_std must be <= 10000 tokens, got 10001"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": '
             '[["mi", "i", NaN]]}}}', "t-table probability must be in [0, 1], got nan"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": '
             '[["mi", "i", -5.0]]}}}', "t-table probability must be in [0, 1], got -5.0"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": '
             '[["mi", "i", 1e300]]}}}', "t-table probability must be in [0, 1], got 1e+300"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": '
             '[["mi", "i", 1.0]], "drop_probs": {"mi": NaN}}}}', "drop probability must be in [0, 1], got nan"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": '
             '[["mi", "i", 1.0]], "loglik_history": "abc"}}}', "loglik_history must be a list of numbers, not str"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm1", "payload": {"ttable": {"entries": '
             '[["mi", "i", 0.5], ["mi", "i", 0.5]]}}}', "t-table entry ['mi', 'i'] is repeated"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm2", "payload": {"ttable": {"entries": '
             '[["mi", "i", 1.0]]}, "aligntable": {"blocks": {"1,1": [[0.5, NaN]]}}}}',
             "alignment block '1,1' probability must be in [0, 1], got nan"),
            ('{"format": "ettmt-model", "version": 1, "family": "ibm2", "payload": {"ttable": {"entries": '
             '[["mi", "i", 1.0]]}, "aligntable": {"blocks": {"1,1": [[0.5, true]]}}}}',
             "alignment block '1,1' probability must be float, not bool True"),
        ],
        ids=["invalid-json", "top-level-list", "no-payload", "payload-list", "ibm1-no-ttable", "ibm2-no-aligntable",
             "ibm1-entries-int", "ibm2-blocks-list", "dict-table-int", "ngram-counts-int",
             "naive-bayes-target-counts-list", "naive-bayes-total-string", "naive-bayes-total-wrong",
             "ibm2-block-too-small", "ibm2-block-flat", "random-length-mean-string", "random-token-int",
             "dict-gloss-int", "ibm1-target-int", "random-no-tokens", "random-prob-negative", "random-prob-nan",
             "random-probs-sum", "random-length-mean-inf", "random-length-std-negative", "random-length-std-nan",
             "random-length-mean-huge", "random-length-std-huge", "ibm1-prob-nan", "ibm1-prob-negative",
             "ibm1-prob-huge", "ibm1-drop-nan", "ibm1-history-string", "ibm1-entry-repeated", "ibm2-block-nan",
             "ibm2-block-bool"],
    )
    def test_malformed_model_file_exits_2(self, tmp_path, capsys, text, message):
        model = tmp_path / "bad.json"
        model.write_text(text, encoding="utf-8")
        src = tmp_path / "src.txt"
        src.write_text("mi aveles\n", encoding="utf-8")
        assert cli_dispatch(["translate", "--model", str(model), "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert str(model) in captured.err and message in captured.err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cfg: "{" + json.dumps(cfg), "not a benchmark config"),
            (lambda cfg: json.dumps([cfg]), "top level is list"),
            (lambda cfg: json.dumps({**cfg, "models": {"family": "dict"}}), "non-empty list"),
            (lambda cfg: json.dumps({**cfg, "models": []}), "non-empty list"),
            (lambda cfg: json.dumps({**cfg, "models": ["dict"]}), "must be an object"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "dict"}, {"n": 2}]}), "model 1: no 'family'"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ibm3"}]}), "unknown family 'ibm3'"),
            (lambda cfg: json.dumps({k: v for k, v in cfg.items() if k != "corpus"}), "no 'corpus'"),
            (lambda cfg: json.dumps({**cfg, "repeats": 0}), "repeats must be >= 1"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ibm1", "iteration": 1}]}),
             "model 0: ibm1 has no key 'iteration'"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ngram", "n": "2"}]}), "model 0: n must be int"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ibm2", "use_lexicon": 1}]}),
             "model 0: use_lexicon must be bool"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "dict", "beams": 4}]}),
             "model 0: dict has no key 'beams'"),
            (lambda cfg: json.dumps({**cfg, "repeats": "2"}), "repeats must be int"),
            (lambda cfg: json.dumps({**cfg, "full_eval": "yes"}), "full_eval must be bool"),
            (lambda cfg: json.dumps({**cfg, "seed": 1.5}), "seed must be int"),
            (lambda cfg: json.dumps({**cfg, "augment": "yes"}), "augment must be dict, not str 'yes'"),
            (lambda cfg: json.dumps({**cfg, "corpus": 5}), "corpus must be str, not int 5"),
            (lambda cfg: json.dumps({**cfg, "lexicon": ["a"]}), "lexicon must be str, not list"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ibm1", "iterations": 0}]}),
             "model 0: iterations must be >= 1, got 0"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ngram", "n": 0}]}), "model 0: n must be >= 1"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ngram", "beams": 0}]}),
             "model 0: beams must be >= 1"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "naive-bayes", "alpha": 0}]}),
             "model 0: alpha must be a finite number > 0, got 0"),
            (lambda cfg: json.dumps({**cfg, "models": [{"family": "ngram", "context_mode": "foo"}]}),
             "model 0: context_mode must be one of ett, ett-eng, got 'foo'"),
            (lambda cfg: json.dumps({**cfg, "augment": {"foo": 1}}), "augment has no key 'foo'"),
            (lambda cfg: json.dumps({**cfg, "augment": {"seed": 3}}), "augment has no key 'seed'"),
            (lambda cfg: json.dumps({**cfg, "augment": {"damage_iterations": 1.5}}),
             "damage_iterations must be int, not float 1.5"),
            (lambda cfg: json.dumps({**cfg, "augment": {"damage_prob": 2}}), "damage_prob must be in [0, 1]"),
            (lambda cfg: json.dumps({**cfg, "tokenizer": "suffix"}), "the suffix tokenizer needs a suffix_file"),
            (lambda cfg: json.dumps({**cfg, "corpus_format": "xml"}), "corpus_format must be tsv or json, got 'xml'"),
        ],
        ids=["invalid-json", "top-level-list", "models-object", "models-empty", "model-string",
             "no-family", "unknown-family", "no-corpus", "repeats-0", "unknown-model-key",
             "n-string", "use-lexicon-int", "beams-on-dict", "repeats-string", "full-eval-string",
             "seed-float", "augment-string", "corpus-int", "lexicon-list", "iterations-0", "n-0",
             "beams-0", "alpha-0", "context-mode-unknown", "augment-unknown-key", "augment-seed",
             "augment-iterations-float", "augment-prob-2", "suffix-without-file", "corpus-format-xml"],
    )
    def test_malformed_benchmark_config_exits_2(self, tmp_path, corpus_file, lexicon_file, capsys, edit, message):
        cfg = {"corpus": str(corpus_file), "lexicon": str(lexicon_file), "repeats": 1, "full_eval": True}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(edit(cfg), encoding="utf-8")
        out_dir = tmp_path / "results"
        assert cli_dispatch(["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert str(cfg_path) in captured.err and message in captured.err
        assert not out_dir.exists()  # rejected before any run

    @pytest.mark.parametrize("command", ["evaluate", "translate", "tokenize", "translate-model", "benchmark-config"])
    def test_non_utf8_input_exits_2(self, tmp_path, corpus_file, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"mi aveles\nmi \xff larthes\n")
        good = tmp_path / "good.txt"
        good.write_text("i am of avele\ni am the son of larth\n", encoding="utf-8")
        model = tmp_path / "model.json"
        assert cli_dispatch(["train", "--family", "random", "--in", str(corpus_file), "--out", str(model)]) == 0
        argv = {
            "evaluate": ["evaluate", "--hyp", str(bad), "--ref", str(good)],
            "translate": ["translate", "--model", str(model), "--in", str(bad)],
            "tokenize": ["tokenize", "--in", str(bad)],
            "translate-model": ["translate", "--model", str(bad), "--in", str(good)],
            "benchmark-config": ["benchmark", "--config", str(bad)],
        }[command]
        capsys.readouterr()
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}, line 2: not valid UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("command", ["tokenize", "translate"])
    @pytest.mark.parametrize("source", ["missing", "non-utf8"])
    def test_input_error_keeps_existing_out(self, tmp_path, corpus_file, capsys, command, source):
        model = tmp_path / "model.json"
        assert cli_dispatch(["train", "--family", "ngram", "--in", str(corpus_file), "--out", str(model)]) == 0
        src = tmp_path / "src.txt"
        if source == "non-utf8":
            src.write_bytes(b"mi aveles\nmi \xff larthes\n")
        out = tmp_path / "out.txt"
        out.write_bytes(b"earlier output\n")
        argv = {"tokenize": ["tokenize"], "translate": ["translate", "--model", str(model)]}[command]
        capsys.readouterr()
        assert cli_dispatch(argv + ["--in", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b"earlier output\n"

    def test_non_utf8_corpus_exits_2(self, tmp_path, corpus_file, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(corpus_file.read_bytes().replace(b"mi aveles", b"mi \xffaveles"))
        assert cli_dispatch(["train", "--family", "random", "--in", str(bad), "--out", str(tmp_path / "m.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}, line 3: not valid UTF-8 (invalid start byte)\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "family, flags, expected",
        [
            ("naive-bayes", [], {"n": 2, "context_mode": "ett", "alpha": 1.0}),
            ("naive-bayes", ["--n", "2", "--context", "ett-eng", "--alpha", "0.5"],
             {"n": 2, "context_mode": "ett-eng", "alpha": 0.5}),
            ("ngram", ["--unordered"], {"n": 1, "context_mode": "ett", "ordered": False, "alpha": 1.0}),
        ],
    )
    def test_train_flags_reach_model(self, tmp_path, corpus_file, family, flags, expected):
        from ettmt.modelio import load_model

        model = tmp_path / "m.json"
        argv = ["train", "--family", family, "--in", str(corpus_file), "--out", str(model)] + flags
        assert cli_dispatch(argv) == 0
        _, loaded = load_model(model)
        assert {key: getattr(loaded, key) for key in expected} == expected

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "ibm1", "--iterations", "0"], "iterations must be >= 1, got 0"),
            (["--family", "ngram", "--n", "0"], "n must be >= 1, got 0"),
            (["--family", "naive-bayes", "--alpha", "-1"], "alpha must be a finite number > 0, got -1.0"),
            # a flag the family lacks is rejected like the same key in a benchmark config
            (["--family", "ibm1", "--n", "3"], "ibm1 has no key 'n' (keys: iterations, use_lexicon)"),
            (["--family", "naive-bayes", "--unordered"],
             "naive-bayes has no key 'ordered' (keys: n, context_mode, alpha, beams)"),
            (["--family", "random", "--with-lexicon-pairs"], "random has no key 'use_lexicon' (keys: none)"),
            (["--family", "ibm2", "--alpha", "0.5"], "ibm2 has no key 'alpha' (keys: iterations, use_lexicon)"),
        ],
        ids=["iterations-0", "n-0", "alpha-negative", "ibm1-n", "naive-bayes-unordered", "random-lexicon-pairs",
             "ibm2-alpha"],
    )
    def test_train_out_of_range_flag_exits_2(self, tmp_path, corpus_file, capsys, flags, message):
        model = tmp_path / "m.json"
        assert cli_dispatch(["train", "--in", str(corpus_file), "--out", str(model)] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists()

    def test_truncated_json_corpus_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "t.json"
        corpus.write_text('[{"id": "a"', encoding="utf-8")
        assert cli_dispatch(["train", "--family", "random", "--in", str(corpus), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: not a JSON corpus (") and err.count("\n") == 1

    def test_json_corpus_object_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "o.json"
        corpus.write_text('{"id": "a", "source": "ETP", "etruscan": "mi"}', encoding="utf-8")
        assert cli_dispatch(["train", "--family", "random", "--in", str(corpus), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: not a JSON corpus (top level is dict") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"id": 7, "source": "ETP", "etruscan": "mi"}', "entry 1: id must be a string, not int 7"),
            ('{"id": "a", "source": "ETP", "etruscan": 5}', "entry 1: etruscan must be a string, not int 5"),
        ],
        ids=["int-id", "int-etruscan"],
    )
    def test_json_corpus_value_not_a_string_exits_2(self, tmp_path, capsys, entry, message):
        corpus = tmp_path / "c.json"
        corpus.write_text(f"[{entry}]", encoding="utf-8")
        assert cli_dispatch(["train", "--family", "random", "--in", str(corpus), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: {corpus}, {message}\n"

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("corpus", "id\tsource\tetruscan\tenglish\tdate\tlocation\n\n\t\t\ne1\tETP\tmi\ti\t\t\n"
             "e2\tXYZ\tmi\ti\t\t\n", "line 5: unknown source 'XYZ'"),
            ("corpus", "id\tsource\tetruscan\tenglish\tdate\tlocation\n \n\ne1\tETP\tmi\ti\t\n",
             "line 4: expected 6 columns, got 5"),
            ("lexicon", "etruscan\tenglish\t" + "\t".join(f"f{k}" for k in range(1, 55)) + "\n\n"
             "mi\ti\t" + "\t".join(["0"] * 54) + "\nclan\tson\t2\t" + "\t".join(["0"] * 53) + "\n",
             "line 4: feature f1 must be 0/1, got '2'"),
            ("lexicon", "etruscan\tenglish\t" + "\t".join(f"f{k}" for k in range(1, 55)) + "\n\t\n"
             "···\tnothing\t" + "\t".join(["0"] * 54) + "\n", "line 3: lexicon entry with empty Etruscan form"),
            ("dict", "etruscan\tenglish\n\n\nmi\n", "line 4: expected 2 columns, got 1"),
            ("dict", "etruscan\tenglish\n\t\nmi\ti am\tfirst person\n", "line 3: expected 2 columns, got 3"),
            ("dict", "etruscan\tenglish\tnotes\nmi\ti am\t\n", "line 1: expected a header of 2 columns, got 3"),
        ],
        ids=["corpus-source", "corpus-short-row", "lexicon-feature", "lexicon-empty-form", "dict-short-row",
             "dict-third-column", "dict-notes-header"],
    )
    def test_tsv_row_error_names_file_and_line_exits_2(self, tmp_path, corpus_file, capsys, kind, text, message):
        bad = tmp_path / f"bad-{kind}.tsv"
        bad.write_text(text, encoding="utf-8")
        src = tmp_path / "src.txt"
        src.write_text("mi\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "corpus": ["train", "--family", "random", "--in", str(bad), "--out", str(out)],
            "lexicon": ["train", "--family", "dict", "--in", str(corpus_file), "--lexicon", str(bad), "--out", str(out)],
            "dict": ["translate", "--model", str(bad), "--in", str(src), "--out", str(out)],
        }[kind]
        assert cli_dispatch(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}, {message}\n"
        assert not out.exists()

    def test_json_corpus_config_runs(self, tmp_path, corpus_file, capsys):
        from ettmt.corpus import load_corpus, save_corpus

        corpus = tmp_path / "c.json"
        save_corpus(load_corpus(corpus_file)[0], corpus)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"corpus": str(corpus), "models": [{"family": "random"}], "repeats": 1}),
                       encoding="utf-8")
        assert cli_dispatch(["benchmark", "--config", str(cfg)]) == 0
        assert BenchmarkConfig.from_json(cfg).to_dict()["corpus_format"] == "json"
        assert BenchmarkConfig(corpus=str(corpus_file)).to_dict()["corpus_format"] == "tsv"

    def test_train_lexicon_pairs_flag(self, tmp_path, corpus_file, lexicon_file, capsys):
        from ettmt.modelio import load_model

        base = ["train", "--family", "ibm1", "--in", str(corpus_file), "--iterations", "2"]
        assert cli_dispatch(base + ["--out", str(tmp_path / "plain.json")]) == 0
        assert cli_dispatch(base + ["--out", str(tmp_path / "lex.json"), "--lexicon", str(lexicon_file),
                                    "--with-lexicon-pairs"]) == 0
        _, plain = load_model(tmp_path / "plain.json")
        _, lex = load_model(tmp_path / "lex.json")
        assert "-s" not in plain.ttable.source_vocab and "-s" in lex.ttable.source_vocab  # a lexicon-only entry
        capsys.readouterr()
        assert cli_dispatch(base + ["--out", str(tmp_path / "x.json"), "--with-lexicon-pairs"]) == 2
        assert capsys.readouterr().err.startswith("error: use_lexicon requires a lexicon")

    def test_train_tokenizes_each_lexicon_entry_once(self, tmp_path, corpus_file, lexicon_file, capsys,
                                                     monkeypatch):
        # the pair count printed after training is counted, not tokenized again
        import ettmt.tokenize

        texts = []
        split = ettmt.tokenize.tokenize_suffix
        monkeypatch.setattr(ettmt.tokenize, "tokenize_suffix",
                            lambda text, suffixes: texts.append(text) or split(text, suffixes))
        assert cli_dispatch(["train", "--family", "ibm1", "--in", str(corpus_file), "--iterations", "2",
                             "--out", str(tmp_path / "m.json"), "--lexicon", str(lexicon_file),
                             "--with-lexicon-pairs", "--tokenizer", "suffix",
                             "--suffixes", str(tmp_path / "suffixes.txt")]) == 0
        n_pairs = 12 + sum(1 for _, english, _ in WORD_ENTRIES + NAME_ENTRIES if english)
        assert len(texts) == n_pairs
        assert f"trained ibm1 model on {n_pairs} pairs -> " in capsys.readouterr().err

    def test_evaluate_mismatched_files(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one\n", encoding="utf-8")
        b.write_text("one\ntwo\n", encoding="utf-8")
        assert cli_dispatch(["evaluate", "--hyp", str(a), "--ref", str(b)]) == 2
