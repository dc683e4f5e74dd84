"""Benchmark runner: repeated seeded splits, training, translation, scoring.

One benchmark evaluates one or more model configurations on the same corpus
protocol: for each run r in 0..repeats-1, split with seed base_seed+r (or use
the full corpus when full_eval is set), tokenize and optionally augment the
training half, tokenize the held-out half, then train, translate and score
every model config on that one preparation, which no model changes. A
run's wall_clock includes its repeat's preparation. Mean and sample standard
deviation are reported per metric.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, augment_pairs
from .corpus import _corpus_format, load_corpus, load_lexicon, read_json, split_corpus
from .errors import BenchmarkError, DataError, check_seed, check_type
from .metrics import score_corpus
from .modelio import model_label, needs_lexicon, overlay, settings, train_model, translate
from .tokenize import TOKENIZERS, tokenizer

METRICS = ("bleu", "chrf", "ter")
# augment config key -> default; the runner sets the seed of each repeat
AUGMENT_DEFAULTS = {f.name: f.default for f in fields(AugmentConfig) if f.name != "seed"}


@dataclass
class BenchmarkConfig:
    corpus: str
    corpus_format: str | None = None  # None: the load_corpus rule (json for a .json path, else tsv)
    lexicon: str | None = None
    suffix_file: str | None = None
    models: list[dict] = field(default_factory=lambda: [{"family": "dict"}])
    tokenizer: str = "whitespace"
    train_size: float = 0.8
    repeats: int = 10
    seed: int = 0
    augment: dict | None = None
    full_eval: bool = False
    output_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.default not in (MISSING, None):
                check_type(f.name, getattr(self, f.name), f.default)
        check_type("corpus", self.corpus, "")
        check_seed("seed", self.seed)  # each repeat r seeds its split, augmentation and random model with seed + r
        self.corpus_format = _corpus_format(self.corpus, self.corpus_format)
        if self.corpus_format not in ("tsv", "json"):
            raise DataError(f"corpus_format must be tsv or json, got {self.corpus_format!r}")
        for name, empty in (("lexicon", ""), ("suffix_file", ""), ("output_dir", ""), ("augment", {})):
            if getattr(self, name) is not None:
                check_type(name, getattr(self, name), empty)
        if not isinstance(self.models, list) or not self.models:
            raise DataError("models must be a non-empty list of model configs")
        for k, model_cfg in enumerate(self.models):
            if not isinstance(model_cfg, dict):
                raise DataError(f"model {k}: a model config must be an object, not {type(model_cfg).__name__}")
            try:
                settings(model_cfg)
            except DataError as exc:
                raise DataError(f"model {k}: {exc}") from exc
        if self.augment is not None:
            AugmentConfig(**overlay("augment", AUGMENT_DEFAULTS, self.augment))
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not 0.0 < self.train_size < 1.0:
            raise ValueError("train_size must be in (0, 1)")
        if self.tokenizer not in TOKENIZERS:
            raise ValueError(f"unknown tokenizer {self.tokenizer!r}")
        if self.tokenizer == "suffix" and self.suffix_file is None:
            raise DataError("the suffix tokenizer needs a suffix_file")

    @classmethod
    def from_json(cls, path) -> "BenchmarkConfig":
        raw = read_json(path, "a benchmark config", dict)
        if "corpus" not in raw:
            raise DataError(f"{path}: no 'corpus' key")
        if "model" in raw and "models" not in raw:
            raw["models"] = [raw.pop("model")]
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**raw)
        except ValueError as exc:  # includes DataError
            raise DataError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ModelResult:
    label: str
    runs: list[dict]
    mean: dict[str, float]
    std: dict[str, float]
    single_run: bool


@dataclass
class BenchmarkResult:
    config: dict
    results: list[ModelResult]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "results": [asdict(r) for r in self.results],
        }

    def to_json(self, include_wall_clock: bool = True) -> str:
        doc = self.to_dict()
        if not include_wall_clock:
            for result in doc["results"]:
                for run in result["runs"]:
                    run.pop("wall_clock", None)
        return json.dumps(doc, sort_keys=True, indent=1)


def _aggregate(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def run_benchmark(cfg: BenchmarkConfig) -> BenchmarkResult:
    """Execute the full protocol; any stage failure aborts with stage and run index."""

    def stage(run: int | str, name: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            raise BenchmarkError(f"run {run}, stage '{name}': {exc}") from exc

    corpus, _report = stage("setup", "load-corpus", load_corpus, cfg.corpus, cfg.corpus_format)
    tok = stage("setup", "tokenizer", tokenizer, cfg.tokenizer, cfg.suffix_file)
    lexicon = None
    if cfg.lexicon and (cfg.augment is not None or any(map(needs_lexicon, cfg.models))):
        lexicon = stage("setup", "load-lexicon", load_lexicon, cfg.lexicon)
    translated = corpus.translated()
    beams = [settings(model_cfg).get("beams", 8) for model_cfg in cfg.models]  # 8: translate's default

    runs: list[list[dict]] = [[] for _ in cfg.models]
    ter_cache: dict = {}  # a pair that recurs across splits or configs is searched once
    for r in range(cfg.repeats):
        seed_r = cfg.seed + r
        started = time.perf_counter()
        if cfg.full_eval:
            train_c = test_c = translated
        else:
            train_c, test_c = stage(r, "split", split_corpus, translated, cfg.train_size, seed_r)
        pairs = [(tok(i.etruscan_norm), i.english.split()) for i in train_c]
        if cfg.augment is not None:
            pairs = stage(r, "augment", augment_pairs, pairs, lexicon, AugmentConfig(**cfg.augment, seed=seed_r))
        sources = [tok(i.etruscan_norm) for i in test_c]
        refs = [i.english for i in test_c]
        prepared_s = time.perf_counter() - started
        for model_cfg, model_beams, model_runs in zip(cfg.models, beams, runs):
            model_started = time.perf_counter()
            model = stage(r, "train", train_model, model_cfg, pairs, lexicon, tok)
            rng = np.random.default_rng(seed_r)
            hyps = [" ".join(translate(model_cfg["family"], model, src, rng=rng, beams=model_beams))
                    for src in sources]
            report = stage(r, "evaluate", score_corpus, hyps, refs, ter_cache)
            wall_clock = prepared_s + time.perf_counter() - model_started
            model_runs.append({"seed": seed_r, "bleu": report.bleu, "chrf": report.chrf, "ter": report.ter,
                               "n_pairs": report.n_pairs, "wall_clock": wall_clock})

    per_model = []
    for model_cfg, model_runs in zip(cfg.models, runs):
        mean, std = {}, {}
        for metric in METRICS:
            mean[metric], std[metric] = _aggregate([run[metric] for run in model_runs])
        per_model.append(ModelResult(model_label(model_cfg), model_runs, mean, std, single_run=cfg.repeats == 1))

    result = BenchmarkResult(config=cfg.to_dict(), results=per_model)
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(result.to_json(), encoding="utf-8")
        (out / "result.txt").write_text(format_table(result), encoding="utf-8")
    return result


def format_table(result: BenchmarkResult) -> str:
    """Model rows, metric columns, standard deviation in parentheses."""
    headers = ["model", "BLEU", "chr-F", "TER"]
    rows = []
    for res in result.results:
        rows.append(
            [
                res.label,
                f"{res.mean['bleu']:.3f}",
                f"{res.mean['chrf']:.3f}",
                f"{res.mean['ter']:.3f}",
            ]
        )
        rows.append(
            ["", f"({res.std['bleu']:.3f})", f"({res.std['chrf']:.3f})", f"({res.std['ter']:.3f})"]
        )
    widths = [max(len(r[i]) for r in rows + [headers]) for i in range(4)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
