"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown subcommand),
2 on data errors (missing or malformed files).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .augment import AugmentConfig, augment_pairs
from .corpus import Inscription, ParallelCorpus, load_corpus, load_lexicon, normalize, read_lines, save_corpus
from .errors import BenchmarkError
from .fetch import fetch_dataset
from .harness import BenchmarkConfig, format_table, run_benchmark
from .metrics import score_corpus
from .modelio import FAMILIES, lexicon_entries, load_model, save_model, train_model, translate
from .ngram import CONTEXT_MODES
from .tokenize import TOKENIZERS, tokenizer


def _corpus_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "json" if str(path).endswith(".json") else "tsv"


def cmd_normalize(args) -> int:
    corpus, report = load_corpus(args.infile, _corpus_format(args.infile, args.format))
    save_corpus(corpus, args.out, _corpus_format(args.out, None))
    print(report.summary(), file=sys.stderr)
    return 0


def cmd_tokenize(args) -> int:
    tok = tokenizer(args.tokenizer, args.suffixes)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        for line in read_lines(args.infile):
            print(" ".join(tok(normalize(line))), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_augment(args) -> int:
    corpus, _ = load_corpus(args.infile, _corpus_format(args.infile, args.format))
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    flags = {"max_name_replacements": args.name_replacements, "damage_prob": args.damage_prob,
             "damage_geom_p": args.damage_geom_p, "damage_iterations": args.damage_iterations, "seed": args.seed}
    cfg = AugmentConfig(**{k: v for k, v in flags.items() if v is not None})
    translated = corpus.translated()
    pairs = [(i.etruscan_norm.split(), i.english.split()) for i in translated]
    expanded = augment_pairs(pairs, lexicon, cfg)
    items = [Inscription(f"aug{k}", "ETP", etruscan_raw=" ".join(ett), etruscan_norm=" ".join(ett),
                         english=" ".join(eng)) for k, (ett, eng) in enumerate(expanded)]
    save_corpus(ParallelCorpus(tuple(items)), args.out, _corpus_format(args.out, None))
    print(f"{len(pairs)} pairs in, {len(expanded)} out", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    corpus, _ = load_corpus(args.infile, _corpus_format(args.infile, args.format))
    tok = tokenizer(args.tokenizer, args.suffixes)
    pairs = [(tok(i.etruscan_norm), i.english.split()) for i in corpus.translated()]
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None

    flags = {"n": args.n, "context_mode": args.context, "ordered": not args.unordered, "alpha": args.alpha,
             "iterations": args.iterations, "use_lexicon": args.with_lexicon_pairs}
    family = args.family
    model_cfg = {"family": family, **{k: v for k, v in flags.items() if k in FAMILIES[family] and v is not None}}
    model = train_model(model_cfg, pairs, lexicon, tok)
    save_model(family, model, args.out)
    n_pairs = len(pairs) + len(lexicon_entries(model_cfg, lexicon))
    print(f"trained {family} model on {n_pairs} pairs -> {args.out}", file=sys.stderr)
    return 0


def cmd_translate(args) -> int:
    family, model = load_model(args.model)
    tok = tokenizer(args.tokenizer, args.suffixes)
    rng = np.random.default_rng(args.seed)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        for line in read_lines(args.infile):
            tokens = tok(normalize(line))
            print(" ".join(translate(family, model, tokens, rng=rng, beams=args.beams)), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_evaluate(args) -> int:
    hyps = [line.rstrip("\n") for line in read_lines(args.hyp)]
    refs = [line.rstrip("\n") for line in read_lines(args.ref)]
    report = score_corpus(hyps, refs)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1)
    print(report.format_text())
    return 0


def cmd_benchmark(args) -> int:
    cfg = BenchmarkConfig.from_json(args.config)
    if args.out_dir:
        cfg.output_dir = args.out_dir
    if args.full_eval:
        cfg.full_eval = True
    result = run_benchmark(cfg)
    print(format_table(result))
    return 0


def cmd_fetch(args) -> int:
    root = fetch_dataset(dest=args.dest, url=args.url)
    print(root)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ettmt",
        description="Etruscan-English statistical machine translation toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("normalize", help="normalize a corpus file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("tsv", "json"))
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("tokenize", help="tokenize text, one segment per line")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--tokenizer", choices=TOKENIZERS, default="whitespace")
    p.add_argument("--suffixes", help="suffix file for the suffix tokenizer")
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("augment", help="expand the translated pairs of a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("tsv", "json"))
    p.add_argument("--lexicon")
    p.add_argument("--name-replacements", type=int)
    p.add_argument("--damage-prob", type=float)
    p.add_argument("--damage-geom-p", type=float)
    p.add_argument("--damage-iterations", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("tsv", "json"))
    p.add_argument("--lexicon")
    p.add_argument("--suffixes")
    p.add_argument("--tokenizer", choices=TOKENIZERS, default="whitespace")
    p.add_argument("--n", type=int, help="context size for ngram/naive-bayes")
    p.add_argument("--context", choices=CONTEXT_MODES)
    p.add_argument("--unordered", action="store_true", help="ignore source slot order (ngram)")
    p.add_argument("--alpha", type=float, help="additive smoothing")
    p.add_argument("--iterations", type=int, help="EM iterations (ibm1/ibm2)")
    p.add_argument("--with-lexicon-pairs", action="store_true",
                   help="add lexicon entries as training pairs (ibm1/ibm2)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("translate", help="translate text with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--tokenizer", choices=TOKENIZERS, default="whitespace")
    p.add_argument("--suffixes")
    p.add_argument("--beams", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("benchmark", help="run the repeated-split protocol from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--full-eval", action="store_true",
                   help="evaluate on the full corpus without splitting")
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("fetch", help="download the public dataset archive")
    p.add_argument("--dest", help="cache directory (default: ETTMT_DATA_DIR)")
    p.add_argument("--url", help="override the dataset archive URL")
    p.set_defaults(fn=cmd_fetch)

    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return 0 if exc.code == 0 else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (BenchmarkError, OSError, ValueError) as exc:  # ValueError includes DataError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
