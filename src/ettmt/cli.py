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
from .errors import BenchmarkError, check_seed
from .harness import BenchmarkConfig, format_table, run_benchmark
from .metrics import score_corpus
from .modelio import FAMILIES, lexicon_entries, load_model, save_model, train_model, translate, tsv_model_file
from .ngram import CONTEXT_MODES
from .tokenize import TOKENIZERS, tokenizer


def _given(args, keys) -> dict:
    """{key: value} for each option among keys that was given; an option's dest is its key, its default None."""
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _write_lines(path: str | None, lines: list[str]) -> None:
    """Write each line and a newline to path, or to stdout without one; called once all input is read,
    so an input error leaves an existing file as it was."""
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_normalize(args) -> int:
    corpus, report = load_corpus(args.infile, args.format)
    save_corpus(corpus, args.out)
    print(report.summary(), file=sys.stderr)
    return 0


def cmd_tokenize(args) -> int:
    tok = tokenizer(args.tokenizer, args.suffixes)
    _write_lines(args.out, [" ".join(tok(normalize(line))) for line in read_lines(args.infile)])
    return 0


def cmd_augment(args) -> int:
    corpus, _ = load_corpus(args.infile, args.format)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    cfg = AugmentConfig(**_given(args, ("max_name_replacements", "damage_prob", "damage_geom_p",
                                        "damage_iterations", "seed")))
    pairs = [(i.etruscan_norm.split(), i.english.split()) for i in corpus.translated()]
    expanded = augment_pairs(pairs, lexicon, cfg)
    items = [Inscription(f"aug{k}", "ETP", etruscan_raw=" ".join(ett), etruscan_norm=" ".join(ett),
                         english=" ".join(eng)) for k, (ett, eng) in enumerate(expanded)]
    save_corpus(ParallelCorpus(tuple(items)), args.out)
    print(f"{len(pairs)} pairs in, {len(expanded)} out", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    tsv_model_file(args.out, args.family)  # a .tsv path for a family without a TSV model file fails before training
    corpus, _ = load_corpus(args.infile, args.format)
    tok = tokenizer(args.tokenizer, args.suffixes)
    pairs = [(tok(i.etruscan_norm), i.english.split()) for i in corpus.translated()]
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    # every flag given goes into the config, so `settings` rejects one the family lacks
    model_cfg = {"family": args.family,
                 **_given(args, ("n", "context_mode", "ordered", "alpha", "iterations", "use_lexicon"))}
    model = train_model(model_cfg, pairs, lexicon, tok)
    save_model(args.family, model, args.out)
    n_pairs = len(pairs) + len(lexicon_entries(model_cfg, lexicon))
    print(f"trained {args.family} model on {n_pairs} pairs -> {args.out}", file=sys.stderr)
    return 0


def cmd_translate(args) -> int:
    check_seed("seed", args.seed)
    family, model = load_model(args.model)
    tok = tokenizer(args.tokenizer, args.suffixes)
    rng = np.random.default_rng(args.seed)
    _write_lines(args.out, [" ".join(translate(family, model, tok(normalize(line)), rng=rng, beams=args.beams))
                            for line in read_lines(args.infile)])
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
    # imported here: urllib, http.client, email and tarfile serve this command alone
    from .fetch import fetch_dataset

    root = fetch_dataset(dest=args.dest, url=args.url)
    print(root)
    return 0


def _files(out_required: bool) -> argparse.ArgumentParser:
    """--in and --out, as a parent parser; --out may be left out only where the output can go to stdout."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=out_required, help=None if out_required else "output file (default: stdout)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ettmt",
        description="Etruscan-English statistical machine translation toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    # option groups shared between commands
    corpus_files, text_files = _files(out_required=True), _files(out_required=False)
    corpus_files.add_argument("--format", choices=("tsv", "json"),
                              help="corpus format of --in (default: json for a .json file, else tsv)")
    lexicon = argparse.ArgumentParser(add_help=False)
    lexicon.add_argument("--lexicon")
    tokens = argparse.ArgumentParser(add_help=False)
    tokens.add_argument("--tokenizer", choices=TOKENIZERS, default="whitespace")
    tokens.add_argument("--suffixes", help="suffix file for the suffix tokenizer")

    p = sub.add_parser("normalize", help="normalize a corpus file", parents=[corpus_files])
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("tokenize", help="tokenize text, one segment per line", parents=[text_files, tokens])
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("augment", help="expand the translated pairs of a corpus", parents=[corpus_files, lexicon])
    p.add_argument("--name-replacements", dest="max_name_replacements", type=int)
    p.add_argument("--damage-prob", type=float)
    p.add_argument("--damage-geom-p", type=float)
    p.add_argument("--damage-iterations", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("train", help="train a model on a corpus", parents=[corpus_files, lexicon, tokens])
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, help="context size for ngram/naive-bayes")
    p.add_argument("--context", dest="context_mode", choices=CONTEXT_MODES)
    p.add_argument("--unordered", dest="ordered", action="store_false", default=None,
                   help="ignore source slot order (ngram)")
    p.add_argument("--alpha", type=float, help="additive smoothing")
    p.add_argument("--iterations", type=int, help="EM iterations (ibm1/ibm2)")
    p.add_argument("--with-lexicon-pairs", dest="use_lexicon", action="store_true", default=None,
                   help="add lexicon entries as training pairs (ibm1/ibm2)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("translate", help="translate text with a trained model", parents=[text_files, tokens])
    p.add_argument("--model", required=True)
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
