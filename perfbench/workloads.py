"""The benchmark's workloads: generated data shape plus a `run_benchmark` config.

Each workload is sized so one protocol call takes a couple of seconds on a
2-core machine, which lets one run repeat the call and report a median.

* align: augmentation takes about a third of the time and EM training most
  of the rest; the decoder is never used.
* score: trivial models, so BLEU / chr-F / TER do most of the work.  Short
  dict hypotheses and random-length random hypotheses drive the TER shift
  search in two different ways.
* decode-greedy: source-only contexts, where every hypothesis shares one
  distribution and any beam width reproduces greedy search.
* decode-beam: English-history contexts, where hypotheses diverge and the
  beam matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from synth import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    tokenizer: str
    models: list[dict]
    repeats: int
    augment: dict | None = None

    def config(self, corpus: str, lexicon: str, suffixes: str, seed: int) -> dict:
        return {
            "corpus": corpus,
            "lexicon": lexicon,
            "suffix_file": suffixes,
            "models": self.models,
            "tokenizer": self.tokenizer,
            "repeats": self.repeats,
            "seed": seed,
            "augment": self.augment,
        }

    @property
    def passes(self) -> int:
        """(model config, repeat) combinations in one protocol call."""
        return len(self.models) * self.repeats


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="align",
            shape=Shape(n_pairs=200, min_len=4, max_len=12),
            tokenizer="suffix",
            models=[{"family": "ibm1", "use_lexicon": True}, {"family": "ibm2"}],
            repeats=1,
            augment={"max_name_replacements": 1, "damage_prob": 0.1, "damage_iterations": 1},
        ),
        Workload(
            name="score",
            shape=Shape(n_pairs=1500),
            tokenizer="whitespace",
            models=[{"family": "dict"}, {"family": "random"}],
            repeats=3,
        ),
        Workload(
            name="decode-greedy",
            shape=Shape(n_pairs=200, min_len=6, max_len=6, name_share=0.0),
            tokenizer="whitespace",
            models=[
                {"family": "ngram", "n": 1, "context_mode": "ett"},
                {"family": "ngram", "n": 2, "context_mode": "ett", "ordered": False},
                {"family": "naive-bayes", "n": 2, "context_mode": "ett"},
            ],
            repeats=1,
        ),
        Workload(
            name="decode-beam",
            shape=Shape(n_pairs=170, min_len=6, max_len=6, name_share=0.0),
            tokenizer="whitespace",
            models=[
                {"family": "ngram", "n": 2, "context_mode": "ett-eng", "beams": 8},
                {"family": "naive-bayes", "n": 1, "context_mode": "ett-eng", "beams": 8},
            ],
            repeats=1,
        ),
    )
}
