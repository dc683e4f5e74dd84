"""Every per-family decision, in one table (`FAMILIES`), and the family-agnostic calls the CLI
and the benchmark runner make: settings, training, versioned JSON persistence and translating."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import (
    DictModel,
    RandomModel,
    build_dict_model,
    load_dict_tsv,
    save_dict_tsv,
    train_random,
    translate_dict,
    translate_random,
)
from .corpus import Lexicon, read_json
from .errors import DataError, check_type
from .ibm import IbmModel, train_ibm1, train_ibm2, translate_ibm
from .ngram import BEAMS, NaiveBayesModel, NgramModel, beam_translate, check_settings, train_naive_bayes, train_ngram

FORMAT = "ettmt-model"
VERSION = 1


@dataclass(frozen=True)
class Family:
    """One model family. The callables call trainers and decoders by their module-global
    names when they run, so a wrapper put in a function's place (perfbench's tracer) is called."""

    defaults: dict  # {model config key: default}; a key's type is its default's type
    train: Callable  # (pairs, lexicon, **settings but beams and use_lexicon) -> model
    load: Callable  # model file payload -> model, checked
    translate: Callable  # (model, tokens, rng, beams) -> tokens
    lexicon: bool = False  # whether training needs the lexicon whatever the settings


def _translate_random(model: RandomModel, tokens: list[str], rng: np.random.Generator | None, beams: int):
    if rng is None:
        raise ValueError("the random model needs an explicit RNG")
    return translate_random(model, tokens, rng)


FAMILIES = {
    "random": Family({}, lambda pairs, lexicon: train_random([eng for _, eng in pairs]),
                     RandomModel.from_dict, _translate_random),
    "dict": Family({}, lambda pairs, lexicon: build_dict_model(lexicon), DictModel.from_dict,
                   lambda model, tokens, rng, beams: translate_dict(model, tokens), lexicon=True),
    "ngram": Family({"n": 1, "context_mode": "ett", "alpha": 1.0, "beams": BEAMS, "ordered": True},
                    lambda pairs, lexicon, **opts: train_ngram(pairs, **opts), NgramModel.from_dict,
                    lambda model, tokens, rng, beams: beam_translate(model, tokens, beams=beams)),
    "naive-bayes": Family({"n": 2, "context_mode": "ett", "alpha": 1.0, "beams": BEAMS},
                          lambda pairs, lexicon, **opts: train_naive_bayes(pairs, **opts), NaiveBayesModel.from_dict,
                          lambda model, tokens, rng, beams: beam_translate(model, tokens, beams=beams)),
    "ibm1": Family({"iterations": 10, "use_lexicon": False},
                   lambda pairs, lexicon, **opts: IbmModel(train_ibm1(pairs, **opts)),
                   lambda payload: IbmModel.from_dict(payload, positional=False),
                   lambda model, tokens, rng, beams: translate_ibm(model.ttable, tokens, model.align)),
    "ibm2": Family({"iterations": 10, "use_lexicon": False},
                   lambda pairs, lexicon, **opts: IbmModel(*train_ibm2(pairs, **opts)),
                   lambda payload: IbmModel.from_dict(payload, positional=True),
                   lambda model, tokens, rng, beams: translate_ibm(model.ttable, tokens, model.align)),
}


def overlay(name: str, defaults: dict, cfg: dict) -> dict:
    """defaults with cfg's values laid over them; DataError on a key defaults lacks or a value of another type."""
    out = dict(defaults)
    for key, value in cfg.items():
        if key not in defaults:
            raise DataError(f"{name} has no key {key!r} (keys: {', '.join(defaults) or 'none'})")
        check_type(key, value, defaults[key])
        out[key] = value
    return out


def settings(model_cfg: dict) -> dict:
    """The family's defaults with the model config's values laid over them, checked for range
    (the n-gram and naive-Bayes settings by `ngram.check_settings`, as in training and model files)."""
    if "family" not in model_cfg:
        raise DataError(f"no 'family' (one of {', '.join(FAMILIES)})")
    family = model_cfg["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise DataError(f"unknown family {family!r} (one of {', '.join(FAMILIES)})")
    out = overlay(family, FAMILIES[family].defaults, {k: v for k, v in model_cfg.items() if k != "family"})
    for key in ("iterations", "beams"):
        if out.get(key, 1) < 1:
            raise DataError(f"{key} must be >= 1, got {out[key]!r}")
    if out.get("iterations", 1) > 1000:  # each EM iteration is a pass over every link
        raise DataError(f"iterations must be <= 1000, got {out['iterations']!r}")
    if "context_mode" in out:
        check_settings(out["n"], out["context_mode"], out["alpha"], out.get("ordered", True))
    return out


def needs_lexicon(model_cfg: dict) -> bool:
    """Whether training the model config reads the lexicon."""
    return settings(model_cfg).get("use_lexicon", False) or FAMILIES[model_cfg["family"]].lexicon


def model_label(model_cfg: dict) -> str:
    """Result label: the family, then the settings that tell its configs apart."""
    opts = settings(model_cfg)
    parts = [model_cfg["family"]]
    if "context_mode" in opts:
        parts += [f"n={opts['n']}", opts["context_mode"]]
    if not opts.get("ordered", True):
        parts.append("unordered")
    if opts.get("use_lexicon"):
        parts.append("with-lexicon")
    return ":".join(parts)


def lexicon_entries(model_cfg: dict, lexicon: Lexicon | None) -> list:
    """The lexicon entries training adds as pairs: the translatable ones when use_lexicon is set, else none."""
    if not settings(model_cfg).get("use_lexicon"):
        return []
    if lexicon is None:
        raise DataError("use_lexicon requires a lexicon")
    return [e for e in lexicon.entries if e.translatable]


def training_pairs(model_cfg: dict, pairs, lexicon: Lexicon | None, tok) -> list:
    """pairs, plus lexicon_entries(model_cfg, lexicon) as pairs (Etruscan side split by tok)."""
    return list(pairs) + [(tok(e.etruscan), e.english.split()) for e in lexicon_entries(model_cfg, lexicon)]


def train_model(model_cfg: dict, pairs, lexicon: Lexicon | None, tok):
    """Train one model config on training_pairs(model_cfg, pairs, lexicon, tok)."""
    opts = {k: v for k, v in settings(model_cfg).items() if k not in ("beams", "use_lexicon")}
    family = FAMILIES[model_cfg["family"]]
    if family.lexicon and lexicon is None:
        raise DataError(f"the {model_cfg['family']} family needs a lexicon")
    return family.train(training_pairs(model_cfg, pairs, lexicon, tok), lexicon, **opts)


def tsv_model_file(path, family: str = "dict") -> bool:
    """Whether path ends in .tsv; only the dict family has a TSV model file, so DataError for another family."""
    if not str(path).endswith(".tsv"):
        return False
    if family != "dict":
        raise DataError(f"{path}: only the dict family has a TSV model file, not {family}")
    return True


def save_model(family: str, model, path):
    if tsv_model_file(path, family):
        save_dict_tsv(model, path)
        return
    doc = {"format": FORMAT, "version": VERSION, "family": family, "payload": model.to_dict()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path):
    """Returns (family, model)."""
    if tsv_model_file(path):
        return "dict", load_dict_tsv(path)
    doc = read_json(path, "a model file", dict)
    if doc.get("format") != FORMAT:
        raise DataError(f"{path}: not a model file (format {doc.get('format')!r})")
    if doc.get("version") != VERSION:
        raise DataError(f"{path}: unsupported model version {doc.get('version')!r}")
    family, payload = doc.get("family"), doc.get("payload")
    if not isinstance(payload, dict):
        raise DataError(f"{path}: model payload is missing or not an object")
    if not isinstance(family, str) or family not in FAMILIES:
        raise DataError(f"{path}: unknown model family {family!r}")
    try:
        return family, FAMILIES[family].load(payload)
    except KeyError as exc:
        raise DataError(f"{path}: {family} model payload lacks key {exc}") from exc
    # ValueError includes DataError; OverflowError is an int too large for a float where a number belongs
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise DataError(f"{path}: bad {family} model payload: {exc}") from exc


def translate(family: str, model, tokens: list[str], rng: np.random.Generator | None = None, beams: int = BEAMS):
    """Family-agnostic translate call."""
    if beams < 1:
        raise DataError(f"beam count must be >= 1, got {beams}")
    return FAMILIES[family].translate(model, tokens, rng, beams)
