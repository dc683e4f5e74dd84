"""Every per-family decision: config defaults, labels, training, versioned JSON
persistence and a uniform translate dispatch used by the CLI and the
benchmark runner."""

from __future__ import annotations

import json

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
from .ibm import AlignTable, TTable, train_ibm1, train_ibm2, translate_ibm
from .ngram import NaiveBayesModel, NgramModel, beam_translate, check_settings, train_naive_bayes, train_ngram

FORMAT = "ettmt-model"
VERSION = 1

# family -> {model config key: default}; a key's type is its default's type, and
# every key is a keyword of the family's trainer but beams (a decoding setting)
# and use_lexicon (train_model adds the lexicon entries as training pairs)
FAMILIES = {
    "random": {},
    "dict": {},
    "ngram": {"n": 1, "context_mode": "ett", "alpha": 1.0, "beams": 8, "ordered": True},
    "naive-bayes": {"n": 2, "context_mode": "ett", "alpha": 1.0, "beams": 8},
    "ibm1": {"iterations": 10, "use_lexicon": False},
    "ibm2": {"iterations": 10, "use_lexicon": False},
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
    out = overlay(family, FAMILIES[family], {k: v for k, v in model_cfg.items() if k != "family"})
    for key in ("iterations", "beams"):
        if out.get(key, 1) < 1:
            raise DataError(f"{key} must be >= 1, got {out[key]!r}")
    if "context_mode" in out:
        check_settings(out["n"], out["context_mode"], out["alpha"], out.get("ordered", True))
    return out


def needs_lexicon(model_cfg: dict) -> bool:
    """Whether training the model config reads the lexicon."""
    return model_cfg["family"] == "dict" or settings(model_cfg).get("use_lexicon", False)


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
    family = model_cfg["family"]
    opts = settings(model_cfg)
    if family == "random":
        return train_random([eng for _, eng in pairs])
    if family == "dict":
        if lexicon is None:
            raise DataError("the dict family needs a lexicon")
        return build_dict_model(lexicon)
    opts.pop("beams", None)
    if family == "ngram":
        return train_ngram(pairs, **opts)
    if family == "naive-bayes":
        return train_naive_bayes(pairs, **opts)
    train = train_ibm1 if family == "ibm1" else train_ibm2
    return train(training_pairs(model_cfg, pairs, lexicon, tok), iterations=opts["iterations"])


def save_model(family: str, model, path):
    if family == "dict" and str(path).endswith(".tsv"):
        save_dict_tsv(model, path)
        return
    if family == "ibm1":
        payload = {"ttable": model.to_dict()}
    elif family == "ibm2":
        ttable, align = model
        payload = {"ttable": ttable.to_dict(), "aligntable": align.to_dict()}
    else:
        payload = model.to_dict()
    doc = {"format": FORMAT, "version": VERSION, "family": family, "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path):
    """Returns (family, model); model is (TTable, AlignTable) for ibm2."""
    if str(path).endswith(".tsv"):
        return "dict", load_dict_tsv(path)
    doc = read_json(path, "a model file", dict)
    if doc.get("format") != FORMAT:
        raise DataError(f"{path}: not a model file (format {doc.get('format')!r})")
    if doc.get("version") != VERSION:
        raise DataError(f"{path}: unsupported model version {doc.get('version')!r}")
    family = doc.get("family")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DataError(f"{path}: model payload is missing or not an object")
    try:
        if family == "random":
            return family, RandomModel.from_dict(payload)
        if family == "dict":
            return family, DictModel.from_dict(payload)
        if family == "ngram":
            return family, NgramModel.from_dict(payload)
        if family == "naive-bayes":
            return family, NaiveBayesModel.from_dict(payload)
        if family == "ibm1":
            return family, TTable.from_dict(payload["ttable"])
        if family == "ibm2":
            return family, (TTable.from_dict(payload["ttable"]), AlignTable.from_dict(payload["aligntable"]))
    except KeyError as exc:
        raise DataError(f"{path}: {family} model payload lacks key {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError) as exc:  # ValueError includes DataError
        raise DataError(f"{path}: bad {family} model payload: {exc}") from exc
    raise DataError(f"{path}: unknown model family {family!r}")


def translate(family: str, model, tokens: list[str], rng: np.random.Generator | None = None,
              beams: int = 8) -> list[str]:
    """Family-agnostic translate call."""
    if family == "random":
        if rng is None:
            raise ValueError("the random model needs an explicit RNG")
        return translate_random(model, tokens, rng)
    if family == "dict":
        return translate_dict(model, tokens)
    if family in ("ngram", "naive-bayes"):
        return beam_translate(model, tokens, beams=beams)
    if family == "ibm1":
        return translate_ibm(model, tokens)
    if family == "ibm2":
        return translate_ibm(model[0], tokens, model[1])
    raise ValueError(f"unknown model family {family!r}")
