"""Versioned JSON persistence for every model family, plus a uniform
translate dispatch used by the CLI and the benchmark runner."""

from __future__ import annotations

import json

import numpy as np

from .baselines import (
    DictModel,
    RandomModel,
    load_dict_tsv,
    save_dict_tsv,
    translate_dict,
    translate_random,
)
from .errors import DataError
from .ibm import AlignTable, TTable, translate_ibm
from .ngram import NaiveBayesModel, NgramModel, beam_translate

FORMAT = "ettmt-model"
VERSION = 1

FAMILIES = ("random", "dict", "ngram", "naive-bayes", "ibm1", "ibm2")


def save_model(family: str, model, path, prune: float = 1e-6):
    if family == "dict" and str(path).endswith(".tsv"):
        save_dict_tsv(model, path)
        return
    if family == "ibm1":
        payload = {"ttable": model.to_dict(prune=prune)}
    elif family == "ibm2":
        ttable, align = model
        payload = {"ttable": ttable.to_dict(prune=prune), "aligntable": align.to_dict(prune=prune)}
    else:
        payload = model.to_dict()
    doc = {"format": FORMAT, "version": VERSION, "family": family, "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path):
    """Returns (family, model); model is (TTable, AlignTable) for ibm2."""
    if str(path).endswith(".tsv"):
        return "dict", load_dict_tsv(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise DataError(f"{path}: not a model file ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a model file (top level is {type(doc).__name__}, not an object)")
    if doc.get("format") != FORMAT:
        raise DataError(f"{path}: not a model file (format {doc.get('format')!r})")
    if doc.get("version") != VERSION:
        raise DataError(f"{path}: unsupported model version {doc.get('version')!r}")
    family = doc.get("family")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DataError(f"{path}: model payload is missing or not an object")
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
