"""Tests of the benchmark's own parts.

    python -m pytest -q perfbench
"""

import gc
import hashlib

import pytest

from ettmt import harness
from ettmt.harness import BenchmarkConfig

import run
import synth
import tracing
import worker

TINY = synth.Shape(n_pairs=40, src_types=300, tgt_types=250, lexicon_entries=80, name_entries=24)

# one config that reaches every hooked layer
TINY_MODELS = [
    {"family": "dict"},
    {"family": "random"},
    {"family": "ngram", "n": 1, "context_mode": "ett"},
    {"family": "naive-bayes", "n": 1, "context_mode": "ett-eng", "beams": 2},
    {"family": "ibm1", "use_lexicon": True, "iterations": 2},
    {"family": "ibm2", "iterations": 2},
]


@pytest.fixture
def tiny_config(tmp_path):
    files = synth.generate(3, TINY, tmp_path)
    return BenchmarkConfig(
        corpus=str(files.corpus),
        lexicon=str(files.lexicon),
        suffix_file=str(files.suffixes),
        models=TINY_MODELS,
        tokenizer="suffix",
        repeats=1,
        seed=3,
        augment={"max_name_replacements": 1, "damage_prob": 0.1, "damage_iterations": 1},
    )


def _digest(cfg) -> str:
    doc = harness.run_benchmark(cfg).to_json(include_wall_clock=False)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    first = synth.generate(7, TINY, tmp_path / "a")
    again = synth.generate(7, TINY, tmp_path / "b")
    other = synth.generate(8, TINY, tmp_path / "c")
    for name in ("corpus", "lexicon", "suffixes"):
        assert getattr(first, name).read_bytes() == getattr(again, name).read_bytes()
    assert first.corpus.read_bytes() != other.corpus.read_bytes()


def test_traced_and_untraced_digests_agree(tiny_config):
    original = harness.translate
    untraced = _digest(tiny_config)
    tracer = tracing.Tracer()
    with tracer:
        assert harness.translate is not original
        traced = _digest(tiny_config)
    assert harness.translate is original
    assert traced == untraced
    assert tracer.missing_hooks == []
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.UNITS)
    assert None not in metrics.values()
    for name in ("tokenize.calls", "augment.names_s", "ngram.decode_calls", "ngram.dist_calls",
                 "kernels.estep_calls", "metrics.ter_s", "modelio.translate_calls", "baselines.train_s"):
        assert metrics[name] > 0, name
    assert metrics["harness.self_s"] >= 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in set(tracing.LAYERS.values()))


def test_missing_hook_target_gives_missing_metric(tiny_config, monkeypatch):
    # a counter that no longer fits its function's signature is missing too
    monkeypatch.setitem(tracing.COUNTERS, "metrics.ter", lambda args, kwargs, result: args[9])
    hooks = tracing.HOOKS + (
        ("ettmt.ngram", "no_such_function", "ngram.decode"),
        ("ettmt.no_such_module", "anything", "augment"),
    )
    tracer = tracing.Tracer(hooks=hooks)
    with tracer:
        harness.run_benchmark(tiny_config)
    metrics = tracer.metrics()
    assert tracer.missing_hooks == ["ettmt.ngram.no_such_function", "ettmt.no_such_module.anything"]
    for name in ("ngram.decode_s", "ngram.decode_calls", "ngram.decode_ms_p90", "augment.s",
                 "metrics.lev_per_segment"):
        assert metrics[name] is None, name
    assert metrics["ngram.dist_calls"] > 0
    assert metrics["metrics.ter_s"] > 0
    assert metrics["augment.names_s"] > 0


def test_reference_task_leaves_gc_as_it_found_it():
    assert gc.isenabled()
    assert worker.reference_s() > 0
    assert gc.isenabled()


def test_reference_speed_scales_by_the_reference_task():
    assert run.at_reference_speed(2.0, run.REF_NOMINAL_S) == 2.0
    assert run.at_reference_speed(2.0, 2 * run.REF_NOMINAL_S) == 1.0
