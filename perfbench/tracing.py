"""Spans around the public functions of each `ettmt` layer, from outside the package.

`Tracer.install()` wraps every hooked function and puts the wrapper at every
reference to that function object across the loaded `ettmt.*` modules,
because `harness`, `modelio` and `metrics` import names directly.  Each call
records one span (name, start, end, parent) taken from a stack; spans stay in
memory until `uninstall()`.  A hook whose target no longer exists is recorded
as missing and the metrics fed by it are reported as missing, so the run goes
on when a later version of the package moves or deletes a function.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

# (module, function, span group); a metric sums the spans of its groups
HOOKS = (
    ("ettmt.harness", "run_benchmark", "harness"),
    ("ettmt.corpus", "load_corpus", "corpus.load"),
    ("ettmt.corpus", "load_lexicon", "corpus.load"),
    ("ettmt.corpus", "split_corpus", "corpus.split"),
    ("ettmt.tokenize", "tokenize_suffix", "tokenize"),
    ("ettmt.tokenize", "tokenize_whitespace", "tokenize"),
    ("ettmt.augment", "augment_pairs", "augment"),
    ("ettmt.augment", "augment_names", "augment.names"),
    ("ettmt.augment", "augment_damage", "augment.damage"),
    ("ettmt.baselines", "train_random", "baselines.train"),
    ("ettmt.baselines", "build_dict_model", "baselines.train"),
    ("ettmt.baselines", "translate_random", "baselines.translate"),
    ("ettmt.baselines", "translate_dict", "baselines.translate"),
    ("ettmt.ngram", "train_ngram", "ngram.train"),
    ("ettmt.ngram", "train_naive_bayes", "ngram.train"),
    ("ettmt.ngram", "beam_translate", "ngram.decode"),
    ("ettmt.ngram", "ngram_distribution", "ngram.dist"),
    ("ettmt.ngram", "nb_posterior", "ngram.dist"),
    ("ettmt.ibm", "train_ibm1", "ibm.train"),
    ("ettmt.ibm", "train_ibm2", "ibm.train"),
    ("ettmt._kernels", "ibm1_estep", "kernels.estep"),
    ("ettmt._kernels", "ibm2_estep", "kernels.estep"),
    ("ettmt._kernels", "levenshtein", "kernels.lev"),
    ("ettmt.metrics", "score_corpus", "metrics.score"),
    ("ettmt.metrics", "bleu", "metrics.bleu"),
    ("ettmt.metrics", "chrf", "metrics.chrf"),
    ("ettmt.metrics", "ter", "metrics.ter"),
    ("ettmt.modelio", "translate", "modelio.translate"),
)

# group -> count added per call, from its (args, kwargs, result)
COUNTERS = {
    "augment.names": lambda args, kwargs, result: len(result),  # pairs emitted
    "metrics.ter": lambda args, kwargs, result: len(args[0] if args else kwargs["hypotheses"]),
}

# layer name used in metric names for each hooked module
LAYERS = {
    "ettmt.harness": "harness",
    "ettmt.corpus": "corpus",
    "ettmt.tokenize": "tokenize",
    "ettmt.augment": "augment",
    "ettmt.baselines": "baselines",
    "ettmt.ngram": "ngram",
    "ettmt.ibm": "ibm",
    "ettmt._kernels": "kernels",
    "ettmt.metrics": "metrics",
    "ettmt.modelio": "modelio",
}


class Missing(Exception):
    """A metric reads a span group whose hook target does not exist."""


class _View:
    """Read access to one tracer's aggregates for the metric formulas below."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self._busy, self._durations, self._root_self = tracer.aggregate()

    def _check(self, group):
        if group in self._tracer.missing_groups:
            raise Missing(group)

    def busy(self, group) -> float:
        self._check(group)
        return self._busy.get(group, 0.0)

    def calls(self, group) -> int:
        self._check(group)
        return len(self._durations.get(group, ()))

    def ms(self, group, q) -> float:
        """q-th percentile of the group's per-call latency."""
        self._check(group)
        durations = sorted(d * 1e3 for d in self._durations.get(group, ()))
        if len(durations) < 2:
            return durations[0] if durations else 0.0
        return statistics.quantiles(durations, n=100, method="inclusive")[q - 1]

    def counter(self, group) -> int:
        self._check(group)
        if group in self._tracer.broken_counters:
            raise Missing(group)
        return self._tracer.counters.get(group, 0)

    def per(self, num, den) -> float:
        return num / den if den else 0.0

    def root_self(self) -> float:
        self._check("harness")
        return self._root_self

    def errors(self, layer) -> int:
        if layer not in self._tracer.installed_layers:
            raise Missing(layer)
        return self._tracer.errors.get(layer, 0)


# Times are inclusive seconds summed over one protocol call.
METRICS = (
    ("corpus.load_s", "s", lambda v: v.busy("corpus.load")),
    ("corpus.split_s", "s", lambda v: v.busy("corpus.split")),
    ("tokenize.s", "s", lambda v: v.busy("tokenize")),
    ("tokenize.calls", "count", lambda v: v.calls("tokenize")),
    ("augment.s", "s", lambda v: v.busy("augment")),
    ("augment.names_s", "s", lambda v: v.busy("augment.names")),
    ("augment.damage_s", "s", lambda v: v.busy("augment.damage")),
    # name-swap pairs emitted per pair scanned
    ("augment.names_yield", "ratio",
     lambda v: v.per(v.counter("augment.names"), v.calls("augment.names"))),
    ("baselines.train_s", "s", lambda v: v.busy("baselines.train")),
    ("baselines.translate_s", "s", lambda v: v.busy("baselines.translate")),
    ("ngram.train_s", "s", lambda v: v.busy("ngram.train")),
    ("ngram.decode_s", "s", lambda v: v.busy("ngram.decode")),
    ("ngram.decode_calls", "count", lambda v: v.calls("ngram.decode")),
    ("ngram.decode_ms_p50", "ms", lambda v: v.ms("ngram.decode", 50)),
    ("ngram.decode_ms_p90", "ms", lambda v: v.ms("ngram.decode", 90)),
    ("ngram.dist_calls", "count", lambda v: v.calls("ngram.dist")),
    ("ngram.dist_s", "s", lambda v: v.busy("ngram.dist")),
    ("ibm.train_s", "s", lambda v: v.busy("ibm.train")),
    ("kernels.estep_calls", "count", lambda v: v.calls("kernels.estep")),
    ("kernels.estep_s", "s", lambda v: v.busy("kernels.estep")),
    ("kernels.lev_calls", "count", lambda v: v.calls("kernels.lev")),
    ("kernels.lev_s", "s", lambda v: v.busy("kernels.lev")),
    ("metrics.score_s", "s", lambda v: v.busy("metrics.score")),
    ("metrics.bleu_s", "s", lambda v: v.busy("metrics.bleu")),
    ("metrics.chrf_s", "s", lambda v: v.busy("metrics.chrf")),
    ("metrics.ter_s", "s", lambda v: v.busy("metrics.ter")),
    # TER shift candidates tried (one edit distance each) per scored segment
    ("metrics.lev_per_segment", "count/segment",
     lambda v: v.per(v.calls("kernels.lev"), v.counter("metrics.ter"))),
    ("modelio.translate_s", "s", lambda v: v.busy("modelio.translate")),
    ("modelio.translate_calls", "count", lambda v: v.calls("modelio.translate")),
    ("modelio.translate_ms_p50", "ms", lambda v: v.ms("modelio.translate", 50)),
    ("modelio.translate_ms_p90", "ms", lambda v: v.ms("modelio.translate", 90)),
    # protocol time not covered by any hooked call inside it
    ("harness.self_s", "s", lambda v: v.root_self()),
) + tuple(
    (f"{layer}.errors", "count", lambda v, layer=layer: v.errors(layer))
    for layer in dict.fromkeys(LAYERS.values())
)

UNITS = {name: unit for name, unit, _ in METRICS}


class Tracer:
    """Records spans for the duration of one install/uninstall cycle."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.missing_groups: set[str] = set()
        self.missing_hooks: list[str] = []
        self.names: list[str] = []
        # span rows: (name index, start, end, parent row or -1)
        self.spans: list[tuple[int, float, float, int]] = []
        self.groups: list[str] = []
        self.counters: dict[str, int] = {}
        self.broken_counters: set[str] = set()  # the hooked function's signature changed
        self.errors: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.installed_layers: set[str] = set()
        self._stack: list[int] = []

    # -- installation ---------------------------------------------------

    def install(self):
        for module_name, func_name, group in self.hooks:
            try:
                target = getattr(importlib.import_module(module_name), func_name)
            except (ImportError, AttributeError):
                self.missing_hooks.append(f"{module_name}.{func_name}")
                self.missing_groups.add(group)
                continue
            layer = LAYERS[module_name]
            self.installed_layers.add(layer)
            wrapper = self._wrap(target, f"{layer}.{func_name}", group, layer)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "ettmt" and not mod_name.startswith("ettmt."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, span_name, group, layer):
        name_idx = len(self.names)
        self.names.append(span_name)
        self.groups.append(group)
        counter = COUNTERS.get(group)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            row = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] = self.errors.get(layer, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[row] = (name_idx, start, end, parent)
            if counter is not None:
                try:
                    self.counters[group] = self.counters.get(group, 0) + counter(args, kwargs, result)
                except (IndexError, KeyError, TypeError):
                    self.broken_counters.add(group)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ----------------------------------------------------

    def aggregate(self):
        """One pass over the spans: per-group outermost busy time and durations."""
        busy: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        root_self = 0.0
        spans, groups = self.spans, self.groups
        for name_idx, start, end, parent in spans:
            group = groups[name_idx]
            durations.setdefault(group, []).append(end - start)
            if parent < 0:
                root_self += end - start
            elif spans[parent][3] < 0:
                root_self -= end - start
            # nested calls within one group count once toward its busy time
            while parent >= 0 and groups[spans[parent][0]] != group:
                parent = spans[parent][3]
            if parent < 0:
                busy[group] = busy.get(group, 0.0) + end - start
        return busy, durations, root_self

    def metrics(self) -> dict[str, float | None]:
        """Every per-layer metric; None marks one fed by a missing hook."""
        view = _View(self)
        out = {}
        for name, _unit, formula in METRICS:
            try:
                out[name] = float(formula(view))
            except Missing:
                out[name] = None
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}
