"""Child process of run.py: times set-up or the protocol for one workload config.

    python3 perfbench/worker.py setup CONFIG
    python3 perfbench/worker.py protocol CONFIG SECONDS MIN_CALLS TRACE SPANS_OUT

run.py starts it with a pinned PYTHONHASHSEED and `src` on PYTHONPATH, from
the repository root.  It prints one JSON object on its last line.
"""

import gc
import hashlib
import json
import platform
import random
import resource
import statistics
import sys
import time

_REF_RNG = random.Random(7)
_REF_WORDS = [
    "".join(_REF_RNG.choice("abcdefghij") for _ in range(_REF_RNG.randint(2, 9))) for _ in range(4000)
]


def reference_s() -> float:
    """Seconds of a fixed pure-Python task: dict counting, sorting, string joins, float sums.

    Its work never changes, so its time measures how fast the CPU runs this
    kind of code at that moment.  On a shared host that speed moves by up to
    a factor of 2 from one minute to the next, and the protocol moves with
    it; run.py divides each timing by the task's time measured beside it.
    """
    gc.disable()  # a collection would also time the program's live heap
    try:
        start = time.perf_counter()
        counts: dict = {}
        for _ in range(18):
            for w in _REF_WORDS:
                counts[w] = counts.get(w, 0) + 1
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            total = 0.0
            for i, w in enumerate(" ".join(k for k, _ in ranked[:500]).split()):
                total += len(w) / (i + 1.0)
        return time.perf_counter() - start
    finally:
        gc.enable()


def setup(cfg: dict) -> dict:
    """Seconds to import ettmt and load the workload's corpus, lexicon and suffixes."""
    start = time.perf_counter()
    import ettmt

    ettmt.load_corpus(cfg["corpus"], cfg.get("corpus_format", "tsv"))
    ettmt.load_lexicon(cfg["lexicon"], cfg["suffix_file"])
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "ref_s": reference_s()}


def _call(harness, cfg) -> dict:
    start = time.perf_counter()
    try:
        result = harness.run_benchmark(harness.BenchmarkConfig(**cfg))
    except Exception as exc:  # a failed pass is counted, not fatal
        return {"s": time.perf_counter() - start, "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    doc = result.to_json(include_wall_clock=False)
    return {
        "s": elapsed,
        "digest": hashlib.sha256(doc.encode("utf-8")).hexdigest(),
        "scores": [[r.label, r.mean["bleu"], r.mean["chrf"], r.mean["ter"]] for r in result.results],
    }


def _facts() -> dict:
    import numpy

    try:
        from ettmt._kernels import backend
    except ImportError:
        backend = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": backend() if backend else None,
    }


def protocol(cfg: dict, seconds: float, min_calls: int, trace: bool, spans_out: str) -> dict:
    """Repeat run_benchmark until `seconds` are used; with trace, alternate untraced and traced calls."""
    from ettmt import harness

    if trace:
        import tracing

    plain, traced, layer_runs, dumps, missing = [], [], [], [], []
    started = time.perf_counter()
    # Warm-up call: checked but not timed.  Its peak RSS is the protocol's,
    # read before the reference task allocates anything.
    warmup = _call(harness, cfg)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    ref = reference_s()
    while True:
        call = _call(harness, cfg)
        after = reference_s()
        call["ref_s"] = (ref + after) / 2  # the reference task timed just before and after
        plain.append(call)
        if trace:
            tracer = tracing.Tracer()
            with tracer:
                traced.append(_call(harness, cfg))
            layer_runs.append(tracer.metrics())
            dumps.append(tracer.dump())
            missing = tracer.missing_hooks
            after = reference_s()
        ref = after
        calls = [c["s"] for c in plain + traced]
        used = time.perf_counter() - started
        if len(plain) >= min_calls and used + statistics.median(calls) * (1 + trace) > seconds:
            break
    out = {"warmup": warmup, "plain": plain, "traced": traced, "facts": _facts()}
    if trace:
        out["layers"] = {
            name: None if layer_runs[0][name] is None else statistics.median(r[name] for r in layer_runs)
            for name in layer_runs[0]
        }
        out["missing_hooks"] = missing
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh)
    else:
        out["peak_rss_mb"] = peak_rss_mb
    return out


def main(argv):
    mode, cfg_path = argv[0], argv[1]
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if mode == "setup":
        out = setup(cfg)
    else:
        seconds, min_calls, trace, spans_out = argv[2:6]
        out = protocol(cfg, float(seconds), int(min_calls), trace == "1", spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
