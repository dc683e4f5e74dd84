"""Timing comparison of the numba edit-distance kernel against its numpy fallback.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py

Edit distance is the only kernel with a numba version; the same comparison
applies end to end by setting ETTMT_DISABLE_NUMBA=1 before running any other
command.
"""

import time

import numpy as np

from ettmt import _kernels


def time_call(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_levenshtein(rnd, n_pairs=2000, max_len=25, vocab=50):
    pairs = []
    for _ in range(n_pairs):
        a = rnd.integers(0, vocab, size=rnd.integers(1, max_len)).astype(np.int32)
        b = rnd.integers(0, vocab, size=rnd.integers(1, max_len)).astype(np.int32)
        pairs.append((a, b))

    def run(fn):
        total = 0
        for a, b in pairs:
            total += fn(a, b)
        return total

    t_np = time_call(run, _kernels.levenshtein_np)
    if not _kernels.HAVE_NUMBA:
        # levenshtein_jit is then the uncompiled Python loop, not a numba kernel
        print(f"levenshtein   {n_pairs} pairs: numpy {t_np * 1e3:8.1f} ms   (numba not installed)")
        return
    # warm up the JIT before timing
    run(_kernels.levenshtein_jit)
    t_jit = time_call(run, _kernels.levenshtein_jit)
    assert run(_kernels.levenshtein_jit) == run(_kernels.levenshtein_np)
    print(f"levenshtein   {n_pairs} pairs: numba {t_jit * 1e3:8.1f} ms   numpy {t_np * 1e3:8.1f} ms   "
          f"speedup {t_np / t_jit:5.1f}x")


def main():
    print(f"active backend: {_kernels.backend()}")
    rnd = np.random.default_rng(0)
    bench_levenshtein(rnd)


if __name__ == "__main__":
    main()
