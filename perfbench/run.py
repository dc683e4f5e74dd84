"""Benchmark of the ettmt paper protocol on seeded synthetic data.

    python3 perfbench/run.py --workload align --seed 1 --seconds 28 --trace 0

Run from the repository root.  The seed makes the workload's corpus, lexicon
and suffix files (see synth.py); the program only sees those files.  Every
measurement runs in a child process with PYTHONHASHSEED derived from the seed
and one numeric thread, one process at a time.

With --trace 0 the run reports the end-to-end metrics:
  protocol_s   median wall seconds of one `ettmt.harness.run_benchmark` call,
               at the reference speed (see at_reference_speed)
  setup_s      median over fresh processes of importing ettmt and loading the
               corpus, lexicon and suffix list, at the reference speed
  peak_rss_mb  peak resident memory of the process that ran the protocol
  pass_rate    passes (model config x repeat) whose output was correct, over
               those attempted
With --trace 1 it alternates untraced calls with calls traced by hooks around
each layer's public functions (tracing.py) and reports the per-layer metrics,
medians over the traced calls.

Outputs are checked by the SHA-256 of `BenchmarkResult.to_json(
include_wall_clock=False)`, against digests.json when the seed is recorded
there and across all calls of the run (traced ones too) in every case.  A
call that raises or gives another digest fails all its passes.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import synth
import tracing
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

SETUP_PROBES = 5  # timed fresh processes for setup_s, after one untimed warm-up
# Seconds of worker.reference_s at the reference speed: its usual time on a
# 2-core Xeon VM (2.0 GHz nominal) while the host runs at its steady, slower
# clock.  Timings are reported at this speed (see at_reference_speed).
REF_NOMINAL_S = 0.088
MIN_CALLS = 3  # protocol calls per run, whatever --seconds says
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED for a workload seed, the same on every commit."""
    return int.from_bytes(hashlib.sha256(f"perfbench-{seed}".encode()).digest()[:4], "big")


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], env: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload: Workload, seed: int) -> Path:
    """Generate the workload's files and its run_benchmark config; return the config path."""
    out_dir = WORK / f"{workload.name}-{seed}"
    files = synth.generate(seed, workload.shape, out_dir)

    def rel(path: Path) -> str:  # the config, and so the digest, must not name the checkout
        return path.relative_to(ROOT).as_posix()

    cfg = workload.config(rel(files.corpus), rel(files.lexicon), rel(files.suffixes), seed)
    path = out_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """Scale a timing to the reference speed by the reference task timed beside it.

    On a shared host the same code runs up to 2 times faster or slower from
    one minute to the next.  The program and the fixed reference task slow
    down together, so their ratio holds still while raw seconds do not.
    """
    return seconds * REF_NOMINAL_S / ref_s


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one benchmark; return the result object and the report lines printed before it."""
    cfg_path = prepare(workload, seed)
    env = child_env(seed)
    cfg_arg = str(cfg_path.relative_to(ROOT))
    setup_s = None
    if not trace:
        probes = [run_worker(["setup", cfg_arg], env) for _ in range(SETUP_PROBES + 1)]
        setup_s = statistics.median(at_reference_speed(p["setup_s"], p["ref_s"]) for p in probes[1:])
    spans_out = cfg_path.with_name("spans.json")
    out = run_worker(
        ["protocol", cfg_arg, str(seconds), str(MIN_CALLS), "1" if trace else "0", str(spans_out)],
        env,
    )

    calls = [out["warmup"]] + out["plain"] + out["traced"]
    expected = recorded_digest(workload.name, seed)
    first_ok = next((c["digest"] for c in [out["warmup"]] + out["plain"] if "digest" in c), None)
    reference = expected or first_ok
    bad = [c for c in calls if "digest" not in c or c["digest"] != reference]
    attempted = len(calls) * workload.passes
    failed = len(bad) * workload.passes
    ok_plain = [c for c in out["plain"] if c.get("digest") == reference] or out["plain"]
    wall_s = statistics.median(c["s"] for c in ok_plain)

    lines = [
        f"workload {workload.name}  seed {seed}  PYTHONHASHSEED {hash_seed(seed)}  "
        f"protocol calls 1 warm-up, {len(out['plain'])} untraced, {len(out['traced'])} traced",
        "output check: "
        + (f"digest {reference[:16]} " if reference else "no successful call ")
        + ("(recorded in digests.json)" if expected else "(seed not in digests.json: self-consistency only)")
        + f", {len(calls) - len(bad)}/{len(calls)} calls match",
    ]
    lines += [f"  error: {c['error']}" for c in calls if "error" in c][:3]
    for c in calls:
        if "scores" in c:
            lines += [
                f"  {label:28s} BLEU {b:7.3f}  chr-F {f:7.3f}  TER {t:7.3f}"
                for label, b, f, t in c["scores"]
            ]
            break

    metrics: dict[str, dict] = {}
    if trace:
        missing = [name for name, value in out["layers"].items() if value is None]
        for name, value in out["layers"].items():
            metrics[name] = {"value": 0.0 if value is None else value, "unit": tracing.UNITS[name]}
        overhead = statistics.median(c["s"] for c in out["traced"]) - statistics.median(
            c["s"] for c in out["plain"]
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(f"spans: {spans_out.relative_to(ROOT)}")
        if missing:
            lines.append(f"missing (reported as 0): {', '.join(missing)}")
            lines.append(f"  hook targets not found: {', '.join(out['missing_hooks'])}")
    else:
        metrics = {
            "protocol_s": {
                "value": statistics.median(at_reference_speed(c["s"], c["ref_s"]) for c in ok_plain),
                "unit": "s",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "pass_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    lines += [f"  {name:28s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if not trace:
        ref_ms = 1000 * statistics.median(c["ref_s"] for c in ok_plain)
        lines.append(
            f"  raw wall seconds per call {wall_s:.4g} s, reference task {ref_ms:.4g} ms "
            f"(reference speed: {1000 * REF_NOMINAL_S:.4g} ms)"
        )
    facts = dict(out["facts"], nproc=os.cpu_count(), src_lines=src_lines())
    lines.append("facts: " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
