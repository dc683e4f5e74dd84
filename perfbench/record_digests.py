"""Record the expected output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py FIRST LAST

Run from the repository root, on a commit whose outputs are known to be right.
Each (workload, seed) gets one worker run with no time budget, in the same
child process set-up that run.py uses.  The digest of its warm-up call goes
to perfbench/digests.json.
"""

import json
import sys

import run
from workloads import WORKLOADS


def main(first: int, last: int):
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            cfg = run.prepare(workload, seed).relative_to(run.ROOT)
            out = run.run_worker(["protocol", str(cfg), "0", "1", "0", ""], run.child_env(seed))
            if "digest" not in out["warmup"]:
                raise SystemExit(f"{name} seed {seed}: {out['warmup']['error']}")
            table.setdefault(name, {})[str(seed)] = out["warmup"]["digest"]
            print(name, seed, out["warmup"]["digest"][:16], flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
