"""Record the reference digests the benchmark checks outputs against.

Usage (from the repository root):

    python3 perfbench/record_digests.py --seeds 0-39 [--workload NAME ...]

Runs each workload once per seed, untraced, and writes the sha256 of its
canonical output to ``perfbench/reference_digests.json``.  Run it only
at a commit whose outputs are the reference; a change that claims a
speed-up must reproduce these digests, not re-record them.
"""

from __future__ import annotations

import argparse
import json
import time

from run import HERE, ROOT, STATE, run_child


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    (STATE / "outputs").mkdir(parents=True, exist_ok=True)
    path = HERE / "reference_digests.json"
    references = json.loads(path.read_text())
    for workload in args.workload or names:
        for seed in seeds:
            rep = run_child(workload, seed, False, time.monotonic() + 600)
            if not rep["safe"]:
                raise SystemExit(f"{workload} seed {seed} is not safe")
            references.setdefault(workload, {})[str(seed)] = rep["digest"]
            print(workload, seed, rep["digest"], flush=True)
            path.write_text(json.dumps(references, indent=1,
                                       sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
