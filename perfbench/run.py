"""SmartOClock reproduction benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one workload in a fresh process (``child.py``),
with ``workers=1``: a closed loop with one client making one blocking
call.  Repetitions continue until ``--seconds`` is spent (at least
three untraced ones); the metrics are medians over them.  With
``--trace 1`` every untraced repetition is paired with a traced one,
and the per-layer numbers come from the traced runs.

Every repetition's output is checked: the workload's safety verdict,
the sha256 of its canonical output against the reference recorded for
the seed (``reference_digests.json``; an unrecorded seed prints its
digest), equal digests across repetitions, and traced digest equal to
untraced digest.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  Every run also appends one record
with every measured value (the per-layer self times too) to
``.perfbench/history.jsonl`` and never rewrites earlier ones.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
MIN_UNTRACED = 3
# Every run must end well inside the 180-second limit.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def run_child(workload: str, seed: int, traced: bool,
              deadline: float) -> dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             "1" if traced else "0", str(STATE / "outputs")],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition passed the run deadline"
                         ) from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition (traced={traced}) exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("entry_at") - spawned
    record["traced"] = traced
    return record


def _commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (the
    benchmark may run from an export that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def measure(workload: str, seed: int, seconds: float,
            traced: bool) -> tuple[list[dict], list[dict]]:
    """Repeat the workload (paired with a traced repetition when
    ``traced``) until ``seconds`` are spent."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    plain: list[dict] = []
    traced_reps: list[dict] = []
    while True:
        plain.append(run_child(workload, seed, False, deadline))
        if traced:
            traced_reps.append(run_child(workload, seed, True, deadline))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        enough = traced or len(plain) >= MIN_UNTRACED
        if enough and elapsed + per_round > seconds:
            return plain, traced_reps


def check(workload: str, seed: int, plain: list[dict],
          traced: list[dict]) -> tuple[int, str]:
    """Count the repetitions whose output check fails; return the count
    and the run's digest."""
    references = json.loads(
        (HERE / "reference_digests.json").read_text())
    digest = plain[0]["digest"]
    reference = references.get(workload, {}).get(str(seed))
    if reference is None:
        print(f"digest {workload} seed={seed} sha256={digest} "
              f"(no reference recorded)")
    expected = reference or digest
    failed = 0
    for rep in plain + traced:
        if not rep["safe"] or rep["digest"] != expected:
            failed += 1
            print(f"FAILED {workload} seed={seed} traced={rep['traced']}: "
                  f"safe={rep['safe']} sha256={rep['digest']} "
                  f"expected={expected}", file=sys.stderr)
    return failed, digest


def metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    median = statistics.median
    if not traced:
        return {
            "wall_s": median(r["wall_s"] for r in plain),
            "sim_server_ticks_per_s": median(
                r["server_ticks"] / r["wall_s"] for r in plain),
            "setup_s": median(r["setup_s"] for r in plain),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in plain),
        }
    out = {key: median(r["layers"][key] for r in traced)
           for key in traced[0]["layers"]}
    out["trace.overhead_frac"] = (
        median(r["wall_s"] for r in traced)
        / median(r["wall_s"] for r in plain) - 1.0)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    (STATE / "outputs").mkdir(parents=True, exist_ok=True)

    traced = args.trace == 1
    try:
        plain, traced_reps = measure(args.workload, args.seed, args.seconds,
                                     traced)
        failed, digest = check(args.workload, args.seed, plain, traced_reps)
        values = metrics(plain, traced_reps)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: BENCHMARK.json declares metrics the run did not "
              f"measure: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": len(plain) + len(traced_reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "usable_cpus": _usable_cpus(),
        "digest": digest,
        "walls_s": [r["wall_s"] for r in plain],
        **{k: result[k] for k in ("correct", "attempted", "failed")},
        "metrics": values,
    }
    with open(STATE / "history.jsonl", "a", encoding="utf-8") as history:
        history.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
