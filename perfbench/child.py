"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE OUT_DIR

Set-up (imports, configs, inputs) runs first; the entry call is timed on
its own.  With TRACE=1 the outside-in tracer is installed before any
program object is built, and its per-layer numbers and spans are
reported after the call.  The last stdout line is one JSON record; the
canonical output is written to OUT_DIR for diffing.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, trace, out_dir = argv
    traced = trace == "1"

    import workloads  # the program's imports count as set-up

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    job = workloads.WORKLOADS[workload](int(seed))

    entry_at = time.monotonic()
    start = time.perf_counter()
    result = job.run()
    wall_s = time.perf_counter() - start

    record: dict = {"entry_at": entry_at, "wall_s": wall_s}
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    if tracer is not None:
        tracer.uninstall()
        tracer.write(f"{stem}.spans.jsonl", start)
        tracer.check(workload)
        record["layers"] = tracer.report(wall_s)
    text = job.canonical(result)
    with open(f"{stem}.txt", "w", encoding="utf-8") as out:
        out.write(text)
    record.update(
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        safe=bool(job.safe(result)),
        server_ticks=job.server_ticks,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
