"""Run one benchmark job in a fresh interpreter, as a user of wstirling would.

    python3 perfbench/child.py SRC RECORD TRACE JOB_JSON

SRC is the directory holding the ``wstirling`` package, RECORD the file this
process writes its timings to, TRACE 1 to install the tracer, and JOB_JSON the
job made by ``jobs.py``.  A ``cli`` job hands its generated argv to
``wstirling.cli.main``; an ``api`` job builds the triangle through
``StirlingTable(..., method="recurrence").row(n)`` and prints it in the CLI's
csv layout, so the two paths can be compared byte for byte.

The record holds ``ready``, the monotonic time once ``wstirling.cli`` is
imported and the job's weight pairs are built, and ``done``, the time the
job's output is flushed.  The parent took the spawn time on the same clock.
"""

from __future__ import annotations

import json
import sys
import time


def run_api(job, pair) -> int:
    from wstirling import stirling

    table = stirling.StirlingTable(pair, job["kind"], job["alpha"], job["beta"],
                                   method="recurrence")
    rows = [table.row(n) for n in range(job["nmax"] + 1)]
    print(";".join(",".join(v.render() for v in row) for row in rows))
    return 0


def main() -> int:
    src, record_path, trace, job_json = sys.argv[1:5]
    job = json.loads(job_json)
    sys.path.insert(0, src)
    from wstirling import cli

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    weights = job["weights"]
    if weights == "catalog":  # verify with no --weights sweeps the whole catalog
        weights = [f"builtin:{name}" for name in cli.CATALOG]
    pairs = [cli.load_weights(text) for text in weights]
    ready = time.monotonic()
    if job["mode"] == "cli":
        code = cli.main(job["argv"])
    else:
        code = run_api(job, pairs[0])
    sys.stdout.flush()
    record = {"ready": ready, "done": time.monotonic()}
    if tracer is not None:
        record["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.write_spans(job["spans"], job["id"])
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
