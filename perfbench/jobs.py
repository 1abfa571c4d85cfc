"""Workload job lists, drawn from a seed, and the checks on each job's output.

A job is one invocation a user would make: a CLI command (``mode: cli``, its
generated argv handed to ``wstirling.cli.main``) or a library call
(``mode: api``).  Each job runs in a fresh interpreter, because the program's
caches (``stirling._MEMO``, ``WeightSpec._cache``, ``weights.builtin``) live
for the whole process and a repeat in the same process would only time dict
lookups.

The seed chooses the job order and, for ``table`` and ``det``, the offsets
``alpha``/``beta`` inside the windows below.  Every window lies where the
weights are defined (q-integer weights need a nonnegative index), so no seed
makes a job that exits with code 2 by construction, and inside each window
the job's cost is close to flat, so seeds compare like with like.
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("table", "verify", "det")

# (family, kind, nmax).  Cost grows about as N^4 on the definition path, so N
# is set per family to keep each job under about a second.
TABLE_SPECS = (
    ("jacobi", "second", 32), ("jacobi", "first", 40),
    ("pq-binomial", "second", 26), ("pq-binomial", "first", 30),
    ("q-stirling", "second", 20), ("q-stirling", "first", 20),
    ("classical", "second", 44), ("classical", "first", 60),
    ("legendre", "second", 44), ("legendre", "first", 60),
)

# Offset windows (inclusive) per family for table jobs.  Both kinds read v at
# indices >= alpha only, so alpha >= 0 keeps q-integers defined; q-integers
# lengthen with alpha, so q-stirling stays at 0.  Jacobi, classical and
# legendre have v(0) = 0, which drops a factor from the DP at alpha 0, so
# their window starts at 1.  With w = 1, beta does not change the work.
TABLE_OFFSETS = {
    "jacobi": ((1, 2), (-3, 3)), "pq-binomial": ((-2, 2), (-2, 2)),
    "q-stirling": ((0, 0), (-3, 3)), "classical": ((1, 2), (-3, 3)),
    "legendre": ((1, 2), (-3, 3)),
}

# (family, kind, r, s, alpha window, beta window).  A second-kind matrix reads
# v at indices >= alpha; a first-kind one reads v down to alpha - r.  The
# windows avoid offsets where zero entries change the elimination path and
# with it the cost (zeta below alpha 0, jacobi first at alpha -2), and keep
# q-stirling at alpha 0, where its q-integers are shortest.
DET_SPECS = (
    ("pq-binomial", "second", 12, 4, (-2, 2), (-2, 2)),
    ("q-stirling", "second", 8, 3, (0, 0), (-3, 3)),
    ("zeta", "first", 12, 0, (0, 1), (-2, 1)),
    ("q-binomial", "first", 12, 0, (-2, 0), (-3, 3)),
    ("jacobi", "second", 11, 2, (-1, 2), (-3, 3)),
    ("jacobi", "first", 11, 2, (0, 2), (-3, 3)),
)

VERIFY_SUITES = ("recurrences", "genfunc", "orthogonality", "convolution", "lu",
                 "determinants", "tableaux", "combinatorial")
VERIFY_NMAX = 6

# Identity count and checked-cell total per suite at --nmax 6 over the full
# catalog and the default -1:1 grids.  A sweep narrowed for speed falls below
# them and fails the job.
VERIFY_FLOORS = {
    "recurrences": (84, 16848), "genfunc": (39, 2230), "orthogonality": (49, 14488),
    "convolution": (24, 5676), "lu": (24, 3306), "determinants": (25, 3312),
    "tableaux": (27, 2916), "combinatorial": (38, 3191),
}


def make_jobs(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        jobs = []
        for family, kind, nmax in TABLE_SPECS:
            (alo, ahi), (blo, bhi) = TABLE_OFFSETS[family]
            alpha, beta = rng.randint(alo, ahi), rng.randint(blo, bhi)
            key = f"{family}-{kind}-n{nmax}-a{alpha}-b{beta}"
            cells = (nmax + 1) * (nmax + 2) // 2
            common = {"weights": [f"builtin:{family}"], "pair": key, "cells": cells,
                      "nmax": nmax}
            jobs.append(dict(common, id=f"cli-{key}", mode="cli", argv=[
                "table", "--format", "csv", "--kind", kind, "--weights", f"builtin:{family}",
                "--alpha", str(alpha), "--beta", str(beta), "--nmax", str(nmax)]))
            jobs.append(dict(common, id=f"api-{key}", mode="api", kind=kind,
                             alpha=alpha, beta=beta))
    elif workload == "det":
        jobs = []
        for family, kind, r, s, (alo, ahi), (blo, bhi) in DET_SPECS:
            alpha, beta = rng.randint(alo, ahi), rng.randint(blo, bhi)
            jobs.append({"id": f"det-{family}-{kind}-r{r}-s{s}-a{alpha}-b{beta}",
                         "mode": "cli", "weights": [f"builtin:{family}"],
                         "cells": (r + 1) ** 2, "r": r, "argv": [
                             "det", "--kind", kind, "--r", str(r), "--s", str(s),
                             "--weights", f"builtin:{family}",
                             "--alpha", str(alpha), "--beta", str(beta)]})
    elif workload == "verify":
        jobs = [{"id": f"verify-{suite}", "mode": "cli", "suite": suite,
                 "weights": "catalog",
                 "argv": ["verify", "--suite", suite, "--nmax", str(VERIFY_NMAX)]}
                for suite in VERIFY_SUITES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# -- output checks ------------------------------------------------------------------
#
# Each check takes the job and its stdout text and returns (problem, cells):
# problem is None when the output is right.  The exit code is checked by the
# caller.

_VERIFY_LINE = re.compile(r"^(PASS|FAIL|SKIP) \S+ weights=\S+ checked=(\d+) skipped=(\d+)$")
_VERIFY_SUMMARY = re.compile(
    r"^result: (\d+) identities, (\d+) passed, (\d+) failed, (\d+) skipped$")


def check_verify(job, text: str):
    lines = text.splitlines()
    summary = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    if summary is None:
        return "no summary line", 0
    total, passed, failed, skipped = map(int, summary.groups())
    if failed:
        return f"{failed} identities failed", 0
    results = [m for m in map(_VERIFY_LINE.match, lines[1:-1]) if m]
    if len(results) != total or passed + skipped != total:
        return f"summary counts {total} identities but {len(results)} lines", 0
    if any(m.group(1) == "FAIL" for m in results):
        return "a FAIL line", 0
    checked = sum(int(m.group(2)) for m in results)
    cells = checked + sum(int(m.group(3)) for m in results)
    floor_ids, floor_checked = VERIFY_FLOORS[job["suite"]]
    if total < floor_ids or checked < floor_checked:
        return (f"sweep narrowed: {total} identities, {checked} checked cells "
                f"(floor {floor_ids}, {floor_checked})"), cells
    return None, cells


def check_det(job, text: str):
    lines = text.splitlines()
    if not lines or lines[-1] != "EQUAL":
        return "last line is not EQUAL", 0
    if lines[0] != f"matrix (dim {job['r'] + 1}):":
        return "wrong matrix dimension", 0
    det = [line for line in lines if line.startswith("det=")]
    formula = [line for line in lines if line.startswith("formula=")]
    if len(det) != 1 or len(formula) != 1 or det[0][4:] != formula[0][8:]:
        return "determinant and closed form differ", 0
    return None, job["cells"]


def check_table_shape(job, text: str):
    rows = text.rstrip("\n").split(";")
    if len(rows) != job["nmax"] + 1:
        return f"{len(rows)} rows, expected {job['nmax'] + 1}", 0
    for n, row in enumerate(rows):
        if row.count(",") != n:
            return f"row {n} has {row.count(',') + 1} entries", 0
    return None, job["cells"]


def check_table_pair(cli_text: str, api_text: str):
    """The CLI definition output and the API recurrence rendering of one job
    must match byte for byte."""
    if cli_text != api_text:
        return "definition and recurrence outputs differ"
    return None


CHECKS = {"table": check_table_shape, "det": check_det, "verify": check_verify}


# -- self-test ----------------------------------------------------------------------

def _corruptions(workload: str, text: str):
    """Damaged copies of a real output that a sound checker must reject."""
    if workload == "table":
        digit = next(i for i in range(len(text) - 1, -1, -1) if text[i].isdigit())
        flipped = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
        yield "one digit changed", flipped
        yield "last row dropped", text.rstrip("\n").rsplit(";", 1)[0] + "\n"
    elif workload == "det":
        lines = text.splitlines()
        yield "DIFFER", "\n".join(lines[:-1] + ["DIFFER"]) + "\n"
        yield "formula changed", "\n".join(
            line + " + 1" if line.startswith("formula=") else line for line in lines) + "\n"
    else:
        lines = text.splitlines()
        yield "one failure", text.replace(" 0 failed,", " 1 failed,")
        first = next(i for i, line in enumerate(lines) if line.startswith("PASS "))
        yield "identity dropped", "\n".join(lines[:first] + lines[first + 1:]) + "\n"
        narrowed = re.sub(r"checked=(\d+)", lambda m: f"checked={int(m.group(1)) // 2}", text)
        yield "checked cells halved", narrowed


def self_test(workload: str, job, text: str) -> list:
    """Feed the checker corrupted copies of a good output; return the names
    of the corruptions it failed to catch."""
    missed = []
    for name, bad in _corruptions(workload, text):
        problem, _ = CHECKS[workload](job, bad)
        if problem is None and workload == "table":
            problem = check_table_pair(text, bad)
        if problem is None:
            missed.append(name)
    return missed
