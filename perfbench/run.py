"""wstirling benchmark: one closed-loop client, one fresh interpreter per job.

    python3 perfbench/run.py --workload {table,verify,det} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The seed draws the job list (``jobs.py``); the run repeats that
list, one job at a time, for about S seconds and checks every job's output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
measured by wrappers that ``tracer.py`` installs in each child from outside
the program.  Human-readable lines (environment stamp, each metric with its
unit, the failure ratio) come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import jobs as joblib

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

# Seconds one untraced pass of each workload's job list takes on the reference
# machine (2-core x86-64 VM, Python 3.11), and the traced/untraced ratio.  The
# run makes round(S / pass seconds) passes, so the sample count of a workload
# is fixed by S rather than by how fast this particular run happened to go.
PASS_SECONDS = {"table": 8.5, "verify": 6.0, "det": 6.0}
TRACE_FACTOR = 2.0
JOB_TIMEOUT = 60.0

# The machine is shared and its speed drifts by a fifth or more over minutes,
# which no run length here averages out.  So every job is bracketed by a
# fixed reference loop, and its times are scaled by REFERENCE_S over the
# loop's mean time around the job: times are reported in seconds of a
# machine on which the loop takes REFERENCE_S (this one, when it is quiet).
REFERENCE_S = 0.0042
REFERENCE_REPEATS = 5
RUN_DEADLINE = 150.0  # start no pass that would end past this many seconds

# Hash seed 0 in every child keeps set orders, and with them the traced
# counts, identical from run to run.
CHILD_ENV = {"PYTHONHASHSEED": "0"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- environment ----------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def loadavg() -> float | None:
    text = _read(Path("/proc/loadavg"))
    return float(text.split()[0]) if text else None


def environment(root: Path) -> dict:
    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu,
            "commit": git_commit(root), "loadavg_start": loadavg()}


# -- one job ----------------------------------------------------------------------------

def reference_s() -> float:
    """Best of a few runs of a fixed pure-Python loop of tuple-keyed dict
    updates and integer products, the operations the ring spends its time on."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        acc: dict = {}
        for i in range(20000):
            key = (i & 255, i >> 8)
            acc[key] = acc.get(key, 0) + i * 7
        best = min(best, time.perf_counter() - start)
    return best


class Runner:
    """Spawns the jobs of one run, one at a time, and collects what they leave."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        self.src = str(root / "src")
        self.work = HERE / "_work"
        self.work.mkdir(exist_ok=True)
        self.spans = HERE / "out" / "spans" / workload
        self.env = dict(os.environ, **CHILD_ENV)

    def run(self, job: dict, trace: bool, keep_spans: bool = False) -> dict:
        out_path, err_path, rec_path = (self.work / name for name in
                                        ("stdout", "stderr", "record.json"))
        rec_path.unlink(missing_ok=True)
        if keep_spans:
            self.spans.mkdir(parents=True, exist_ok=True)
            job = dict(job, spans=str(self.spans / f"{job['id']}.spans"))
        argv = [sys.executable, str(CHILD), self.src, str(rec_path), "1" if trace else "0",
                json.dumps(job)]
        timed_out = threading.Event()
        before = reference_s()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root, env=self.env)

            def kill():
                timed_out.set()
                proc.kill()
            timer = threading.Timer(JOB_TIMEOUT, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        scale = 2 * REFERENCE_S / (before + reference_s())
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = json.loads(_read(rec_path) or "null")
        stdout = out_path.read_bytes()
        return {"job": job, "code": proc.returncode, "timed_out": timed_out.is_set(),
                "stdout": stdout.decode("utf-8", "replace"), "stdout_bytes": len(stdout),
                "stderr": _read(err_path) or "", "scale": scale,
                "wall": (end - spawn) * scale,
                "setup": (record["ready"] - spawn) * scale if record else None,
                "busy": (record["done"] - spawn) * scale if record else None,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "trace": record.get("trace") if record else None}


# -- one pass ---------------------------------------------------------------------------

def check_pass(workload: str, results: list) -> None:
    """Mark each result ok or failed and count the cells it produced."""
    for res in results:
        problem, cells = None, 0
        if res["timed_out"]:
            problem = f"timed out after {JOB_TIMEOUT:.0f} s"
        elif res["code"] != 0:
            problem = f"exit code {res['code']}: {res['stderr'].strip()[-300:]}"
        elif res["setup"] is None:
            problem = "no timing record"
        else:
            problem, cells = joblib.CHECKS[workload](res["job"], res["stdout"])
        res["problem"], res["cells"] = problem, cells
    if workload == "table":
        by_pair: dict = {}
        for res in results:
            by_pair.setdefault(res["job"]["pair"], {})[res["job"]["mode"]] = res
        for both in by_pair.values():
            if any(res["problem"] for res in both.values()):
                continue
            problem = joblib.check_table_pair(both["cli"]["stdout"], both["api"]["stdout"])
            for res in both.values():
                res["problem"] = problem
    for res in results:
        if res["problem"]:
            print(f"FAILED {res['job']['id']}: {res['problem']}", file=sys.stderr)


def run_pass(runner: Runner, workload: str, job_list: list, trace: bool,
             keep_spans: bool = False) -> dict:
    results = [runner.run(job, trace, keep_spans) for job in job_list]
    check_pass(workload, results)
    return {"wall": sum(res["wall"] for res in results), "results": results,
            "cells": sum(res["cells"] for res in results),
            "busy": sum(res["busy"] or res["wall"] for res in results)}


def self_test(workload: str, passes: list) -> list:
    """Corrupt one real output per job shape and confirm the checker fails it."""
    missed = []
    seen = set()
    for res in passes[0]["results"]:
        shape = res["job"]["mode"]
        if res["problem"] or shape in seen:
            continue
        seen.add(shape)
        missed += joblib.self_test(workload, res["job"], res["stdout"])
    if not seen:
        missed.append("no good output to corrupt")
    return missed


# -- metrics ----------------------------------------------------------------------------

def tail(values: list):
    """Highest percentile with at least ten samples beyond it, as (value, pct);
    with ten or fewer samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes: list) -> tuple:
    results = [res for p in passes for res in p["results"]]
    walls = [res["wall"] for res in results]
    setups = [res["setup"] for res in results if res["setup"] is not None]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cells_per_s": statistics.median(p["cells"] / p["wall"] for p in passes),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_value,
        "peak_rss_mb": max(res["rss_mb"] for res in results),
    }
    notes = {"job_s.tail": f"p{tail_pct:.1f} of {len(walls)} jobs",
             "job_s.p50": f"{len(walls)} jobs",
             "setup_s": f"median of {len(setups)} job set-ups",
             "wall_s": f"median of {len(passes)} passes"}
    return metrics, notes


def _sum_traces(results: list) -> dict:
    """Sum the children's trace summaries, times scaled like the job's."""
    total = {"calls": {}, "self_s": {}, "busy_s": {}, "counts": {}}
    for res in results:
        for section, values in (res["trace"] or {}).items():
            if section in total:
                scale = res["scale"] if section.endswith("_s") else 1
                bucket = total[section]
                for key, value in values.items():
                    bucket[key] = bucket.get(key, 0) + value * scale
    return total


def per_layer(traced: dict, untraced_busy: float) -> dict:
    """Per-layer metrics of one traced pass."""
    t = _sum_traces(traced["results"])
    calls, self_s, busy, counts = t["calls"], t["self_s"], t["busy_s"], t["counts"]

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    dp_calls = calls.get("symfunc.elementary_all", 0) + calls.get("symfunc.homogeneous_upto", 0)
    lookups = calls.get("stirling.first_kind", 0) + calls.get("stirling.second_kind", 0)
    return {
        "ring.mul.calls": calls.get("ring.mul", 0),
        "ring.mul.term_pairs": counts.get("ring.mul.term_pairs", 0),
        "ring.mul.self_s": self_s.get("ring.mul", 0.0),
        "ring.add.calls": calls.get("ring.add", 0),
        "ring.add.self_s": self_s.get("ring.add", 0.0),
        "ring.coerce.calls": counts.get("ring.coerce.calls", 0),
        "ring.exact_div.calls": calls.get("ring.exact_div", 0),
        "ring.exact_div.self_s": self_s.get("ring.exact_div", 0.0),
        "ring.render.calls": calls.get("ring.render", 0),
        "ring.render.self_s": self_s.get("ring.render", 0.0),
        "symfunc.elementary_all.calls": calls.get("symfunc.elementary_all", 0),
        "symfunc.homogeneous_upto.calls": calls.get("symfunc.homogeneous_upto", 0),
        "symfunc.dp_steps": counts.get("symfunc.dp_steps", 0),
        "symfunc.self_s": layer_self("symfunc"),
        "stirling.first_kind.calls": calls.get("stirling.first_kind", 0),
        "stirling.second_kind.calls": calls.get("stirling.second_kind", 0),
        "stirling.busy_s": busy.get("stirling", 0.0),
        "stirling.self_s": layer_self("stirling"),
        "stirling.table_row.definition.busy_s": busy.get("stirling.table_row.definition", 0.0),
        "stirling.table_row.recurrence.busy_s": busy.get("stirling.table_row.recurrence", 0.0),
        "stirling.dp_steps_per_entry": (counts.get("symfunc.dp_steps", 0) / traced["cells"]
                                        if traced["cells"] else 0.0),
        "stirling.dp_calls_per_lookup": dp_calls / lookups if lookups else 0.0,
        "weights.eval.calls": calls.get("weights.eval", 0),
        "weights.eval.self_s": self_s.get("weights.eval", 0.0),
        "genfunc.calls": layer_calls("genfunc"),
        "genfunc.busy_s": busy.get("genfunc", 0.0),
        "genfunc.self_s": layer_self("genfunc"),
        "matrices.determinant.busy_s": busy.get("matrices.determinant", 0.0),
        "matrices.det_cofactor.calls": calls.get("matrices.det_cofactor", 0),
        "matrices.hankel_matrix.calls": calls.get("matrices.hankel_matrix", 0),
        "matrices.matmul.calls": calls.get("matrices.matmul", 0),
        "matrices.matmul.busy_s": busy.get("matrices.matmul", 0.0),
        "matrices.check.busy_s": busy.get("matrices", 0.0),
        "tableaux.calls": layer_calls("tableaux"),
        "tableaux.objects": counts.get("tableaux.objects", 0),
        "tableaux.busy_s": busy.get("tableaux", 0.0),
        "combinat.calls": layer_calls("combinat"),
        "combinat.objects": counts.get("combinat.objects", 0),
        "combinat.busy_s": busy.get("combinat", 0.0),
        "cli.command.busy_s": busy.get("cli.command", 0.0),
        "cli.self_s": layer_self("cli"),
        "cli.stdout_bytes": sum(res["stdout_bytes"] for res in traced["results"]),
        "trace.overhead_ratio": traced["busy"] / untraced_busy,
    }


def traced_metrics(pairs: list) -> tuple:
    """Counts from the traced passes (which must agree exactly), times as the
    median over them, overhead as traced over untraced job time."""
    per_pass = [per_layer(traced, untraced["busy"]) for untraced, traced in pairs]
    metrics = {}
    unstable = []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                unstable.append(name)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, unstable


# -- main -------------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wstirling" / "cli.py").is_file():
        print("error: run from the root of a wstirling checkout (no src/wstirling here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(root)
    print("env: " + json.dumps(env, sort_keys=True))
    runner = Runner(root, args.workload)
    job_list = joblib.make_jobs(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(job_list)} jobs per pass, "
          f"trace={args.trace}")
    # Warm-up, not measured: compiles the bytecode caches every later job reuses.
    runner.run({"id": "warmup", "mode": "cli", "weights": ["builtin:classical"],
                "argv": ["table", "--nmax", "2"]}, trace=False)

    per_pass = PASS_SECONDS[args.workload] * (TRACE_FACTOR + 1 if args.trace else 1)
    rounds = max(1, round(args.seconds / per_pass))
    passes, pairs = [], []
    started = time.monotonic()
    for i in range(rounds):
        if i and time.monotonic() - started + per_round > RUN_DEADLINE:
            print(f"stopped after {i} of {rounds} rounds at the run deadline", file=sys.stderr)
            break
        round_start = time.monotonic()
        untraced = run_pass(runner, args.workload, job_list, trace=False)
        passes.append(untraced)
        if args.trace:
            traced = run_pass(runner, args.workload, job_list, trace=True,
                              keep_spans=i == rounds - 1)
            passes.append(traced)
            pairs.append((untraced, traced))
        per_round = time.monotonic() - round_start

    results = [res for p in passes for res in p["results"]]
    attempted = len(results)
    failed = sum(1 for res in results if res["problem"])
    missed = self_test(args.workload, passes)
    for name in missed:
        print(f"SELF-TEST: the checker accepted a corrupted output ({name})", file=sys.stderr)

    if args.trace:
        values, unstable = traced_metrics(pairs)
        for name in unstable:
            print(f"UNSTABLE: count {name} differs between traced passes", file=sys.stderr)
        notes = {}
    else:
        values, notes = end_to_end(passes)
        unstable = []
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {values[name]:>16.6g} {unit}{note}")
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} jobs)")

    scales = sorted(res["scale"] for res in results)
    print(f"times are scaled to a reference loop of {REFERENCE_S * 1e3:.2f} ms; it took "
          f"{REFERENCE_S / scales[-1] * 1e3:.2f}-{REFERENCE_S / scales[0] * 1e3:.2f} ms "
          f"here (median {REFERENCE_S / statistics.median(scales) * 1e3:.2f} ms)")
    env_end = loadavg()
    print("env: " + json.dumps({"loadavg_end": env_end}))
    for load in (env["loadavg_start"], env_end):
        if load is not None and env["nproc"] and load > env["nproc"]:
            print(f"WARNING: load average {load} exceeds {env['nproc']} cpus; "
                  "timings are disturbed by other work on this machine", file=sys.stderr)
            break
    correct = failed == 0 and not missed and not unstable
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
