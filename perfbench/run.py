#!/usr/bin/env python3
"""chainfold benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload {fold-verify,bg,animate} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program under test is imported from
./src, never from an installed copy.

--trace 0 measures the end-to-end metrics: set-up time, then whole
passes over the workload's jobs until --seconds have passed.  --trace 1
makes one untraced and one traced pass over the same jobs and reports
the per-layer metrics and the tracing overhead.  End-to-end times are
corrected for contention on a shared host (speed.py), and every job's
output is checked independently of chainfold's own verifiers.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full result
(run metadata, every job, and in traced runs every span) is written to
perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
from tracing import Tracer
from workloads import DEFAULT_SEEDS, WORKLOADS, Session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 25


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import chainfold.cli, after
    one untimed import has warmed the bytecode cache: (corrected, wall)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import chainfold.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    runs = [speed.timed(lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True), False)
            for _ in range(SETUP_REPEATS)]
    return statistics.median(r[2] for r in runs), statistics.median(r[1] for r in runs)


def run_pass(workload, p: int, main, tracer=None) -> list[dict]:
    results = []
    for job in workload.jobs(p):
        job_id = f"p{p}/{job.label}"
        if tracer is not None:
            tracer.job = job_id
        session = Session(main)
        pieces = 0
        try:
            pieces = job.body(session, job)
        except Exception as exc:  # noqa: BLE001 - a broken job is a failed job, not a crash
            session.problems.append(f"{type(exc).__name__}: {exc}")
        results.append({
            "job": job_id,
            "size": job.size,
            "seconds": session.seconds,
            "wall_s": session.wall_s,
            "pieces": pieces,
            "gate_s": job.gate_s,
            "problems": session.problems,
        })
    return results


def closed_loop(workload, main, seconds: float) -> list[dict]:
    """Whole passes, back to back, until `seconds` have passed (at least one)."""
    start = perf_counter()
    results = []
    p = 0
    while p == 0 or perf_counter() - start < seconds:
        results += run_pass(workload, p, main)
        p += 1
    return results


def jobs_per_s(results, key="seconds") -> float:
    return len(results) / sum(r[key] for r in results)


def metadata(args, workload, seed) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "jobs_per_pass": [{"job": j.label, "size": j.size} for j in workload.jobs(0)],
    }


def end_to_end(results, setup) -> tuple[dict, list[str]]:
    first_pass = [r for r in results if r["job"].startswith("p0/")]
    times = [r["seconds"] for r in results]
    failed = sum(1 for r in results if r["problems"])
    metrics = {
        "setup_s": (setup[0], "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "jobs_per_s": (jobs_per_s(results), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "output_pieces": (sum(r["pieces"] for r in first_pass), "count"),
    }
    notes = [
        f"job_p50_s over {len(times)} jobs in {len(results) // len(first_pass)} passes",
        f"uncorrected wall time: setup_s {setup[1]:.6g}, job_p50_s "
        f"{statistics.median(r['wall_s'] for r in results):.6g}, jobs_per_s "
        f"{jobs_per_s(results, 'wall_s'):.6g}",
        f"fail_ratio {failed / len(results):.4g} ratio ({failed} of {len(results)} jobs)",
    ]
    return metrics, notes


def gate_note(workload, results) -> str | None:
    if workload.gate is None:
        return None
    criterion, limit, what = workload.gate
    timed = [r for r in results if r["gate_s"] is not None]
    slowest = max(timed, key=lambda r: r["gate_s"])
    return (f"{criterion} gate headroom: {limit:g} s / {slowest['gate_s']:.4f} s "
            f"(slowest {what}, {slowest['job']}) = {limit / slowest['gate_s']:.2f}x")


def traced(workload, main) -> tuple[list[dict], dict, list[str], dict]:
    untraced = run_pass(workload, 0, main)
    tracer = Tracer()
    tracer.install()
    try:
        results = run_pass(workload, 0, tracer.span("cli", main), tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()

    total = sum(tracer.self_s.values())  # traced time, calibration samples included
    notes = [
        f"tracing overhead: jobs_per_s {jobs_per_s(results):.4f} traced vs "
        f"{jobs_per_s(untraced):.4f} untraced = "
        f"{jobs_per_s(untraced) / jobs_per_s(results):.3f}x time"
    ]
    shares = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    notes.append("self time share of traced job time: " + ", ".join(
        f"{name} {100 * s / total:.1f}%" for name, s in shares if s >= 0.005 * total))
    for name, s in sorted(tracer.kernel_s.items(), key=lambda kv: -kv[1]):
        notes.append(f"kernel {name}: {s:.4f} s inside, {100 * s / total:.1f}% of job time "
                     f"({tracer.calls[name]} calls)")
    slowest = max(results, key=lambda r: r["wall_s"])
    job_self = tracer.job_self_s[slowest["job"]]
    job_total = sum(job_self.values())
    split = sorted(job_self.items(), key=lambda kv: -kv[1])[:3]
    notes.append(f"slowest job {slowest['job']} ({slowest['size']}, {job_total:.3f} s): "
                 + ", ".join(f"{name} {100 * s / job_total:.1f}%" for name, s in split))
    spans = {"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}
    return untraced + results, metrics, notes, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fold-verify", "bg", "animate"))
    parser.add_argument("--seed", type=int, help="workload seed (default: the acceptance corpus)")
    parser.add_argument("--seconds", type=float, default=15.0, help="closed-loop measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chainfold" / "cli.py").is_file():
        print(f"error: no chainfold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chainfold.cli

    # one core for the whole run, set-up children included, so the
    # calibration kernel measures the core the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](ROOT, work, seed)
        meta = metadata(args, workload, seed)
        print("meta " + json.dumps(meta))
        spans = None
        if args.trace:
            results, metrics, notes, spans = traced(workload, chainfold.cli.main)
        else:
            setup = measure_setup()
            results = closed_loop(workload, chainfold.cli.main, args.seconds)
            metrics, notes = end_to_end(results, setup)
            notes.append(gate_note(workload, results))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r["problems"]]
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    for note in filter(None, notes):
        print(f"  {note}")
    for r in failed[:5]:
        print(f"  FAILED {r['job']}: {'; '.join(r['problems'])}")

    record = {"meta": meta, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "jobs": results}
    if spans is not None:
        record["trace"] = spans
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
