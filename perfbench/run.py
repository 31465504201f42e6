"""Benchmark of `bias run`: end-to-end run metrics, or a per-layer trace.

    python3 perfbench/run.py --workload impute-mc --seed 7 --seconds 20 --trace 0

Run from a source checkout; the package is imported from src/, nothing
needs to be installed.  Load comes from one client in a closed loop:
each run starts after the previous one has ended, in one process at a
time.  The workload runs in CHILDREN fresh processes one after another,
each given an equal share of --seconds for warm runs, so set-up, cold
run and memory are measured per process and no process's luck decides
a median.  BLAS pools are pinned to one thread and the program runs with
--threads 1.  Reported times are scaled to a reference host speed by a
calibration kernel timed next to them (calibration.py); the unscaled
medians are kept in the context line.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics (see tracing.py).  Every run is checked
(workloads.py); a run that exits non-zero, raises or fails a check
counts in "failed".  The last stdout line is the result object; the line
before it records the sample counts and the environment.  Run files are
written under .perfbench_work/ in the checkout and removed afterwards;
the spans of a traced run stay in .perfbench_work/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILDREN = 4
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    buf = b""
    while b"\n" not in buf:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise BenchError("a worker did not start in time")
        chunk = os.read(proc.stdout.fileno(), 65536)
        if not chunk:
            break
        buf += chunk
    return buf


def run_child(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result object)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, bufsize=0, env=child_env(), cwd=ROOT)
    try:
        head = _read_line(proc, deadline)
        setup_s = time.perf_counter() - start
        if not head.startswith(b"ready\n"):
            raise BenchError(f"worker failed before it was ready: {head[-500:]!r}")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = (head + rest).decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(setups: list[float], results: list[dict]) -> dict[str, float]:
    samples = [s for r in results for s in r["samples_s"]]
    return {
        "setup_s": statistics.median(setups),
        "cold_run_s": statistics.median(r["cold_s"] for r in results),
        "run_s_p50": quantile(samples, 0.5),
        "run_s_p90": quantile(samples, 0.9),
        "units_per_s": sum(r["units_done"] for r in results) / sum(r["busy_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(workload, results: list[dict]) -> dict[str, float]:
    traces = [r["trace"] for r in results]
    runs = sum(t["runs"] for t in traces)
    untraced = [s for r in results for s in r["samples_s"]]
    traced = [s for r in results for s in r["traced_s"]]

    def per_run(kind: str, name: str) -> float:
        return sum(t[kind].get(name, 0) for t in traces) / runs

    def per_unit(kind: str, name: str, denominator: str) -> float:
        unit = workload.denominators.get(denominator, 0)
        return per_run(kind, name) / unit if unit else 0.0

    metrics = {}
    for name in (*tracing.SPANS, *tracing.COUNTERS):
        metrics[f"{name}.calls"] = per_run("calls", name)
        metrics[f"{name}.self_s"] = per_run("self_s", name)
    metrics.update(
        {
            "fingerprints.vectors_per_rep": per_unit("calls", "fingerprints.vectors", "replicates"),
            "contextual.ledgers_per_report": per_unit("calls", "contextual.ledgers", "reports"),
            "feedback.values_per_trajectory": per_unit("counts", "feedback.values", "trajectories"),
            "outputs.write_csv.rows": per_run("counts", "outputs.write_csv.rows"),
            "outputs.sha256_file.bytes": per_run("counts", "outputs.sha256_file.bytes"),
            "trace.overhead_share": statistics.median(traced) / statistics.median(untraced) - 1.0,
        }
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0, help="warm-run time, over all processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "forensic_bias" / "cli.py").is_file():
        print(f"error: no forensic_bias source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    (base / "spans").mkdir(parents=True, exist_ok=True)
    try:
        # Compile and cache the package once, so every timed set-up is alike.
        run_child([sys.executable, "-c", "import forensic_bias.cli; print('ready'); print('{}')"], deadline)
        setups, raw_setups, results = [], [], []
        for i in range(CHILDREN):
            argv = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--budget", str(args.seconds / CHILDREN),
                "--trace", str(args.trace),
                "--traced-first", str(i % 2),
                "--work-dir", str(work / f"child{i}"),
                "--spans", str(base / "spans" / f"{args.workload}-child{i}.csv"),
            ]
            before_s = calibration.kernel_seconds()
            setup_s, result = run_child(argv, deadline)
            raw_setups.append(setup_s)
            setups.append(setup_s * calibration.scale([before_s, *result["calibrations_s"][:2]]))
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        failures = [m for r in results for m in r["failures"]]
        # Same arguments in another process must give the same bytes too.
        for r in results[1:]:
            for preset, digests in r["digests"].items():
                if results[0]["digests"].get(preset, digests) != digests:
                    failed += 1
                    failures.append(f"{preset}: artifacts differ between processes")
        metrics = per_layer(workload, results) if args.trace else end_to_end(setups, results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "unit": workload.unit,
        "units_per_run": workload.units_per_run,
        "processes": CHILDREN,
        "setup_samples": len(setups),
        "cold_run_samples": len(results),
        "run_samples": sum(len(r["samples_s"]) for r in results),
        "traced_run_samples": sum(len(r["traced_s"]) for r in results),
        "unscaled_setup_s": statistics.median(raw_setups),
        "unscaled_run_s_p50": statistics.median(s for r in results for s in r["raw_samples_s"]),
        "calibration_s_p50": statistics.median(c for r in results for c in r["calibrations_s"]),
        "failed_share": failed / attempted,
        "failures": failures[:5],
        "nproc": len(os.sched_getaffinity(0)),
        "python": results[0]["python"],
        "numpy": results[0]["numpy"],
        "work_dir": str(base.relative_to(ROOT)),
        "work_dir_fs": filesystem_type(base),
    }
    if args.trace:
        context["absent_wrap_targets"] = sorted({a for r in results for a in r["trace"]["absent"]})
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding path, from the mount table when readable."""
    try:
        mounts = Path("/proc/self/mountinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return "unknown"
    best, fs = "", "unknown"
    resolved = str(path.resolve())
    for line in mounts:
        fields = line.split()
        mount_point, sep = fields[4], fields.index("-")
        if (resolved == mount_point or resolved.startswith(mount_point.rstrip("/") + "/")) and len(mount_point) >= len(best):
            best, fs = mount_point, fields[sep + 1]
    return fs


if __name__ == "__main__":
    raise SystemExit(main())
