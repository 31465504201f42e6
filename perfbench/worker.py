"""One fresh benchmark process for one workload.

It imports the program's command-line module first and then writes
"ready" on stdout, so the parent can time set-up from process start.
It then runs a cold round, and warm rounds until its time budget is
spent, calling forensic_bias.cli.main exactly as the `bias` script
would.  Each run writes into a fresh, empty directory, is checked, and
is removed.  With --trace 1 the warm rounds alternate between untraced
and traced, so the tracing overhead is measured on the same process.

The last line of stdout is one JSON object with the samples, scaled and
unscaled; the parent (run.py) turns the samples of several such
processes into metrics.
"""

import forensic_bias.cli as cli

print("ready", flush=True)

import argparse  # noqa: E402  (set-up is timed up to the line above)
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
from pathlib import Path
from time import perf_counter_ns

import numpy

import calibration
from tracing import Tracer
from workloads import WORKLOADS, argv_for, check_run

MAX_FAILURE_MESSAGES = 5


class Runner:
    def __init__(self, workload, seed: int, work_dir: Path, tracer: Tracer | None) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.references: dict[str, dict[str, str]] = {}
        self.traced_runs = 0

    def _fail(self, preset: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"{preset}: {message}")

    def run(self, preset: str, sets: tuple[str, ...], traced: bool) -> tuple[float, bool]:
        """Seconds one run took, and whether it succeeded."""
        self.attempted += 1
        out = self.work_dir / f"run-{self.attempted}"
        argv = argv_for(preset, sets, self.seed, out)
        sink = io.StringIO()
        gc.collect()
        if traced:
            self.tracer.install(run_id=self.traced_runs)
            self.traced_runs += 1
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter_ns()
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:  # a crash is a failed run
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter_ns() - start
        finally:
            if traced:
                self.tracer.remove()
        try:
            problem = self._check(code, sink, out, preset)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problem is not None:
            self._fail(preset, problem)
        return elapsed / 1e9, problem is None

    def _check(self, code, sink: io.StringIO, out: Path, preset: str) -> str | None:
        if code != 0:
            return f"exit {code!r}: {sink.getvalue().strip()[-200:]}"
        try:
            digests = check_run(out, preset, self.seed)
        except Exception as exc:  # any unreadable or wrong output is a failed run
            return f"{type(exc).__name__}: {exc}"
        if digests != self.references.setdefault(preset, digests):
            return "artifacts differ from the first run with the same arguments"
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--budget", required=True, type=float, help="seconds of warm rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="file the traced spans are written to")
    parser.add_argument("--traced-first", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, args.seed, args.work_dir, tracer)

    # One kernel pass before the cold round and one after every round.
    # A round's times are scaled by the median of the two passes before
    # and the two after it: one pass alone is too easily caught by a burst
    # of load, and passes further away miss the host's drift.
    calibrations = [calibration.kernel_seconds()]
    rounds: list[tuple[bool, list[tuple[float, bool]]]] = []

    def run_round(traced: bool) -> None:
        rounds.append((traced, [runner.run(preset, sets, traced) for preset, sets in workload.runs]))
        calibrations.append(calibration.kernel_seconds())

    run_round(False)  # cold
    traced = bool(args.trace and args.traced_first)
    warm_start = perf_counter_ns()
    while True:
        run_round(traced)
        if args.trace:
            traced = not traced
        # Stop only after a whole round, and in trace mode only after
        # as many traced rounds as untraced ones.
        balanced = not args.trace or traced == bool(args.traced_first)
        if balanced and (perf_counter_ns() - warm_start) / 1e9 >= args.budget:
            break

    # Failed runs are timed too; they count in "failed", not in units_done.
    samples: dict[bool, list[float]] = {False: [], True: []}
    raw_samples: list[float] = []
    units_done = 0.0
    cold_s = 0.0
    for i, (traced, runs) in enumerate(rounds):
        factor = calibration.scale(calibrations[max(0, i - 1) : i + 3])
        for seconds, ok in runs:
            if i == 0:
                cold_s += seconds * factor
                continue
            samples[traced].append(seconds * factor)
            if not traced:
                raw_samples.append(seconds)
                units_done += workload.units_per_run if ok else 0

    result = {
        "cold_s": cold_s,
        "samples_s": samples[False],
        "raw_samples_s": raw_samples,
        "traced_s": samples[True],
        "busy_s": sum(samples[False]),
        "units_done": units_done,
        "calibrations_s": calibrations,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "digests": runner.references,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = {
            "runs": runner.traced_runs,
            "calls": dict(tracer.calls),
            "self_s": {name: ns / 1e9 for name, ns in tracer.self_ns.items()},
            "counts": dict(tracer.counts),
            "absent": sorted(tracer.absent),
        }
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
