#!/usr/bin/env python3
"""Benchmark for gaugepf: four workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload bp_solve --seed 1 --seconds 25 --trace 0

The seed makes the workload's inputs; the program sees only those inputs.
The timed phase runs whole rounds, every case of the workload once per
round, for about ``--seconds`` seconds, and always at least one round.
Before the first case and after each case it runs the reference kernels of
``reference``; their speed on either side of a case scales that case's time
(see there).  Outputs are checked against ``oracle`` after the timed phase.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.Tracer`` with ``--trace 1``.

End-to-end metrics:
  setup_s      median over SETUP_PROBES fresh processes of importing gaugepf
               and building the workload's inputs, each time calibrated by
               the small_tables kernel run in the same process after it
  run_s        time of one round, every case once: each case's mean
               calibrated time over the rounds, summed over the cases
  case_ms_p50  median over the cases of each case's mean calibrated time
               over the rounds
  peak_rss_mb  peak resident memory of this process after the timed phase
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread: the program is single-threaded Python, a thread pool only
# adds start-up time and noise on a shared machine.  Set before numpy loads;
# the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
SETUP_CALIBRATION_SAMPLES = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "case_ms_p50": "ms", "peak_rss_mb": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", metavar="WORKDIR",
                   help="time one set-up in this process and print it (internal)")
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int, workdir: str) -> None:
    """One set-up: import gaugepf and build the inputs.

    Prints its seconds and the calibration factor measured right after it.
    """
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].build(seed, workdir)
    took = time.perf_counter() - t0
    import reference

    calibration = reference.Calibration(("small_tables",))
    for _ in range(SETUP_CALIBRATION_SAMPLES):
        calibration.sample()
    print(repr(took), repr(calibration.factor()))


def measure_setup(workload: str, seed: int, workdir: Path) -> list:
    """(seconds, factor) of SETUP_PROBES fresh set-ups, one after another."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--probe-setup", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, factor = done.stdout.strip().splitlines()[-1].split()
        times.append((float(took), float(factor)))
    return times


@dataclass
class Phase:
    """What the timed phase leaves for the checks and the metrics.

    Request ``r`` is case ``r % len(cases)`` in round ``r // len(cases)``;
    its output and, when traced, its spans carry that identifier.
    """

    outputs: list = field(default_factory=list)  # first round, in full
    fingerprints: list = field(default_factory=list)  # one list per round
    case_times: list = field(default_factory=list)  # per request, seconds
    failed: list = field(default_factory=list)  # (request, exception text)
    plain: list = field(default_factory=list)  # summed case times per round
    traced: list = field(default_factory=list)
    walls: list = field(default_factory=list)  # round wall times, kernels too
    summaries: list = field(default_factory=list)  # per traced round
    first_traced: range | None = None


def run_round(wl, cases, phase: Phase, tracer, calibration) -> float:
    """Run every case once and return the sum of the cases' times."""
    first = len(phase.fingerprints) * len(cases)
    outputs = []
    took = 0.0
    t_round = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.request = first + i
        t0 = time.perf_counter()
        try:
            out = wl.run(case)
        except Exception as exc:  # one failed operation; the run goes on
            out = exc
        t_case = time.perf_counter() - t0
        phase.case_times.append(t_case)
        took += t_case
        outputs.append(out)
        if calibration is not None:
            calibration.after_case(t_case)
    phase.walls.append(time.perf_counter() - t_round)
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            phase.failed.append((first + i, repr(out)))
        elif wl.failed(out):
            phase.failed.append((first + i, ""))
    if not phase.outputs:
        phase.outputs = outputs
    phase.fingerprints.append([
        repr(out) if isinstance(out, Exception) else wl.fingerprint(out) for out in outputs
    ])
    return took


def timed_phase(wl, cases, seconds: float, tracer, calibration) -> Phase:
    """Whole rounds until the next one would end after ``seconds``.

    With a tracer, rounds alternate between plain and traced, plain first,
    and there is at least one of each; the plain rounds give the overhead.
    """
    phase = Phase()
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(phase.plain) > len(phase.traced)
        if not traced:
            phase.plain.append(run_round(wl, cases, phase, None, calibration))
        else:
            requests = range(len(phase.fingerprints) * len(cases),
                             (len(phase.fingerprints) + 1) * len(cases))
            tracer.install()
            try:
                phase.traced.append(run_round(wl, cases, phase, tracer, None))
            finally:
                tracer.uninstall()
            phase.summaries.append(tracer.summarise(requests))
            if phase.first_traced is None:
                phase.first_traced = requests
        if tracer is not None and not phase.traced:
            continue
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(phase.walls) > seconds:
            return phase


def check_outputs(wl, cases, phase: Phase) -> list:
    """Problems in the first round's outputs, and anything that changed."""
    problems = []
    failed = {request for request, _ in phase.failed}
    for i, (case, out) in enumerate(zip(cases, phase.outputs)):
        if i not in failed:
            problems += [f"{case.name}: {p}" for p in wl.check(case, out)]
        if any(fp[i] != phase.fingerprints[0][i] for fp in phase.fingerprints):
            problems.append(f"{case.name}: output changed between rounds")
    counts = [{k: v for k, v in s.items() if not k.endswith(".self_ms")}
              for s in phase.summaries]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts changed between traced rounds")
    return problems


def case_means(times: list, n_cases: int) -> list:
    """Each case's mean time over the rounds, in seconds."""
    return [statistics.fmean(times[i::n_cases]) for i in range(n_cases)]


def end_to_end(phase: Phase, n_cases: int, setup_times: list, peak_rss_mb: float,
               calibration) -> dict:
    # means, not best-of: on the tuning host a 20 s window's fastest repeat
    # of a case spread twice as much from window to window as its mean did
    calibrated = [t * calibration.case_factor(r) for r, t in enumerate(phase.case_times)]
    means = case_means(calibrated, n_cases)
    return {
        "setup_s": statistics.median(took * factor for took, factor in setup_times),
        "run_s": sum(means),
        "case_ms_p50": 1e3 * statistics.median(means),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(phase: Phase) -> dict:
    # counts repeat exactly from round to round (checked); times are the
    # mean over the traced rounds, uncalibrated
    metrics = {}
    for name in phase.summaries[0]:
        values = [s[name] for s in phase.summaries]
        metrics[name] = statistics.fmean(values) if name.endswith(".self_ms") else values[0]
    metrics["trace.overhead_s"] = statistics.fmean(phase.traced) - statistics.fmean(phase.plain)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaugepf" / "__init__.py").is_file():
        print(f"error: no gaugepf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.probe_setup)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        return run_benchmark(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmark(args, wl, workdir: Path) -> int:
    import workloads

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
    cases = wl.build(args.seed, str(workdir))
    print(f"{wl.name} seed {args.seed}: " + ", ".join(map(workloads.describe, cases)))

    tracer = calibration = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    else:
        import reference

        calibration = reference.Calibration(wl.reference)
        calibration.burst(reference.FIRST_BURST_S)
    phase = timed_phase(wl, cases, args.seconds, tracer, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_outputs(wl, cases, phase)
    for request, why in phase.failed:
        print(f"FAILED {cases[request % len(cases)].name} (request {request}) {why}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    for i, case in enumerate(cases):
        print(f"  {case.name}: " + " ".join(
            f"{1e3 * t:.0f}" for t in phase.case_times[i::len(cases)]) + " ms")
    print(f"{len(phase.fingerprints)} rounds of {len(cases)} cases, "
          f"{len(phase.failed)} failed, {len(problems)} check failures")

    if tracer is None:
        means = case_means(phase.case_times, len(cases))
        print(f"calibration: {len(calibration.samples)} samples of {'+'.join(wl.reference)}, "
              f"mean {1e3 * statistics.fmean(calibration.samples):.2f} ms against "
              f"{1e3 * calibration.nominal_s:.0f} ms nominal, "
              f"factor {calibration.factor():.4f} over the run")
        print(f"uncalibrated: set-up {statistics.median(t for t, _ in setup_times):.4f} s, "
              f"run {sum(means):.4f} s, "
              f"case p50 {1e3 * statistics.median(means):.2f} ms")
        metrics = end_to_end(phase, len(cases), setup_times, peak_rss_mb, calibration)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(phase)
        units = tracing.metric_units()
        dump = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(str(dump), phase.first_traced, [c.name for c in cases])
        if tracer.absent:
            print("absent, reported as 0: " + ", ".join(tracer.absent))
        print(f"spans of one traced round written to {dump}")
        print("plain rounds " + " ".join(f"{t:.3f}" for t in phase.plain)
              + " s, traced rounds " + " ".join(f"{t:.3f}" for t in phase.traced) + " s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": len(phase.case_times),
        "failed": len(phase.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
