#!/usr/bin/env python3
"""Closed-loop, single-process benchmark of branchpoint-lab.

    python3 perfbench/run.py --workload cantor_ladder --seed 0 --seconds 20 --trace 0

Runs one workload's passes back to back for --seconds seconds (a pass
starts only if at least half of it would fall in that window), checks every
answer, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Times are reference seconds: wall
seconds corrected for the host's speed, which `speed.py` samples during
every timed pass.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the same untraced passes are followed by one traced setup and
pass, and the metrics are the per-layer ones from `tracer.py` (spans go to
perfbench/out/).

The package is imported from the checkout's src/ only; without it the
benchmark exits 1 and prints no result.  See perfbench/README.md.
"""

import os

# pinned before numpy loads; inherited by the set-up timing interpreters
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("cantor_ladder", "mass_curve", "anchor_quad", "pointwise")
# fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0


def _import_package():
    pkg_dir = SRC / "branchpoint_lab"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import branchpoint_lab

    if Path(branchpoint_lab.__file__).resolve().parent != pkg_dir:
        sys.exit(f"perfbench: imported {branchpoint_lab.__file__}, not {pkg_dir}")
    return branchpoint_lab


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the determinism test")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (times setup_s)")
    ap.add_argument("--record", action="store_true",
                    help="write reference.json from one pass of every workload")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record:
        ap.error("--workload is required")
    return args


def _setup_seconds(args) -> float:
    """Median reference seconds from a fresh interpreter's start to inputs ready."""
    from speed import bracketed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]

    def launch():
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up interpreter failed (exit {proc.returncode})")
        return elapsed

    samples = []
    for _ in range(SETUP_SAMPLES):
        elapsed, host_speed = bracketed(launch)
        samples.append(elapsed * host_speed)
    return statistics.median(samples)


def _env() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _passes(wl, seconds: float):
    """Untraced passes for `seconds`; returns (net wall s, reference s, tallies, answers)."""
    from speed import SpeedSampler
    from workloads import Tally

    walls, refs, tallies = [], [], []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            tally = Tally()
            gc.collect()  # garbage of the last pass is not this pass's memory
            t0 = time.perf_counter()
            answers, wall, ref = sampler.timed(lambda: wl.run_pass(tally))
            walls.append(wall)
            refs.append(ref)
            tallies.append(tally)
            now = time.perf_counter()
            # another pass starts only if at least half of it would fall in the window
            if now + (now - t0) / 2.0 - start >= seconds:
                return walls, refs, tallies, answers


def _traced_pass(wl, tracer):
    """One traced pass, without the sampler, which would run inside its spans.

    Returns (wall time, host speed from probes around the pass, tally, answers).
    """
    from speed import bracketed
    from workloads import Tally

    tally = Tally(tracer=tracer)

    def run():
        t0 = time.perf_counter()
        answers = wl.run_pass(tally)
        return time.perf_counter() - t0, answers

    (wall, answers), host_speed = bracketed(run)
    return wall, host_speed, tally, answers


def _record(wmod) -> int:
    references = {}
    for name in WORKLOAD_NAMES:
        wl = wmod.make(name, wmod.DEFAULT_SEED, "full", None)
        tally = wmod.Tally()
        answers = wl.run_pass(tally)
        if tally.failed:
            print("\n".join(tally.problems), file=sys.stderr)
            return 1
        answers.pop("counters", None)
        references[name] = answers
        print(f"recorded {name}", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}"
             for k, v in {"seed": wmod.DEFAULT_SEED, **references}.items()]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import workloads as wmod

    if args.record:
        return _record(wmod)
    if args.setup_only:
        wmod.make(args.workload, args.seed, args.size, None)
        print("ready", flush=True)
        return 0

    with open(REFERENCE, encoding="utf-8") as fh:
        references = json.load(fh)
    print("# env " + json.dumps(_env()), flush=True)
    setup_s = None if args.trace else _setup_seconds(args)

    wl = wmod.make(args.workload, args.seed, args.size, references)
    walls, times, tallies, answers = _passes(wl, args.seconds)
    run_s = statistics.median(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            wl_traced = wmod.make(args.workload, args.seed, args.size, references)
            traced_s, traced_speed, traced_tally, traced_answers = _traced_pass(wl_traced, tracer)
        finally:
            tracer.uninstall()
        tallies.append(traced_tally)
        tracer.write(wmod.OUT_DIR / f"trace_{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed, "size": args.size})
        # overhead in reference seconds, so that host drift between the
        # untraced and traced passes does not count as tracing cost
        metrics = tracer.metrics(traced_s, traced_s * traced_speed - run_s,
                                 traced_answers.get("counters", {}))
    else:
        err = max(t.err for t in tallies)
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "err_reported": {"value": err, "unit": "rel"},
        }

    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failed) for t in tallies)
    for t in tallies:
        for problem in t.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
    answers.pop("counters", None)
    print("# passes " + json.dumps({"count": len(times), "reference_s": times, "wall_s": walls,
                                    "wall_median_s": statistics.median(walls)}))
    print("# answers " + json.dumps(answers))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
