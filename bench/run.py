#!/usr/bin/env python3
"""Run one workload of the multising benchmark and print its metrics.

    python3 bench/run.py --workload exact|mc|multiprime --seed N --seconds S --trace 0|1

The program is imported from the src/ directory next to bench/, never from
an installed copy.  The run makes S // NOMINAL_ROUND_S rounds (at least
one) of the workload's three passes (solve, sweep, cli), which take about S
seconds; the number of rounds does not depend on the clock.  Around the
rounds it measures setup_s in fresh interpreters.  It checks every output
outside the timed passes and prints one JSON object as the last line of its
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds);
with --trace 1 the package's public functions are wrapped and the metrics are
the per-layer ones of tracing.PER_LAYER.  A report with the machine, the
per-round figures and every failed operation goes to bench/out/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread, as the workloads are measured

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7  # spread evenly over the gaps before, between and after the rounds
WORKLOADS = ("exact", "mc", "multiprime")
END_TO_END = ["setup_s", "solve_s", "sweep_s", "cli_s", "peak_rss_mb"]
# Nominal length of one round (its three timed passes) on a 2-vCPU x86-64
# virtual machine; a run of S seconds makes S // NOMINAL_ROUND_S rounds.
NOMINAL_ROUND_S = {"exact": 6.5, "mc": 6.5, "multiprime": 12.0}


def import_program():
    package = SRC / "multising"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import multising

    if Path(multising.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported multising from {multising.__file__}, not from {package}")


def steal_ticks():
    """Stolen CPU ticks of the whole machine, from the cpu line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=False,  # not the revision of a repository above ROOT
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_reference_s() -> float:
    """Seconds for a fixed pure-Python loop that does not touch the program
    and allocates nothing: its drift from run to run is the host's."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i
    return time.perf_counter() - t0


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)  # shared with child processes


def probe_setup(args):
    """Child side of setup_s: import the program, build the inputs, report."""
    import_program()
    import workloads

    workloads.build(args.workload, args.seed, OUT / args.workload)
    print(monotonic_ns())


def measure_setup(args, probes):
    samples = []
    for _ in range(probes):
        t0 = monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        samples.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return samples


def rounds_for(workload_name: str, seconds: float) -> int:
    """Rounds in a run of `seconds`: fixed by the nominal round length, not
    by the clock, so every run of the same length attempts the same
    operations whatever the speed of the host or the program."""
    return max(1, int(seconds // NOMINAL_ROUND_S[workload_name]))


def run_rounds(workload, rounds, tracer, between=None):
    """Run `rounds` rounds of the three passes.  Every output of every round
    is checked after the round's passes, outside the timed regions.
    `between()` runs before each round and after the last one."""
    import workloads as W

    times = {p: [] for p in W.PASSES}
    op_s = {op.name: [] for p in W.PASSES for op in workload.passes[p]}
    layers, check_s = [], []
    attempted = failed = 0
    failures = {}
    peak_rss_mb = None
    for _ in range(rounds):
        if between:
            between()
        results = {}
        for pname in W.PASSES:
            if tracer:
                tracer.start()
            t0 = time.perf_counter()
            for op in workload.passes[pname]:
                t1 = time.perf_counter()
                try:
                    results[op.name] = op.run(results)
                except Exception as err:  # an operation's failure is counted, not fatal
                    results[op.name] = W.Raised(err)
                op_s[op.name].append(time.perf_counter() - t1)
            times[pname].append(time.perf_counter() - t0)
            if tracer:
                tracer.stop()
        if tracer:
            layers.append(tracer.take())
        if peak_rss_mb is None:  # the workload's own peak, before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = time.perf_counter()
        for pname in W.PASSES:
            for op in workload.passes[pname]:
                problems = W.check_output(op, results[op.name], results)
                attempted += 1
                if problems:
                    failed += 1
                    failures.setdefault(op.name, problems)
        check_s.append(time.perf_counter() - t0)
    if between:
        between()
    return {"times": times, "op_s": op_s, "layers": layers, "check_s": check_s, "attempted": attempted,
            "failed": failed, "failures": failures, "outputs": results, "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0

    import_program()
    wall0, steal0 = time.perf_counter(), steal_ticks()

    import numpy as np

    import workloads as W
    from tracing import PER_LAYER, Tracer

    workload = W.build(args.workload, args.seed, OUT / args.workload)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rounds = rounds_for(args.workload, args.seconds)
    setup = []
    # set-up probes spread over the gaps around the rounds, so they meet the host at several times
    gap_probes = iter([len(range(k, SETUP_PROBES, rounds + 1)) for k in range(rounds + 1)])

    host_ref = []

    def between():
        host_ref.append(host_reference_s())
        n_probes = next(gap_probes)
        if not args.trace:
            setup.extend(measure_setup(args, n_probes))

    res = run_rounds(workload, rounds, tracer, between)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = res["peak_rss_mb"]

    unknown = sorted(name for name in res["failures"] if name not in W.KNOWN_FAULTS)
    pass_median = {p: statistics.median(v) for p, v in res["times"].items()}
    if args.trace:
        counts_repeat = all(r[name] == res["layers"][0][name] for r in res["layers"]
                            for name, unit in PER_LAYER.items() if unit == "count")
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [r[name] for r in res["layers"]]
            value = statistics.median(values) if unit == "s" else values[0]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": pass_median["solve"], "unit": "s"},
            "sweep_s": {"value": pass_median["sweep"], "unit": "s"},
            "cli_s": {"value": pass_median["cli"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    steal1 = steal_ticks()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": workload.inputs,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform()},
        "git_revision": git_revision(),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "wall_s": time.perf_counter() - wall0,
        "setup_s_samples": setup, "host_ref_s": host_ref,
        "pass_s": res["times"], "op_s": res["op_s"], "pass_median_s": pass_median, "check_s": res["check_s"],
        "rounds": len(res["check_s"]), "peak_rss_mb": peak_rss_mb,
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": {name: {"known_fault": W.KNOWN_FAULTS.get(name), "problems": problems}
                     for name, problems in sorted(res["failures"].items())},
        "metrics": metrics,
    }
    if args.trace:
        report["layers_per_round"] = res["layers"]
        report["counts_repeat_across_rounds"] = counts_repeat
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"{args.workload} seed {args.seed}: {report['rounds']} rounds, "
          f"{res['attempted']} operations, {res['failed']} failed; report {path.relative_to(ROOT)}")
    for name, problems in sorted(res["failures"].items()):
        label = "known fault" if name in W.KNOWN_FAULTS else "WRONG"
        print(f"  {label} {name}: {problems[0]}")
    print(json.dumps({"correct": not unknown, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
