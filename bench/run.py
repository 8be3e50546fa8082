"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
                         [--known-defects]

Builds the workload's inputs from the seed, runs them against the
veechlab sources in src/ beside this directory, checks every op against
its known answer and prints the metrics: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics of a
traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full record of the run
(environment, every op, the trace) is written under DIR, by default
.bench_out in the repository root; bench/compare.py reads those records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def percentile(values, q: float) -> float:
    """The q-th percentile, interpolating linearly between ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of count samples lie above their q-th percentile rank."""
    return count - 1 - math.floor((count - 1) * q / 100.0)


def _seconds_by_n(ops, seconds) -> dict:
    by_n = {}
    for r in ops:
        by_n.setdefault(r["n"], []).append(seconds(r))
    return by_n


def units(section: str) -> dict:
    """Metric name -> unit, for the end_to_end or per_layer section of
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end_metrics(measured, scaled: bool) -> dict:
    """The end-to-end metrics, with times at the nominal machine speed or
    as measured."""
    seconds = measured.at_nominal if scaled else (lambda r: r["seconds"])
    times = [seconds(r) for r in measured.ops]
    by_n = _seconds_by_n(measured.ops, seconds)
    ok = sum(r["ok"] for r in measured.ops)
    return {
        "setup_s": seconds(measured.setup),
        "wall_s": statistics.median(sum(seconds(r) for r in p) for p in measured.passes),
        "op_median_s": statistics.median(times),
        "op_p75_s": percentile(times, 75),
        # means: the ops at one n are few and of mixed degree and kind, so
        # their median is one op, whose degree the seed picks
        "largest_n_op_s": statistics.fmean(by_n[max(by_n)]),
        "smallest_n_op_s": statistics.fmean(by_n[min(by_n)]),
        "ok_ratio": ok / len(times),
        "peak_rss_mb": measured.peak_rss_mb,
    }


def per_n_seconds(measured, prefix: str) -> dict:
    by_n = _seconds_by_n(measured.ops, measured.at_nominal)
    return {"%s.n%d" % (prefix, n): statistics.fmean(v) for n, v in sorted(by_n.items())}


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    import mpmath
    import veechlab
    import veechlab.field

    return {
        "python": platform.python_version(),
        "rational_backend": veechlab.field._QQ.__module__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "veechlab": veechlab.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _import_veechlab_from_src():
    """Import veechlab from SRC and nowhere else."""
    if not (SRC / "veechlab" / "__init__.py").is_file():
        raise SystemExit("error: no veechlab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import veechlab

    if Path(veechlab.__file__).resolve().parent != SRC / "veechlab":
        raise SystemExit("error: veechlab was imported from %s, not %s" % (veechlab.__file__, SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cold-verify", "family-sweep", "revalidate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--known-defects", action="store_true",
                        help="revalidate: add the tampered payloads that veechlab accepts "
                             "today (ROADMAP open item 4); the run then reports failed ops")
    args = parser.parse_args(argv)

    _import_veechlab_from_src()
    from workloads import INPUTS, WORKLOADS, revalidate_inputs

    if args.known_defects and args.workload != "revalidate":
        parser.error("--known-defects applies to the revalidate workload only")
    if args.known_defects:
        ops = revalidate_inputs(args.seed, known_defects=True)
    else:
        ops = INPUTS[args.workload](args.seed)
    measured = WORKLOADS[args.workload](ops, args.seconds, bool(args.trace), SRC, args.out)

    attempted = len(measured.ops)
    failed = sum(not r["ok"] for r in measured.ops)
    env = environment()
    print("environment: %s" % json.dumps(env, sort_keys=True))
    print("workload %s, seed %d, trace %d: %d ops in %d passes of %d ops, %d failed"
          % (args.workload, args.seed, args.trace, attempted, len(measured.passes),
             len(ops), failed))
    failures = {}
    for r in measured.ops:
        if not r["ok"]:
            key = "n=%s d=%s kind=%s: %s" % (r["n"], r["d"], r["kind"], r["answer"])
            failures[key] = failures.get(key, 0) + 1
    for key, count in failures.items():
        print("failed %d x %s" % (count, key))

    # times go to the nominal machine speed; counts and ratios stay as they are
    if args.trace:
        from tracer import layer_metrics

        unscaled = layer_metrics(measured.summary, measured.overhead_ratio)
        unit = units("per_layer")
        values = {name: measured.scale * v if unit[name] == "s" else v
                  for name, v in unscaled.items()}
        details = {}
    else:
        unscaled = end_to_end_metrics(measured, scaled=False)
        unit = units("end_to_end")
        values = end_to_end_metrics(measured, scaled=True)
        prefix = "verify_s" if args.workload == "cold-verify" else "op_s"
        details = per_n_seconds(measured, prefix)
        details["error_rate"] = failed / attempted
    metrics = {name: {"value": v, "unit": unit[name]} for name, v in values.items()}
    print("times are at the nominal machine speed; the run's mean factor is %.4f over %d samples"
          % (measured.scale, len(measured.samples)))
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in details.items():
        print("%-40s %14.6g %s" % (name, value, "ratio" if name == "error_rate" else "s"))

    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "known_defects": args.known_defects,
        "environment": env,
        "metrics": metrics,
        "unscaled": unscaled,
        "details": details,
        "scale": measured.scale,
        "setup": measured.setup,
        "ops": measured.ops,
        "ops_per_pass": [len(p) for p in measured.passes],
    }
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.known_defects:
        # not a run of the workload itself: compare.py does not pair it
        stem += "-known-defects"
    (results / (stem + ".json")).write_text(json.dumps(record, indent=1), encoding="utf-8")
    if measured.traces:
        traces = args.out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / (stem + ".json")).write_text(json.dumps(measured.traces), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
