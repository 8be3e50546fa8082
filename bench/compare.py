"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory is an --out directory of bench/run.py.  Untraced runs are
paired by workload and seed.  For every workload and end-to-end metric
of BENCHMARK.json this prints each side's median and quartiles and one
verdict, by the rule of the choosing-metrics guide (section 8) with the
benchmark's own bounds:

  worse       the new median is worse than the base median by more than
              the metric's bound;
  better      at least ten pairs, the new run wins at least nine tenths
              of them (ties count for neither side), and the medians
              differ by more than the base side's interquartile range;
  unresolved  the base side's interquartile range, as a share of its
              median, is wider than the bound, and not every new run
              beats every base run;
  unchanged   otherwise.

The last column gives both sides' medians of the unscaled values (times
are scaled to a nominal machine speed; see speed.py), so that a shift
of the scale factor shows.  Pairs whose rational
backends differ are flagged: their times are not comparable.  The exit code is 1 when a metric is worse or a backend
differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base: list, new: list, better: str, bound: float) -> str:
    """base[i] and new[i] are one pair of runs (same workload and seed)."""
    sign = 1.0 if better == "lower" else -1.0
    med_base = statistics.median(base)
    med_new = statistics.median(new)
    worse_share = sign * (med_new - med_base) / med_base
    if worse_share > bound:
        return "worse"
    wins = sum(sign * (b - n) > 0 for b, n in zip(base, new))
    q1, q3 = quartiles(base)
    if (
        len(base) >= MIN_PAIRS
        and wins >= 0.9 * len(base)
        and sign * (med_base - med_new) > q3 - q1
    ):
        return "better"
    all_beat = all(sign * (b - n) > 0 for b in base for n in new)
    if (q3 - q1) / abs(med_base) > bound and not all_beat:
        return "unresolved"
    return "unchanged"


def load_runs(directory: Path) -> dict:
    """(workload, seed) -> run record, for the untraced runs in directory."""
    runs = {}
    for path in sorted((directory / "results").glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[(record["workload"], record["seed"])] = record
    return runs


def compare(base_runs: dict, new_runs: dict, spec: dict, out=sys.stdout) -> int:
    status = 0
    for key in sorted(set(base_runs) & set(new_runs)):
        a = base_runs[key]["environment"]["rational_backend"]
        b = new_runs[key]["environment"]["rational_backend"]
        if a != b:
            print("FLAG %s seed %d: rational backend %s vs %s" % (key[0], key[1], a, b), file=out)
            status = 1
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-13s %-16s %7s  %-30s %-30s %9s  %-10s  %s" % (
        "workload", "metric", "pairs", "base median [q1, q3]", "new median [q1, q3]",
        "change", "verdict", "unscaled base -> new"), file=out)
    for workload in workloads:
        seeds = sorted(s for w, s in set(base_runs) & set(new_runs) if w == workload)
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [base_runs[(workload, s)]["metrics"][name]["value"] for s in seeds]
            new = [new_runs[(workload, s)]["metrics"][name]["value"] for s in seeds]
            result = verdict(base, new, metric["better"], metric["bound"])
            raw_a, raw_b = (
                statistics.median(runs[(workload, s)]["unscaled"][name] for s in seeds)
                for runs in (base_runs, new_runs)
            )
            if result == "worse":
                status = 1
            med_a, med_b = statistics.median(base), statistics.median(new)
            change = (med_b - med_a) / med_a if med_a else 0.0
            print("%-13s %-16s %7d  %-30s %-30s %+8.1f%%  %-10s  %.4g -> %.4g" % (
                workload, name, len(seeds),
                "%.4g [%.4g, %.4g]" % ((med_a,) + quartiles(base)),
                "%.4g [%.4g, %.4g]" % ((med_b,) + quartiles(new)),
                100 * change, result, raw_a, raw_b), file=out)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec)


if __name__ == "__main__":
    sys.exit(main())
