#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

    python3 perfbench/compare.py BASE NEW    # one row per (workload, metric)
    python3 perfbench/compare.py BASE        # the spread of one set

A result set is a directory written by `run.py --out DIR`: one
<workload>.jsonl file per workload, one untraced run per line. For
every workload and end-to-end metric of BENCHMARK.json the row shows each side's
median, how much worse NEW's median is (negative: better), and each
side's spread (the distance between the first and third quartile over
the median). The verdict is

  unresolved  either side's spread exceeds the metric's bound;
  worse       NEW's median is worse than BASE's by more than the bound;
  improved    NEW wins at least 9 in 10 runs paired by seed, and the
              medians differ by more than BASE's quartile distance;
  unchanged   otherwise.

Exits 1 when any row is worse or unresolved, or when any run in either
set failed its oracle check.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_set(path, workloads):
    runs = {}
    for wl in workloads:
        name = os.path.join(path, wl + ".jsonl")
        if os.path.exists(name):
            with open(name) as fh:
                runs[wl] = [json.loads(l) for l in fh if l.strip()]
    return runs


def values(runs, metric):
    """(seed, value) of every untraced run that reports the metric."""
    out = []
    for r in runs:
        m = r["result"]["metrics"].get(metric)
        if m is not None and r["env"].get("trace", 0) == 0:
            out.append((r["env"].get("seed"), m["value"]))
    return out


def spread(vals):
    if len(vals) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(statistics.median(vals))


def worse_by(base, new, better):
    """Relative change of the median, positive when NEW is worse."""
    d = (new - base) / abs(base)
    return d if better == "lower" else -d


def verdict(metric, base, new):
    bound = metric["bound"]
    bv, nv = [v for _, v in base], [v for _, v in new]
    sb, sn = spread(bv), spread(nv)
    mb, mn = statistics.median(bv), statistics.median(nv)
    change = worse_by(mb, mn, metric["better"])
    if sb > bound or sn > bound:
        return "unresolved", change, sb, sn
    if change > bound:
        return "worse", change, sb, sn
    pairs = list(zip(sorted(base, key=lambda x: str(x[0])), sorted(new, key=lambda x: str(x[0]))))
    wins = sum(1 for (_, b), (_, n) in pairs if worse_by(b, n, metric["better"]) < 0)
    q1, _, q3 = statistics.quantiles(bv, n=4)
    if pairs and wins >= 0.9 * len(pairs) and abs(mn - mb) > (q3 - q1):
        return "improved", change, sb, sn
    return "unchanged", change, sb, sn


def all_correct(runs):
    return all(r["result"]["correct"] for rs in runs.values() for r in rs)


def main(argv):
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    base = load_set(argv[1], workloads)
    new = load_set(argv[2], workloads) if len(argv) == 3 else None
    bad = not all_correct(base) or (new is not None and not all_correct(new))
    if new is None:
        print("%-8s %-26s %6s %14s %9s %7s" % ("workload", "metric", "runs", "median", "spread",
                                               "bound"))
    else:
        print("%-8s %-26s %14s %14s %8s %8s %8s %7s  %s"
              % ("workload", "metric", "base", "new", "worse_by", "spread_b", "spread_n", "bound",
                 "verdict"))
    for wl in workloads:
        if wl not in base:
            print("%-8s missing in %s" % (wl, argv[1]))
            bad = True
            continue
        for metric in spec["end_to_end"]:
            bvals = values(base[wl], metric["name"])
            if not bvals:
                print("%-8s %-26s missing in %s" % (wl, metric["name"], argv[1]))
                bad = True
                continue
            if new is None:
                s = spread([v for _, v in bvals])
                if metric["name"] == "setup_s":
                    flag = "(spread not gated)"
                elif s > metric["bound"]:
                    flag = "TOO WIDE"
                    bad = True
                else:
                    flag = "ok" if s <= metric["bound"] / 3 else "within bound"
                print("%-8s %-26s %6d %14.4f %8.1f%% %6.0f%% %s"
                      % (wl, metric["name"], len(bvals), statistics.median(v for _, v in bvals),
                         100 * s, 100 * metric["bound"], flag))
                continue
            nvals = values(new.get(wl, []), metric["name"])
            if not nvals:
                print("%-8s %-26s missing in NEW" % (wl, metric["name"]))
                bad = True
                continue
            v, change, sb, sn = verdict(metric, bvals, nvals)
            if v in ("worse", "unresolved"):
                bad = True
            print("%-8s %-26s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s"
                  % (wl, metric["name"], statistics.median(x for _, x in bvals),
                     statistics.median(x for _, x in nvals), 100 * change, 100 * sb, 100 * sn,
                     100 * metric["bound"], v))
    if bad:
        print("compare: some rows are worse or unresolved, or a run failed its oracle check")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
