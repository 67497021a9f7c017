#!/usr/bin/env python3
"""Compare benchmark result sets written by ``perf/run.py --out``.

    python3 perf/compare.py BASE.json CHANGE.json [BASE2.json CHANGE2.json ...]

Files are taken as (base, change) pairs in the order they were run;
an A/A check passes two sets of the same commit.  One row per workload
x metric gives each side's median, quartiles and sample count, the
ratio with its base, and a verdict:

``ok``          worse by no more than the metric's bound, and the spread
                of the base's own runs is within the bound;
``unresolved``  the spread is wider than the bound, so "no worse"
                cannot be shown (not the same as unchanged);
``better``      every run of the change reads better than every run of
                the base;
``gain``        at least ten pairs, the change won nine tenths of them
                (ties count for neither side) and the medians are
                further apart than the base's own quartiles;
``REGRESSION``  worse by more than the bound and resolved;
``info``        a per-layer metric: no bound, ratio only.

With one set on a side its spread is the quartile distance of the
rounds inside that run; with several it is taken over the sets'
values.  Simulated counters of runs with the same seed must be
identical.  Exit status is 1 on a regression, on a change in simulated
counters, or when more operations failed than on the base side.
"""

import json
import sys

import common

GAIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def load(path):
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != common.SCHEMA:
        raise SystemExit("%s: not a %s result set" % (path, common.SCHEMA))
    return document


def by_workload(documents):
    """``{workload: [run, ...]}`` in file order."""
    out = {}
    for document in documents:
        for run in document["runs"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def side_summary(runs, metric):
    """``(values, median, q1, q3, n)`` of one side of one row."""
    entries = [run["metrics"][metric] for run in runs
               if metric in run["metrics"]]
    values = [entry["value"] for entry in entries]
    if not values:
        return None
    if len(entries) == 1 and "q1" in entries[0]:
        only = entries[0]
        return values, only["value"], only["q1"], only["q3"], only["n"]
    q1, q3 = common.quartiles(values)
    return values, common.median(values), q1, q3, len(values)


def worse_by(base, change, better):
    """Relative worsening of ``change`` against ``base`` (negative when
    it improved) in the metric's own direction."""
    if not base:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def wins(base_values, change_values, better):
    """Pairs the change won, ties counting for neither side."""
    return sum(1 for base, change in zip(base_values, change_values)
               if change != base and (change < base) == (better == "lower"))


def extent(side):
    """The range a side's runs cover: their extremes, or the quartiles
    of the rounds inside the run when there is only one."""
    values, _, q1, q3, _ = side
    return (min(values), max(values)) if len(values) > 1 else (q1, q3)


def all_better(base, change, better):
    """Every run of the change reads better than every run of the
    base."""
    base_low, base_high = extent(base)
    change_low, change_high = extent(change)
    if better == "lower":
        return change_high < base_low
    return change_low > base_high


def spread_of(side):
    """Quartile distance of a side as a share of its median."""
    _, mid, q1, q3, _ = side
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(entry, base, change):
    """The row's verdict string; ``base``/``change`` are side
    summaries."""
    bound = entry.get("bound")
    if bound is None:
        return "info"
    better = entry["better"]
    worse = worse_by(base[1], change[1], better)
    pairs = min(len(base[0]), len(change[0]))
    if (worse < 0 and pairs >= GAIN_PAIRS
            and wins(base[0], change[0], better) >= GAIN_WIN_SHARE * pairs
            and abs(change[1] - base[1]) > base[3] - base[2]):
        return "gain"
    if all_better(base, change, better):
        return "better"
    if spread_of(base) > bound:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "ok"


def compare(base_documents, change_documents, spec, stream):
    """Write the table; returns the number of blocking findings."""
    entries = spec["end_to_end"] + spec["per_layer"]
    base_runs = by_workload(base_documents)
    change_runs = by_workload(change_documents)
    blocking = 0
    stream.write("%-16s %-24s %34s %34s %22s %8s %7s %7s  %s\n" % (
        "workload", "metric", "base median [q1, q3] n",
        "change median [q1, q3] n", "change / base", "worse", "bound",
        "spread", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        base_side = base_runs.get(workload)
        change_side = change_runs.get(workload)
        if not base_side or not change_side:
            continue
        for entry in entries:
            base = side_summary(base_side, entry["name"])
            change = side_summary(change_side, entry["name"])
            if base is None or change is None:
                continue
            found = verdict(entry, base, change)
            blocking += found == "REGRESSION"
            ratio = change[1] / base[1] if base[1] else float("nan")
            stream.write(
                "%-16s %-24s %34s %34s %22s %+7.1f%% %7s %6.1f%%  %s\n" % (
                    workload, entry["name"], cell(base), cell(change),
                    "x%.4f of %.5g" % (ratio, base[1]),
                    100 * worse_by(base[1], change[1], entry["better"]),
                    ("%.0f%%" % (100 * entry["bound"])
                     if "bound" in entry else "-"),
                    100 * spread_of(base), found))
        blocking += check_failures(workload, base_side, change_side, stream)
        blocking += check_exact(workload, base_side, change_side, stream)
        for label, side in (("base", base_side), ("change", change_side)):
            if any(run.get("noisy") for run in side):
                stream.write("%-16s note: host was noisy during a %s run "
                             "(calibration kernel spread > %.0f%%)\n"
                             % (workload, label, 100 * common.NOISY_SPREAD))
    return blocking


def cell(side):
    _, mid, q1, q3, count = side
    return "%.5g [%.5g, %.5g] %d" % (mid, q1, q3, count)


def failed_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def check_failures(workload, base_side, change_side, stream):
    base, change = failed_share(base_side), failed_share(change_side)
    if change > base:
        stream.write("%-16s failed_share rose: %.6f of attempted, base "
                     "%.6f  FAILED\n" % (workload, change, base))
        return 1
    return 0


def check_exact(workload, base_side, change_side, stream):
    """Runs of one seed must report identical simulated counters."""
    found = 0
    base_by_seed = {run["seed"]: run.get("exact") for run in base_side}
    for run in change_side:
        expected = base_by_seed.get(run["seed"])
        if expected is None or run.get("exact") is None:
            continue
        if run["exact"] != expected:
            stream.write("%-16s simulated counters differ at seed %d: %r, "
                         "base %r  CHANGED\n" % (workload, run["seed"],
                                                 run["exact"], expected))
            found += 1
    return found


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or len(paths) % 2:
        sys.stderr.write(__doc__)
        return 2
    documents = [load(path) for path in paths]
    blocking = compare(documents[0::2], documents[1::2], common.load_spec(),
                       sys.stdout)
    if blocking:
        sys.stdout.write("%d blocking finding(s)\n" % blocking)
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main())
