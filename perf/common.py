"""Shared helpers for the benchmark: paths, quantiles, the host-noise
kernel, peak-RSS readers and the metric table loaded from
``BENCHMARK.json`` (the single place names, units, directions and
bounds are written down).
"""

import json
import os
import statistics
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERF_DIR, "out")
SCHEMA = "april-perf/1"


def require_program():
    """Put ``src/`` on ``sys.path``; exit 2 when the program under test
    is not in this checkout (a directory holding only the benchmark)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perf: %s has no src/repro — nothing to measure\n"
                         % ROOT)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(**extra):
    """Environment for processes under test: ``src`` importable."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    env.update(extra)
    return env


def load_spec():
    """``BENCHMARK.json`` as a dict."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def short_path(path):
    """``path`` relative to the working directory when that is shorter
    (unix socket paths are capped at ~107 bytes)."""
    relative = os.path.relpath(path)
    return relative if len(relative) < len(path) else path


# -- order statistics ------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """``(q1, q3)`` as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    mid = median(values)
    if not mid:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


# -- host speed ------------------------------------------------------------

#: A run is flagged ``noisy`` when the calibration kernel's own spread
#: exceeds this share: the host, not the code, moved.
NOISY_SPREAD = 0.10

#: The kernel's time on a quiet core of the sandbox the benchmark was
#: defined on.  It only fixes the scale of calibrated time (one
#: calibrated second is a real second on that host); comparisons are
#: ratios and do not depend on it.
CALIB_REF_MS = 8.0


def calib_ms():
    """Wall time of a fixed pure-Python kernel: dict, list and integer
    work in the proportions an interpreter loop has.  Nothing in the
    program under test can change it, so its drift is the host's."""
    start = time.perf_counter_ns()
    table = {}
    total = 0
    for i in range(48000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        total += key >> 3
    items = sorted(table.values())
    total += items[len(items) // 2]
    return (time.perf_counter_ns() - start) / 1e6


def calibrated(duration, calib):
    """``duration`` as it would have read on the reference host, given
    the kernel took ``calib`` ms around it.  The sandbox's speed moves
    by 10-20 % over minutes (neighbours, frequency); the kernel moves
    with it, the ratio does not."""
    return duration * CALIB_REF_MS / calib


# -- memory ----------------------------------------------------------------


def self_peak_rss_mb():
    """Peak resident set of this process (``VmHWM``)."""
    return pid_peak_rss_mb(os.getpid())


def pid_peak_rss_mb(pid):
    """``VmHWM`` of ``pid`` in MiB, or 0.0 when it is gone."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid):
    """Direct children of ``pid`` (the serve worker pool)."""
    found = []
    try:
        tasks = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return found
    for tid in tasks:
        try:
            with open("/proc/%d/task/%s/children" % (pid, tid)) as handle:
                found.extend(int(part) for part in handle.read().split())
        except OSError:
            continue
    return found
