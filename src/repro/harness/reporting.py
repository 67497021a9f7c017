"""Shared reporting helpers for the benchmark harness."""

import os


def results_dir():
    """Directory where benches drop their regenerated tables/figures."""
    path = os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(path, exist_ok=True)
    return path


def save_report(name, text):
    """Write a regenerated artifact (e.g. ``table3.txt``) and return
    the path; also useful so CI diffs show drift."""
    path = os.path.join(results_dir(), name)
    with open(path, "w") as handle:
        handle.write(text.rstrip() + "\n")
    return path


def banner(title):
    """A section banner for bench stdout."""
    bar = "=" * max(len(title), 20)
    return "\n%s\n%s\n%s" % (bar, title, bar)


def sweep_summary_line(summary):
    """The sweep bookkeeping (result- and compile-cache counters
    included) as one line for stderr — what ``april table3``/``april
    sweep`` print so cache behaviour is verifiable without parsing the
    table itself."""
    parts = ["%s=%s" % (key, summary[key])
             for key in ("jobs", "executed", "cache_hits", "deduped",
                         "retries", "failed") if key in summary]
    parts.extend("compile_%s=%s" % (key, value) for key, value
                 in summary.get("compile_cache", {}).items())
    if "wall_time_s" in summary:
        parts.append("wall=%.2fs" % summary["wall_time_s"])
    return "sweep: " + " ".join(parts)
