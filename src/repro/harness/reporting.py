"""The sweep trailer the grid commands print."""


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
