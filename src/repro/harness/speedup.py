"""Section 7 speedup curves through the experiment engine.

Table 3 reports *normalized time*; the prose of Section 7 discusses the
same runs as *speedup over the sequential version*.  This harness
computes those curves — ``speedup(n) = T_seq / T_parallel(n)`` — for
any workload/system, submitting the per-processor-count grid through
:mod:`repro.exp` so the cells run in parallel and land in the same
content-addressed cache as ``april table3`` (a table run and a speedup
run of the same cells share cache entries).
"""

from repro.exp.runner import run_jobs
from repro.exp.spec import check_name
from repro.harness.table3 import APRIL_CPUS, cell_job, raise_outcome
from repro import workloads


class SpeedupCurve:
    """Speedup over the sequential baseline for one (program, system)."""

    def __init__(self, program, system, seq_cycles, cycles_by_cpus,
                 critpath_by_cpus=None):
        self.program = program
        self.system = system
        self.seq_cycles = seq_cycles
        self.cycles = cycles_by_cpus          # {ncpus: parallel cycles}
        #: {ncpus: critical-path summary dict} from the lifetime
        #: accountant each multiprocessor cell ran (see
        #: :func:`repro.obs.critpath.summarize`); empty for cached
        #: results predating the accountant.
        self.critpath = critpath_by_cpus or {}

    @property
    def speedups(self):
        """``{ncpus: speedup}`` (> 1 means faster than sequential)."""
        return {n: self.seq_cycles / c for n, c in self.cycles.items()
                if c}

    def dominant_blockers(self):
        """``{ncpus: why-entry}`` — the top "why not linear" cause per
        cell (``blocked-on-future`` with line attribution when the path
        waits, ``critical-chain-compute`` when it is compute-bound)."""
        blockers = {}
        for n, summary in self.critpath.items():
            why = (summary or {}).get("why") or []
            if why:
                blockers[n] = why[0]
        return blockers

    def as_dict(self):
        data = {
            "program": self.program,
            "system": self.system,
            "seq_cycles": self.seq_cycles,
            "cycles": {str(n): c for n, c in sorted(self.cycles.items())},
            "speedup": {str(n): round(s, 4)
                        for n, s in sorted(self.speedups.items())},
        }
        if self.critpath:
            data["critical_path"] = {
                str(n): summary
                for n, summary in sorted(self.critpath.items())}
        return data


def speedup_jobs(module, system="Apr-lazy", cpus=APRIL_CPUS, args=None,
                 max_cycles=None):
    """The grid for one curve: the sequential baseline + parallel cells."""
    kwargs = {} if max_cycles is None else {"max_cycles": max_cycles}
    jobs = [cell_job(module, system, "seq_plain", 1, args=args, **kwargs)]
    for processors in cpus:
        jobs.append(cell_job(module, system, "parallel", processors,
                             args=args, **kwargs))
    return jobs


def run_speedup(program_names=None, system="Apr-lazy", cpus=APRIL_CPUS,
                args_by_program=None, pool_size=1, cache=None, force=False,
                timeout_s=None):
    """Compute curves for each program; returns ``(curves, sweep)``."""
    names = program_names or [m.NAME for m in workloads.ALL]
    check_name("system", system)
    jobs = []
    for name in names:
        check_name("program", name)
        module = workloads.get(name)
        args = (args_by_program or {}).get(name)
        jobs.extend(speedup_jobs(module, system=system, cpus=cpus,
                                 args=args))
    sweep = run_jobs(jobs, pool_size=pool_size, cache=cache, force=force,
                     timeout_s=timeout_s)

    curves = []
    by_key = sweep.by_key()
    for name in names:
        def cell(variant, processors):
            outcome = by_key.get(("table3", name, system, variant,
                                  processors))
            if outcome is not None and not outcome.ok:
                raise_outcome(outcome)
            return outcome
        base = cell("seq_plain", 1)
        cycles = {}
        critpath = {}
        for processors in cpus:
            outcome = cell("parallel", processors)
            if outcome is not None:
                cycles[processors] = outcome.cycles
                summary = outcome.payload.get("critpath")
                if summary is not None:
                    critpath[processors] = summary
        curves.append(SpeedupCurve(name, system, base.cycles, cycles,
                                   critpath))
    return curves, sweep


def _blocker_label(entry):
    """One-line description of a ranked "why not linear" entry."""
    share = "%d%%" % round(100 * entry.get("share", 0))
    if entry.get("cause") == "blocked-on-future":
        where = ("line %d: %s" % (entry["line"], entry["text"].strip())
                 if "line" in entry else "pc=%#x" % entry.get("pc", 0))
        return "%s of critical path blocked-on-future at %s" % (share, where)
    return "%s of critical path is chain compute (compute-bound)" % share


def render_speedup(curves):
    """The curves as a Table-3-style text block (plus, when the cells
    carried critical-path summaries, the dominant blocker per cell)."""
    curves = list(curves)
    all_cpus = sorted({n for curve in curves for n in curve.cycles})
    header = ("%-8s %-9s %12s " % ("Program", "System", "T seq (cyc)")
              + " ".join("%7d" % n for n in all_cpus))
    lines = [header, "-" * len(header)]
    for curve in curves:
        speedups = curve.speedups
        cells = []
        for n in all_cpus:
            value = speedups.get(n)
            cells.append("%6.2fx" % value if value is not None else "       ")
        lines.append("%-8s %-9s %12d %s" % (
            curve.program, curve.system, curve.seq_cycles, " ".join(cells)))

    blocker_lines = []
    for curve in curves:
        for n, entry in sorted(curve.dominant_blockers().items()):
            blocker_lines.append("  %-8s n=%-3d %s" % (
                curve.program, n, _blocker_label(entry)))
    if blocker_lines:
        lines.append("")
        lines.append("dominant critical-path blocker per cell "
                     "(april explain for the full report):")
        lines.extend(blocker_lines)
    return "\n".join(lines)
