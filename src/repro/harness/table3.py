"""Regenerate Table 3: normalized execution times of the four Mul-T
benchmarks on the Encore Multimax, APRIL with normal (eager) task
creation, and APRIL with lazy task creation.

Methodology follows Section 7 exactly:

* every entry is execution time normalized to the *sequential* version
  of the program ("with no futures and compiled with an optimizing
  T-compiler") on the same system;
* multiprocessor runs use the processor simulator **without** the cache
  and network simulators (ideal shared memory);
* the Encore rows carry software future checks and heavy task
  management; the APRIL rows use hardware tags and the 11-cycle
  trap-based run-time system; the Apr-lazy rows compile futures with
  lazy task creation.

Every cell is one independent simulator run, so the whole table is a
job grid submitted through :mod:`repro.exp`: ``run_table3(pool_size=4,
cache=...)`` fans the cells out to worker processes and re-runs after
an interrupt or config edit only execute the missing cells.  The
simulator is deterministic, so the rendered table is byte-identical at
any pool size.
"""

from repro.baselines.encore import encore_config
from repro.errors import SimulationError, WorkloadCheckError
from repro.exp.job import Job
from repro.exp.runner import run_jobs
from repro.exp.spec import check_name
from repro.machine.config import MachineConfig
from repro import errors as _errors
from repro import workloads

#: Processor counts per system row, as in the paper's table.
ENCORE_CPUS = (1, 2, 4, 8)
APRIL_CPUS = (1, 2, 4, 8, 16)

SYSTEMS = ("Encore", "APRIL", "Apr-lazy")

#: Per-row cell variants: the plain-sequential baseline ("T seq"), the
#: checked-sequential run ("Mul-T seq"), and the parallel compiles.
VARIANTS = ("seq_plain", "mult_seq", "parallel")

DEFAULT_MAX_CYCLES = 500_000_000


class Table3Row:
    """One system's row for one program."""

    def __init__(self, program, system, t_seq, mult_seq, parallel):
        self.program = program
        self.system = system
        self.t_seq = t_seq              # normalized: always 1.0
        self.mult_seq = mult_seq        # normalized to t_seq
        self.parallel = parallel        # {ncpus: normalized time}

    def as_dict(self):
        data = {"T seq": self.t_seq, "Mul-T seq": self.mult_seq}
        data.update({str(n): t for n, t in sorted(self.parallel.items())})
        return data


# -- job construction ------------------------------------------------------


def system_config(system, processors, lazy=False, **overrides):
    """The :class:`MachineConfig` a system row runs on."""
    if system == "Encore":
        return encore_config(processors, **overrides)
    return MachineConfig(num_processors=processors, lazy_futures=lazy,
                         **overrides)


def cell_job(module, system, variant, processors, args=None,
             max_cycles=DEFAULT_MAX_CYCLES, config_overrides=None,
             key_prefix=("table3",)):
    """One grid cell as a :class:`~repro.exp.job.Job`.

    The key layout ``(*prefix, program, system, variant, processors)``
    is what :func:`rows_from_sweep` parses back into rows.  Names are
    not checked here: :func:`repro.exp.spec.cell_to_job` checks a
    cell, :func:`run_table3` its filters.
    """
    mode = "lazy" if system == "Apr-lazy" else "eager"
    checks = system == "Encore"
    if variant == "seq_plain":
        mode, checks = "sequential", False
    elif variant == "mult_seq":
        mode = "sequential"
    config = system_config(system, processors, lazy=(mode == "lazy"),
                           **(config_overrides or {}))
    if args is None:
        args = module.args()
    key = tuple(key_prefix) + (module.NAME, system, variant, processors)
    return Job(key, module.source(), mode=mode, software_checks=checks,
               config=config, args=args, max_cycles=max_cycles)


def row_jobs(module, system, cpus=None, args=None,
             max_cycles=DEFAULT_MAX_CYCLES, config_overrides=None):
    """Every cell of one (program, system) row, baselines first."""
    if cpus is None:
        cpus = ENCORE_CPUS if system == "Encore" else APRIL_CPUS
    jobs = [
        cell_job(module, system, "seq_plain", 1, args=args,
                 max_cycles=max_cycles, config_overrides=config_overrides),
        cell_job(module, system, "mult_seq", 1, args=args,
                 max_cycles=max_cycles, config_overrides=config_overrides),
    ]
    for processors in cpus:
        jobs.append(cell_job(module, system, "parallel", processors,
                             args=args, max_cycles=max_cycles,
                             config_overrides=config_overrides))
    return jobs


# -- sweep -> rows ---------------------------------------------------------


def raise_outcome(outcome):
    """Re-raise a failed cell as its original typed exception."""
    exc_type = getattr(_errors, outcome.kind, None)
    if isinstance(exc_type, type) and issubclass(exc_type, _errors.ReproError):
        raise exc_type(outcome.message)
    raise SimulationError("%s: %s" % (outcome.kind, outcome.message))


def rows_from_sweep(sweep, check_result=True):
    """Assemble :class:`Table3Row` objects from a finished sweep.

    Returns ``(rows, failures)`` where ``failures`` is a list of
    :class:`~repro.exp.runner.JobFailed` — cells that crashed, timed
    out, or (with ``check_result``) returned a value different from the
    row's sequential baseline.  A failed cell leaves a blank in the
    rendered table instead of killing the sweep.
    """
    by_row = {}
    order = []
    for outcome in sweep:
        program, system, variant, processors = outcome.key[-4:]
        row_key = (program, system)
        if row_key not in by_row:
            by_row[row_key] = {}
            order.append(row_key)
        by_row[row_key][(variant, processors)] = outcome

    rows, failures = [], []
    for program, system in order:
        cells = by_row[(program, system)]
        base = cells.get(("seq_plain", 1))
        if base is None or not base.ok:
            if base is not None:
                failures.append(base)
            continue
        t_seq_cycles = base.cycles
        expected = base.value

        def checked(outcome, processors=None):
            """The outcome, demoted to a failure on a bad self-check."""
            if outcome is None or not outcome.ok:
                if outcome is not None:
                    failures.append(outcome)
                return None
            if check_result and outcome.value != expected:
                error = WorkloadCheckError(
                    "result %r != sequential baseline %r"
                    % (outcome.value, expected),
                    program=program, system=system, processors=processors,
                    config=outcome.job.config, expected=expected,
                    actual=outcome.value)
                failures.append(_failed_check(outcome, error))
                return None
            return outcome

        mult = checked(cells.get(("mult_seq", 1)), processors=1)
        parallel = {}
        for (variant, processors), outcome in sorted(
                cells.items(), key=lambda item: (item[0][0], item[0][1])):
            if variant != "parallel":
                continue
            ok = checked(outcome, processors=processors)
            if ok is not None:
                parallel[processors] = ok.cycles / t_seq_cycles
        rows.append(Table3Row(
            program, system,
            t_seq=1.0,
            mult_seq=(mult.cycles / t_seq_cycles if mult is not None
                      else None),
            parallel=parallel,
        ))
    return rows, failures


def _failed_check(outcome, error):
    from repro.exp.runner import JobFailed
    return JobFailed(outcome.job, outcome.hash,
                     kind="WorkloadCheckError", message=str(error),
                     context=error.context, attempts=outcome.attempts)


class Table3Result:
    """Rows plus the sweep bookkeeping (iterable like the row list)."""

    def __init__(self, rows, sweep, failures):
        self.rows = rows
        self.sweep = sweep
        self.failures = failures

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def summary(self):
        """Engine summary with check failures folded into ``failed``."""
        data = self.sweep.summary()
        data["failed"] = len(self.failures)
        return data


# -- public drivers --------------------------------------------------------


def run_table3(program_names=None, systems=SYSTEMS, args_by_program=None,
               cpus_by_system=None, pool_size=1, cache=None, force=False,
               timeout_s=None, check_result=True):
    """Compute the full table; returns a :class:`Table3Result` whose
    rows iterate in paper order.

    ``pool_size``/``cache``/``force``/``timeout_s`` go straight to
    :func:`repro.exp.runner.run_jobs`: with a cache, an interrupted or
    partially edited table resumes from the cells already on disk.
    """
    for system in systems:
        check_name("system", system)
    jobs = []
    for name in program_names or [m.NAME for m in workloads.ALL]:
        check_name("program", name)
        module = workloads.get(name)
        args = (args_by_program or {}).get(name)
        for system in systems:
            cpus = (cpus_by_system or {}).get(system)
            jobs.extend(row_jobs(module, system, cpus=cpus, args=args))
    sweep = run_jobs(jobs, pool_size=pool_size, cache=cache, force=force,
                     timeout_s=timeout_s)
    rows, failures = rows_from_sweep(sweep, check_result=check_result)
    return Table3Result(rows, sweep, failures)


def render_table3(rows):
    """Format rows like the paper's Table 3 (blank = failed cell)."""
    rows = list(rows)
    all_cpus = sorted({n for row in rows for n in row.parallel})
    header = ("%-8s %-9s %6s %9s " % ("Program", "System", "T seq", "Mul-T seq")
              + " ".join("%6d" % n for n in all_cpus))
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for n in all_cpus:
            value = row.parallel.get(n)
            cells.append("%6.2f" % value if value is not None else "      ")
        mult_seq = ("%9.2f" % row.mult_seq if row.mult_seq is not None
                    else " " * 9)
        lines.append("%-8s %-9s %6.2f %s %s" % (
            row.program, row.system, row.t_seq, mult_seq, " ".join(cells)))
    return "\n".join(lines)
