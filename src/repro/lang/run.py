"""Convenience entry point: compile and run Mul-T on a simulated machine."""

from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig


def build_mult_machine(source, mode="eager", processors=1,
                       software_checks=False, config=None, optimize=False,
                       fastpath=True):
    """Compile ``source`` and construct the machine without running it.

    Returns ``(machine, compiled)`` — the caller picks the driving loop:
    ``machine.run(...)`` for batch execution or ``machine.stepper(...)``
    for incremental control (the ``april monitor`` debugger).
    """
    compiled = compile_source(source, mode=mode,
                              software_checks=software_checks,
                              optimize=optimize)
    if config is None:
        config = MachineConfig(num_processors=processors)
    if config.lazy_futures != compiled.wants_lazy_scheduling:
        config = config.replace(lazy_futures=compiled.wants_lazy_scheduling)
    machine = AlewifeMachine(compiled.program, config, fastpath=fastpath)
    return machine, compiled


def run_mult(source, mode="eager", processors=1, software_checks=False,
             config=None, entry="main", args=(), max_cycles=200_000_000,
             optimize=False, observe=None, fastpath=True, watchdog=None):
    """Compile ``source`` and run its ``entry`` function.

    Returns the :class:`~repro.machine.alewife.MachineResult`; its
    ``value`` field holds the decoded Python value of the result and
    ``cycles`` the simulated run time.  Pass an
    :class:`~repro.obs.Observation` as ``observe`` to capture events,
    utilization timelines, and profiles from the run.
    ``fastpath=False`` selects the reference interpreter and event loop
    (see :class:`~repro.machine.alewife.AlewifeMachine`).  Pass a
    :class:`~repro.obs.Watchdog` as ``watchdog`` to get hang detection:
    the run raises :class:`~repro.errors.HangDetected` with a post-mortem
    instead of spinning to ``max_cycles``.
    """
    machine, compiled = build_mult_machine(
        source, mode=mode, processors=processors,
        software_checks=software_checks, config=config, optimize=optimize,
        fastpath=fastpath)
    if observe is not None:
        observe.attach(machine)
    if watchdog is not None:
        watchdog.attach(machine)
    return machine.run(entry=compiled.entry_label(entry), args=args,
                       max_cycles=max_cycles)
