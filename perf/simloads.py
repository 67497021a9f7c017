"""The six in-process workloads, as run inside a fresh child process.

``run.py`` starts this file's :func:`child_main` in a subprocess per
workload (several per invocation, so set-up is sampled more than once
and one unlucky process layout cannot own the median).  The child sets
up, measures rounds of fixed work until its time is spent, checks every
output against an independent reference, and prints one JSON report.

Round kinds:

``plain``     the program as users get it, hooks dormant, no wrappers;
``observed``  one leg re-run with the workload's stated ``Observation``;
``traced``    the plain round again with :mod:`spans` wrappers installed.

Simulated counters (cycles, instructions, traps) of every round of
every kind must equal the warm-up round's, or the run is failed.
"""

import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time

import common
import spans

STEADY = ("seq-steady", "eager-steady", "lazy-steady", "coherent-steady")
TABLE3 = ("table3-cold", "table3-warm")
NAMES = STEADY + TABLE3

#: The Table 3 rows one pass runs: every system row and processor count
#: of one program (20 cells, 17 distinct executions).
TABLE3_PROGRAMS = ("fib",)


class Leg:
    """One simulator run of a steady round."""

    def __init__(self, program, mode, args, expected, processors=1,
                 coherent=False):
        self.program = program
        self.mode = mode
        self.args = tuple(args)
        self.expected = expected
        self.processors = processors
        self.coherent = coherent
        self.compiled = None
        self.entry = None
        self.config = None

    @property
    def label(self):
        return "%s%r %s p%d%s" % (self.program, self.args, self.mode,
                                  self.processors,
                                  " coherent" if self.coherent else "")


FACTOR_LO = 10000
FACTOR_STARTS = 5000


def _division_steps(n):
    """Iterations of ``factor``'s trial-division loop for ``n``."""
    steps, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
        else:
            d += 1
        steps += 1
    return steps


def factor_start(seed, count):
    """A seeded start of a ``count``-number interval that needs the
    median amount of trial division, within 1 %.  ``factor``'s cost is
    the primes in its interval, so a free draw would make the seed, not
    the program, decide the round's time; here every seed gets other
    numbers and the same work."""
    steps = [_division_steps(n)
             for n in range(FACTOR_LO, FACTOR_LO + FACTOR_STARTS + count)]
    costs = [sum(steps[:count])]
    for index in range(1, FACTOR_STARTS):
        costs.append(costs[-1] - steps[index - 1] + steps[index + count - 1])
    target = common.median(costs)
    eligible = [FACTOR_LO + index for index, cost in enumerate(costs)
                if abs(cost - target) * 100 <= target]
    return random.Random(seed).choice(eligible)


def steady_legs(name, seed, quick):
    """The fixed work of one round.  The last leg is the round's short
    job, ``factor`` over a seeded interval (the start is drawn, the
    length is fixed, so the work is comparable between seeds); its
    build-and-run wall time is the workload's ``lat_p50_us`` sample."""
    from repro import workloads
    fib = workloads.get("fib")
    queens = workloads.get("queens")
    factor = workloads.get("factor")
    def fib_leg(n, mode, **kw):
        return Leg("fib", mode, fib.args(n), fib.reference(n), **kw)

    def queens_leg(n, mode, **kw):
        return Leg("queens", mode, queens.args(n), queens.reference(n), **kw)

    def factor_leg(count, mode, **kw):
        lo = factor_start(seed, count)
        return Leg("factor", mode, factor.args(lo, count),
                   factor.reference(lo, count), **kw)

    if name == "seq-steady":
        if quick:
            return [fib_leg(12, "sequential"), queens_leg(4, "sequential"),
                    factor_leg(4, "sequential")]
        return [fib_leg(20, "sequential"), queens_leg(6, "sequential"),
                factor_leg(24, "sequential")]
    if name == "eager-steady":
        if quick:
            return [fib_leg(7, "eager", processors=2),
                    fib_leg(8, "eager", processors=4),
                    factor_leg(4, "eager", processors=4)]
        return [fib_leg(12, "eager", processors=2),
                fib_leg(13, "eager", processors=4),
                fib_leg(13, "eager", processors=8),
                factor_leg(12, "eager", processors=4)]
    if name == "lazy-steady":
        if quick:
            return [fib_leg(9, "lazy", processors=4),
                    queens_leg(4, "lazy", processors=4),
                    factor_leg(4, "lazy", processors=4)]
        return [fib_leg(16, "lazy", processors=4),
                queens_leg(5, "lazy", processors=4),
                factor_leg(12, "lazy", processors=4)]
    if name == "coherent-steady":
        if quick:
            return [fib_leg(7, "eager", processors=4, coherent=True),
                    fib_leg(8, "lazy", processors=4, coherent=True),
                    factor_leg(4, "eager", processors=4, coherent=True)]
        return [fib_leg(12, "eager", processors=4, coherent=True),
                fib_leg(14, "lazy", processors=4, coherent=True),
                factor_leg(8, "eager", processors=4, coherent=True)]
    raise KeyError(name)


def observation_for(name):
    """``(leg index, Observation factory)`` of a workload's observed
    round, or ``None``."""
    from repro.obs import Observation
    if name == "eager-steady":
        return 1, lambda: Observation(events=False, profile=True,
                                      window=4096)
    if name == "coherent-steady":
        return 0, lambda: Observation(events=True, window=4096,
                                      profile=True, txn=True)
    return None


class Report:
    """What the child prints: timings, oracle verdicts, counters."""

    def __init__(self):
        #: {"kind", "wall_ns", "jobs", "cycles", "lat_us", "calib_ms"}
        self.rounds = []
        self.leg_ns = {}            # leg index -> [plain wall ns]
        self.observed_ns = []
        self.attach_ms = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.calib_ms = []
        self.exact = None
        self.counters = {}
        self.obs = {}
        self.setup_parts = {}
        self.ladder = {}

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_exact(self, kind, exact):
        """Simulated counters must not depend on how the run was
        watched."""
        if self.exact is None:
            self.exact = exact
        elif exact != self.exact:
            self.fail("%s round counters %r != warm-up's %r"
                      % (kind, exact, self.exact))


def _add(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


# -- steady workloads ------------------------------------------------------


class Steady:
    """seq/eager/lazy/coherent-steady: compile once, then rounds of
    machine build + run per leg."""

    def __init__(self, name, seed, quick, report):
        self.name = name
        self.report = report
        self.legs = steady_legs(name, seed, quick)
        self.observed = observation_for(name)

    def setup(self):
        from repro.lang.compiler import compile_source
        from repro.machine.alewife import AlewifeMachine
        from repro.machine.config import MachineConfig
        from repro import workloads
        parts = self.report.setup_parts
        start = time.perf_counter()
        for leg in self.legs:
            leg.compiled = compile_source(
                workloads.get(leg.program).source(), mode=leg.mode)
            leg.entry = leg.compiled.entry_label("main")
            leg.config = MachineConfig(
                num_processors=leg.processors,
                memory_mode="coherent" if leg.coherent else "ideal",
                lazy_futures=leg.compiled.wants_lazy_scheduling)
        parts["compile_ms"] = ((time.perf_counter() - start) * 1e3
                               / len(self.legs))
        first = self.legs[0]
        start = time.perf_counter()
        machine = AlewifeMachine(first.compiled.program, first.config)
        parts["build_ms"] = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        machine.run(entry=first.entry, args=first.args)
        parts["first_run_ms"] = (time.perf_counter() - start) * 1e3
        # One full round, checked: JIT blocks exist afterwards and its
        # counters are what every measured round must reproduce.
        self.round("warmup")

    def run_leg(self, leg, observe=None):
        from repro.machine.alewife import AlewifeMachine
        report = self.report
        report.attempted += 1
        start = time.perf_counter_ns()
        machine = AlewifeMachine(leg.compiled.program, leg.config)
        if observe is not None:
            attach = time.perf_counter_ns()
            observe.attach(machine)
            report.attach_ms.append((time.perf_counter_ns() - attach) / 1e6)
        result = machine.run(entry=leg.entry, args=leg.args)
        wall = time.perf_counter_ns() - start
        if result.value != leg.expected:
            report.fail("%s returned %r, reference %r"
                        % (leg.label, result.value, leg.expected))
        return machine, result, wall

    def round(self, kind, tracer=None):
        report = self.report
        cycles = instructions = traps = 0
        machines = []
        # A finished machine is cyclic garbage; collecting it here,
        # untimed, starts every round from the same heap instead of
        # leaving each fourth round to pay for the previous three.
        gc.collect()
        start = time.perf_counter_ns()
        for index, leg in enumerate(self.legs):
            if tracer is not None:
                tracer.run_id = index
            machine, result, wall = self.run_leg(leg)
            cycles += result.cycles
            instructions += result.stats.instructions
            traps += sum(cpu["traps_taken"] for cpu in result.stats.per_cpu)
            if kind == "plain":
                report.leg_ns.setdefault(index, []).append(wall)
            machines.append((machine, result))
        short_us = wall / 1e3
        wall = time.perf_counter_ns() - start
        report.check_exact(kind, {"cycles": cycles,
                                  "instructions": instructions,
                                  "traps": traps})
        if kind != "warmup":
            report.rounds.append({"kind": kind, "wall_ns": wall,
                                  "jobs": len(self.legs), "cycles": cycles,
                                  "lat_us": short_us})
        return machines

    def observed_round(self):
        """The workload's observed leg, checked against its dormant
        twin's counters."""
        index, factory = self.observed
        leg = self.legs[index]
        observation = factory()
        machine, result, wall = self.run_leg(leg, observe=observation)
        report = self.report
        report.observed_ns.append(wall)
        twin = report.obs.setdefault("twin", {})
        seen = {"cycles": result.cycles,
                "instructions": result.stats.instructions}
        if not twin:
            dormant, expected, _ = self.run_leg(leg)
            twin.update(cycles=expected.cycles,
                        instructions=expected.stats.instructions)
        if seen != twin:
            report.fail("observed %s counters %r != dormant %r"
                        % (leg.label, seen, twin))
        report.obs["leg"] = index
        report.obs["cycles"] = result.cycles
        bus = observation.bus
        report.obs["events_recorded"] = len(bus) if bus is not None else 0
        report.obs["txn_recorded"] = (len(observation.txn.finished)
                                      if observation.txn is not None else 0)

    def collect(self, machines, installed):
        """Counters of one traced round (identical every round)."""
        counters = {}
        for machine, result in machines:
            stats = result.stats
            _add(counters, "instructions", stats.instructions)
            _add(counters, "cycles", result.cycles)
            _add(counters, "context_switches", stats.context_switches)
            _add(counters, "threads_created", stats.threads_created)
            _add(counters, "lazy_stolen", stats.lazy_stolen)
            _add(counters, "stall_cycles", stats.stall_cycles)
            for cpu in machine.cpus:
                _add(counters, "traps", cpu.stats.traps_taken)
                _add(counters, "jit_compiles", cpu.jit_compiles)
                _add(counters, "jit_runs", cpu.jit_runs)
                _add(counters, "jit_deopts", cpu.jit_deopts)
                _add(counters, "superblocks", cpu.superblocks)
            fabric = machine.fabric
            if fabric is not None:
                for cache in fabric.caches:
                    _add(counters, "mem_hits", cache.stats.hits)
                    _add(counters, "mem_misses", cache.stats.misses)
                for controller in fabric.controllers:
                    found = controller.stats
                    _add(counters, "transactions",
                         found.local_misses + found.remote_misses
                         + found.write_upgrades)
                for directory in fabric.directories:
                    found = directory.counters()
                    _add(counters, "dir_requests",
                         found["read_requests"] + found["write_requests"])
                network = fabric.network.stats
                _add(counters, "net_messages", network.messages)
                _add(counters, "net_latency", network.total_latency)
        counters["slices"] = installed.heap.pops
        return counters


# -- table3 workloads ------------------------------------------------------


class Table3:
    """table3-cold / table3-warm: ``run_table3`` passes over the fib
    rows with a fresh or a pre-filled result cache."""

    def __init__(self, name, seed, quick, report):
        self.name = name
        self.report = report
        self.warm = name == "table3-warm"
        self.quick = quick
        self.tmp = tempfile.mkdtemp(prefix="t3-", dir=common.OUT_DIR)
        self.cache_dirs = 0
        self.warm_dir = None
        self.observed = None
        with open(os.path.join(common.PERF_DIR, "paper_table3.json")) as f:
            self.paper = json.load(f)["rows"]

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def grid(self):
        if self.quick:
            return {"systems": ("APRIL", "Apr-lazy"),
                    "cpus_by_system": {"APRIL": (1, 2), "Apr-lazy": (1, 2)},
                    "args_by_program": {"fib": (7,)}}
        return {}

    def fresh_dir(self):
        self.cache_dirs += 1
        return os.path.join(self.tmp, "cache-%d" % self.cache_dirs)

    def setup(self):
        if self.warm:
            # Filling the cache is this workload's set-up: a second
            # sample of the cold pass, reported under setup_s.
            self.warm_dir = self.fresh_dir()
            self.one_pass("warmup", self.warm_dir)

    def one_pass(self, kind, cache_dir):
        from repro.exp.cache import ResultCache
        from repro.harness.table3 import run_table3
        from repro import workloads
        report = self.report
        cache = ResultCache(cache_dir)
        start = time.perf_counter_ns()
        result = run_table3(program_names=list(TABLE3_PROGRAMS),
                            pool_size=1, cache=cache, check_result=True,
                            **self.grid())
        wall = time.perf_counter_ns() - start
        cells = len(result.sweep)
        report.attempted += cells
        for failure in result.failures:
            report.fail("cell %s failed: %s: %s"
                        % (failure.job.label, failure.kind,
                           failure.message))
        cycles = 0
        for outcome in result.sweep:
            if not outcome.ok:
                continue
            cycles += outcome.cycles
            module = workloads.get(outcome.key[1])
            expected = module.reference(*_reference_args(module,
                                                         outcome.job.args))
            if outcome.value != expected:
                report.fail("cell %s returned %r, reference %r"
                            % (outcome.job.label, outcome.value, expected))
        summary = result.sweep.summary()
        if self.warm and kind != "warmup" and summary["executed"]:
            report.fail("warm pass executed %d cells" % summary["executed"])
        report.check_exact(kind, {"cycles": cycles, "cells": cells})
        if kind != "warmup":
            report.rounds.append({"kind": kind, "wall_ns": wall,
                                  "jobs": cells, "cycles": cycles,
                                  "lat_us": wall / 1e3})
        return result, cache

    def round(self, kind, tracer=None):
        cache_dir = self.warm_dir if self.warm else self.fresh_dir()
        passed = self.one_pass(kind, cache_dir)
        if not self.warm and kind == "plain":
            shutil.rmtree(cache_dir, ignore_errors=True)
        return passed

    def collect(self, passed, installed):
        result, cache = passed
        summary = result.sweep.summary()
        counters = {"executed": summary["executed"],
                    "cache_hits": summary["cache_hits"],
                    "deduped": summary["deduped"],
                    "cycles": sum(o.cycles for o in result.sweep if o.ok),
                    "slices": installed.heap.pops}
        seen = set()
        sizes = []
        for outcome in result.sweep:
            if not outcome.ok or outcome.hash in seen:
                continue
            seen.add(outcome.hash)
            try:
                sizes.append(os.path.getsize(cache.path_for(outcome.hash)))
            except OSError:
                pass
            if outcome.cached:
                continue
            stats = outcome.payload["stats"]
            _add(counters, "instructions", stats["instructions"])
            _add(counters, "context_switches", stats["context_switches"])
            _add(counters, "threads_created", stats["threads_created"])
            _add(counters, "lazy_stolen", stats["lazy_stolen"])
            _add(counters, "traps", sum(cpu["traps_taken"]
                                        for cpu in stats["per_cpu"]))
            for cpu in outcome.payload["report"]["components"]["translation"]:
                _add(counters, "jit_compiles", cpu["jit"]["compiles"])
                _add(counters, "jit_runs", cpu["jit"]["runs"])
                _add(counters, "jit_deopts", cpu["jit"]["deopts"])
                _add(counters, "superblocks", cpu["superblocks"]["executed"])
        counters["payload_bytes"] = (sum(sizes) / len(sizes)) if sizes else 0
        counters["paper_err"] = paper_error(result.rows, self.paper)
        if not self.warm:
            shutil.rmtree(cache.root, ignore_errors=True)
        return counters


def _reference_args(module, args):
    """Arguments of ``module.reference`` for a cell's ``main`` args."""
    if module.NAME == "factor":
        lo, hi = args
        return (lo, hi - lo + 1)
    return tuple(args)


def paper_error(rows, paper):
    """Geometric mean over the published cells of
    ``max(measured/paper, paper/measured) - 1``."""
    import math
    logs = []
    for row in rows:
        published = paper.get("%s/%s" % (row.program, row.system))
        if not published:
            continue
        for column, value in row.as_dict().items():
            reference = published.get(column)
            if reference and value:
                logs.append(abs(math.log(value / reference)))
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs)) - 1.0


# -- micro-ladders ---------------------------------------------------------


def compile_ladder():
    """Per-stage compile cost over the 4 programs x 3 modes, plain and
    with the delay-slot postpass, from spans around each stage."""
    from repro import workloads
    from repro.lang.compiler import MODES, compile_source
    tracer = spans.Tracer(span_cap=0)
    installed = spans.install(tracer)
    lines = words = compiles = 0
    tracer.start()
    try:
        for module in workloads.ALL:
            for mode in MODES:
                for optimize in (False, True):
                    compiled = compile_source(module.source(), mode=mode,
                                              optimize=optimize)
                    lines += compiled.asm_source.count("\n")
                    words += len(compiled.program.words)
                    compiles += 1
    finally:
        tracer.stop()
        installed.uninstall()
    return {
        "lang.read_us": tracer.mean_us("lang.read"),
        "lang.analyze_us": tracer.mean_us("lang.analyze", inclusive=False),
        "lang.codegen_us": tracer.mean_us("lang.codegen"),
        "lang.asm_lines": lines / compiles,
        "isa.assemble_us": tracer.mean_us("isa.assemble"),
        "isa.optimize_us": tracer.mean_us("isa.optimize"),
        "isa.words": words / compiles,
    }


def tier_ladder(quick):
    """Host ns per simulated instruction of each interpreter tier on
    sequential fib, warm."""
    from repro import workloads
    from repro.lang.compiler import compile_source
    from repro.machine.alewife import run_program
    fib = workloads.get("fib")
    n = 10 if quick else 15
    compiled = compile_source(fib.source(), mode="sequential")
    entry = compiled.entry_label("main")
    out = {}
    for tier, knobs in (("reference", {"fastpath": False}),
                        ("closure", {"jit": False}), ("jit", {})):
        best = None
        for _ in range(3):
            start = time.perf_counter_ns()
            result = run_program(compiled.program, entry=entry, args=(n,),
                                 **knobs)
            wall = time.perf_counter_ns() - start
            best = wall if best is None else min(best, wall)
        if result.value != fib.reference(n):
            raise RuntimeError("tier %s returned %r" % (tier, result.value))
        out["core.ns_per_instr." + tier] = best / result.stats.instructions
    return out


# -- the child process -----------------------------------------------------


def run_child(name, seed, seconds, mode, max_rounds, quick, spawned_at,
              import_ms):
    """Set up, measure, and return the JSON-ready report dict.

    The calibration kernel runs before set-up and after every cycle of
    rounds; each round (and the set-up) is stamped with the mean of the
    samples on either side of it, the host's speed while it ran.
    """
    report = Report()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    workload = (Steady if name in STEADY else Table3)(name, seed, quick,
                                                      report)
    tracer = spans.Tracer()
    try:
        report.calib_ms.append(common.calib_ms())
        installed = None
        if mode == "traced":
            # A cold pass is traced from its first import-warm
            # instruction: wrappers go on before set-up.
            installed = spans.install(tracer)
        workload.setup()
        report.setup_parts["import_ms"] = import_ms
        setup_s = time.time() - spawned_at
        report.calib_ms.append(common.calib_ms())
        setup_calib_ms = sum(report.calib_ms[-2:]) / 2
        deadline = time.perf_counter() + seconds
        done = 0
        while done < max_rounds and (done == 0
                                     or time.perf_counter() < deadline):
            first = len(report.rounds)
            if mode in ("plain", "cycle"):
                workload.round("plain")
            if mode == "cycle" and workload.observed is not None:
                workload.observed_round()
            if mode in ("traced", "cycle"):
                if installed is None:
                    installed = spans.install(tracer)
                installed.heap.pops = 0
                tracer.start()
                try:
                    outcome = workload.round("traced", tracer)
                finally:
                    tracer.stop()
                report.counters = workload.collect(outcome, installed)
                if mode == "cycle":
                    installed.uninstall()
                    installed = None
            report.calib_ms.append(common.calib_ms())
            around = sum(report.calib_ms[-2:]) / 2
            for entry in report.rounds[first:]:
                entry["calib_ms"] = around
            done += 1
        if installed is not None:
            installed.uninstall()
        if mode != "plain":
            if name in TABLE3:
                report.ladder = compile_ladder()
            elif name == "seq-steady":
                report.ladder = tier_ladder(quick)
    finally:
        if isinstance(workload, Table3):
            workload.close()
    out = dict(report.__dict__)
    out["leg_ns"] = {str(k): v for k, v in report.leg_ns.items()}
    out["setup_s"] = setup_s
    out["setup_calib_ms"] = setup_calib_ms
    out["rss_mb"] = common.self_peak_rss_mb()
    out["trace"] = tracer.to_json() if tracer.wall_ns else None
    return out


def child_main(args, import_ms):
    report = run_child(args.workload, args.seed, args.seconds,
                       args.child, args.max_rounds, args.quick,
                       args.spawned_at, import_ms)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0
