"""Differential lockstep harness: fast path vs. reference interpreter.

Every scenario runs three times from one compile — generated code
(``fastpath=True, jit=True``: every block start compiled at its first
visit), the step tier (``fastpath=True, jit=False``: every
instruction through ``step()``'s one-instruction generated form, or the
reference's statement in a delay slot; the harness still calls it
``closure``, after the tier it replaced), and the reference
(``fastpath=False``: the original decode + if-chain interpreter on the
per-instruction heapq loop) — and all runs
must agree on everything a program or an observer could see: the
result value, the final machine clock, every per-CPU cycle-category
counter (byte-identical ``snapshot()`` dicts), the architectural
register state, the memory words and their full/empty bits, and
printed output.

The fallback matrix then checks the dormant-hook contract from the
other side.  A hook that observes single instructions (trace, profile,
watch, the sampler) must *pin* the machine to the reference loop;
everything else (event buses, the transaction tracer, the lifetime
accountant, the flight recorder, the watchdog) must *ride* the fast
loop, run-ahead and all — and neither may change a single cycle.
``TestObserversRideTheFastForm`` then holds the riders to what they
record: the same event stream, accounting and transactions the oracle
shows them, byte for byte.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import workloads
from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import FlightRecorder, Observation, Watchdog
from repro.obs.events import EventKind, EventLog
from repro.obs.txn import TransactionTracer
from repro.runtime import stubs
from tests.helpers import record_step_block
from tests.integration.test_differential import future_programs, programs
from tests.runtime.test_rts_asm import make_thunk


def _build(compiled, config, fastpath, jit=True):
    if config.lazy_futures != compiled.wants_lazy_scheduling:
        config = config.replace(lazy_futures=compiled.wants_lazy_scheduling)
    return AlewifeMachine(compiled.program, config, fastpath=fastpath,
                          jit=jit)


def _step_to_completion(machine, **run_args):
    """Drive ``machine`` the way a caller drives a
    :class:`MachineStepper` (the oracle); returns the result."""
    stepper = machine.stepper(**run_args)
    while stepper.step_machine() is not None:
        pass
    return stepper.result()


def _run_stepper(compiled, config, entry, args):
    """The same build under a caller-driven stepper; returns
    (machine, result)."""
    machine = _build(compiled, config, True)
    return machine, _step_to_completion(machine, entry=entry, args=args)


def _run_pair(source, mode, config, args):
    """One compile, two runs; returns ((machine, result), (machine, result))."""
    compiled = compile_source(source, mode=mode)
    pair = []
    for fastpath in (True, False):
        machine = _build(compiled, config, fastpath)
        result = machine.run(entry=compiled.entry_label("main"), args=args)
        pair.append((machine, result))
    return pair


def _run_triple(source, mode, config, args):
    """One compile, three runs: JIT, step tier (``jit=False``),
    reference."""
    compiled = compile_source(source, mode=mode)
    runs = []
    for fastpath, jit in ((True, True), (True, False), (False, False)):
        machine = _build(compiled, config, fastpath, jit=jit)
        result = machine.run(entry=compiled.entry_label("main"), args=args)
        runs.append((machine, result))
    return runs


def _assert_triple(jit, closure, reference, expect_jit_runs=True):
    """All three tiers in lockstep; the JIT tier must have fired."""
    _assert_lockstep(jit, reference)
    _assert_lockstep(closure, reference)
    jit_machine = jit[0]
    assert all(not cpu.jit_runs for cpu in closure[0].cpus)
    if expect_jit_runs:
        assert any(cpu.jit_runs > 0 for cpu in jit_machine.cpus)


def _assert_lockstep(fast, reference, oracle="reference", incoherent=None):
    """``fast`` and ``reference`` — ``(machine, result)`` each — in
    lockstep.  On coherent machines both must pass the fabric's
    invariant check, or, given ``incoherent``, both fail it with the
    same error, which says ``incoherent`` (a known protocol defect)."""
    fast_machine, fast_result = fast
    ref_machine, ref_result = reference
    assert fast_machine.loop_used == "fast"
    assert ref_machine.loop_used == oracle
    assert fast_result.value == ref_result.value
    assert fast_result.cycles == ref_result.cycles
    assert fast_result.output == ref_result.output
    for fast_cpu, ref_cpu in zip(fast_machine.cpus, ref_machine.cpus):
        assert fast_cpu.cycles == ref_cpu.cycles
        assert fast_cpu.stats.snapshot() == ref_cpu.stats.snapshot()
        assert fast_cpu.stats.total_cycles == fast_cpu.cycles
        assert fast_cpu.globals == ref_cpu.globals
        assert fast_cpu.fp == ref_cpu.fp
        for fast_frame, ref_frame in zip(fast_cpu.frames, ref_cpu.frames):
            assert fast_frame.regs == ref_frame.regs
            assert fast_frame.pc == ref_frame.pc
            assert fast_frame.npc == ref_frame.npc
            assert fast_frame.psr.value == ref_frame.psr.value
    # `==` on the banks, not assert-rewriting's diff of 2 Mi entries —
    # and like with like: an array never equals a list of its items.
    fast_memory, ref_memory = fast_machine.memory, ref_machine.memory
    assert type(fast_memory._words) is type(ref_memory._words)
    assert type(fast_memory._full) is type(ref_memory._full)
    assert (fast_memory._words == ref_memory._words) is True
    assert (fast_memory._full == ref_memory._full) is True
    if fast_machine.fabric is not None:
        # Generated code answers cache hits itself: every line's stamp
        # and each cache's clock are state the oracle's set walk sets.
        for fast_cache, ref_cache in zip(fast_machine.fabric.caches,
                                         ref_machine.fabric.caches):
            assert _cache_lines(fast_cache) == _cache_lines(ref_cache)
            assert fast_cache._clock == ref_cache._clock
            assert (fast_cache.stats.to_dict()
                    == ref_cache.stats.to_dict())
        for fast_ctl, ref_ctl in zip(fast_machine.fabric.controllers,
                                     ref_machine.fabric.controllers):
            assert fast_ctl.stats.to_dict() == ref_ctl.stats.to_dict()
        if incoherent is None:
            fast_machine.fabric.check_coherence_invariants()
            ref_machine.fabric.check_coherence_invariants()
        else:
            errors = []
            for machine in (fast_machine, ref_machine):
                with pytest.raises(SimulationError, match=incoherent) as err:
                    machine.fabric.check_coherence_invariants()
                errors.append(str(err.value))
            assert errors[0] == errors[1]


def _cache_lines(cache):
    """Every line of every set, in order: ``(tag, state, last_used)``."""
    return [(line.tag, line.state, line.last_used)
            for lines in cache._sets for line in lines or ()]


class TestBenchmarkLockstep:
    """The Mul-T benchmarks, across every execution configuration."""

    def test_fib_sequential(self):
        module = workloads.get("fib")
        runs = _run_triple(module.source(), "sequential",
                           MachineConfig(num_processors=1), (10,))
        assert runs[0][1].value == module.reference(10)
        _assert_triple(*runs)

    def test_fib_eager_p2(self):
        module = workloads.get("fib")
        runs = _run_triple(module.source(), "eager",
                           MachineConfig(num_processors=2), (10,))
        assert runs[0][1].value == module.reference(10)
        _assert_triple(*runs)

    def test_fib_lazy_p2(self):
        module = workloads.get("fib")
        runs = _run_triple(module.source(), "lazy",
                           MachineConfig(num_processors=2), (9,))
        assert runs[0][1].value == module.reference(9)
        _assert_triple(*runs)

    def test_fib_coherent_p4(self):
        module = workloads.get("fib")
        runs = _run_triple(
            module.source(), "eager",
            MachineConfig(num_processors=4, memory_mode="coherent"), (9,))
        assert runs[0][1].value == module.reference(9)
        _assert_triple(*runs)

    def test_queens_eager_p4(self):
        module = workloads.get("queens")
        runs = _run_triple(module.source(), "eager",
                           MachineConfig(num_processors=4), (4,))
        assert runs[0][1].value == module.reference(4)
        _assert_triple(*runs)

    def test_queens_sequential(self):
        module = workloads.get("queens")
        runs = _run_triple(module.source(), "sequential",
                           MachineConfig(num_processors=1), (4,))
        assert runs[0][1].value == module.reference(4)
        _assert_triple(*runs)

    def test_zero_cost_traps_are_runs_not_deopts(self):
        """Traps that cost nothing — no squash, no switch-handler body:
        a trap generated code takes in place returns to the runner as
        a run, never as a zero-progress block, and the schedule is the
        reference's."""
        module = workloads.get("fib")
        config = MachineConfig(num_processors=4, trap_squash_cycles=0,
                               switch_handler_cycles=0)
        fast, reference = _run_pair(module.source(), "eager", config, (9,))
        assert fast[1].value == module.reference(9)
        _assert_lockstep(fast, reference)
        assert sum(cpu.jit_runs for cpu in fast[0].cpus) > 0
        assert sum(cpu.jit_deopts for cpu in fast[0].cpus) == 0

    def test_fast_sequential_actually_fuses(self):
        """The fast run must exercise generated code, or this whole
        file proves nothing about it."""
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="sequential")
        machine = _build(compiled, MachineConfig(num_processors=1), True)
        machine.run(entry=compiled.entry_label("main"), args=(10,))
        assert machine.loop_used == "fast"
        assert machine.cpus[0].jit_runs > 0


class TestScheduleLockstep:
    """Schedule only: one ``fastpath=True`` build, driven once by
    ``run()`` (the fast sliced loop) and once by a caller-driven
    :class:`MachineStepper` (the oracle).  The triple above changes
    interpreter and loop together; this pins the loop alone."""

    SCENARIOS = {
        "sequential": ("sequential", MachineConfig(num_processors=1)),
        "eager-p2": ("eager", MachineConfig(num_processors=2)),
        "eager-p4": ("eager", MachineConfig(num_processors=4)),
        "eager-p8": ("eager", MachineConfig(num_processors=8)),
        "eager-p16": ("eager", MachineConfig(num_processors=16)),
        "lazy-p4": ("lazy", MachineConfig(num_processors=4)),
        "lazy-p8": ("lazy", MachineConfig(num_processors=8)),
        "lazy-p16": ("lazy", MachineConfig(num_processors=16)),
        "coherent-p4": ("eager", MachineConfig(num_processors=4,
                                               memory_mode="coherent")),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("program,args", [("fib", (9,)),
                                              ("queens", (4,)),
                                              ("factor", (10007, 6))])
    def test_fast_loop_matches_stepper(self, program, args, scenario):
        mode, config = self.SCENARIOS[scenario]
        module = workloads.get(program)
        compiled = compile_source(module.source(), mode=mode)
        entry = compiled.entry_label("main")
        expected = module.reference(*args)
        args = module.args(*args)

        fast_machine = _build(compiled, config, True)
        fast = fast_machine.run(entry=entry, args=args)
        assert fast.value == expected

        stepped = _run_stepper(compiled, config, entry, args)
        assert stepped[0].time == fast_machine.time
        _assert_lockstep((fast_machine, fast), stepped, oracle="stepper")

    #: Step costs that sit on the queue key's edges: an idle poll of
    #: exactly one cycle (a non-instruction that must *not* re-key),
    #: and traps that cost one cycle or none (re-queued behind their
    #: clock; no run-ahead without a squash to tell a trap by).
    ODD_COSTS = {
        "one-cycle-idle-poll": dict(idle_poll_cycles=1, steal_poll_cycles=0),
        "one-cycle-steal-poll": dict(idle_poll_cycles=0, steal_poll_cycles=1),
        "free-traps": dict(trap_squash_cycles=0, lazy_push_cycles=0,
                           lazy_finish_cycles=0,
                           future_touch_resolved_cycles=0),
        "one-cycle-traps": dict(trap_squash_cycles=1, lazy_push_cycles=0,
                                lazy_finish_cycles=0,
                                switch_handler_cycles=0,
                                future_touch_resolved_cycles=0),
    }

    @pytest.mark.parametrize("costs", sorted(ODD_COSTS))
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_odd_step_costs_match_stepper(self, mode, costs):
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode=mode)
        entry = compiled.entry_label("main")
        config = MachineConfig(num_processors=4, **self.ODD_COSTS[costs])

        fast_machine = _build(compiled, config, True)
        fast = fast_machine.run(entry=entry, args=(9,))
        assert fast.value == module.reference(9)
        assert _ran_ahead(fast_machine) == ("idle" in costs
                                            or "steal" in costs)

        _assert_lockstep((fast_machine, fast),
                         _run_stepper(compiled, config, entry, (9,)),
                         oracle="stepper")


_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomizedLockstep:
    """Hypothesis-generated programs through both interpreters."""

    @_SETTINGS
    @given(programs())
    def test_random_sequential(self, source):
        runs = _run_triple(source, "sequential",
                           MachineConfig(num_processors=1), (3, 4))
        # Random programs may be too short to warm the JIT tier; the
        # lockstep assertions still hold regardless.
        _assert_triple(*runs, expect_jit_runs=False)

    @_SETTINGS
    @given(future_programs())
    def test_random_futures_eager_p2(self, source):
        runs = _run_triple(source, "eager",
                           MachineConfig(num_processors=2), (3, 4))
        _assert_triple(*runs, expect_jit_runs=False)


# -- the fallback matrix -----------------------------------------------------

def _ran_ahead(machine):
    """Any processor ran a private tail past a tied clock — by any of
    the run-ahead diagnostics, which must all stay zero where the
    machine does not run ahead."""
    return any(cpu.ahead_slices or cpu.ahead_instructions
               or cpu.ahead_loads or cpu.ahead_stores or cpu.ahead_undone
               for cpu in machine.cpus)


def _dormant_baseline(compiled, config, args):
    """The dormant fast run every hooked run is compared with; on an
    ideal multiprocessor it is the run-ahead form of the fast loop."""
    machine = _build(compiled, config, True)
    result = machine.run(entry=compiled.entry_label("main"), args=args)
    assert machine.loop_used == "fast"
    assert _ran_ahead(machine)
    return machine, result


def _attach_profile(machine):
    for cpu in machine.cpus:
        cpu.profile_hook = lambda cpu, pc, instr: None


def _attach_watch(machine):
    for cpu in machine.cpus:
        cpu.watch_hook = lambda cpu, pc, address, is_load, outcome: None


def _attach_sampler(machine):
    Observation(events=False, window=512).attach(machine)


def _attach_events(machine):
    machine.events.subscribe(EventLog().record)


def _attach_txn(machine):
    machine.events.txn = TransactionTracer()


def _attach_machine_events(machine):
    """One kind only: the dispatcher's other subscription table."""
    machine.events.subscribe(EventLog().record, EventKind.TRAP_ENTER)


def _attach_job_observation(machine):
    """What :func:`repro.obs.session.for_job` attaches to a p > 1 cell."""
    Observation(events=False, window=0, threads=True).attach(machine)


#: Consumers of single instructions: the batching fast loop would show
#: them something else, so each one alone selects the oracle.
PINNING = {
    "profile_hook": _attach_profile,
    "watch_hook": _attach_watch,
    "sampler": _attach_sampler,
}

#: Everything else observes slice heads, traps, the run-time system or
#: the memory system, which the fast loop shows in the oracle's order.
RIDING = {
    "cpu_events": _attach_events,
    "machine_events": _attach_machine_events,
    "cpu_txn": _attach_txn,
    "job_observation": _attach_job_observation,
    "flight_recorder": lambda machine: FlightRecorder().attach(machine),
    "watchdog": lambda machine: Watchdog().attach(machine),
}

ATTACHERS = {**PINNING, **RIDING}


def _hooked_run(hook, jit=True):
    """fib(9) on the ideal p = 2 machine with one hook attached, next
    to the dormant run it must not differ from."""
    module = workloads.get("fib")
    compiled = compile_source(module.source(), mode="eager")
    config = MachineConfig(num_processors=2)
    dormant_machine, dormant = _dormant_baseline(compiled, config, (9,))
    assert any(cpu.jit_runs > 0 for cpu in dormant_machine.cpus)

    machine = _build(compiled, config, True, jit=jit)
    ATTACHERS[hook](machine)
    result = machine.run(entry=compiled.entry_label("main"), args=(9,))
    assert result.value == dormant.value
    assert result.cycles == dormant.cycles
    for cpu, dormant_row in zip(machine.cpus, dormant.stats.per_cpu):
        assert cpu.stats.snapshot() == dormant_row
    return machine


class TestFallbackMatrix:
    """Each hook, attached alone: a per-instruction consumer forces the
    reference loop, anything else leaves the run-ahead fast loop in
    place — and either way the run is cycle-identical to the dormant
    fast run."""

    @pytest.mark.parametrize("hook", sorted(PINNING))
    def test_single_hook_forces_reference(self, hook):
        machine = _hooked_run(hook)
        assert machine.loop_used == "reference"
        assert all(cpu.jit_runs == 0 for cpu in machine.cpus)
        assert not _ran_ahead(machine)

    @pytest.mark.parametrize("hook", sorted(RIDING))
    def test_single_hook_rides_the_fast_form(self, hook):
        machine = _hooked_run(hook)
        assert machine.loop_used == "fast"
        assert _ran_ahead(machine)

    def test_lifetime_observation_conserves(self):
        """PR 4 conservation: a threads=True observation with its
        default sampler window (which selects the reference loop) must
        balance its ledger and agree with the dormant run's clock."""
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        _, dormant = _dormant_baseline(compiled, config, (9,))

        machine = _build(compiled, config, True)
        obs = Observation(threads=True, window=4096)
        obs.attach(machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert machine.loop_used == "reference"
        assert not _ran_ahead(machine)
        assert result.cycles == dormant.cycles
        assert result.value == dormant.value
        assert obs.lifetime.finalize(machine).check()["exact"]

    def test_sampler_forces_reference(self):
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        _, dormant = _dormant_baseline(compiled, config, (9,))

        machine = _build(compiled, config, True)
        obs = Observation(events=False, window=512)
        obs.attach(machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert machine.loop_used == "reference"
        assert not _ran_ahead(machine)
        assert result.cycles == dormant.cycles


class TestJitFallbackMatrix:
    """The fallback matrix again, with the JIT axis explicit: a pinned
    run (reference loop, JIT never fires), a riding run (fast loop, JIT
    and run-ahead slices fire) and a step-tier run (``jit=False``)
    must all be cycle-identical to the dormant JIT-enabled fast run."""

    @pytest.mark.parametrize("hook", sorted(ATTACHERS))
    def test_hooked_run_matches_dormant_jit(self, hook):
        machine = _hooked_run(hook)
        if hook in PINNING:
            assert machine.loop_used == "reference"
            assert all(not cpu.jit_runs for cpu in machine.cpus)
            assert not _ran_ahead(machine)
        else:
            assert machine.loop_used == "fast"
            assert any(cpu.jit_runs > 0 for cpu in machine.cpus)
            assert _ran_ahead(machine)

    @pytest.mark.parametrize("hook", sorted(RIDING))
    def test_riding_hook_without_jit_matches_dormant_jit(self, hook):
        machine = _hooked_run(hook, jit=False)
        assert machine.loop_used == "fast"
        assert all(not cpu.jit_runs for cpu in machine.cpus)
        assert not _ran_ahead(machine)

    def test_jit_disabled_matches_dormant_jit(self):
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        _, dormant = _dormant_baseline(compiled, config, (9,))

        machine = _build(compiled, config, True, jit=False)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert machine.loop_used == "fast"
        assert all(not cpu.jit_runs for cpu in machine.cpus)
        assert not _ran_ahead(machine)
        assert result.value == dormant.value
        assert result.cycles == dormant.cycles
        for cpu, dormant_row in zip(machine.cpus, dormant.stats.per_cpu):
            assert cpu.stats.snapshot() == dormant_row


# -- what the riders record ----------------------------------------------------

class TestObserversRideTheFastForm:
    """One ``fastpath=True`` build with everything that rides attached —
    an unbounded event bus, the lifetime accountant, the transaction
    tracer on coherent machines — driven once by ``run()`` (the fast
    loop, run-ahead on every memory mode) and once by a caller-driven
    :class:`MachineStepper` (the oracle).  Everything they record must
    be equal: the complete event stream in emission order, the
    ``april explain`` payload, every finished transaction, and the
    machine state ``_assert_lockstep`` compares."""

    PROGRAMS = {"fib": (11,), "queens": (5,), "factor": (10007, 10)}
    MACHINES = ([("eager", p, "ideal") for p in (2, 4, 8, 16)]
                + [("lazy", p, "ideal") for p in (2, 4, 8)]
                + [(mode, p, "coherent") for mode in ("eager", "lazy")
                   for p in (2, 4)])

    @staticmethod
    def _observed(compiled, config, entry, args, drive):
        machine = _build(compiled, config, True)
        observation = Observation(
            events=True, capacity=None, window=0, threads=True,
            txn=config.memory_mode == "coherent", txn_capacity=None)
        observation.attach(machine)
        result = drive(machine, entry=entry, args=args)
        return machine, result, observation

    @pytest.mark.parametrize("mode,processors,memory_mode", MACHINES)
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_recordings_equal_the_oracles(self, program, mode, processors,
                                          memory_mode):
        module = workloads.get(program)
        compiled = compile_source(module.source(), mode=mode)
        entry = compiled.entry_label("main")
        args = module.args(*self.PROGRAMS[program])
        config = MachineConfig(num_processors=processors,
                               memory_mode=memory_mode)

        fast_machine, fast, seen = self._observed(
            compiled, config, entry, args, AlewifeMachine.run)
        assert fast.value == module.reference(*self.PROGRAMS[program])
        assert _ran_ahead(fast_machine)
        ref_machine, ref, shown = self._observed(
            compiled, config, entry, args, _step_to_completion)
        _assert_lockstep((fast_machine, fast), (ref_machine, ref),
                         oracle="stepper")

        assert seen.bus.emitted == shown.bus.emitted > 0
        assert seen.bus.to_dicts() == shown.bus.to_dicts()
        assert seen.explain() == shown.explain()
        assert seen.lifetime.check()["exact"]
        if seen.txn is not None:
            assert len(seen.txn.finished) > 0
            assert ([record.to_dict() for record in seen.txn.finished]
                    == [record.to_dict() for record in shown.txn.finished])
            assert seen.txn.summary() == shown.txn.summary()


# -- stacks that are not private after all -----------------------------------

def _spawn_on(node, label):
    """``future-on``: a thread running ``label``, pinned to ``node``;
    its future is left in ``a0``."""
    return make_thunk(label) + """
    set %d, a1
    trap %d
""" % (4 * node, stubs.V_FUTURE_ON)


def _asm_pair(body, processors, args=(), memory_mode="ideal",
              incoherent=None):
    """One hand-written program, ``run()`` against a caller-driven
    stepper, in full lockstep (``incoherent``: see
    :func:`_assert_lockstep`); returns the fast machine."""
    program = assemble(stubs.thread_start_stub() + body)
    config = MachineConfig(num_processors=processors,
                           memory_mode=memory_mode)
    fast_machine = AlewifeMachine(program, config)
    fast = fast_machine.run(args=args)
    step_machine = AlewifeMachine(program, config)
    stepped = _step_to_completion(step_machine, args=args)
    _assert_lockstep((fast_machine, fast), (step_machine, stepped),
                     oracle="stepper", incoherent=incoherent)
    assert step_machine.time == fast_machine.time
    return fast_machine


def _undone(machine, cause):
    return sum(cpu.ahead_undone_by[cause] for cpu in machine.cpus)


class TestForeignStackAccess:
    """Memory-op run-ahead rests on a thread's stack being its own.
    Compiled Mul-T keeps to that; these programs do not.  Whatever a
    program does with an address, the fast loop must leave what the
    stepper leaves: registers, memory words, full/empty bits."""

    #: The machine the programs run on.
    MEMORY_MODE = "ideal"
    #: What the fabric's invariant check says at the end of a
    #: leaked-pointer run (``None``: nothing; see the coherent subclass).
    LEAK_BREAKS = None

    #: The root keeps a counter in its own frame, SP-relative — loads
    #: and stores that ride its tails — publishes the frame's address
    #: in ``cell``, and the workers bump the same word through it.
    LEAKED = """
    main:
        mov a0, s0                  ; iterations
        addr sp, 8, sp
        st r0, [sp+0]
        set 0, s1                   ; futures of the workers, summed
    %(spawns)s
        set cell, t0
        st sp, [t0+0]               ; the leak
    mine:
        ld [sp+0], t3
        addr t3, 4, t3
        st t3, [sp+0]
        ld [sp+4], t4
        st t4, [sp+4]
        subr s0, 1, s0
        cmpr s0, 0
        bg mine
        add s1, 0, s1               ; touch: wait for the last worker
        ld [sp+0], a0
        ret
    %(workers)s
    cell:
        .word 0
    """

    #: A worker that loads and stores the leaked word through a plain
    #: pointer — a slice head, every time.
    THROUGH_A_POINTER = """
    worker%(k)d:
        set cell, t0
    wait%(k)d:
        ld [t0+0], t1
        cmpr t1, 0
        be wait%(k)d
        set %(rounds)d, t2
    theirs%(k)d:
        ld [t1+0], t3
        addr t3, %(step)d, t3
        st t3, [t1+0]
        subr t2, 1, t2
        cmpr t2, 0
        bg theirs%(k)d
        set 0, a0
        ret
    """

    #: A worker that *moves its stack pointer* into the root's frame:
    #: the same accesses, now SP-relative — tail candidates, window-
    #: tested at run time, in somebody else's window.
    THROUGH_A_FORGED_SP = """
    worker%(k)d:
        set cell, t0
    wait%(k)d:
        ld [t0+0], t1
        cmpr t1, 0
        be wait%(k)d
        mov sp, s2
        mov t1, sp                  ; forged
        set %(rounds)d, t2
    theirs%(k)d:
        ld [sp+0], t3
        addr t3, %(step)d, t3
        st t3, [sp+0]
        stfnt t3, [sp+4]
        subr t2, 1, t2
        cmpr t2, 0
        bg theirs%(k)d
        mov s2, sp
        set 0, a0
        ret
    """

    #: A worker that makes a *future* of the leaked address and touches
    #: it: the trap handler reads the word, five squash cycles into a
    #: step that began before them — the root's tail goes back to
    #: where the step began, not to where the handler is.
    THROUGH_A_FORGED_FUTURE = """
    worker%(k)d:
        set cell, t0
    wait%(k)d:
        ld [t0+0], t1
        cmpr t1, 0
        be wait%(k)d
        set %(rounds)d, t2
        set 0, s3
    theirs%(k)d:
        or t1, 5, t4                ; forged: future-tagged
        add t4, 0, t3               ; touched: the word's value
        addr s3, t3, s3
        subr t2, 1, t2
        cmpr t2, 0
        bg theirs%(k)d
        mov s3, a0
        ret
    """

    def _leaked(self, worker, processors):
        spawns = "".join(
            _spawn_on(k, "worker%d" % k) + "    mov a0, s1\n"
            for k in range(1, processors))
        workers = "".join(
            worker % dict(k=k, rounds=15 + 2 * k, step=40 * k)
            for k in range(1, processors))
        body = self.LEAKED % dict(spawns=spawns, workers=workers)
        return _asm_pair(body, processors, args=(60,),
                         memory_mode=self.MEMORY_MODE,
                         incoherent=self.LEAK_BREAKS)

    @pytest.mark.parametrize("processors", [2, 4, 8])
    def test_leaked_pointer_into_a_running_stack(self, processors):
        machine = self._leaked(self.THROUGH_A_POINTER, processors)
        root = machine.cpus[0]
        assert root.ahead_loads and root.ahead_stores
        assert _undone(machine, "foreign") > 0

    @pytest.mark.parametrize("processors", [2, 4, 8])
    def test_forged_stack_pointer_in_a_neighbours_window(self, processors):
        machine = self._leaked(self.THROUGH_A_FORGED_SP, processors)
        assert machine.cpus[0].ahead_stores
        assert _undone(machine, "foreign") > 0

    @pytest.mark.parametrize("processors", [2, 4, 8])
    def test_forged_future_read_by_a_trap_handler(self, processors):
        machine = self._leaked(self.THROUGH_A_FORGED_FUTURE, processors)
        assert _undone(machine, "foreign") > 0
        assert sum(cpu.stats.traps_taken for cpu in machine.cpus[1:]) > 10

    @pytest.mark.parametrize("processors", [2, 4])
    def test_a_step_that_may_wind_back_runs_one_block(self, processors,
                                                      monkeypatch):
        # With others queued, any non-tail access may wind one of them
        # back below the horizon, which the loop re-reads after every
        # call: so such a call runs one block or slice, never a chain.
        calls = record_step_block(monkeypatch)
        machine = self._leaked(self.THROUGH_A_POINTER, processors)
        assert _undone(machine, "foreign") > 0
        chains = [runs for ahead, _, runs in calls if ahead]
        assert chains and max(chains) == 1

    #: The worker flips the full/empty bit of a word of its own frame
    #: for ever, SP-relative; the root returns ``pad`` cycles later,
    #: so the run ends somewhere inside one of the worker's tails.
    FLIPPING = """
    main:
    %(spawn)s
        set %(pad)d, t0
    dawdle:
        subr t0, 1, t0
        cmpr t0, 0
        bg dawdle
        set 0, a0
        ret
    worker:
        addr sp, 8, sp
        set 4, t1
    flip:
        stfnt t1, [sp+0]            ; fills
        addr t1, 4, t1
        ldent [sp+0], t2            ; empties
        stnt t2, [sp+4]
        ldent [sp+4], t3
        ba flip
    """

    @pytest.mark.parametrize("processors", [2, 4, 8])
    def test_run_ends_under_a_tail_that_flips_full_empty_bits(
            self, processors):
        undone = 0
        for pad in range(150, 162):
            body = self.FLIPPING % dict(
                pad=pad, spawn=_spawn_on(processors - 1, "worker"))
            machine = _asm_pair(body, processors,
                                memory_mode=self.MEMORY_MODE)
            # (An idle neighbour may steal the pinned thread first.)
            assert sum(cpu.ahead_stores for cpu in machine.cpus)
            assert sum(cpu.ahead_loads for cpu in machine.cpus)
            undone += _undone(machine, "run_end")
        assert undone > 0


class TestForeignStackAccessOnCoherentNodes(TestForeignStackAccess):
    """The same programs on the cache/directory machine, whose tails
    carry the stack accesses their own cache hits.  The other nodes'
    accesses to the leaked frame go through their controllers (a
    head, or a plain block's access that tests for a foreign window),
    which wind the root back *before* the protocol walk invalidates or
    downgrades a line its tail hit.

    The leaked-pointer runs end incoherent on the fast loop and the
    stepper alike: a remote miss updates the directory at issue but
    fills the line only when the processor retries, so a request in
    between is answered from a copy that is not there yet, and the
    late fill installs MODIFIED anyway — beside another modified copy,
    or where the directory says shared.  Both schedules must raise the
    same error; once the protocol is fixed, :attr:`LEAK_BREAKS` goes."""

    MEMORY_MODE = "coherent"
    LEAK_BREAKS = "modified in (several caches|cache )"
