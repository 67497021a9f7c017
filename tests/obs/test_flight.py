"""Flight recorder + hang watchdog: detection, post-mortems, and the
fast-path eligibility contract (an event bus must not pin the machine
onto the reference loop)."""

import pytest

from repro.errors import HangDetected
from repro.isa.assembler import assemble
from repro.lang.run import build_mult_machine, run_mult
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import EventKind, FlightRecorder, Watchdog
from repro.runtime import stubs
from repro.runtime.sync import SYNC_ASM

DEADLOCK = """
(define fa 0)
(define fb 0)
(define (worker-a n)
  (if (< n 1) (touch fb) (worker-a (- n 1))))
(define (worker-b n)
  (if (< n 1) (touch fa) (worker-b (- n 1))))
(define (main)
  (begin
    (set! fa (future-on 0 (worker-a 64)))
    (set! fb (future-on 1 (worker-b 64)))
    (+ (touch fa) (touch fb))))
"""

FIB = """
(define (fib n)
  (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(define (main n) (fib n))
"""

# A consumer switch-spinning forever on an I-structure slot nobody will
# ever fill: the spin-storm (livelock) fixture.
STORM = """
main:
    set slot, a0
    st ra, [sp+0]
    addr sp, 4, sp
    call __ifetch
    subr sp, 4, sp
    ld [sp+0], ra
    ret

.align 8
slot:
    .word 0
"""


def _deadlocked_machine(interval=1024):
    machine, compiled = build_mult_machine(DEADLOCK, processors=2)
    watchdog = Watchdog(interval=interval).attach(machine)
    return machine, compiled, watchdog


class TestDeadlockDetection:
    def test_deadlock_raises_hang_detected(self):
        machine, compiled, _ = _deadlocked_machine()
        with pytest.raises(HangDetected) as info:
            machine.run(entry=compiled.entry_label("main"),
                        max_cycles=50_000_000)
        exc = info.value
        assert exc.kind == "deadlock"
        # Detected within a couple of intervals, not at --max-cycles.
        assert exc.cycle < 20_000
        assert machine.time == exc.cycle

    def test_postmortem_names_the_wait_for_cycle(self):
        machine, compiled, _ = _deadlocked_machine()
        with pytest.raises(HangDetected) as info:
            machine.run(entry=compiled.entry_label("main"))
        pm = info.value.postmortem
        assert pm["kind"] == "deadlock"
        # worker-a <-> worker-b is the cycle; main hangs off it.
        assert len(pm["wait_for"]["cycles"]) == 1
        cycle = pm["wait_for"]["cycles"][0]
        assert len(cycle) == 2
        assert len(pm["wait_for"]["edges"]) == 3
        # Every blocked thread gets a disassembly window at its pc.
        assert len(pm["disassembly"]) == 3
        for section in pm["disassembly"]:
            assert "=>" in section["listing"]
        # Flight rings captured the tail of events on both nodes.
        assert len(pm["nodes"]) == 2
        assert all(node["last_events"] for node in pm["nodes"])

    def test_render_is_deterministic_across_runs(self):
        """A tid is the thread's spawn index in its run, so two
        identical runs in one process render byte-identical text."""
        machine_a, compiled, _ = _deadlocked_machine()
        machine_b = AlewifeMachine(compiled.program,
                                   MachineConfig(num_processors=2))
        Watchdog(interval=1024).attach(machine_b)
        texts = []
        for machine in (machine_a, machine_b):
            with pytest.raises(HangDetected) as info:
                machine.run(entry=compiled.entry_label("main"))
            texts.append(info.value.render())
        assert texts[0] == texts[1]
        assert "== HANG DETECTED: deadlock" in texts[0]
        # The two workers are spawn indices 1 and 2 (main is 0); the
        # cycle starts at its smallest tid.
        assert "wait-for cycle: thread-1 -> thread-2 -> thread-1" in texts[0]

    def test_run_mult_watchdog_parameter(self):
        with pytest.raises(HangDetected):
            run_mult(DEADLOCK, processors=2, watchdog=Watchdog())


class TestLivelockDetection:
    def test_spin_storm_raises_livelock(self):
        source = stubs.thread_start_stub() + SYNC_ASM + STORM
        config = MachineConfig(num_processors=1)
        machine = AlewifeMachine(assemble(source), config)
        machine.memory.set_full(machine.program.address_of("slot"), False)
        Watchdog(interval=1024).attach(machine)
        with pytest.raises(HangDetected) as info:
            machine.run(max_cycles=50_000_000)
        exc = info.value
        assert exc.kind == "livelock"
        assert exc.cycle < 50_000
        assert "spin" in exc.reason

    def test_legitimate_run_never_trips(self):
        """fib spawns, spins briefly on steals, and resolves futures —
        the storm detector must stay quiet (strikes + useful-cycle
        guard) and the result must be untouched."""
        watchdog = Watchdog(interval=512)
        result = run_mult(FIB, processors=4, args=(12,), watchdog=watchdog)
        assert result.value == 144


class TestFastPathEligibility:
    def test_watchdog_keeps_fast_loop(self):
        """The flight recorder's bus must not force the reference
        loop: no event is per-instruction."""
        machine, compiled, _ = _deadlocked_machine()
        with pytest.raises(HangDetected):
            machine.run(entry=compiled.entry_label("main"))
        assert machine.loop_used == "fast"

    def test_detach_restores_dormancy(self):
        machine, compiled = build_mult_machine(FIB, processors=1)
        watchdog = Watchdog().attach(machine)
        assert machine.events.active
        assert machine.watchdog is watchdog
        watchdog.detach()
        assert not machine.events.active
        assert machine.watchdog is None
        result = machine.run(entry=compiled.entry_label("main"), args=(10,))
        assert result.value == 55
        assert machine.loop_used == "fast"

    def test_existing_observation_bus_is_reused(self):
        """The recorder and an Observation subscribe to the same bus,
        the machine's — and that observation's default sampler window
        still pins the reference loop."""
        from repro.obs import Observation
        machine, compiled = build_mult_machine(FIB, processors=1)
        bus = machine.events
        obs = Observation(events=True)
        obs.attach(machine)
        flight = FlightRecorder()
        flight.attach(machine)
        assert machine.events is bus
        result = machine.run(entry=compiled.entry_label("main"), args=(8,))
        assert result.value == 21
        assert machine.loop_used == "reference"
        assert any(flight.rings.values())

    def test_flight_events_match_reference_loop(self):
        """Same program, fast loops vs reference loop: the coarse rings
        must hold identical (cycle, kind) tails — the lockstep proof
        that coarse subscription sees the same machine."""
        tails = []
        for fastpath in (True, False):
            machine, compiled = build_mult_machine(
                FIB, processors=2, fastpath=fastpath)
            flight = FlightRecorder(per_node=256)
            flight.attach(machine)
            result = machine.run(entry=compiled.entry_label("main"),
                                 args=(9,))
            assert result.value == 34
            tails.append([
                [(e.cycle, e.kind.value) for e in machine_ring]
                for machine_ring in
                (flight.rings[n] for n in sorted(flight.rings))])
        assert tails[0] == tails[1]


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        machine, compiled = build_mult_machine(FIB, processors=1)
        flight = FlightRecorder(per_node=16)
        flight.attach(machine)
        machine.run(entry=compiled.entry_label("main"), args=(10,))
        assert all(len(ring) <= 16 for ring in flight.rings.values())
        assert flight.rings[0]

    def test_coarse_bus_excludes_cache_noise(self):
        from repro.obs.flight import COARSE_KINDS
        assert EventKind.CACHE_EVICT not in COARSE_KINDS
        assert EventKind.DIRECTORY_READ not in COARSE_KINDS
        assert EventKind.TRAP_ENTER in COARSE_KINDS
        assert EventKind.CONTEXT_SWITCH in COARSE_KINDS
        # ... and what is not listed never reaches a ring, although the
        # bus it subscribes to carries every kind.
        machine, compiled = build_mult_machine(
            FIB, config=MachineConfig(num_processors=2,
                                      memory_mode="coherent"))
        flight = FlightRecorder(per_node=1 << 16)
        flight.attach(machine)
        directory_reads = []
        machine.events.subscribe(directory_reads.append,
                                 EventKind.DIRECTORY_READ)
        machine.run(entry=compiled.entry_label("main"), args=(8,))
        assert machine.loop_used == "fast"
        assert directory_reads
        kept = {event.kind for ring in flight.rings.values()
                for event in ring}
        assert kept and kept <= set(COARSE_KINDS)
