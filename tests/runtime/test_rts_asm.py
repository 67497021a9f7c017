"""Run-time system integration tests with hand-written APRIL assembly.

These exercise the full thread/future/trap pipeline beneath the Mul-T
compiler: eager future creation, hardware touch traps, switch-spinning,
blocking, and multiprocessor scheduling.
"""

import pytest

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.tags import fixnum_value, make_fixnum
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.runtime import stubs

#: Closure header: (ncaptures << 8) | TYPE_CLOSURE.
HDR_CLOSURE0 = 2


def build_machine(body, **config_kwargs):
    source = stubs.thread_start_stub() + body
    program = assemble(source)
    config = MachineConfig(**config_kwargs)
    return AlewifeMachine(program, config)


#: Allocate a zero-capture closure for `label` into a0 (9 instructions).
def make_thunk(label, dest="a0"):
    return """
    mov gp, t0
    set %d, t1
    str t1, [t0+0]
    set %s, t1
    str t1, [t0+4]
    addr gp, 8, gp
    or t0, 2, %s
    """ % (HDR_CLOSURE0, label, dest)


class TestPlainThreads:
    def test_main_returns_value(self):
        machine = build_machine("""
        main:
            set 168, a0      ; fixnum(42)
            ret
        """)
        result = machine.run()
        assert result.value == 42

    def test_main_with_arguments(self):
        machine = build_machine("""
        main:
            add a0, a1, a0
            ret
        """)
        machine.runtime.spawn_main("main", (4, 5))
        # spawn_main was already called; drive the loop manually via run
        # on a fresh machine instead:
        machine2 = build_machine("""
        main:
            add a0, a1, a0
            ret
        """)
        result = machine2.run(args=(4, 5))
        assert result.value == 9

    def test_output_via_print_trap(self):
        machine = build_machine("""
        main:
            set 40, a0       ; fixnum(10)
            trap %d
            ret
        """ % stubs.V_PRINT)
        result = machine.run()
        assert result.output == [10]


class TestEagerFutures:
    FUTURE_BODY = """
    main:
        %s
        trap %d          ; a0 = future for (child)
        add a0, 8, a0    ; touch: future + fixnum(2)
        ret
    child:
        set 20, a0       ; fixnum(5)
        ret
    """ % (make_thunk("child"), stubs.V_FUTURE)

    def test_future_on_one_cpu(self):
        machine = build_machine(self.FUTURE_BODY, num_processors=1)
        result = machine.run()
        assert result.value == 7
        assert result.stats.futures_created == 1
        assert result.stats.futures_resolved == 1

    def test_future_on_two_cpus(self):
        machine = build_machine(self.FUTURE_BODY, num_processors=2)
        result = machine.run()
        assert result.value == 7

    def test_touch_blocks_then_wakes(self):
        # With a spin limit of 0... keep default: the main thread should
        # spin then block; the child resolves and wakes it.
        machine = build_machine(self.FUTURE_BODY, num_processors=1,
                                touch_spin_limit=1)
        result = machine.run()
        assert result.value == 7
        assert result.stats.touches_unresolved >= 1
        assert result.stats.touches_resolved >= 1

    def test_many_futures(self):
        # Sum of 4 futures, each returning fixnum(k).
        body = ["main:", "    set 0, s0"]
        # We cannot use callee-saved regs across traps? s-regs are frame
        # state, preserved: the frame is ours throughout.
        for k in range(4):
            body.append(make_thunk("child%d" % k))
            body.append("    trap %d" % stubs.V_FUTURE)
            body.append("    mov a0, s%d" % k)
        body.append("    add s0, s1, t0")
        body.append("    add t0, s2, t0")
        body.append("    add t0, s3, a0")
        body.append("    ret")
        for k in range(4):
            body.append("child%d:" % k)
            body.append("    set %d, a0" % (4 * (k + 1)))  # fixnum(k+1)
            body.append("    ret")
        machine = build_machine("\n".join(body), num_processors=4)
        result = machine.run()
        assert result.value == 1 + 2 + 3 + 4
        assert result.stats.futures_created == 4

    def test_future_resolving_to_future_chains(self):
        # outer child itself returns a future; the touch must chase it.
        body = """
        main:
            %s
            trap %d
            add a0, 4, a0    ; + fixnum(1)
            ret
        outer:
            %s
            trap %d
            ret              ; returns the *future* for inner
        inner:
            set 12, a0       ; fixnum(3)
            ret
        """ % (make_thunk("outer"), stubs.V_FUTURE,
               make_thunk("inner"), stubs.V_FUTURE)
        machine = build_machine(body, num_processors=2)
        result = machine.run()
        assert result.value == 4


class TestFutureOn:
    def test_future_on_pins_node(self):
        body = """
        main:
            %s
            set 4, a1        ; fixnum(1): run on node 1
            trap %d
            add a0, 0, a0
            ret
        child:
            set 36, a0       ; fixnum(9)
            ret
        """ % (make_thunk("child"), stubs.V_FUTURE_ON)
        machine = build_machine(body, num_processors=2)
        result = machine.run()
        assert result.value == 9
        # The child ran on node 1: that cpu did useful work.
        assert machine.cpus[1].stats.instructions > 0


class TestExplicitTouch:
    def test_touch_of_non_future_is_cheap(self):
        machine = build_machine("""
        main:
            set 44, a0
            trap %d
            ret
        """ % stubs.V_TOUCH)
        result = machine.run()
        assert result.value == 11


class TestErrors:
    def test_error_trap_raises(self):
        machine = build_machine("""
        main:
            set 4, a0
            trap %d
            ret
        """ % stubs.V_ERROR)
        with pytest.raises(SimulationError):
            machine.run()

    def test_cycle_limit(self):
        machine = build_machine("""
        main:
        spin:
            ba spin
        """)
        with pytest.raises(SimulationError):
            machine.run(max_cycles=10_000)


class TestSection6Costs:
    """The paper's measured trap costs, read off the run's counters."""

    #: main touches the future of a child that counts down from %d, so
    #: node 0 switch-spins on the touch until node 1 resolves it.
    SPIN_BODY = """
    main:
        %s
        trap %d          ; a0 = future for (child)
        add a0, 0, a0    ; touch: switch-spins until resolved
        ret
    child:
        set %%d, t1
    cloop:
        cmpr t1, 0
        ble cdone
        ba cloop
        @subr t1, 1, t1
    cdone:
        set 84, a0       ; fixnum(21)
        ret
    """ % (make_thunk("child"), stubs.V_FUTURE)

    #: A strict add on a pointer to a resolved future cell: tag 5 makes
    #: it a future (the add traps), tag 4 an even word (no trap).
    TOUCH_BODY = """
    main:
        set cell, t0
        or t0, %d, t1
        add t1, 4, a0
        ret
    .align 8
    cell:
        .fixnum 10
        .fixnum 1
    """

    def _spin(self, countdown, **config):
        machine = build_machine(self.SPIN_BODY % countdown, num_processors=2,
                                touch_spin_limit=10 ** 6, **config)
        result = machine.run()
        assert result.value == 21
        return result.cycles, machine.cpus[0].stats.context_switches

    def _cycles_per_switch(self, **config):
        """A longer countdown only adds switch-spins on node 0, so the
        extra run time over the extra switches is one switch's cost."""
        short_cycles, short_switches = self._spin(100, **config)
        long_cycles, long_switches = self._spin(300, **config)
        switches = long_switches - short_switches
        assert switches > 10
        assert (long_cycles - short_cycles) % switches == 0
        return (long_cycles - short_cycles) // switches

    def test_sparc_switch_is_11_cycles(self):
        # Section 6.1: a 5-cycle trap squash plus a 6-cycle handler.
        assert self._cycles_per_switch() == 11

    def test_custom_april_switch_is_4_cycles(self):
        assert self._cycles_per_switch(custom_april_switch=True) == 4

    def test_switch_cost_scales_run_time(self):
        cheap, _ = self._spin(2000, custom_april_switch=True)
        costly, _ = self._spin(2000, switch_handler_cycles=45)
        assert costly > cheap

    def test_resolved_touch_is_23_cycles_plus_squash(self):
        # Section 6.2: "Our future touch trap handler takes 23 cycles to
        # execute if the future is resolved", after the 5-cycle squash.
        touched = build_machine(self.TOUCH_BODY % 5)
        touched_result = touched.run()
        plain_result = build_machine(self.TOUCH_BODY % 4).run()
        assert touched_result.value == 11
        assert touched.runtime.futures.touches_resolved == 1
        assert touched_result.cycles - plain_result.cycles == 28


class TestSchedulingStats:
    def test_context_switches_counted(self):
        machine = build_machine(self.__class__.__dict__.get(
            "_body", TestEagerFutures.FUTURE_BODY), num_processors=1)
        result = machine.run()
        assert result.stats.context_switches >= 1

    def test_utilization_bounded(self):
        machine = build_machine(TestEagerFutures.FUTURE_BODY,
                                num_processors=2)
        result = machine.run()
        assert 0.0 < result.stats.utilization <= 1.0
