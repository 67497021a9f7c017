"""Message passing over IPIs and mailboxes (Section 3.4)."""

import pytest

from repro.errors import RuntimeSystemError
from repro.isa import tags
from repro.isa.assembler import assemble
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.runtime import stubs
from repro.runtime.ipi import SLOT_WORDS, Mailbox, MessagePassing


def build(processors=2, body=None, **overrides):
    body = body or """
    main:
        set 400, t0       ; dawdle so IPIs arrive while running
    mloop:
        cmpr t0, 0
        ble mdone
        ba mloop
        @subr t0, 1, t0
    mdone:
        set 0, a0
        ret
    """
    source = stubs.thread_start_stub() + body
    config = MachineConfig(num_processors=processors, **overrides)
    return AlewifeMachine(assemble(source), config)


class TestMailbox:
    def test_deposit_collect_roundtrip(self):
        machine = build()
        box = Mailbox(machine.memory,
                      machine.runtime.kernel_heap(0).arena.allocate(64), 4)
        assert box.deposit([tags.make_fixnum(1), tags.make_fixnum(2)])
        assert box.collect() == [tags.make_fixnum(1), tags.make_fixnum(2)]
        assert box.collect() is None

    def test_fifo_order(self):
        machine = build()
        box = Mailbox(machine.memory,
                      machine.runtime.kernel_heap(0).arena.allocate(64), 4)
        for k in range(3):
            box.deposit([tags.make_fixnum(k)])
        assert [tags.fixnum_value(box.collect()[0]) for _ in range(3)] == \
            [0, 1, 2]

    def test_ring_fills_and_drains(self):
        machine = build()
        box = Mailbox(machine.memory,
                      machine.runtime.kernel_heap(0).arena.allocate(
                          2 * SLOT_WORDS), 2)
        assert box.deposit([0]) is not None
        assert box.deposit([0]) is not None
        assert box.deposit([0]) is None      # full
        box.collect()
        assert box.deposit([0]) is not None  # slot freed

    def test_oversized_message_raises(self):
        machine = build()
        box = Mailbox(machine.memory,
                      machine.runtime.kernel_heap(0).arena.allocate(64), 4)
        with pytest.raises(RuntimeSystemError):
            box.deposit([0] * SLOT_WORDS)


class TestMessagePassing:
    def test_delivery_during_run(self):
        machine = build()
        mp = MessagePassing(machine)
        received = []
        mp.on_message(1, lambda src, words: received.append((src, words)))
        assert mp.send(0, 1, [tags.make_fixnum(7)])
        machine.run()
        assert received == [(0, [tags.make_fixnum(7)])]
        assert mp.sent == mp.delivered == 1

    def test_unreceived_messages_queue(self):
        machine = build()
        mp = MessagePassing(machine)
        mp.send(0, 1, [tags.make_fixnum(3)])
        machine.run()
        assert mp.pending(1) == 1

    def test_polling_receive(self):
        machine = build()
        mp = MessagePassing(machine)
        box = mp.mailboxes[0]
        box.deposit([tags.make_fixnum(5)])
        assert mp.receive(0) == [tags.make_fixnum(5)]

    def test_backpressure(self):
        machine = build()
        mp = MessagePassing(machine, slots=2)
        assert mp.send(0, 1, [0])
        assert mp.send(0, 1, [0])
        assert not mp.send(0, 1, [0])   # mailbox full: sender backs off

    def test_bad_destination(self):
        machine = build()
        mp = MessagePassing(machine)
        with pytest.raises(RuntimeSystemError):
            mp.send(0, 9, [0])

    def test_ping_pong(self):
        """Two nodes bounce a counter through mailboxes: each delivery
        triggers the next send from the receiving node."""
        machine = build(processors=2)
        mp = MessagePassing(machine)
        log = []

        def bounce(node):
            def handler(src, words):
                value = tags.fixnum_value(words[0])
                log.append((node, value))
                if value < 5:
                    mp.send(node, src, [tags.make_fixnum(value + 1)])
            return handler

        mp.on_message(0, bounce(0))
        mp.on_message(1, bounce(1))
        mp.send(0, 1, [tags.make_fixnum(0)])
        machine.run()
        values = [value for _node, value in log]
        assert values == [0, 1, 2, 3, 4, 5]
        nodes = [node for node, _value in log]
        assert nodes == [1, 0, 1, 0, 1, 0]

    def test_ping_pong_never_runs_ahead(self):
        """An IPI lands in the middle of the receiver's dawdle loop —
        private instructions a run-ahead slice would have executed
        early.  With a receiver installed the fast loop must not run
        ahead, and must deliver every bounce at the stepper's clock."""
        def play(drive):
            machine = build(processors=2)
            mp = MessagePassing(machine)
            log = []

            def bounce(node):
                def handler(src, words):
                    value = tags.fixnum_value(words[0])
                    log.append((node, value, machine.cpus[node].cycles))
                    if value < 5:
                        mp.send(node, src, [tags.make_fixnum(value + 1)])
                return handler

            mp.on_message(0, bounce(0))
            mp.on_message(1, bounce(1))
            mp.send(0, 1, [tags.make_fixnum(0)])
            drive(machine)
            return machine, log

        def step_through(machine):
            stepper = machine.stepper()
            while stepper.step_machine() is not None:
                pass
            stepper.result()

        fast, fast_log = play(lambda machine: machine.run())
        stepped, stepped_log = play(step_through)
        assert fast.loop_used == "fast"
        assert [value for _, value, _ in fast_log] == [0, 1, 2, 3, 4, 5]
        assert fast_log == stepped_log
        assert fast.time == stepped.time
        for cpu, oracle in zip(fast.cpus, stepped.cpus):
            assert (cpu.ahead_slices, cpu.ahead_instructions,
                    cpu.ahead_undone) == (0, 0, 0)
            assert cpu.stats.snapshot() == oracle.stats.snapshot()
