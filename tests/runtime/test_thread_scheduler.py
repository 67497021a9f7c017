"""Thread state machine, scheduler queues, and lazy-queue unit tests."""

import pytest

from repro.core.processor import Processor
from repro.errors import RuntimeSystemError
from repro.lang.run import build_mult_machine
from repro.machine.config import MachineConfig
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import Memory
from repro.runtime.lazy import LazyMarker, LazyQueue
from repro.runtime.scheduler import Scheduler, loaded_frames
from repro.runtime.thread import Thread, ThreadState
from tests.obs.conftest import FIB


def make_thread(**kwargs):
    defaults = dict(tid=0, stack_base=0x1000, stack_words=64, home_node=0)
    defaults.update(kwargs)
    return Thread(**defaults)


def make_scheduler(cpus=2, **config_kwargs):
    config = MachineConfig(num_processors=cpus, **config_kwargs)
    port = IdealMemoryPort(Memory(1024))
    processors = [Processor(node_id=i, port=port) for i in range(cpus)]
    return Scheduler(processors, config), processors


class TestThreadStates:
    def test_fresh_thread_is_ready(self):
        assert make_thread().state is ThreadState.READY

    def test_legal_lifecycle(self):
        thread = make_thread()
        thread.transition(ThreadState.LOADED)
        thread.transition(ThreadState.BLOCKED)
        thread.transition(ThreadState.READY)
        thread.transition(ThreadState.LOADED)
        thread.transition(ThreadState.DONE)

    def test_illegal_transition_raises(self):
        thread = make_thread()
        with pytest.raises(RuntimeSystemError):
            thread.transition(ThreadState.BLOCKED)  # ready -> blocked

    def test_done_is_terminal(self):
        thread = make_thread()
        thread.transition(ThreadState.LOADED)
        thread.transition(ThreadState.DONE)
        with pytest.raises(RuntimeSystemError):
            thread.transition(ThreadState.READY)

    def test_unique_tids(self):
        # A thread's id is its index in its run's thread list (spawn
        # order, main first), whatever other machines the process built.
        for _ in range(2):
            machine, compiled = build_mult_machine(FIB, processors=2)
            assert machine.run(entry=compiled.entry_label(),
                               args=(6,)).value == 8
            threads = machine.runtime.threads
            assert len(threads) > 1
            assert [t.tid for t in threads] == list(range(len(threads)))
            assert threads[0].name == "main"

    def test_stack_limit(self):
        thread = make_thread(stack_base=0x1000, stack_words=64)
        assert thread.stack_limit == 0x1000 + 256


class TestScheduler:
    def test_round_robin_placement(self):
        scheduler, _ = make_scheduler(cpus=3)
        nodes = [scheduler.pick_node(0) for _ in range(6)]
        assert nodes == [0, 1, 2, 0, 1, 2]

    def test_local_placement(self):
        scheduler, _ = make_scheduler(cpus=3, placement="local")
        assert scheduler.pick_node(2) == 2

    def test_pinned_placement(self):
        scheduler, _ = make_scheduler(cpus=3)
        assert scheduler.pick_node(0, pinned=2) == 2
        with pytest.raises(RuntimeSystemError):
            scheduler.pick_node(0, pinned=9)

    def test_owner_lifo_thief_fifo(self):
        scheduler, _ = make_scheduler()
        first, second = make_thread(), make_thread()
        scheduler.enqueue(first, 0)
        scheduler.enqueue(second, 0)
        # Owner pops the newest (depth-first) ...
        assert scheduler.dequeue_local(0) is second
        scheduler.enqueue(second, 0)
        # ... a thief takes the oldest.
        assert scheduler.steal_ready_thread(1) is first

    def test_enqueue_requires_ready(self):
        scheduler, _ = make_scheduler()
        thread = make_thread()
        thread.transition(ThreadState.LOADED)
        with pytest.raises(RuntimeSystemError):
            scheduler.enqueue(thread, 0)

    def test_load_unload_roundtrip(self):
        scheduler, cpus = make_scheduler()
        thread = make_thread()

        def bootstrap(cpu, frame, th):
            frame.pc = 0x40
            frame.npc = 0x44
            frame.regs[5] = 99

        frame = scheduler.load_thread(cpus[0], thread, bootstrap=bootstrap)
        assert thread.state is ThreadState.LOADED
        assert frame.thread is thread
        scheduler.unload_thread(cpus[0], frame, ThreadState.READY)
        assert thread.state is ThreadState.READY
        regs, pc, npc, psr = thread.saved_state
        assert (regs[5], pc, npc) == (99, 0x40, 0x44)
        assert frame.thread is None
        # Reload restores the register.
        frame2 = scheduler.load_thread(cpus[0], thread, bootstrap=bootstrap)
        assert frame2.regs[5] == 99

    def test_load_charges_cycles(self):
        scheduler, cpus = make_scheduler()
        before = cpus[0].cycles
        scheduler.load_thread(cpus[0], make_thread(),
                              bootstrap=lambda c, f, t: None)
        assert cpus[0].cycles - before == scheduler.config.thread_load_cycles

    def test_no_free_frame_raises(self):
        scheduler, cpus = make_scheduler()
        for _ in range(len(cpus[0].frames)):
            scheduler.load_thread(cpus[0], make_thread(),
                                  bootstrap=lambda c, f, t: None)
        with pytest.raises(RuntimeSystemError):
            scheduler.load_thread(cpus[0], make_thread(),
                                  bootstrap=lambda c, f, t: None)

    def test_next_occupied_frame_round_robin(self):
        scheduler, cpus = make_scheduler()
        cpu = cpus[0]
        t1, t2 = make_thread(), make_thread()
        scheduler.load_thread(cpu, t1, frame=cpu.frames[0],
                              bootstrap=lambda c, f, t: None)
        scheduler.load_thread(cpu, t2, frame=cpu.frames[2],
                              bootstrap=lambda c, f, t: None)
        cpu.fp = 0
        assert loaded_frames(cpu) == (2, cpu.frames[2])
        cpu.fp = 2
        assert loaded_frames(cpu) == (2, cpu.frames[0])
        cpu.fp = 1
        assert loaded_frames(cpu) == (2, cpu.frames[2])
        scheduler.retire_thread(cpu.frames[2], cpu)
        cpu.fp = 0
        assert loaded_frames(cpu) == (1, cpu.frames[0])
        scheduler.retire_thread(cpu.frames[0], cpu)
        assert loaded_frames(cpu) == (0, None)


class TestLazyQueue:
    def _marker(self, thread, sp):
        marker = LazyMarker(thread, sp=sp, resume_pc=0x100, node=0)
        thread.lazy_markers.append(marker)
        return marker

    def test_steal_takes_oldest(self):
        queue = LazyQueue(0)
        thread = make_thread()
        m1 = self._marker(thread, 0x1010)
        m2 = self._marker(thread, 0x1020)
        queue.push(m1)
        queue.push(m2)
        stolen = queue.steal()
        assert stolen is m1 and stolen.stolen

    def test_owner_discard_from_back(self):
        queue = LazyQueue(0)
        thread = make_thread()
        m1 = self._marker(thread, 0x1010)
        m2 = self._marker(thread, 0x1020)
        queue.push(m1)
        queue.push(m2)
        queue.discard(m2)
        assert len(queue) == 1
        assert queue.steal() is m1

    def test_steal_skips_discarded(self):
        queue = LazyQueue(0)
        thread = make_thread()
        m1 = self._marker(thread, 0x1010)
        queue.push(m1)
        queue.discard(m1)
        assert queue.steal() is None

    def test_empty_steal(self):
        assert LazyQueue(0).steal() is None
