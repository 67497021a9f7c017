"""Per-thread lifetime accountant: exact conservation, byte stability,
and — since it accounts by difference — that settling at owner changes
attributes every cycle to whoever ran it."""

import functools
import json
import types

import pytest

from repro.lang.run import build_mult_machine, run_mult
from repro.machine.config import MachineConfig
from repro.obs import ConservationError, LifetimeAccountant, Observation
from repro.obs.lifetime import ONCPU_CLASS
from tests.helpers import build_cpu, run_to_halt
from tests.obs.conftest import FIB, observed_run


def lifetime_run(n=8, processors=2, coherent=False, mode="eager"):
    """Run fib(n) with the accountant on; returns (result, observation)."""
    obs = Observation(events=False, window=0, threads=True,
                      txn=coherent)
    config = MachineConfig(
        num_processors=processors,
        memory_mode="coherent" if coherent else "ideal")
    result = run_mult(FIB, mode=mode, args=(n,), config=config, observe=obs)
    return result, obs


class TestConservation:
    """sum(attributed) == machine.time x nodes, exactly, everywhere."""

    @pytest.mark.parametrize("processors,coherent,mode", [
        (1, False, "eager"),
        (2, False, "eager"),
        (4, False, "eager"),
        (4, False, "lazy"),
        (2, True, "eager"),
    ])
    def test_exact_on_every_config(self, processors, coherent, mode):
        result, obs = lifetime_run(processors=processors, coherent=coherent,
                                   mode=mode)
        assert result.value == 21
        lifetime = obs.lifetime.finalize(obs.machine)
        cons = lifetime.check()       # raises on any imbalance
        assert cons["exact"]
        assert cons["attributed"] == cons["cycles_x_nodes"]
        assert cons["cycles_x_nodes"] == result.cycles * processors
        # Integer ledgers: no float slop, no "other" bucket anywhere.
        for ledger in lifetime.threads.values():
            for value in list(ledger.oncpu.values()) + list(
                    ledger.waits.values()):
                assert isinstance(value, int)
                assert value >= 0

    def test_per_node_attribution_balances(self):
        result, obs = lifetime_run(processors=4)
        lifetime = obs.lifetime.finalize(obs.machine)
        for node, skew in lifetime.node_skew.items():
            assert lifetime.node_attr[node] + skew == result.cycles

    def test_wall_ledger_tiles_each_life(self):
        _, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        for ledger in lifetime.threads.values():
            assert ledger.wall_total() == ledger.end_cycle - ledger.spawn_cycle
            # Segments are contiguous: each starts where the last ended.
            for prev, seg in zip(ledger.segments, ledger.segments[1:]):
                assert seg.start == prev.end

    def test_all_threads_finish_and_root_exit_anchors(self):
        result, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        assert all(l.done for l in lifetime.threads.values())
        assert lifetime.last_exit is not None
        cycle, _ = lifetime.last_exit
        assert cycle <= result.cycles

    def test_conservation_requires_finalize(self):
        _, obs = lifetime_run()
        with pytest.raises(ConservationError):
            obs.lifetime.conservation()

    def test_check_raises_on_tampered_ledger(self):
        _, obs = lifetime_run()
        lifetime = obs.lifetime.finalize(obs.machine)
        lifetime.check()
        tid = lifetime.order[0]
        lifetime.threads[tid].oncpu["running"] = (
            lifetime.threads[tid].oncpu.get("running", 0) + 1)
        with pytest.raises(ConservationError):
            lifetime.check()


class TestOwnerAttribution:
    """Charges with an empty frame land on the pushed owner, not limbo."""

    def test_scheduler_work_attributed_to_threads(self):
        _, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        # Every loaded thread pays its own load/unload switch cycles, so
        # the switch bucket is populated per thread while per-node
        # overhead holds only thread-free categories (idle polling).
        switched = [l for l in lifetime.threads.values()
                    if l.oncpu.get("switch_spin")]
        assert switched, "no thread carries its context-switch cycles"
        for bucket in lifetime.node_overhead.values():
            assert "useful" not in bucket

    def test_blocked_waits_carry_touch_sites(self):
        _, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        sites = {}
        for ledger in lifetime.threads.values():
            for pc, cycles in ledger.block_sites.items():
                sites[pc] = sites.get(pc, 0) + cycles
        assert sites, "no blocked-on-future wait recorded a touch pc"
        total_blocked = sum(l.waits.get("blocked_future", 0)
                            for l in lifetime.threads.values())
        assert sum(sites.values()) <= total_blocked


class PerChargeOracle:
    """The accountant as PR 4 shipped it, kept as the test oracle: every
    ``Processor.charge`` call is attributed, as it happens, to the
    node's owner at that moment.  Only the reference interpreter sends
    every cycle through ``charge``, so machines under it are built with
    ``fastpath=False``."""

    def __init__(self, machine, lifetime):
        self.lifetime = lifetime
        self.threads = {}         # tid -> {class: cycles}
        self.overhead = {}        # node -> {category: cycles}
        for cpu in machine.cpus:
            cpu.charge = functools.partial(self._charge, cpu, cpu.charge)

    def _charge(self, cpu, charge, cycles, category="useful"):
        charge(cycles, category)
        if not cycles:
            return
        lifetime = self.lifetime
        thread = cpu.frames[cpu.fp].thread
        if cpu.stats._total <= lifetime.node_attr.get(cpu.node_id, 0):
            # A charge the scheduling call before it booked.
            tid = lifetime._owner[cpu.node_id]
        else:
            tid = thread.tid if thread is not None else None
        if tid is None:
            bucket, key = self.overhead.setdefault(cpu.node_id, {}), category
        else:
            bucket = self.threads.setdefault(tid, {})
            key = ONCPU_CLASS[category]
        bucket[key] = bucket.get(key, 0) + cycles


class CountingAccountant(LifetimeAccountant):
    """Counts the calls that settle a node (empty ones included):
    :meth:`settle` and every scheduling call with a processor."""

    settles = 0


def _counted(name):
    def call(self, cpu, *rest):
        self.settles += 1
        return getattr(LifetimeAccountant, name)(self, cpu, *rest)
    return call


for _name in ("settle", "load", "unload", "retire", "credit"):
    setattr(CountingAccountant, _name, _counted(_name))


class TestSettledEqualsCharged:
    """By difference at owner changes == per charge, cycle for cycle."""

    @pytest.mark.parametrize("processors,coherent,mode", [
        (2, False, "eager"),
        (4, False, "eager"),
        (2, False, "lazy"),
        (4, False, "lazy"),
        (2, True, "eager"),
        (4, True, "lazy"),
    ])
    def test_every_thread_and_node_bucket(self, processors, coherent, mode):
        config = MachineConfig(
            num_processors=processors,
            memory_mode="coherent" if coherent else "ideal")
        machine, compiled = build_mult_machine(FIB, mode=mode, config=config,
                                               fastpath=False)
        obs = Observation(events=False, window=0, threads=True)
        obs.attach(machine)
        oracle = PerChargeOracle(machine, obs.lifetime)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert result.value == 34
        lifetime = obs.lifetime.finalize(machine)
        assert lifetime.check()["exact"]
        nonzero = lambda bucket: {k: v for k, v in bucket.items() if v}
        assert len(oracle.threads) > processors
        assert {tid: nonzero(ledger.oncpu)
                for tid, ledger in lifetime.threads.items()
                if nonzero(ledger.oncpu)} == oracle.threads
        assert {node: nonzero(bucket)
                for node, bucket in lifetime.node_overhead.items()
                if nonzero(bucket)} == oracle.overhead
        if mode == "lazy":
            # A steal's set-up and stack copy are the stolen thread's
            # start-up cost, not the thief's idle time.
            stolen = [ledger for ledger in lifetime.threads.values()
                      if ledger.name.startswith("steal-of-")]
            assert stolen
            for ledger in stolen:
                assert ledger.oncpu["trap"] >= config.lazy_steal_cycles
                assert "idle" not in ledger.oncpu

    def test_settles_scale_with_scheduling_not_instructions(self):
        machine, compiled = build_mult_machine(FIB, processors=4)
        obs = Observation(events=False, window=0, threads=True)
        obs.lifetime = CountingAccountant()
        obs.attach(machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(12,))
        assert result.value == 144 and machine.loop_used == "fast"
        obs.lifetime.finalize(machine).check()
        instructions = result.stats.instructions
        traps = sum(cpu.stats.traps_taken for cpu in machine.cpus)
        assert 0 < obs.lifetime.settles < instructions / 4
        # One per load, unload, exit or steal, which books its own
        # charge, and one per FP move: 1 426 for 2 141 traps, where
        # pushing and popping an owner around each charge made 4 022.
        assert obs.lifetime.settles < traps


FRAME_SWITCHES = """
    a0:
        addr r1, 1, r1
        addr r1, 1, r1
        incfp                   ; A -> B
        addr r1, 1, r1          ; A again, after B's decfp
        rdfp r2                 ; reads FP: no owner change
        addr r0, 1, r3
        stfp r3                 ; A -> B
        halt                    ; A again, after B's stfp
    b0:
        addr r1, 1, r1
        decfp                   ; B -> A
        addr r1, 1, r1
        addr r1, 1, r1
        addr r1, 1, r1
        stfp r0                 ; B -> A
"""


class TestFramePointerInstructions:
    """A hand-assembled two-thread context switch through ``INCFP``,
    ``DECFP`` and ``STFP``: every cycle belongs to the thread in the
    frame that ran it, on every tier."""

    @staticmethod
    def _build():
        cpu, _, program = build_cpu(FRAME_SWITCHES)
        for index, (tid, label) in enumerate(((11, "a0"), (22, "b0"))):
            frame = cpu.frames[index]
            frame.thread = types.SimpleNamespace(tid=tid)
            frame.pc = program.address_of(label)
            frame.npc = frame.pc + 4
        return cpu

    def _expected(self):
        """Step by step: a step's cycles go to the frame it began in."""
        cpu = self._build()
        spent = {}
        while not cpu.halted:
            tid, before = cpu.frame.thread.tid, cpu.cycles
            cpu.step()
            spent[tid] = spent.get(tid, 0) + cpu.cycles - before
        assert cpu.read_reg(2, cpu.frames[0]) == 0      # RDFP saw FP = 0
        assert spent == {11: 8, 22: 6}
        return spent

    @staticmethod
    def _drive_reference(cpu):
        cpu.use_reference_interpreter()
        run_to_halt(cpu)

    @staticmethod
    def _drive_jit(cpu):
        while not cpu.halted:
            cpu.step_block(1 << 30)
        assert cpu.jit_runs > 0

    @pytest.mark.parametrize("tier", ["reference", "closure", "jit"])
    def test_every_cycle_goes_to_the_frame_that_ran_it(self, tier):
        cpu = self._build()
        cpu.events.lifetime = lifetime = CountingAccountant()
        {"reference": self._drive_reference, "closure": run_to_halt,
         "jit": self._drive_jit}[tier](cpu)
        # INCFP, DECFP and two STFPs settled; RDFP and the rest did not.
        assert lifetime.settles == 4
        lifetime.settle(cpu)
        assert {tid: ledger.oncpu
                for tid, ledger in lifetime.threads.items()} == {
            tid: {"running": cycles}
            for tid, cycles in self._expected().items()}
        assert lifetime.node_attr == {0: cpu.cycles}
        assert lifetime.node_overhead == {}


class TestOwnerStack:
    def test_nested_owners_restore_the_outer_one(self):
        """Each booked charge is its own thread's, and once it is spent
        the node's owner is whoever it was: nobody, then the frame's
        thread."""
        cpu, _, _ = build_cpu("halt")
        lifetime = LifetimeAccountant()
        cpu.charge(4, "idle")                   # nobody's: node overhead
        lifetime.credit(cpu, 7, 3, "trap")
        cpu.charge(3, "trap")
        lifetime.credit(cpu, 9, 5, "switch")    # e.g. a load after a steal
        cpu.charge(5, "switch")
        lifetime.credit(cpu, 7, 2, "trap")
        cpu.charge(2, "trap")                   # 7 again
        cpu.frame.thread = types.SimpleNamespace(tid=8)
        cpu.charge(6)                           # the frame's thread
        lifetime.settle(cpu)
        assert lifetime.settle(cpu) is None     # nothing new: a no-op
        assert lifetime.node_overhead == {0: {"idle": 4}}
        assert {tid: ledger.oncpu
                for tid, ledger in lifetime.threads.items()} == {
            7: {"trap": 5}, 9: {"switch_spin": 5}, 8: {"running": 6}}
        assert cpu.cycles == 20 and lifetime.node_attr == {0: 20}

    def test_switch_between_two_loaded_frames(self):
        """No benchmark keeps two threads resident on one node (a node
        loads only when idle), so the FP move of a context switch is
        driven by hand: what ran before it is the old frame's."""
        machine, _ = build_mult_machine(FIB, processors=1)
        obs = Observation(events=False, window=0, threads=True)
        obs.attach(machine)
        runtime, cpu = machine.runtime, machine.cpus[0]
        scheduler = runtime.scheduler
        threads = [runtime.new_thread(0, cpu=cpu) for _ in range(2)]
        frames = [scheduler.load_thread(cpu, thread,
                                        bootstrap=runtime.bootstrap)
                  for thread in threads]
        scheduler.activate_frame(cpu, frames[0])
        cpu.charge(7)
        scheduler.activate_frame(cpu, frames[1])
        cpu.charge(5)
        obs.lifetime.settle(cpu)
        load = machine.config.thread_load_cycles
        assert [obs.lifetime.threads[thread.tid].oncpu
                for thread in threads] == [
            {"switch_spin": load, "running": 7},
            {"switch_spin": load, "running": 5}]

    def test_resolve_after_retire_is_the_exiting_threads(self):
        """``on_thread_exit`` resolves the thread's future after its
        frame is empty; the owner push keeps that cost off the node."""
        _, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        config = obs.machine.config
        for bucket in lifetime.node_overhead.values():
            assert "trap" not in bucket
        children = [ledger for ledger in lifetime.threads.values()
                    if ledger.parent is not None]
        assert children
        for ledger in children:
            assert ledger.oncpu["trap"] >= (config.thread_exit_cycles
                                            + config.future_resolve_cycles)


class TestByteStability:
    def test_two_runs_identical_json(self):
        _, first = lifetime_run(processors=2)
        _, second = lifetime_run(processors=2)
        one = first.thread_accounting()
        two = second.thread_accounting()
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))

    def test_dense_ids_and_names_renumbered(self):
        _, obs = lifetime_run(processors=2)
        data = obs.thread_accounting()
        tids = [row["tid"] for row in data["threads"]]
        assert tids == list(range(len(tids)))
        for row in data["threads"]:
            if row["name"].startswith("thread-"):
                assert row["name"] == "thread-%d" % row["tid"]

    def test_top_keeps_heaviest_rows(self):
        _, obs = lifetime_run(processors=2)
        full = obs.thread_accounting()
        cut = obs.thread_accounting(top=3)
        assert len(cut["threads"]) == 3
        assert len(full["threads"]) > 3
        assert cut["conservation"] == full["conservation"]


class TestReportIntegration:
    def test_report_carries_threads_section(self):
        _, obs = observed_run(threads=True, window=0)
        report = obs.report()
        assert "threads" in report
        assert report["threads"]["conservation"]["exact"]

    def test_render_mentions_conservation(self):
        _, obs = lifetime_run(processors=2)
        text = obs.lifetime.finalize(obs.machine).render()
        assert "conservation: exact" in text
        assert "tid" in text
