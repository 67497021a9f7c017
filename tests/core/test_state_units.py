"""Unit tests for PSR, task frames, FPU, and processor statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fpu import FPU, PHYSICAL_REGS, REGS_PER_CONTEXT
from repro.core.processor import Processor, ProcessorStats
from repro.core.psr import ET_BIT, PSR
from repro.core.task_frame import TaskFrame
from repro.errors import ProcessorError


class TestPSR:
    def test_default_traps_enabled(self):
        assert PSR().traps_enabled

    def test_ccs_roundtrip(self):
        psr = PSR()
        psr.set_ccs(True, False, True, False)
        assert (psr.n, psr.z, psr.v, psr.c) == (True, False, True, False)
        psr.set_ccs(False, True, False, True)
        assert (psr.n, psr.z, psr.v, psr.c) == (False, True, False, True)

    def test_fe_bit(self):
        psr = PSR()
        psr.fe = True
        assert psr.fe
        psr.fe = False
        assert not psr.fe

    def test_tid(self):
        psr = PSR()
        psr.tid = 0x1234
        assert psr.tid == 0x1234
        assert psr.traps_enabled   # untouched

    def test_trap_enable_toggle(self):
        psr = PSR()
        psr.traps_enabled = False
        assert not psr.traps_enabled
        assert psr.value & ET_BIT == 0

    @given(st.booleans(), st.booleans(), st.booleans(), st.booleans(),
           st.integers(min_value=0, max_value=0xFFFF))
    def test_fields_independent(self, n, z, v, c, tid):
        psr = PSR()
        psr.set_ccs(n, z, v, c)
        psr.tid = tid
        psr.fe = True
        assert (psr.n, psr.z, psr.v, psr.c) == (n, z, v, c)
        assert psr.tid == tid
        assert psr.fe


class TestTaskFrame:
    def test_save_load_state(self):
        frame = TaskFrame(0)
        frame.regs[3] = 42
        frame.pc, frame.npc = 0x100, 0x104
        frame.psr.tid = 7
        state = frame.save_state()
        frame.reset()
        assert frame.regs[3] == 0
        frame.load_state(state)
        assert frame.regs[3] == 42
        assert (frame.pc, frame.npc) == (0x100, 0x104)
        assert frame.psr.tid == 7

    def test_trap_window_retry(self):
        frame = TaskFrame(0)
        frame.pc, frame.npc = 0x20, 0x24
        frame.enter_trap()
        frame.pc = 0x999   # handler ran somewhere else
        frame.return_from_trap(retry=True)
        assert (frame.pc, frame.npc) == (0x20, 0x24)

    def test_trap_window_resume(self):
        frame = TaskFrame(0)
        frame.pc, frame.npc = 0x20, 0x24
        frame.enter_trap()
        frame.return_from_trap(retry=False)
        assert (frame.pc, frame.npc) == (0x24, 0x28)

    def test_occupancy(self):
        frame = TaskFrame(1)
        assert not frame.occupied
        frame.thread = object()
        assert frame.occupied


class TestFPU:
    def test_contexts_isolated(self):
        fpu = FPU()
        fpu.write(0, 3, 1.25)
        fpu.write(1, 3, 2.5)
        assert fpu.read(0, 3) == 1.25
        assert fpu.read(1, 3) == 2.5

    def test_windows_map_to_one_file(self):
        fpu = FPU()
        for ctx in range(4):
            for reg in range(REGS_PER_CONTEXT):
                fpu.write(ctx, reg, ctx * 10 + reg)
        snapshot = [fpu.read(c, r) for c in range(4)
                    for r in range(REGS_PER_CONTEXT)]
        assert len(snapshot) == PHYSICAL_REGS
        assert snapshot[9] == 11.0     # context 1, reg 1

    def test_ops(self):
        fpu = FPU()
        fpu.write(2, 0, 6.0)
        fpu.write(2, 1, 1.5)
        fpu.op(2, "fadd", 0, 1, 2)
        fpu.op(2, "fsub", 0, 1, 3)
        fpu.op(2, "fmul", 0, 1, 4)
        fpu.op(2, "fdiv", 0, 1, 5)
        assert fpu.read(2, 2) == 7.5
        assert fpu.read(2, 3) == 4.5
        assert fpu.read(2, 4) == 9.0
        assert fpu.read(2, 5) == 4.0

    def test_condition_bits_per_context(self):
        fpu = FPU()
        fpu.write(0, 0, 1.0)
        fpu.write(0, 1, 2.0)
        fpu.op(0, "fcmp", 0, 1, 0)
        assert fpu.condition(0)
        assert not fpu.condition(1)

    def test_save_restore_context(self):
        fpu = FPU()
        fpu.write(1, 0, 3.0)
        saved = fpu.context_registers(1)
        fpu.write(1, 0, 0.0)
        fpu.load_context(1, saved)
        assert fpu.read(1, 0) == 3.0

    def test_bad_register_raises(self):
        fpu = FPU()
        with pytest.raises(ProcessorError):
            fpu.read(0, 8)
        with pytest.raises(ProcessorError):
            fpu.read(4, 0)
        with pytest.raises(ProcessorError):
            fpu.op(0, "fsin", 0, 0, 0)

    def test_divide_by_zero(self):
        fpu = FPU()
        with pytest.raises(ProcessorError):
            fpu.op(0, "fdiv", 0, 1, 2)


class TestProcessorStats:
    def test_utilization(self):
        cpu = Processor()
        cpu.charge(80)
        cpu.charge(20, "idle")
        assert cpu.stats.utilization() == 0.8

    def test_total_cycles_is_incremental(self):
        cpu = Processor()
        for i, name in enumerate(("useful", "stall", "trap",
                                  "switch", "spin", "idle")):
            cpu.charge(i + 1, name)
        stats = cpu.stats
        categorical = (stats.useful + stats.stall + stats.trap
                       + stats.switch + stats.spin + stats.idle)
        assert stats.total_cycles == categorical == cpu.cycles == 21

    def test_unknown_category_rejected(self):
        cpu = Processor()
        with pytest.raises(ProcessorError, match="unknown cycle category"):
            cpu.charge(1, "instructions")
        assert cpu.cycles == cpu.stats.total_cycles == 0

    def test_snapshot_keys(self):
        snapshot = ProcessorStats().snapshot()
        for key in ("useful", "stall", "trap", "switch", "idle",
                    "instructions", "context_switches", "total_cycles"):
            assert key in snapshot

    def test_negative_charge_rejected(self):
        cpu = Processor()
        with pytest.raises(ProcessorError):
            cpu.charge(-1)

    def test_charge_categories(self):
        cpu = Processor()
        cpu.charge(3, "useful")
        cpu.charge(5, "switch")
        assert cpu.cycles == 8
        assert cpu.stats.useful == 3
        assert cpu.stats.switch == 5
