"""Coherence-transaction tracer: spans, invariants, anomalies, export."""

import json

import pytest

from repro import workloads
from repro.lang.run import build_mult_machine
from repro.machine.config import MachineConfig
from repro.obs import Observation
from repro.obs.txn import TransactionTracer

from tests.obs.conftest import observed_run


def traced_coherent(n=8, processors=4):
    result, obs = observed_run(n=n, processors=processors, coherent=True,
                               events=False, window=0, txn=True)
    return result, obs.txn


class TestTracedRun:
    def test_remote_misses_are_traced(self):
        result, txn = traced_coherent()
        assert result.value == 21
        remote = [r for r in txn.finished if r.remote]
        assert remote, "coherent 4-node run produced no remote transaction"
        assert txn.emitted == len(txn.finished)
        assert txn.dropped == 0
        assert not txn.open_records(), "transactions left open at exit"

    def test_span_sum_equals_completion_latency(self):
        """The acceptance invariant: request/service/coherence/response
        phases tile the transaction exactly, so their durations sum to
        the controller's computed completion latency."""
        _, txn = traced_coherent()
        checked = 0
        for record in txn.finished:
            if not record.phases:
                continue
            span = sum(end - start for _, start, end in record.phases)
            assert span == record.latency, record
            # And the phases are contiguous: each starts where the
            # previous ended, from issue to ready.
            cursor = record.issue
            for _, start, end in record.phases:
                assert start == cursor
                cursor = end
            assert cursor == record.ready
            checked += 1
        assert checked > 0

    def test_transactions_attributed_to_threads(self):
        _, txn = traced_coherent()
        attributed = [r for r in txn.finished if r.thread is not None]
        assert attributed
        assert all(r.pc is not None for r in attributed)

    def test_retries_link_traps_to_transactions(self):
        _, txn = traced_coherent()
        retried = [r for r in txn.finished if r.retries > 0]
        assert retried, "no transaction trapped its processor"
        for record in retried:
            assert len(record.traps) == record.retries
            for trap in record.traps:
                assert trap["cycle"] >= record.issue
        # The processor hook annotated at least some traps with the
        # handler's chosen action (context switch or spin in place).
        actions = [t.get("action") for r in retried for t in r.traps]
        assert any(a is not None for a in actions)

    def test_network_legs_and_hops(self):
        _, txn = traced_coherent()
        remote = [r for r in txn.finished if r.remote]
        for record in remote:
            net = [leg for leg in record.legs if leg["type"] == "net"]
            assert net, "remote transaction with no network leg"
            assert record.hops == net[0]["hops"] > 0

    def test_histograms_follow_transactions(self):
        _, txn = traced_coherent()
        total = sum(h.count for h in txn.histograms.by_kind.values())
        assert total == txn.emitted
        assert sum(txn.by_kind.values()) == txn.emitted


class TestLatencyGolden:
    """fib(10), eager, four coherent nodes.  The latency table is a
    property of the simulated machine, not of the host or the schedule:
    changing a coherence latency fails here."""

    CYCLES = 26_992
    RECORDED = 619
    #: kind -> (count, p50, p90, p99)
    TABLE = {
        "local_read": (10, 10, 10, 10),
        "local_write": (70, 10, 10, 10),
        "remote_read": (263, 31, 31, 49),
        "remote_write": (222, 31, 31, 45),
        "upgrade": (54, 31, 31, 56),
    }

    @pytest.mark.parametrize("loop, observe", [
        ("fast", dict(events=False, window=0)),
        ("stepper", dict(events=False, window=0)),
        ("reference", dict(events=True, window=4096, profile=True)),
    ], ids=("fast", "stepper", "reference"))
    def test_histograms(self, loop, observe):
        fib = workloads.get("fib")
        machine, compiled = build_mult_machine(
            fib.source(), mode="eager",
            config=MachineConfig(num_processors=4, memory_mode="coherent"))
        obs = Observation(txn=True, **observe)
        obs.attach(machine)
        entry = compiled.entry_label("main")
        if loop == "stepper":
            stepper = machine.stepper(entry=entry, args=(10,))
            while stepper.step_machine() is not None:
                pass
            result = stepper.result()
        else:
            result = machine.run(entry=entry, args=(10,))
        assert machine.loop_used == loop
        assert result.value == fib.reference(10)
        assert result.cycles == self.CYCLES
        assert obs.txn.summary()["recorded"] == self.RECORDED
        assert {kind: (h.count, h.percentile(50), h.percentile(90),
                       h.percentile(99))
                for kind, h in obs.txn.histograms.by_kind.items()
                } == self.TABLE


class TestDeterminism:
    def test_two_runs_byte_identical_json(self):
        _, txn_a = traced_coherent(n=7)
        _, txn_b = traced_coherent(n=7)
        text_a, text_b = txn_a.to_json(), txn_b.to_json()
        assert len(text_a) > 1000
        assert text_a == text_b

    def test_write_round_trip(self, tmp_path):
        _, txn = traced_coherent(n=6)
        path = tmp_path / "txn.json"
        assert txn.write(str(path)) == str(path)
        payload = json.loads(path.read_text())
        assert payload["emitted"] == txn.emitted
        assert len(payload["transactions"]) == len(txn.finished)
        tids = {t["thread"] for t in payload["transactions"]
                if t["thread"] is not None}
        # The threads' own tids: spawn indices, main = 0.
        assert tids == {r.thread for r in txn.finished} - {None}
        assert 0 in tids


class TestSyntheticProtocol:
    """Unit-level checks against a hand-driven tracer."""

    def _miss(self, txn, node=0, block=0x100, home=1, retries=0):
        txn.begin(node, block, home, write=False, now=100)
        txn.net_leg(node, home, 2, 3, 100, 105, 0)
        txn.mark_phases(100, 105, 110, 110, 118)
        txn.commit(118, local=False)
        for i in range(retries):
            txn.trap_retry(node, block, 100 + i)
        txn.complete(node, block, 120)

    def test_ring_overflow_counts_drops_exactly(self):
        txn = TransactionTracer(capacity=5)
        for i in range(8):
            self._miss(txn, block=0x100 + 16 * i)
        assert txn.emitted == 8
        assert len(txn.finished) == 5
        assert txn.dropped == 3
        # Kind counts and histograms still saw every transaction.
        assert txn.by_kind == {"remote_read": 8}
        assert txn.histograms.by_kind["remote_read"].count == 8

    def test_spin_storm_flagged(self):
        txn = TransactionTracer()
        self._miss(txn, retries=9)
        self._miss(txn, block=0x200, retries=2)
        report = txn.anomalies(spin_storm=8)
        (storm,) = report["switch_spin_storms"]
        assert storm["block"] == 0x100
        assert storm["retraps"] == 9

    def test_invalidation_hot_line_flagged(self):
        txn = TransactionTracer()
        for i in range(5):
            txn.begin(i % 2, 0x300, 1, write=True, now=10 * i)
            txn.inv_leg(1 - i % 2, 0x300, "S", 10 * i + 3)
            txn.commit(10 * i + 8, local=False)
            txn.complete(i % 2, 0x300, 10 * i + 9)
        report = txn.anomalies(hot_line=4)
        (hot,) = report["invalidation_hot_lines"]
        assert hot["block"] == 0x300
        assert hot["invalidations"] == 5

    def test_full_empty_fault_to_sync(self):
        txn = TransactionTracer()
        txn.fe_fault(0, 0x400, "EMPTY_LOAD", 50)
        txn.fe_fault(0, 0x400, "EMPTY_LOAD", 62)
        txn.fe_sync(0, 0x400, 90)
        (record,) = txn.finished
        assert record.kind == "full_empty"
        assert record.retries == 2
        assert record.latency == 40
        assert not record.write
        assert txn.by_kind == {"full_empty": 1}

    def test_open_records_until_completion(self):
        txn = TransactionTracer()
        txn.begin(0, 0x500, 1, write=False, now=5)
        txn.commit(20, local=False)
        assert [r.block for r in txn.open_records()] == [0x500]
        assert txn.summary()["open"] == 1
        txn.complete(0, 0x500, 25)
        assert not txn.open_records()
        (record,) = txn.finished
        assert record.filled == 25

    def test_writeback_finishes_immediately(self):
        txn = TransactionTracer()
        txn.begin(2, 0x600, 0, write=True, now=30, kind="writeback")
        txn.commit(44, local=False, kind="writeback")
        (record,) = txn.finished
        assert record.kind == "writeback"
        assert record.latency == 14
        assert not txn.open_records()


class _StubThread:
    def __init__(self, tid):
        self.tid = tid


class _StubFrame:
    def __init__(self, tid, pc=0x40, index=0):
        self.thread = _StubThread(tid)
        self.pc = pc
        self.index = index


class _StubCpu:
    def __init__(self, tid, pc=0x40):
        self.frame = _StubFrame(tid, pc=pc)


class TestAnomalyThresholds:
    """Threshold edges and attribution of the anomaly pass."""

    def _storm(self, txn, block, retraps, tid=None, node=0):
        txn.begin(node, block, 1, write=False, now=0)
        txn.commit(10, local=False)
        cpu = _StubCpu(tid) if tid is not None else None
        for i in range(retraps):
            txn.trap_retry(node, block, 20 + i, cpu=cpu)
        txn.complete(node, block, 100)

    def test_storm_threshold_is_inclusive(self):
        txn = TransactionTracer()
        self._storm(txn, 0x100, retraps=8)
        self._storm(txn, 0x200, retraps=7)
        report = txn.anomalies(spin_storm=8)
        (storm,) = report["switch_spin_storms"]
        assert storm["block"] == 0x100
        assert report["spin_storm_threshold"] == 8

    def test_storm_counts_per_thread_not_per_transaction(self):
        # 5 + 4 re-traps from two different threads on one transaction
        # must not read as a 9-trap storm by any single thread.
        txn = TransactionTracer()
        txn.begin(0, 0x300, 1, write=False, now=0)
        txn.commit(10, local=False)
        for i in range(5):
            txn.trap_retry(0, 0x300, 20 + i, cpu=_StubCpu(11))
        for i in range(4):
            txn.trap_retry(0, 0x300, 40 + i, cpu=_StubCpu(12))
        txn.complete(0, 0x300, 100)
        report = txn.anomalies(spin_storm=8)
        assert report["switch_spin_storms"] == []
        (storm,) = txn.anomalies(spin_storm=5)["switch_spin_storms"]
        assert storm["retraps"] == 5

    def test_open_transactions_included_in_anomaly_pass(self):
        txn = TransactionTracer()
        txn.begin(0, 0x400, 1, write=False, now=0)
        txn.commit(10, local=False)
        for i in range(9):
            txn.trap_retry(0, 0x400, 20 + i, cpu=_StubCpu(3))
        # Never completed: the storm is visible while still in flight.
        (storm,) = txn.anomalies(spin_storm=8)["switch_spin_storms"]
        assert storm["block"] == 0x400
        assert storm["retraps"] == 9

    def test_hot_line_threshold_is_inclusive(self):
        txn = TransactionTracer()
        for count, block in ((4, 0x500), (3, 0x600)):
            for i in range(count):
                txn.begin(0, block, 1, write=True, now=10 * i)
                txn.inv_leg(1, block, "S", 10 * i + 3)
                txn.commit(10 * i + 8, local=False)
                txn.complete(0, block, 10 * i + 9)
        report = txn.anomalies(hot_line=4)
        (hot,) = report["invalidation_hot_lines"]
        assert hot == {"block": 0x500, "invalidations": 4}

    def test_summary_and_payload_carry_anomalies(self):
        txn = TransactionTracer()
        self._storm(txn, 0x700, retraps=9, tid=4242)
        summary = txn.summary()
        assert summary["anomalies"]["switch_spin_storms"]
        payload = txn.to_payload()
        (storm,) = payload["anomalies"]["switch_spin_storms"]
        # The export carries the thread's own tid; nothing renumbers it.
        assert storm["thread"] == 4242
