"""Perfetto/Chrome trace export: JSON schema the viewer accepts."""

import json

from tests.obs.conftest import observed_run

#: Trace Event Format phases the exporter may produce.
_PHASES = {"M", "X", "i", "C"}


def traced_run(**kwargs):
    kwargs.setdefault("n", 8)
    kwargs.setdefault("processors", 2)
    result, obs = observed_run(**kwargs)
    return result, obs, obs.perfetto()


class TestPerfettoTrace:
    def test_top_level_shape(self):
        _, obs, trace = traced_run()
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert isinstance(trace["traceEvents"], list)
        other = trace["otherData"]
        assert other["nodes"] == 2
        assert other["end_cycle"] == obs.machine.time
        assert other["events_recorded"] == len(obs.bus)
        assert other["events_dropped"] == obs.bus.dropped

    def test_events_are_schema_valid(self):
        _, _, trace = traced_run()
        for event in trace["traceEvents"]:
            phase = event["ph"]
            assert phase in _PHASES
            assert isinstance(event["pid"], int)
            if phase == "M":
                assert event["name"] in ("process_name", "thread_name")
                assert "name" in event["args"]
            else:
                assert isinstance(event["ts"], int)
                assert event["ts"] >= 0
            if phase == "X":
                assert event["dur"] >= 0
                assert isinstance(event["tid"], int)
            if phase == "i":
                assert event["s"] in ("g", "p", "t")
            if phase == "C":
                assert event["args"], "counter event with no values"

    def test_json_serializable(self):
        _, _, trace = traced_run()
        encoded = json.dumps(trace)
        assert json.loads(encoded) == trace

    def test_thread_slices_present(self):
        _, _, trace = traced_run()
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices, "no thread-residency slices exported"
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"].startswith("trap:") for e in instants)

    def test_counter_track_follows_sampler(self):
        _, obs, trace = traced_run()
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == len(obs.sampler) * len(obs.machine.cpus)

    def test_write_perfetto(self, tmp_path):
        _, obs, trace = traced_run()
        path = tmp_path / "trace.json"
        written = obs.write_perfetto(str(path))
        assert written == str(path)
        assert json.loads(path.read_text()) == trace


class TestTransactionEvents:
    """Async/flow events for txn-traced runs (clickable in Perfetto)."""

    def _txn_trace(self):
        result, obs, trace = traced_run(processors=4, coherent=True,
                                        txn=True)
        txn_events = [e for e in trace["traceEvents"]
                      if e.get("cat") in ("txn", "txn-flow")]
        return obs, txn_events

    def test_async_events_balanced_per_id(self):
        obs, events = self._txn_trace()
        assert events, "txn-traced run exported no transaction events"
        balance = {}
        for event in events:
            if event["cat"] != "txn":
                continue
            assert event["ph"] in ("b", "e")
            delta = 1 if event["ph"] == "b" else -1
            balance[event["id"]] = balance.get(event["id"], 0) + delta
        assert balance
        assert all(v == 0 for v in balance.values())
        assert len(balance) == len(obs.txn.finished)

    def test_flow_events_stitch_each_transaction(self):
        obs, events = self._txn_trace()
        flows = [e for e in events if e["cat"] == "txn-flow"]
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(obs.txn.finished)
        assert all(e["bp"] == "e" for e in finishes)
        # Flow ids match the async envelopes they decorate.
        async_ids = {e["id"] for e in events if e["cat"] == "txn"}
        assert {e["id"] for e in flows} <= async_ids

    def test_phase_spans_nested_inside_envelope(self):
        obs, events = self._txn_trace()
        for record in obs.txn.finished:
            if not record.phases:
                continue
            ident = "0x%x" % record.txn_id
            mine = [e for e in events
                    if e["cat"] == "txn" and e["id"] == ident]
            names = {e["name"] for e in mine}
            assert record.kind in names
            assert {name for name, _, _ in record.phases} <= names
            assert all(record.issue <= e["ts"] for e in mine)
            break


class TestOpenSliceLeftovers:
    """Threads still resident at run end get dur = end_cycle - start."""

    def test_leftover_slice_spans_to_run_end(self):
        from repro.obs.events import Event, EventKind, EventLog
        from repro.obs.perfetto import perfetto_trace
        log = EventLog()
        log.record(Event(EventKind.THREAD_LOAD, 40, 0,
                         {"frame": 1, "tid": 7, "thread": "thread-7"}))
        trace = perfetto_trace(log, 1, 100)
        (slice_,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slice_["ts"] == 40
        assert slice_["dur"] == 60
        assert slice_["name"] == "thread-7"

    def test_leftovers_close_in_deterministic_order(self):
        from repro.obs.events import Event, EventKind, EventLog
        from repro.obs.perfetto import perfetto_trace
        log = EventLog()
        # Record loads out of (node, frame) order; never unload them.
        for node, frame in ((1, 3), (0, 2), (1, 0), (0, 1)):
            log.record(Event(EventKind.THREAD_LOAD, 10, node, {
                "frame": frame, "thread": "t-%d-%d" % (node, frame)}))
        trace = perfetto_trace(log, 2, 50)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        keys = [(e["pid"], e["tid"]) for e in slices]
        assert keys == sorted(keys)
        assert all(e["dur"] == 40 for e in slices)


class TestBlockFlowEvents:
    """Blocked-on-future waits become clickable flow arrows."""

    def _flow_trace(self):
        result, obs, trace = traced_run(processors=2, threads=True)
        flows = [e for e in trace["traceEvents"]
                 if e.get("cat") == "block-flow"]
        return obs, flows

    def test_flows_present_and_balanced(self):
        obs, flows = self._flow_trace()
        assert flows, "threads-observed run exported no block-flow arrows"
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes)
        assert all(e["bp"] == "e" for e in finishes)
        for event in starts:
            args = event["args"]
            assert {"waiter", "waker", "blocked_cycles"} <= set(args)
            assert args["blocked_cycles"] >= 0

    def test_arrows_point_forward_in_time(self):
        _, flows = self._flow_trace()
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], {})[event["ph"]] = event
        for pair in by_id.values():
            assert set(pair) == {"s", "f"}
            assert pair["f"]["ts"] >= pair["s"]["ts"]
