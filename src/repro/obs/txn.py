"""Coherence-transaction tracing: causal spans for every memory transaction.

The aggregate counters of PR 1 say *how many* remote misses happened;
this module says what each one *did*.  The cache controller begins a
:class:`TxnRecord` at transaction issue (cache miss, write upgrade,
full/empty fault); while it walks the protocol legs the instrumented
network, directory, and caches report each leg into the active record
(request to home, directory service, per-victim invalidation round
trips, owner fetch, response, write-back).  The controller then commits
the record with the computed completion time and the tracer keeps it
pending until the data is actually consumed, linking every switch-spin
re-trap (and the trap handler's context switch) to the transaction that
caused it.

Every hook site in the simulator reads the tracer off the machine's
event bus (``txn = bus.txn``) and stays dormant behind one
``txn is not None`` test, so untraced runs pay one pointer comparison
per site.

Phases tile the transaction exactly: ``request`` (issue to home
arrival), ``service`` (directory/memory), ``coherence`` (the max of the
parallel invalidation/owner-fetch round trips, when any), ``response``
(grant back to the requester) — so the sum of phase durations equals
the controller's computed completion latency, which the tests assert.

Completed records feed :class:`~repro.obs.hist.LatencyHistograms`
(latency by kind, by hop distance to home, by node) and a bounded ring
(oldest dropped first, counted).  Exports: JSON (``april run --txn``),
report sections (``april report --histograms``), and Perfetto
async/flow events (see :mod:`repro.obs.perfetto`).

A record's ``thread`` is the running thread's own tid (its spawn index
in the run), so two identical runs produce byte-identical transaction
JSON.
"""

import json
from collections import deque

from repro.obs.hist import LatencyHistograms

#: Trap kinds a transaction can provoke (the MEXC path + full/empty).
MEMORY_TRAP_KINDS = ("CACHE_MISS", "EMPTY_LOAD", "FULL_STORE")


class TxnRecord:
    """One coherence transaction: identity, phases, legs, traps."""

    __slots__ = ("txn_id", "kind", "node", "block", "home", "write",
                 "upgrade", "remote", "issue", "ready", "filled", "thread",
                 "pc", "frame", "phases", "legs", "traps", "hops", "retries",
                 "open")

    def __init__(self, txn_id, node, block, home, write, now):
        self.txn_id = txn_id
        self.kind = None
        self.node = node
        self.block = block
        self.home = home
        self.write = write
        self.upgrade = False
        self.remote = False
        self.issue = now
        self.ready = None
        self.filled = None
        self.thread = None
        self.pc = None
        self.frame = 0
        self.phases = []          # (name, start, end), tiling issue..ready
        self.legs = []            # component-reported sub-events
        self.traps = []           # switch-spin re-traps linked to this txn
        self.hops = 0             # request-leg hop distance to home
        self.retries = 0
        self.open = True

    @property
    def latency(self):
        return None if self.ready is None else self.ready - self.issue

    def to_dict(self):
        return {
            "id": self.txn_id,
            "kind": self.kind,
            "node": self.node,
            "block": self.block,
            "home": self.home,
            "write": self.write,
            "remote": self.remote,
            "issue": self.issue,
            "ready": self.ready,
            "filled": self.filled,
            "latency": self.latency,
            "thread": self.thread,
            "pc": self.pc,
            "frame": self.frame,
            "hops": self.hops,
            "retries": self.retries,
            "phases": [{"name": name, "start": start, "end": end}
                       for name, start, end in self.phases],
            "legs": list(self.legs),
            "traps": list(self.traps),
        }

    def __repr__(self):
        return "TxnRecord(%d, %s, block=%#x, issue=%d, ready=%s)" % (
            self.txn_id, self.kind, self.block, self.issue, self.ready)


class TransactionTracer:
    """Span store + online reductions for coherence transactions.

    Args:
        capacity: finished-record ring size; oldest dropped (and
            counted) past it.  ``None`` keeps everything.  Histograms
            and kind counts see every transaction regardless.
    """

    def __init__(self, capacity=200_000):
        self.finished = deque(maxlen=capacity)
        self.dropped = 0
        self.emitted = 0
        self.by_kind = {}
        self.histograms = LatencyHistograms()
        self._next_id = 1
        self._active = None       # record being walked by the controller
        self._pending = {}        # (node, block) -> TxnRecord
        self._fe = {}             # (node, address) -> full/empty TxnRecord
        self._last_trap = {}      # node -> trap dict awaiting its action

    @property
    def capacity(self):
        return self.finished.maxlen

    @property
    def faults(self):
        """The full/empty faults still open, keyed by ``(node,
        address)``: the live map, for reading only.  A served access
        at any other word is nothing to the tracer (:meth:`fe_sync`),
        so generated code answers those cache hits itself."""
        return self._fe

    # -- controller hooks --------------------------------------------------

    def begin(self, node, block, home, write, now, cpu=None, upgrade=False,
              kind=None):
        """A controller starts walking a transaction's protocol legs."""
        record = TxnRecord(self._next_id, node, block, home, write, now)
        self._next_id += 1
        record.upgrade = upgrade
        record.kind = kind
        self._attribute(record, cpu)
        self._active = record
        return record

    def commit(self, completion, local, kind=None):
        """The walk finished; the completion time is known.

        Remote transactions stay pending (the processor switch-spins
        back for the data); write-backs and explicit-kind transactions
        finish immediately.
        """
        record = self._active
        if record is None:
            return None
        self._active = None
        record.ready = completion
        record.remote = not local
        for leg in record.legs:
            if leg.get("type") == "net":
                record.hops = leg["hops"]
                break
        if record.kind is None:
            if kind is not None:
                record.kind = kind
            elif record.upgrade:
                record.kind = "upgrade"
            else:
                record.kind = (("remote_" if record.remote else "local_")
                               + ("write" if record.write else "read"))
        if record.kind == "writeback":
            record.filled = completion
            self._finalize(record)
        else:
            self._pending[(record.node, record.block)] = record
        return record

    def complete(self, node, block, now):
        """The requesting node consumed the data: close the record."""
        record = self._pending.pop((node, block), None)
        if record is None:
            return
        record.filled = now
        self._finalize(record)

    def trap_retry(self, node, block, now, cpu=None):
        """The controller trapped the processor on a pending transaction."""
        record = self._pending.get((node, block))
        if record is None:
            return
        trap = self._trap_dict(now, cpu)
        record.traps.append(trap)
        record.retries += 1
        self._last_trap[node] = trap

    def fe_fault(self, node, address, trap_kind, now, cpu=None):
        """A full/empty mismatch trapped the processor at ``address``."""
        key = (node, address)
        record = self._fe.get(key)
        if record is None:
            record = TxnRecord(self._next_id, node, address, None, False, now)
            self._next_id += 1
            record.kind = "full_empty"
            record.write = trap_kind == "FULL_STORE"
            record.legs.append({"type": "fe", "trap": trap_kind})
            self._attribute(record, cpu)
            self._fe[key] = record
        trap = self._trap_dict(now, cpu)
        record.traps.append(trap)
        record.retries += 1
        self._last_trap[node] = trap

    def fe_sync(self, node, address, now):
        """A previously-faulting full/empty access finally succeeded."""
        record = self._fe.pop((node, address), None)
        if record is None:
            return
        record.ready = now
        record.filled = now
        self._finalize(record)

    def mark_phases(self, issue, arrive, service_done, coherence_done, done):
        """The controller reports the sequential phase boundaries."""
        record = self._active
        if record is None:
            return
        record.phases = [("request", issue, arrive),
                         ("service", arrive, service_done)]
        if coherence_done > service_done:
            record.phases.append(("coherence", service_done, coherence_done))
        record.phases.append(("response", coherence_done, done))

    # -- component hooks (network / directory / cache) ---------------------

    def net_leg(self, src, dst, flits, hops, start, end, contention):
        record = self._active
        if record is None:
            return
        record.legs.append({"type": "net", "src": src, "dst": dst,
                            "flits": flits, "hops": hops, "start": start,
                            "end": end, "contention": contention})

    def dir_leg(self, home, block, op, state, invalidations, now):
        record = self._active
        if record is None:
            return
        record.legs.append({"type": "dir", "home": home, "op": op,
                            "state": state, "invalidations": invalidations,
                            "at": now})

    def inv_leg(self, node, block, state, now):
        record = self._active
        if record is None:
            return
        record.legs.append({"type": "invalidate", "node": node,
                            "state": state, "at": now})

    # -- processor hook ----------------------------------------------------

    def trap_action(self, node, trap_kind, action, cycle, to_frame):
        """The trap the controller predicted was taken; link its outcome
        (the context switch / yield the handler chose) back to the
        transaction's trap record."""
        if trap_kind not in MEMORY_TRAP_KINDS:
            return
        trap = self._last_trap.pop(node, None)
        if trap is None:
            return
        trap["trap"] = trap_kind
        trap["action"] = action
        trap["to_frame"] = to_frame
        trap["taken_at"] = cycle

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _attribute(record, cpu):
        if cpu is None:
            return
        frame = cpu.frame
        record.frame = frame.index
        record.pc = frame.pc
        thread = getattr(frame, "thread", None)
        if thread is not None:
            record.thread = thread.tid

    @staticmethod
    def _trap_dict(now, cpu):
        trap = {"cycle": now, "thread": None, "pc": None}
        if cpu is not None:
            frame = cpu.frame
            trap["pc"] = frame.pc
            thread = getattr(frame, "thread", None)
            if thread is not None:
                trap["thread"] = thread.tid
        return trap

    def _finalize(self, record):
        record.open = False
        self.emitted += 1
        self.by_kind[record.kind] = self.by_kind.get(record.kind, 0) + 1
        ring = self.finished
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(record)
        self.histograms.observe(record.kind, record.latency or 0,
                                record.hops, record.node)

    # -- queries / exports -------------------------------------------------

    def open_records(self):
        """Transactions still in flight, in issue order."""
        records = list(self._pending.values()) + list(self._fe.values())
        if self._active is not None:
            records.append(self._active)
        return sorted(records, key=lambda r: r.txn_id)

    def anomalies(self, spin_storm=8, hot_line=4):
        """Flag switch-spin storms and invalidation hot lines.

        A *storm* is one thread re-trapping on one transaction at least
        ``spin_storm`` times (latency the context-switch mechanism is
        failing to hide); a *hot line* is a block accumulating at least
        ``hot_line`` invalidations across transactions (write sharing
        that keeps yanking the line between caches).
        """
        storms = []
        hot = {}
        for record in list(self.finished) + self.open_records():
            per_thread = {}
            for trap in record.traps:
                tid = trap["thread"]
                per_thread[tid] = per_thread.get(tid, 0) + 1
            if per_thread:
                tid, count = max(per_thread.items(), key=lambda kv: kv[1])
                if count >= spin_storm:
                    storms.append({"txn": record.txn_id, "kind": record.kind,
                                   "block": record.block, "thread": tid,
                                   "retraps": count})
            for leg in record.legs:
                if leg["type"] == "invalidate":
                    hot[record.block] = hot.get(record.block, 0) + 1
        hot_lines = [{"block": block, "invalidations": count}
                     for block, count in sorted(hot.items())
                     if count >= hot_line]
        return {
            "spin_storm_threshold": spin_storm,
            "hot_line_threshold": hot_line,
            "switch_spin_storms": storms,
            "invalidation_hot_lines": hot_lines,
        }

    def summary(self):
        """The compact section for ``machine_report()``."""
        return {
            "emitted": self.emitted,
            "recorded": len(self.finished),
            "dropped": self.dropped,
            "open": len(self._pending) + len(self._fe),
            "by_kind": dict(self.by_kind),
            "anomalies": self.anomalies(),
        }

    def to_payload(self):
        """The full JSON-ready document."""
        return {
            "transactions": [r.to_dict() for r in self.finished],
            "open": [r.to_dict() for r in self.open_records()],
            "emitted": self.emitted,
            "dropped": self.dropped,
            "by_kind": dict(self.by_kind),
            "histograms": self.histograms.to_dict(),
            "anomalies": self.anomalies(),
        }

    def to_json(self):
        """Deterministic serialization: identical runs give identical
        bytes (per-tracer ids, per-run tids, sorted keys)."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def write(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
        return path
