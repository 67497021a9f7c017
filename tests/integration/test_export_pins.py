"""Byte-identity pins for what a run exports about its threads.

Four sha256 digests:

* **Cell payloads.** The canonical bytes of every job in
  :data:`tests.exp.test_determinism.JOBS` (the host-run translation
  block removed), in order: what the result cache stores, lifetime and
  critical-path summaries included.
* **Cell payloads without the event counts.** The same bytes with each
  payload's ``report.events`` section removed (when it has one), pinned
  while the job observation still kept an event log.  Since it keeps
  none, no payload has that section and the two digests are equal:
  the ring's counts were the only bytes the log put in a payload.
* **Explain.** ``Observation.explain()`` for fib(12) on four CPUs,
  eager and lazy: the per-thread accounting rows (tids, names, parents)
  and the critical path.  Taken before thread ids became per-machine
  and the exporters stopped renumbering them.
* **Event stream.** ``EventLog.to_dicts()`` of eager fib(8) and lazy
  fib(9) on four CPUs, each observed with ``Observation(events=True,
  threads=True)`` (the sampler's reference schedule) and again with
  ``window=0`` (the fast loop): every event, in emit order, with its
  cycle, node and fields.  Streams are otherwise compared only run
  against run, so an emit the trap path reorders would pass.

The compiled words of every workload are pinned beside the ISA tools
(``tests/isa/test_word_digests.py``).  A change that means to alter
any of these re-pins the digest and says why; a failure here otherwise
means a run's exported identity drifted.
"""

import copy
import hashlib

import pytest

from repro import workloads
from repro.exp.job import canonical_json
from repro.lang import compiler
from repro.lang.run import run_mult
from repro.lru import LRU
from repro.machine import alewife
from repro.machine.config import MachineConfig
from repro.obs import Observation
from tests.exp.test_determinism import JOBS, _stored

CELL_PAYLOADS_SHA256 = (
    "da25a7df6235d3ab56c9e5f84559d09f196a89e4a37f9e1bbadf93c0cdb848ac")
CELL_PAYLOADS_NO_EVENTS_SHA256 = (
    "da25a7df6235d3ab56c9e5f84559d09f196a89e4a37f9e1bbadf93c0cdb848ac")
EXPLAIN_SHA256 = (
    "e4251e9cc7d57e867716f4a47d28ab0b604460c4bcb5294fb3a93632541296dd")
EVENT_STREAM_SHA256 = (
    "1c87e61fdaea9a6220f13dec4fe3d1b4190199ca298bbb254005d84125d63297")


def _without_events(payload):
    payload = copy.deepcopy(payload)
    payload.get("report", {}).pop("events", None)
    return payload


def cell_payloads_digest(strip_events=False):
    digest = hashlib.sha256()
    for job in JOBS:
        payload = alewife.execute_payload(job.payload())
        if strip_events:
            payload = _without_events(payload)
        digest.update(repr(job.key).encode() + b"\n")
        digest.update((_stored(payload) + "\n").encode())
    return digest.hexdigest()


def explain_digest():
    fib = workloads.get("fib")
    digest = hashlib.sha256()
    for mode in ("eager", "lazy"):
        obs = Observation(events=False, window=0, threads=True)
        result = run_mult(fib.source(), mode=mode, args=fib.args(12),
                          config=MachineConfig(num_processors=4),
                          observe=obs)
        assert result.value == 144
        digest.update(mode.encode() + b"\n")
        digest.update((canonical_json(obs.explain()) + "\n").encode())
    return digest.hexdigest()


def event_stream_digest():
    fib = workloads.get("fib")
    digest = hashlib.sha256()
    for mode, n in (("eager", 8), ("lazy", 9)):
        for window in (4096, 0):
            obs = Observation(events=True, threads=True, window=window)
            result = run_mult(fib.source(), mode=mode, args=fib.args(n),
                              config=MachineConfig(num_processors=4),
                              observe=obs)
            assert result.value == fib.reference(n)
            assert obs.bus.dropped == 0
            digest.update(("%s %d %d\n" % (mode, n, window)).encode())
            digest.update((canonical_json(obs.bus.to_dicts())
                           + "\n").encode())
    return digest.hexdigest()


@pytest.fixture(autouse=True)
def own_compile_cache(monkeypatch):
    # A cache of its own, so the process-wide one's hit and miss counts
    # stay what the compile-cache tests expect.
    monkeypatch.setattr(compiler, "COMPILE_CACHE", LRU(64))


class TestExportPins:
    def test_cell_payloads(self):
        assert cell_payloads_digest() == CELL_PAYLOADS_SHA256

    def test_cell_payloads_without_events(self):
        assert (cell_payloads_digest(strip_events=True)
                == CELL_PAYLOADS_NO_EVENTS_SHA256)

    def test_explain(self):
        assert explain_digest() == EXPLAIN_SHA256

    def test_event_stream(self):
        assert event_stream_digest() == EVENT_STREAM_SHA256


if __name__ == "__main__":
    print("CELL_PAYLOADS_SHA256 =", cell_payloads_digest())
    print("CELL_PAYLOADS_NO_EVENTS_SHA256 =",
          cell_payloads_digest(strip_events=True))
    print("EXPLAIN_SHA256 =", explain_digest())
    print("EVENT_STREAM_SHA256 =", event_stream_digest())
