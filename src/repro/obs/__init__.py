"""Observability: the telemetry spine of the simulator.

Every machine is built with one :class:`~repro.obs.events.EventBus`
(``machine.events``); its components' instrumentation sites stay
*dormant* — a single ``bus.active`` test on each hot path — until an
observer subscribes to the site's kind, which is what attaching an
:class:`Observation` does.  The consumers built in:

* the :class:`~repro.obs.events.EventLog` — a bounded ring of typed,
  structured events (context switches, traps, remote misses, directory
  transactions, network messages, future and thread lifecycle);
* the :class:`~repro.obs.sampler.IntervalSampler` — per-node
  utilization timelines bucketing the Figure-5 cycle categories
  (useful/trap/switch/spin/stall/idle) per N-cycle window;
* the :class:`~repro.obs.profiler.HotPathProfiler` — a flat
  PC -> cycle-cost profile, folded through the assembler/Mul-T source
  map to source lines;
* the :class:`~repro.obs.txn.TransactionTracer` — causal spans for
  every coherence transaction (miss, upgrade, full/empty fault,
  write-back) with streaming log2 latency histograms
  (:mod:`repro.obs.hist`) by kind, hop distance, and node;
* the :class:`~repro.obs.lifetime.LifetimeAccountant` — per-virtual-
  thread cycle attribution with an exact conservation invariant, the
  substrate of the :mod:`repro.obs.critpath` causal critical-path
  analyzer (``april explain``: *why* is speedup sublinear);
* the :class:`~repro.obs.flight.FlightRecorder` and
  :class:`~repro.obs.flight.Watchdog` — an always-on bounded ring of
  coarse events per node plus a hang detector (deadlock + trap-storm
  livelock) that stops the run with a post-mortem: wait-for graph over
  future cells, last events, registers, and disassembly at each
  blocked pc (``april run prog.mult --watchdog``);
* the :class:`~repro.obs.monitor.Monitor` — the interactive machine
  debugger behind ``april monitor``: breakpoints, full/empty
  watchpoints, stepping, and state poking over a resumable stepper.

The event stream exports to Chrome/Perfetto trace JSON
(:mod:`repro.obs.perfetto`; open the file in ``ui.perfetto.dev``), and
:mod:`repro.obs.report` renders the whole machine — ``MachineStats``
plus every per-component counter — as machine-readable JSON.

Typical use::

    from repro.lang.run import run_mult
    from repro.obs import Observation

    obs = Observation(profile=True)
    result = run_mult(source, processors=4, args=(10,), observe=obs)
    print(obs.profiler.report(top=10))
    obs.write_perfetto("out.json")

From the shell: ``april run prog.mult --profile --events out.json
--timeline`` and ``april report prog.mult``.
"""

from repro.obs.critpath import CriticalPath
from repro.obs.events import Event, EventBus, EventKind, EventLog, Subscription
from repro.obs.flight import FlightRecorder, Watchdog, render_postmortem
from repro.obs.hist import LatencyHistograms, Log2Histogram
from repro.obs.lifetime import ConservationError, LifetimeAccountant
from repro.obs.monitor import Monitor
from repro.obs.perfetto import perfetto_trace
from repro.obs.profiler import HotPathProfiler
from repro.obs.report import machine_report
from repro.obs.sampler import IntervalSampler
from repro.obs.session import Observation
from repro.obs.txn import TransactionTracer, TxnRecord

__all__ = [
    "ConservationError",
    "CriticalPath",
    "Event",
    "EventBus",
    "EventKind",
    "EventLog",
    "FlightRecorder",
    "HotPathProfiler",
    "IntervalSampler",
    "LatencyHistograms",
    "LifetimeAccountant",
    "Log2Histogram",
    "Monitor",
    "Observation",
    "Subscription",
    "TransactionTracer",
    "TxnRecord",
    "Watchdog",
    "machine_report",
    "perfetto_trace",
    "render_postmortem",
]
