"""Host-time spans recorded from outside the program.

A :class:`Tracer` keeps one stack of open spans.  Every wrapped call
stamps ``perf_counter_ns`` on entry and exit; a span's *self* time is
its duration minus the time charged by the spans opened inside it, so
each instant belongs to the innermost open span (or to ``bench.wrap``,
the wrappers' own cost) and the selves of all spans — the root
``bench`` span included — add up to the traced wall time exactly, in
integer nanoseconds.  There is no "other" bucket: time
in code that is not wrapped is the self time of whatever wrapped span
called it.

:func:`install` puts the wrappers around the layer boundaries (class
methods, module-level functions and trap-table registrations) without
editing ``src/``; :func:`uninstall` restores every patched name.
"""

import heapq
import itertools
import time

#: Span names whose every duration is kept (low-frequency boundaries
#: that need a median or a maximum, not only a sum).
KEEP_DURATIONS = frozenset((
    "exp.execute", "exp.run_jobs", "exp.cache_get", "exp.cache_put",
    "exp.hash", "machine.build", "harness.rows", "lang.read",
    "lang.analyze", "lang.codegen", "isa.assemble", "isa.optimize",
))


class Tracer:
    """Span stack with exact integer-nanosecond self-time accounting."""

    def __init__(self, span_cap=20000):
        #: name -> [calls, self ns, inclusive ns]
        self.totals = {}
        #: name -> list of durations (ns), for :data:`KEEP_DURATIONS`
        self.durations = {}
        #: (id, parent id, name, start ns, end ns, run id), first
        #: ``span_cap`` spans to close; the totals cover all of them.
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self.run_id = 0
        self.wall_ns = 0
        self._stack = []
        self._ids = itertools.count(1)

    def start(self):
        """Open the root ``bench`` span (once per traced round; the
        totals accumulate over rounds)."""
        self._stack.append([time.perf_counter_ns(), 0, 0])

    def stop(self):
        """Close the root span; its self time is the benchmark's own."""
        end = time.perf_counter_ns()
        start, children, _ = self._stack.pop()
        if self._stack:
            raise RuntimeError("tracer stopped with spans still open")
        wall = end - start
        self.wall_ns += wall
        total = self.totals.setdefault("bench", [0, 0, 0])
        total[0] += 1
        total[1] += wall - children
        total[2] += wall
        self._record(0, None, "bench", start, end)

    def _record(self, span_id, parent, name, start, end):
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent, name, start, end,
                               self.run_id))
        else:
            self.dropped += 1

    def wrap(self, name, func):
        """``func`` with a span named ``name`` around every call made
        while the tracer is running; a plain call otherwise.

        The wrapper reads the clock four times: on entry, just before
        and just after ``func``, and on exit.  The span is the inner
        pair; the parent is charged the outer pair; the difference —
        what tracing itself cost — goes to ``bench.wrap`` instead of
        inflating whichever layer makes many short calls.
        """
        stack = self._stack
        clock = time.perf_counter_ns
        ids = self._ids
        total = self.totals.setdefault(name, [0, 0, 0])
        wrap = self.totals.setdefault("bench.wrap", [0, 0, 0])
        kept = (self.durations.setdefault(name, [])
                if name in KEEP_DURATIONS else None)
        record = self._record

        def traced(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            entered = clock()
            parent = stack[-1]
            frame = [0, 0, next(ids)]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration - frame[1]
                total[2] += duration
                if kept is not None:
                    kept.append(duration)
                record(frame[2], parent[2], name, start, end)
                left = clock()
                wrap[0] += 1
                wrap[1] += (start - entered) + (left - end)
                parent[1] += left - entered

        traced.__name__ = getattr(func, "__name__", name)
        traced.__wrapped__ = func
        return traced

    # -- read-out ----------------------------------------------------------

    def mean_us(self, name, inclusive=True):
        calls, self_ns, inclusive_ns = self.totals.get(name, (0, 0, 0))
        if not calls:
            return 0.0
        return (inclusive_ns if inclusive else self_ns) / calls / 1e3

    def to_json(self):
        return {
            "wall_ns": self.wall_ns,
            "totals": {name: {"calls": t[0], "self_ns": t[1],
                              "inclusive_ns": t[2]}
                       for name, t in sorted(self.totals.items())},
            "durations_ns": self.durations,
            "spans_dropped": self.dropped,
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "start_ns": s[3], "end_ns": s[4], "run": s[5]}
                      for s in self.spans],
        }


class _CountingHeap:
    """Stand-in for the ``heapq`` name inside ``repro.machine.alewife``:
    same two functions, pops counted (one pop = one scheduling slice)."""

    def __init__(self):
        self.pops = 0
        self.heappush = heapq.heappush

    def heappop(self, queue):
        self.pops += 1
        return heapq.heappop(queue)


class Installed:
    """What :func:`install` patched, so it can be undone."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.heap = _CountingHeap()
        self._undo = []

    def patch(self, owner, attr, name):
        original = getattr(owner, attr)
        setattr(owner, attr, self.tracer.wrap(name, original))
        self._undo.append((owner, attr, original))

    def replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def _handler_span(handler):
    name = getattr(handler, "__name__", "handler")
    if name.startswith("on_"):
        name = name[3:]
    return "runtime.trap." + name


def install(tracer):
    """Wrap every layer boundary reachable from outside ``src/``.

    Trap handlers are wrapped as they are registered (through the
    public ``TrapTable.register*`` methods), so machines built after
    this call are traced and machines built before it are not.
    """
    from repro.core.processor import Processor
    from repro.core.traps import TrapTable
    from repro.exp import runner
    from repro.exp.cache import ResultCache
    from repro.exp.job import Job
    from repro.harness import table3
    from repro.isa import optimizer
    from repro.lang import compiler, reader
    from repro.lang.analyzer import Analyzer
    from repro.lang.codegen import CodeGenerator
    from repro.machine import alewife
    from repro.mem.controller import CacheController
    from repro.mem.directory import Directory
    from repro.net.network import Network
    from repro.runtime.rts import RuntimeSystem

    done = Installed(tracer)
    patch = done.patch
    patch(reader, "read_program", "lang.read")
    patch(Analyzer, "analyze_program", "lang.analyze")
    patch(CodeGenerator, "generate", "lang.codegen")
    patch(compiler, "assemble", "isa.assemble")
    patch(optimizer, "assemble_optimized", "isa.optimize")
    patch(alewife.AlewifeMachine, "__init__", "machine.build")
    patch(alewife.AlewifeMachine, "run", "machine.loop")
    patch(Processor, "step", "core.step")
    patch(Processor, "step_block", "core.step_block")
    patch(RuntimeSystem, "on_idle", "runtime.idle")
    patch(CacheController, "load", "mem.access")
    patch(CacheController, "store", "mem.access")
    patch(Directory, "handle_read", "mem.dir")
    patch(Directory, "handle_write", "mem.dir")
    patch(Network, "send", "net.send")
    patch(Job, "content_hash", "exp.hash")
    patch(ResultCache, "get", "exp.cache_get")
    patch(ResultCache, "put", "exp.cache_put")
    patch(runner, "execute_payload", "exp.execute")
    patch(table3, "run_jobs", "exp.run_jobs")
    patch(table3, "rows_from_sweep", "harness.rows")
    done.replace(alewife, "heapq", done.heap)

    register = TrapTable.register
    register_software = TrapTable.register_software

    def traced_register(table, kind, handler):
        register(table, kind, tracer.wrap(_handler_span(handler), handler))

    def traced_register_software(table, vector, handler):
        register_software(table, vector,
                          tracer.wrap(_handler_span(handler), handler))

    done.replace(TrapTable, "register", traced_register)
    done.replace(TrapTable, "register_software", traced_register_software)
    return done
