"""Declarative sweep-job specs and their content hashes.

A :class:`Job` is one cell of an experiment grid: a Mul-T program
source plus the compilation mode, a :class:`~repro.machine.config.
MachineConfig`, the ``main`` arguments, and a cycle budget.  Its
:meth:`~Job.content_hash` is the cache key — it covers the *compiled*
program words (so an edit to the compiler or the source invalidates
cached results, while whitespace-only reformatting that assembles to
the same words does not), every config knob, the run arguments, and
:data:`SCHEMA_VERSION`.

Jobs are picklable plain data: a job never holds its compiled program
(:func:`~repro.lang.compiler.compile_source` keeps one per distinct
program per process), so workers compile from source — once each —
and compilation is deterministic.
"""

import hashlib
import json

from repro.machine.config import MachineConfig

#: Bump when the engine's result payload layout changes: every cached
#: result keyed under an older schema becomes a clean cache miss.
#: 2: multiprocessor cells carry a ``critpath`` critical-path summary.
#: 3: no cell carries ``report.events`` (the job observation keeps no
#: event log).
SCHEMA_VERSION = 3


def canonical_json(data):
    """The byte-stable JSON encoding used for hashing and merged output."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digest(data):
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


class Job:
    """One simulator run: program x config x args.

    Args:
        key: cell identity inside the sweep — a tuple of strings/ints,
            e.g. ``("table3", "fib", "APRIL", "parallel", 4)``.  Keys
            order the merged output; they are *not* part of the content
            hash (the same run under two keys hits the same cache entry).
        source: Mul-T program text.
        mode: compilation mode (``sequential`` / ``eager`` / ``lazy``).
        software_checks: compile Encore-style inline future checks.
        optimize: run the branch-delay-slot postpass.
        config: the :class:`MachineConfig` (default: one processor).
        entry: top-level function to call.
        args: fixnum arguments for ``entry``.
        max_cycles: simulated-cycle budget before ``SimulationError``.
        expect: optional expected result value; a mismatch raises
            :class:`~repro.errors.WorkloadCheckError` in the worker and
            becomes a failed cell, not a dead sweep.
        cacheable: set ``False`` for runs whose outputs are not pure
            functions of the inputs (e.g. wall-clock benchmarks).
    """

    kind = "mult"

    def __init__(self, key, source, mode="eager", software_checks=False,
                 optimize=False, config=None, entry="main", args=(),
                 max_cycles=200_000_000, expect=None, cacheable=True):
        self.key = tuple(key) if isinstance(key, (list, tuple)) else (key,)
        self.source = source
        self.mode = mode
        self.software_checks = software_checks
        self.optimize = optimize
        self.config = config or MachineConfig()
        self.entry = entry
        self.args = tuple(args)
        self.max_cycles = max_cycles
        self.expect = expect
        self.cacheable = cacheable
        self._hash = None

    # -- identity ----------------------------------------------------------

    @property
    def label(self):
        """Human-readable cell name (``/``-joined key)."""
        return "/".join(str(part) for part in self.key)

    def compiled(self):
        """The compiled program (used for hashing; compiled once per
        process however many jobs share it)."""
        from repro.lang.compiler import compile_source
        return compile_source(
            self.source, mode=self.mode,
            software_checks=self.software_checks,
            optimize=self.optimize)

    def content_hash(self):
        """The cache key: schema + compiled words + knobs + run params."""
        if self._hash is None:
            compiled = self.compiled()
            program = compiled.program
            # Hash the entry's *address*, not its label: the words and
            # addresses are what runs, and a label's name is not.
            entry_label = compiled.entry_label(self.entry)
            self._hash = _digest({
                "schema": SCHEMA_VERSION,
                "kind": self.kind,
                "program": {
                    "base": program.base,
                    "words": list(program.words),
                    "entry": program.labels[entry_label],
                },
                "config": self.config.to_dict(),
                "args": list(self.args),
                "max_cycles": self.max_cycles,
            })
        return self._hash

    def payload(self):
        """The plain-dict worker input (see ``alewife.execute_payload``).

        Transport layers may add out-of-band knobs before dispatch —
        the serve dispatcher injects ``trace_spans: True`` so the
        worker self-times compile/run/store and returns the durations
        as a ``"spans"`` list.  Such knobs never enter
        :meth:`content_hash` (it is computed from the fields here), so
        a traced and an untraced run of the same job share one cache
        entry.
        """
        data = {
            "kind": self.kind,
            "source": self.source,
            "mode": self.mode,
            "software_checks": self.software_checks,
            "optimize": self.optimize,
            "config": self.config.to_dict(),
            "entry": self.entry,
            "args": list(self.args),
            "max_cycles": self.max_cycles,
            "capture": "report",
        }
        if self.expect is not None:
            data["expect"] = self.expect
        return data

    def __repr__(self):
        return "Job(%s)" % self.label


class CallJob:
    """A generic named-function job.

    Runs ``module.func(**kwargs)`` in a worker and returns its value.
    Not cacheable by default: nothing says its output is a function of
    the inputs.
    """

    kind = "call"

    def __init__(self, key, module, func, kwargs=None, cacheable=False):
        self.key = tuple(key) if isinstance(key, (list, tuple)) else (key,)
        self.module = module
        self.func = func
        self.kwargs = dict(kwargs or {})
        self.cacheable = cacheable
        self.expect = None

    @property
    def label(self):
        return "/".join(str(part) for part in self.key)

    def content_hash(self):
        return _digest({
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "module": self.module,
            "func": self.func,
            "kwargs": self.kwargs,
        })

    def payload(self):
        return {
            "kind": self.kind,
            "module": self.module,
            "func": self.func,
            "kwargs": self.kwargs,
        }

    def __repr__(self):
        return "CallJob(%s)" % self.label
