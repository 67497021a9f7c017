"""The process-pool sweep runner.

:func:`run_jobs` fans a list of :class:`~repro.exp.job.Job` cells out
to worker processes (``pool_size`` > 1) or runs them inline
(``pool_size`` = 1 — byte-identical results either way, the simulator
is deterministic), consults/fills the
:class:`~repro.exp.cache.ResultCache`, dedupes identical cells by
content hash, enforces a per-job wall-clock timeout inside the worker
(``SIGALRM``), retries crashed/timed-out jobs a bounded number of
times, and turns every failure into a typed :class:`JobFailed` result
instead of letting one bad cell kill the sweep.

Outcomes come back in job-submission order regardless of worker
completion order — the first half of the engine's determinism
guarantee (the second half is :mod:`repro.exp.spec`'s canonical
merge).
"""

import signal
import time

from repro.errors import ReproError

#: Failure kinds worth retrying: the run never produced a deterministic
#: answer.  A ``WorkloadCheckError`` or ``SimulationError`` would fail
#: identically on every retry, so those are terminal.
RETRYABLE_KINDS = ("timeout", "crash")


class JobTimeout(Exception):
    """Internal: the worker's ``SIGALRM`` fired for the current job."""


class WorkerSpans:
    """Worker-side phase timer for traced jobs (``trace_spans`` payload
    knob, set by the serve dispatcher).

    Boundary-based like :class:`repro.serve.trace.RequestTrace`: each
    ``mark(name)`` closes the phase that just ran, so the recorded
    durations tile the worker's wall time exactly.  Only *durations*
    (integer microseconds) are exported — they are meaningful across a
    process boundary where absolute monotonic timestamps are not.
    """

    __slots__ = ("spans", "_t0", "_last")

    def __init__(self):
        self._t0 = time.monotonic()
        self._last = 0
        self.spans = []

    def mark(self, name):
        now = round((time.monotonic() - self._t0) * 1_000_000)
        self.spans.append([name, now - self._last])
        self._last = now


class _Alarm:
    """Context manager arming a per-job wall-clock alarm (no-op when
    ``seconds`` is falsy, ``SIGALRM`` is unavailable, or we are not on
    the main thread of the process)."""

    def __init__(self, seconds):
        self.seconds = int(seconds) if seconds else 0
        self.armed = False

    def __enter__(self):
        if self.seconds > 0 and hasattr(signal, "SIGALRM"):
            def _fire(signum, frame):
                raise JobTimeout()
            try:
                self._previous = signal.signal(signal.SIGALRM, _fire)
            except ValueError:      # not the main thread
                return self
            signal.alarm(self.seconds)
            self.armed = True
        return self

    def __exit__(self, *exc_info):
        if self.armed:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def execute_payload(payload):
    """Run one job payload; always returns a status dict, never raises.

    This is the picklable worker entry point: ``{"status": "ok", ...}``
    payloads come from the kind-specific executors
    (:func:`repro.machine.alewife.execute_payload` for simulator runs),
    failures become ``{"status": "failed", "kind", "message",
    "context"}`` dicts the parent converts to :class:`JobFailed`.
    """
    try:
        with _Alarm(payload.get("timeout_s")):
            kind = payload.get("kind", "mult")
            if kind == "mult":
                from repro.machine.alewife import execute_payload as run
                return run(payload)
            if kind == "call":
                import importlib
                spans = (WorkerSpans() if payload.get("trace_spans")
                         else None)
                module = importlib.import_module(payload["module"])
                func = getattr(module, payload["func"])
                out = {"status": "ok",
                       "value": func(**payload.get("kwargs", {}))}
                if spans is not None:
                    spans.mark("run")
                    out["spans"] = spans.spans
                return out
            return _failed("bad-job", "unknown job kind %r" % kind)
    except JobTimeout:
        return _failed("timeout", "exceeded %ss wall-clock timeout"
                       % payload.get("timeout_s"))
    except ReproError as exc:
        return _failed(type(exc).__name__, str(exc),
                       context=getattr(exc, "context", None))
    except MemoryError:
        raise
    except Exception as exc:                      # noqa: BLE001
        return _failed("exception", "%s: %s" % (type(exc).__name__, exc))


def failed_payload(kind, message, context=None):
    """A typed failure payload, shaped exactly like a worker failure.

    Public because the serve dispatcher synthesizes the same shape for
    conditions it detects on the parent side (pool-level timeout,
    broken pool) — every consumer sees one failure vocabulary.
    """
    data = {"status": "failed", "kind": kind, "message": message}
    if context:
        data["context"] = context
    return data


_failed = failed_payload


# -- outcomes --------------------------------------------------------------


class JobResult:
    """A finished cell: the worker payload plus sweep bookkeeping.

    ``payload`` is the worker's dict for an executed cell and the cache
    entry itself — a read-only :class:`~repro.exp.cache.CachedPayload`
    — for a ``cached`` one: :attr:`value` and :attr:`cycles` read its
    head, and only :attr:`report` or another key decodes the stored
    payload line.
    """

    ok = True

    def __init__(self, job, content_hash, payload, cached=False, attempts=1):
        self.job = job
        self.key = job.key
        self.hash = content_hash
        self.payload = payload
        self.cached = cached
        self.attempts = attempts

    @property
    def value(self):
        return self.payload.get("value")

    @property
    def cycles(self):
        return self.payload.get("cycles")

    @property
    def report(self):
        return self.payload.get("report")

    def __repr__(self):
        return "JobResult(%s, cycles=%r%s)" % (
            self.job.label, self.cycles, ", cached" if self.cached else "")


class JobFailed:
    """A failed cell: typed kind + message + program/config context."""

    ok = False

    def __init__(self, job, content_hash, kind, message, context=None,
                 attempts=1):
        self.job = job
        self.key = job.key
        self.hash = content_hash
        self.kind = kind
        self.message = message
        self.context = context or {}
        self.attempts = attempts
        self.cached = False

    def __repr__(self):
        return "JobFailed(%s, %s: %s)" % (self.job.label, self.kind,
                                          self.message)


class SweepResult:
    """Every outcome of one ``run_jobs`` call, in submission order."""

    def __init__(self, outcomes, executed, cache_hits, deduped, retries,
                 wall_time_s, compile_cache=None):
        self.outcomes = outcomes
        self.executed = executed
        self.cache_hits = cache_hits
        self.deduped = deduped
        self.retries = retries
        self.wall_time_s = wall_time_s
        #: This process's compile-cache ``hits``/``misses`` during the
        #: sweep and its ``size`` afterwards.  Depends on what compiled
        #: earlier and on the pool size (workers compile in their own
        #: processes), so it stays off :meth:`summary`.
        self.compile_cache = compile_cache

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self):
        return len(self.outcomes)

    @property
    def failures(self):
        return [o for o in self.outcomes if not o.ok]

    def by_key(self):
        """Mapping of job key tuple to outcome (last one wins on dupes)."""
        return {o.key: o for o in self.outcomes}

    def summary(self):
        """The deterministic sweep bookkeeping block (cache-hit counter
        and friends); wall time stays off it — see
        :meth:`timing_summary`."""
        return {
            "jobs": len(self.outcomes),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "retries": self.retries,
            "failed": len(self.failures),
        }

    def timing_summary(self):
        """Summary plus host wall time and compile-cache counters (for
        stderr, never cached files)."""
        data = self.summary()
        data["wall_time_s"] = round(self.wall_time_s, 2)
        if self.compile_cache is not None:
            data["compile_cache"] = self.compile_cache
        return data


# -- the runner ------------------------------------------------------------


def run_jobs(jobs, pool_size=1, cache=None, force=False, timeout_s=None,
             retries=1, progress=None):
    """Run every job; returns a :class:`SweepResult`.

    Args:
        jobs: sequence of :class:`Job`/:class:`CallJob` cells.
        pool_size: worker processes; 1 runs inline in this process.
        cache: a :class:`~repro.exp.cache.ResultCache` or ``None``.
        force: execute even when a cached result exists (and refresh it).
        timeout_s: per-job wall-clock limit enforced in the worker.
        retries: extra attempts for ``timeout``/``crash`` failures.
        progress: optional callable invoked with each finished outcome.

    The cache is read once per distinct content hash: cells with the
    same hash share the one entry ``cache.get`` returned, as the
    followers of an executed cell share its payload.  A hit is kept
    as that entry, undecoded: telling it is ``ok`` reads its head, and
    its payload line is decoded only if a caller reads past
    ``status``, ``cycles`` and ``value`` (``run_speedup``'s
    ``critpath``, say), once for all the cells that share it.
    """
    from repro.lang.compiler import COMPILE_CACHE
    jobs = list(jobs)
    start = time.perf_counter()
    compiles_before = COMPILE_CACHE.counters()
    outcomes = {}
    cache_hits = 0

    pending = []
    read = {}           # content hash -> cache.get's entry, read once
    for index, job in enumerate(jobs):
        content_hash = job.content_hash()
        if cache is not None and job.cacheable and not force:
            if content_hash in read:
                payload = read[content_hash]
            else:
                payload = read[content_hash] = cache.get(content_hash)
            if payload is not None and payload.get("status") == "ok":
                outcomes[index] = JobResult(job, content_hash, payload,
                                            cached=True)
                cache_hits += 1
                if progress is not None:
                    progress(outcomes[index])
                continue
        pending.append(index)

    executed = 0
    retry_count = 0
    deduped = 0
    attempts = dict.fromkeys(pending, 0)
    while pending:
        # Identical cells (same content hash) execute once per round.
        representatives = {}
        followers = {}
        for index in pending:
            content_hash = jobs[index].content_hash()
            if content_hash in representatives:
                followers.setdefault(representatives[content_hash],
                                     []).append(index)
                deduped += 1
            else:
                representatives[content_hash] = index
        round_indices = sorted(representatives.values())
        pending = []

        for index, payload in _execute_round(jobs, round_indices, pool_size,
                                             timeout_s):
            executed += 1
            group = [index] + followers.get(index, [])
            for member in group:
                attempts[member] += 1
            if payload.get("status") == "ok":
                job = jobs[index]
                if cache is not None and job.cacheable:
                    cache.put(job.content_hash(), payload)
                for member in group:
                    outcomes[member] = JobResult(
                        jobs[member], jobs[member].content_hash(), payload,
                        attempts=attempts[member])
            elif (payload.get("kind") in RETRYABLE_KINDS
                  and attempts[index] <= retries):
                retry_count += len(group)
                pending.extend(group)
                continue
            else:
                for member in group:
                    outcomes[member] = JobFailed(
                        jobs[member], jobs[member].content_hash(),
                        kind=payload.get("kind", "exception"),
                        message=payload.get("message", ""),
                        context=payload.get("context"),
                        attempts=attempts[member])
            if progress is not None:
                for member in group:
                    progress(outcomes[member])

    ordered = [outcomes[index] for index in range(len(jobs))]
    compiles = COMPILE_CACHE.counters()
    for name in ("hits", "misses"):
        compiles[name] -= compiles_before[name]
    return SweepResult(ordered, executed=executed, cache_hits=cache_hits,
                       deduped=deduped, retries=retry_count,
                       wall_time_s=time.perf_counter() - start,
                       compile_cache=compiles)


def _execute_round(jobs, indices, pool_size, timeout_s):
    """Yield ``(index, payload)`` for each job in ``indices``."""
    payloads = {}
    for index in indices:
        payload = jobs[index].payload()
        if timeout_s:
            payload["timeout_s"] = timeout_s
        payloads[index] = payload

    if pool_size <= 1 or len(indices) <= 1:
        for index in indices:
            yield index, execute_payload(payloads[index])
        return

    import concurrent.futures as futures
    with futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
        submitted = {pool.submit(execute_payload, payloads[index]): index
                     for index in indices}
        try:
            for future in futures.as_completed(submitted):
                index = submitted.pop(future)
                try:
                    yield index, future.result()
                except futures.process.BrokenProcessPool:
                    raise
                except Exception as exc:          # noqa: BLE001
                    yield index, _failed("crash", "worker error: %s" % exc)
        except futures.process.BrokenProcessPool:
            # A worker died hard (OOM-kill, segfault): every job still in
            # flight becomes a retryable crash instead of a dead sweep.
            for future, index in submitted.items():
                yield index, _failed("crash", "worker process pool broke")
