"""The persistent worker pool behind the server.

One :class:`Dispatcher` wraps one long-lived executor running
:func:`repro.exp.runner.execute_payload` — the same picklable worker
entry point the sweep engine uses, so a job served over the socket is
bit-identical to the same job run by ``april sweep``.  Unlike the
sweep runner's per-round pools, the pool here persists across
requests: workers stay warm (imports loaded, no fork/spawn per job),
which is what makes cold-job latency a function of simulation cost
rather than process startup.

``mode="process"`` (the default, and what ``april serve`` runs) uses a
``ProcessPoolExecutor``; ``mode="thread"`` runs jobs in threads of
this process — the simulator is pure Python with no shared mutable
globals across runs, so thread mode is exact, and it is what the test
suite uses to keep end-to-end server tests cheap.

The dispatcher also owns the pool-side guardrails.  A per-job timeout
has two enforcers, and which one answers depends on the pool
(``tests/serve/test_dispatch.py``): a pool *process* runs the job on
its main thread, so the worker's own ``SIGALRM`` fires at ``timeout_s``
and the job comes back as a typed ``timeout`` failure with
``timeouts`` untouched; a pool *thread* cannot take a signal, so the
only enforcer is ``asyncio.wait_for`` here, ``TIMEOUT_GRACE_S`` later
(message ``... (pool-side)``, ``timeouts`` + 1 — the thread itself runs
on to the end of its job).  In process mode the pool side is the
backstop for a worker the alarm cannot reach, so a wedged worker cannot
wedge the service.  Beside that: broken-pool recovery (the pool is
rebuilt lazily; the job reports a typed ``crash``), and exact busy-time
accounting for the worker-utilization metric.
"""

import asyncio
import concurrent.futures as futures
import time

from repro.exp.runner import execute_payload, failed_payload

#: Extra seconds wait_for allows beyond the in-worker SIGALRM, so the
#: worker's own (more precise) timeout usually wins the race.
TIMEOUT_GRACE_S = 1.0


class Dispatcher:
    """A persistent worker pool with busy accounting."""

    def __init__(self, workers=2, timeout_s=None, mode="process",
                 clock=time.monotonic):
        if mode not in ("process", "thread"):
            raise ValueError("mode must be 'process' or 'thread'")
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.mode = mode
        self.busy = 0
        self.completed = 0
        self.timeouts = 0
        self.crashes = 0
        self._pool = None
        self._clock = clock
        self._busy_time = 0.0
        self._mark = None
        self._started_at = None

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            if self.mode == "process":
                self._pool = futures.ProcessPoolExecutor(
                    max_workers=self.workers)
            else:
                self._pool = futures.ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="april-serve-worker")
        if self._started_at is None:
            self._started_at = self._clock()
            self._mark = self._started_at
        return self._pool

    def shutdown(self, wait=True):
        """Stop the pool (queued jobs are dropped; running ones finish
        if ``wait``)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    # -- accounting --------------------------------------------------------

    def _account(self, delta):
        """Integrate busy-worker-seconds, then apply the busy delta."""
        now = self._clock()
        if self._mark is not None:
            self._busy_time += min(self.busy, self.workers) * (now
                                                               - self._mark)
        self._mark = now
        self.busy += delta

    def utilization(self):
        """JSON-ready worker utilization: instantaneous busy workers
        and the cumulative busy fraction since the first job."""
        now = self._clock()
        busy_time = self._busy_time
        if self._mark is not None:
            busy_time += min(self.busy, self.workers) * (now - self._mark)
        uptime = (now - self._started_at) if self._started_at else 0.0
        return {
            "workers": self.workers,
            "mode": self.mode,
            "busy": min(self.busy, self.workers),
            "queued": max(0, self.busy - self.workers),
            "busy_fraction": (round(busy_time / (self.workers * uptime), 4)
                              if uptime > 0 else 0.0),
            "completed": self.completed,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
        }

    # -- execution ---------------------------------------------------------

    async def execute(self, payload, spans=False):
        """Run one job payload in the pool; always returns a payload
        dict (typed failure on timeout/crash), except for cancellation
        which propagates so the single-flight layer can drop the job.

        With ``spans=True`` the worker self-times its phases
        (compile/run/store, own monotonic clock) and carries them back
        as a ``"spans"`` list inside the result payload — valid across
        both thread and process modes because only *durations* cross
        the process boundary, never absolute timestamps.
        """
        payload = dict(payload)
        if self.timeout_s:
            payload["timeout_s"] = self.timeout_s
        if spans:
            payload["trace_spans"] = True
        loop = asyncio.get_running_loop()
        pool = self._ensure_pool()
        self._account(+1)
        try:
            job = loop.run_in_executor(pool, execute_payload, payload)
            if self.timeout_s:
                result = await asyncio.wait_for(
                    job, self.timeout_s + TIMEOUT_GRACE_S)
            else:
                result = await job
        except asyncio.TimeoutError:
            self.timeouts += 1
            self.completed += 1
            return failed_payload(
                "timeout", "exceeded %ss wall-clock timeout (pool-side)"
                % self.timeout_s)
        except futures.process.BrokenProcessPool:
            self.crashes += 1
            self.completed += 1
            self._pool = None       # rebuilt lazily on the next job
            return failed_payload("crash", "worker process pool broke")
        finally:
            # Cancellation passes through here too: the busy ledger
            # must balance even for executions nobody waited out.
            self._account(-1)
        self.completed += 1
        return result
