"""Machine-readable run reports.

One JSON-ready dict for a whole machine: the ``MachineStats`` roll-up
plus every per-component counter (caches, controllers, directories,
network, scheduler, futures) — what ``april report`` and ``april run
--json`` emit, and what tests/CI consume instead of parsing the
human ``render()`` text.
"""

from repro.runtime.sync import SyncAllocator


def component_counters(machine):
    """Per-component counter snapshot of a machine (JSON-ready)."""
    runtime = machine.runtime
    queues = [queue.counters() for queue in runtime.lazy_queues]
    sync = getattr(runtime, "sync", None)
    data = {
        "scheduler": runtime.scheduler.counters(),
        "futures": runtime.futures.counters(),
        "lazy": {
            "pushed": runtime.lazy_pushed,
            "stolen": runtime.lazy_stolen,
            "discards": sum(q["discards"] for q in queues),
            "peak_depth": max((q["peak_depth"] for q in queues), default=0),
            "live": sum(q["live"] for q in queues),
            "queues": queues,
        },
        "sync": (sync.counters() if sync is not None
                 else SyncAllocator.empty_counters()),
        # Per-CPU view of the machine's translation tables
        # (one-instruction forms under "predecode", generated blocks and
        # slices under "jit"): table sizes and invalidations,
        # this CPU's compiles, runs and deopts.  This block describes
        # the *host* run — it differs with the interpreter tier and the
        # machine schedule — while everything around it is a function
        # of the job.  It rides in cached payloads as a diagnostic;
        # nothing may key on it or compare it, and nothing in src/
        # reads it back (tests/exp/test_determinism.py removes it, then
        # requires the rest equal on every way of running a cell).
        "translation": [cpu.translation_counters() for cpu in machine.cpus],
    }
    fabric = machine.fabric
    if fabric is not None:
        data["caches"] = [c.stats.to_dict() for c in fabric.caches]
        data["controllers"] = [c.stats.to_dict() for c in fabric.controllers]
        data["directories"] = [d.counters() for d in fabric.directories]
        data["network"] = fabric.network.stats.to_dict()
    return data


def machine_report(machine, result=None, observation=None, top=40):
    """The full report dict for a finished (or running) machine.

    Args:
        machine: the :class:`AlewifeMachine`.
        result: optional :class:`MachineResult` (adds value/output).
        observation: optional :class:`Observation` (adds event counts,
            timeline, and profile sections).
        top: profile entries to include.
    """
    config = machine.config
    report = {
        "config": {
            "num_processors": config.num_processors,
            "num_task_frames": config.num_task_frames,
            "memory_mode": config.memory_mode,
            "lazy_futures": config.lazy_futures,
            "placement": config.placement,
        },
        "stats": machine.stats().to_dict(),
        "components": component_counters(machine),
    }
    if result is not None:
        report["result"] = {
            "value": result.value,
            "cycles": result.cycles,
            "output": result.output,
        }
    if observation is not None:
        report.update(observation.to_dict(top=top))
    # A sampler attached without an Observation still has its window
    # config surfaced (event counts are the subscribed log's, above).
    sampler = getattr(machine, "sampler", None)
    if sampler is not None and "timeline" not in report:
        report["timeline"] = {"window": sampler.window,
                              "windows": len(sampler.windows)}
    return report
