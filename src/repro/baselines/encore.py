"""The Encore Multimax baseline (paper Section 7, Table 3).

The paper compares APRIL against Mul-T running on an Encore Multimax, a
bus-based shared-memory multiprocessor of conventional processors.  The
differences that Table 3 isolates — and that this configuration models —
are:

1. **No tag hardware.**  Future detection is compiled-in software: an
   inline tag test before every strict operand
   (``software_checks=True``), "close to a factor of two loss in
   performance" even when no future is ever created.
2. **No rapid context switching.**  One hardware context, no register
   frames: a blocked thread is switched by an OS-level save/restore
   costing hundreds of cycles, and an unresolved touch blocks
   immediately (spinning buys nothing without a cheap switch).
3. **Heavier task creation.**  Future creation goes through the
   general-purpose scheduler rather than APRIL's lean trap path.

Table 3's numbers are normalized per-system, so the Encore's different
clock and ISA normalize away; only these structural costs matter.
"""

from repro.machine.config import MachineConfig

#: Cost stand-ins for the Encore run-time paths (cycles).  Chosen so the
#: structural ratios of Table 3 hold: task creation about twice APRIL's
#: trap path, and OS-level thread switching an order of magnitude above
#: APRIL's 11-cycle frame switch.
ENCORE_TASK_CREATE_CYCLES = 420
ENCORE_THREAD_SWITCH_CYCLES = 220
ENCORE_EXIT_CYCLES = 70


def encore_config(processors=1, **overrides):
    """A :class:`MachineConfig` modeling the Encore Multimax."""
    defaults = dict(
        num_processors=processors,
        num_task_frames=1,
        eager_task_create_cycles=ENCORE_TASK_CREATE_CYCLES,
        thread_load_cycles=ENCORE_THREAD_SWITCH_CYCLES,
        thread_unload_cycles=ENCORE_THREAD_SWITCH_CYCLES,
        thread_exit_cycles=ENCORE_EXIT_CYCLES,
        touch_spin_limit=0,        # block immediately: no cheap switch
        lazy_futures=False,
        memory_mode="ideal",
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)
