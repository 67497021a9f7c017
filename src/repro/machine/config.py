"""Machine and run-time system configuration.

Gathers every knob in one place: the hardware parameters of the APRIL /
ALEWIFE design (task frames, switch costs) with the paper's measured
values as defaults, and the run-time-system cost parameters that stand
in for the assembly routines we replaced with Python "microcode" (see
DESIGN.md substitution table — each cost is charged where the paper's
handler would have spent the cycles).

Table 4 of the paper (the analytical-model parameters) lives in
:mod:`repro.model.params`; this module concerns the executable machine.
"""

from repro.core.traps import (
    FUTURE_TOUCH_RESOLVED_CYCLES,
    SWITCH_HANDLER_CYCLES,
)
from repro.errors import ConfigError
from repro.mem.cache import check_geometry


class MachineConfig:
    """Configuration for an ALEWIFE machine simulation.

    Attributes mirror the paper where it gives numbers:

    * ``switch_handler_cycles`` — 6, for the 11-cycle total context
      switch of Section 6.1 (5-cycle squash + 6-cycle handler).  Set
      ``custom_april_switch=True`` to model the 4-cycle custom-silicon
      switch of Section 6.1 instead.
    * ``future_touch_resolved_cycles`` — 23 (Section 6.2).
    * ``num_task_frames`` — 4 (eight SPARC windows, two per frame).
    """

    def __init__(
        self,
        num_processors=1,
        num_task_frames=4,
        # -- memory layout -------------------------------------------------
        memory_words=1 << 21,
        user_heap_words=1 << 15,     # per node: compiled-code inline allocs
        kernel_heap_words=1 << 16,   # per node: stacks, futures, descriptors
        stack_words=1 << 10,         # per thread
        # -- trap handler costs (paper-measured where available) -----------
        switch_handler_cycles=SWITCH_HANDLER_CYCLES,
        custom_april_switch=False,
        trap_squash_cycles=5,
        future_touch_resolved_cycles=FUTURE_TOUCH_RESOLVED_CYCLES,
        # -- run-time system costs (stand-ins for assembly routines) -------
        eager_task_create_cycles=200,
        thread_exit_cycles=30,
        future_resolve_cycles=18,
        lazy_push_cycles=3,
        lazy_finish_cycles=3,
        lazy_steal_cycles=60,
        thread_load_cycles=70,
        thread_unload_cycles=70,
        idle_poll_cycles=8,
        steal_poll_cycles=12,
        # -- policies ---------------------------------------------------------
        touch_spin_limit=2,
        lazy_futures=False,
        placement="round_robin",
        # -- memory system ------------------------------------------------------
        memory_mode="ideal",         # "ideal" | "coherent"
        memory_latency=1,            # ideal-mode access latency
        # -- coherent-mode parameters (Table 4 defaults) --------------------
        coherent_memory_latency=10,
        cache_bytes=64 * 1024,
        cache_block_bytes=16,
        cache_assoc=4,
        network_dim=2,               # small simulated machines: 2-D mesh
        network_hop_cycles=1,
    ):
        self.num_processors = num_processors
        self.num_task_frames = num_task_frames
        self.memory_words = memory_words
        self.user_heap_words = user_heap_words
        self.kernel_heap_words = kernel_heap_words
        self.stack_words = stack_words
        # The custom-APRIL datapath avoids the PSR save/restore and the
        # double frame-pointer increment: a 4-cycle switch (Section 6.1).
        self.switch_handler_cycles = (
            0 if custom_april_switch else switch_handler_cycles
        )
        self.trap_squash_cycles = 4 if custom_april_switch else trap_squash_cycles
        self.custom_april_switch = custom_april_switch
        self.future_touch_resolved_cycles = future_touch_resolved_cycles
        self.eager_task_create_cycles = eager_task_create_cycles
        self.thread_exit_cycles = thread_exit_cycles
        self.future_resolve_cycles = future_resolve_cycles
        self.lazy_push_cycles = lazy_push_cycles
        self.lazy_finish_cycles = lazy_finish_cycles
        self.lazy_steal_cycles = lazy_steal_cycles
        self.thread_load_cycles = thread_load_cycles
        self.thread_unload_cycles = thread_unload_cycles
        self.idle_poll_cycles = idle_poll_cycles
        self.steal_poll_cycles = steal_poll_cycles
        self.touch_spin_limit = touch_spin_limit
        self.lazy_futures = lazy_futures
        self.placement = placement
        self.memory_mode = memory_mode
        self.memory_latency = memory_latency
        self.coherent_memory_latency = coherent_memory_latency
        self.cache_bytes = cache_bytes
        self.cache_block_bytes = cache_block_bytes
        self.cache_assoc = cache_assoc
        self.network_dim = network_dim
        self.network_hop_cycles = network_hop_cycles
        self.validate()

    def validate(self):
        """Raise :class:`ConfigError` on inconsistent settings."""
        for name in _INTEGERS:
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError("%s must be an integer, got %r"
                                  % (name, value))
        if self.num_processors < 1:
            raise ConfigError("need at least one processor")
        if self.num_task_frames < 1:
            raise ConfigError("need at least one task frame")
        if self.placement not in ("round_robin", "local"):
            raise ConfigError("unknown placement policy %r" % self.placement)
        if self.memory_mode not in ("ideal", "coherent"):
            raise ConfigError("unknown memory mode %r" % self.memory_mode)
        per_node = self.user_heap_words + self.kernel_heap_words
        if per_node * self.num_processors >= self.memory_words:
            raise ConfigError(
                "memory_words=%d too small for %d nodes x %d heap words"
                % (self.memory_words, self.num_processors, per_node)
            )
        if self.stack_words * 4 > self.kernel_heap_words:
            raise ConfigError("stack_words larger than the kernel heap")
        for name, least in _FLOORS:
            value = getattr(self, name)
            if value < least:
                raise ConfigError("%s must be at least %d, got %r"
                                  % (name, least, value))
        if self.memory_mode == "coherent":
            check_geometry(self.cache_bytes, self.cache_block_bytes,
                           self.cache_assoc)

    def to_dict(self):
        """Canonical constructor-equivalent knob dict.

        ``MachineConfig(**config.to_dict())`` rebuilds an equivalent
        config; the dict is JSON-ready and is what sweep-job content
        hashes and spec files use (see :mod:`repro.exp`).
        """
        return self._fields()

    def _fields(self):
        return dict(
            num_processors=self.num_processors,
            num_task_frames=self.num_task_frames,
            memory_words=self.memory_words,
            user_heap_words=self.user_heap_words,
            kernel_heap_words=self.kernel_heap_words,
            stack_words=self.stack_words,
            switch_handler_cycles=(
                SWITCH_HANDLER_CYCLES if self.custom_april_switch
                else self.switch_handler_cycles),
            custom_april_switch=self.custom_april_switch,
            trap_squash_cycles=(
                5 if self.custom_april_switch else self.trap_squash_cycles),
            future_touch_resolved_cycles=self.future_touch_resolved_cycles,
            eager_task_create_cycles=self.eager_task_create_cycles,
            thread_exit_cycles=self.thread_exit_cycles,
            future_resolve_cycles=self.future_resolve_cycles,
            lazy_push_cycles=self.lazy_push_cycles,
            lazy_finish_cycles=self.lazy_finish_cycles,
            lazy_steal_cycles=self.lazy_steal_cycles,
            thread_load_cycles=self.thread_load_cycles,
            thread_unload_cycles=self.thread_unload_cycles,
            idle_poll_cycles=self.idle_poll_cycles,
            steal_poll_cycles=self.steal_poll_cycles,
            touch_spin_limit=self.touch_spin_limit,
            lazy_futures=self.lazy_futures,
            placement=self.placement,
            memory_mode=self.memory_mode,
            memory_latency=self.memory_latency,
            coherent_memory_latency=self.coherent_memory_latency,
            cache_bytes=self.cache_bytes,
            cache_block_bytes=self.cache_block_bytes,
            cache_assoc=self.cache_assoc,
            network_dim=self.network_dim,
            network_hop_cycles=self.network_hop_cycles,
        )

    def replace(self, **overrides):
        """A copy of this config with some fields overridden."""
        fields = self._fields()
        fields.update(overrides)
        return MachineConfig(**fields)


#: What :meth:`MachineConfig.validate` floors: the sizes a machine is
#: built from at 1, every cycle count and latency at 0.
_FLOORS = tuple(
    (name, 1) for name in ("network_dim", "cache_bytes",
                           "cache_block_bytes", "cache_assoc")
) + tuple((name, 0) for name in (
    "switch_handler_cycles", "trap_squash_cycles",
    "future_touch_resolved_cycles", "eager_task_create_cycles",
    "thread_exit_cycles", "future_resolve_cycles", "lazy_push_cycles",
    "lazy_finish_cycles", "lazy_steal_cycles", "thread_load_cycles",
    "thread_unload_cycles", "idle_poll_cycles", "steal_poll_cycles",
    "memory_latency", "coherent_memory_latency", "network_hop_cycles"))

#: The knobs :meth:`MachineConfig.validate` holds to plain ``int``s —
#: every knob but the two flags and the two names: a float, bool or
#: string in one fails further in, at build or run.
_INTEGERS = ("num_processors", "num_task_frames", "memory_words",
             "user_heap_words", "kernel_heap_words", "stack_words",
             "touch_spin_limit") + tuple(name for name, _ in _FLOORS)
