"""An ideal (uniform, single-cycle) memory port.

This is the memory system used for the paper's Table 3 multiprocessor
measurements: "Measurements for multiple processor executions on APRIL
(2-16) used the processor simulator without the cache and network
simulators, in effect simulating a shared-memory machine with no memory
latency."

Full/empty-bit semantics are still enforced (synchronization is the
point of those runs); only latency and coherence are idealized.  All
processors share one :class:`~repro.mem.memory.Memory`.
"""

from repro.core.memport import MemOutcome, MemoryPort


class IdealMemoryPort(MemoryPort):
    """Uniform-latency port over a shared memory bank.

    Args:
        memory: the shared :class:`Memory`.
        latency: cycles per data access (1 = the Table 3 configuration).
    """

    def __init__(self, memory, latency=1):
        self.memory = memory
        self.latency = latency
        #: Simple I/O register space for LDIO/STIO; the run-time system's
        #: IPI mechanism installs hooks here.
        self.io_read_hook = None
        self.io_write_hook = None

    @property
    def reaches_processors(self):
        """Shared memory alone reaches no processor; an installed I/O
        hook may (the IPI mechanism posts interrupts from one)."""
        return (self.io_read_hook is not None
                or self.io_write_hook is not None)

    def fetch(self, address):
        return self.memory.read_word(address)

    def load(self, address, flavor, context=None):
        value, was_full, trap_kind = self.memory.sync_load(address, flavor)
        if trap_kind is not None:
            return MemOutcome.trap(trap_kind, cycles=self.latency,
                                   fe_full=was_full)
        return MemOutcome.hit(value=value, cycles=self.latency,
                              fe_full=was_full)

    def store(self, address, value, flavor, context=None):
        was_full, trap_kind = self.memory.sync_store(address, value, flavor)
        if trap_kind is not None:
            return MemOutcome.trap(trap_kind, cycles=self.latency,
                                   fe_full=was_full)
        return MemOutcome.hit(cycles=self.latency, fe_full=was_full)

    def flush(self, address, context=None):
        # No cache to flush in the ideal machine.
        return MemOutcome.hit(cycles=1)

    def ldio(self, address, context=None):
        if self.io_read_hook is not None:
            value, cycles = self.io_read_hook(address, context)
            return MemOutcome.hit(value=value, cycles=cycles)
        return MemOutcome.hit(value=0, cycles=1)

    def stio(self, address, value, context=None):
        if self.io_write_hook is not None:
            cycles = self.io_write_hook(address, value, context)
            return MemOutcome.hit(cycles=cycles)
        return MemOutcome.hit(cycles=1)
