"""The processor <-> cache-controller interface.

The ALEWIFE cache controller answers every data access with one of
three outcomes (paper Sections 2.1 and 5):

* **OK** — the access completed.  ``cycles`` includes any stall the
  controller imposed while *holding* the processor (the MHOLD line:
  local cache misses and the "wait" load/store flavors).  ``fe_full``
  reports the full/empty bit state for the condition bit that
  ``Jfull``/``Jempty`` test (delivered via the coprocessor condition
  bits on SPARC).
* **TRAP** — the access did not complete and the controller trapped the
  processor (the MEXC line): a remote cache miss for a "trap" flavor, or
  a full/empty mismatch for a trapping synchronizing access.
* **HALTED** is never an outcome; a port must always answer.

Any object with this interface can back a processor: the ideal
single-cycle memory used for the Table 3 experiments, the full
cache + directory + network controller, or the Encore-style bus memory.
"""


class MemOutcome:
    """Result of one data access."""

    __slots__ = ("ok", "value", "cycles", "fe_full", "trap_kind", "detail")

    def __init__(self, ok, value=0, cycles=1, fe_full=True, trap_kind=None,
                 detail=None):
        self.ok = ok
        self.value = value        # loaded word (loads only)
        self.cycles = cycles      # total cycles, including hold time
        self.fe_full = fe_full    # full/empty bit observed at the word
        self.trap_kind = trap_kind
        self.detail = detail

    @classmethod
    def hit(cls, value=0, cycles=1, fe_full=True):
        """A completed access."""
        return cls(True, value=value, cycles=cycles, fe_full=fe_full)

    @classmethod
    def trap(cls, kind, cycles=1, detail=None, fe_full=True):
        """An access the controller refused, trapping the processor."""
        return cls(False, cycles=cycles, trap_kind=kind, detail=detail,
                   fe_full=fe_full)

    def __repr__(self):
        if self.ok:
            return "MemOutcome.hit(value=%#x, cycles=%d)" % (self.value, self.cycles)
        return "MemOutcome.trap(%s)" % self.trap_kind


class MemoryPort:
    """Abstract base for processor memory ports.

    Subclasses must implement :meth:`fetch`, :meth:`load`, and
    :meth:`store`; the out-of-band operations default to no-ops that
    subclasses override when they model the mechanism.
    """

    #: Whether something can reach *into another processor* through
    #: this port — post an interrupt, stall it — at a time of the
    #: sender's choosing, without telling the machine first (a coherent
    #: node's controller does tell it: ``Interconnect.reach`` before an
    #: IPI).  A machine runs its processors ahead of one another only
    #: when no port says so; a port that does not know says yes.
    reaches_processors = True

    def fetch(self, address):
        """Instruction fetch: return the raw 32-bit word at ``address``.

        Instruction fetches are modeled as always hitting (the paper's
        thrashing interlocks guarantee forward progress; we assume a
        perfect instruction cache, which Section 7's simulator does too
        for the Table 3 runs).
        """
        raise NotImplementedError

    def load(self, address, flavor, context=None):
        """Data load with a Table 2 flavor; returns :class:`MemOutcome`."""
        raise NotImplementedError

    def store(self, address, value, flavor, context=None):
        """Data store with a store flavor; returns :class:`MemOutcome`."""
        raise NotImplementedError

    def flush(self, address, context=None):
        """FLUSH: write back and invalidate the line (Section 3.4)."""
        return MemOutcome.hit(cycles=1)

    def ldio(self, address, context=None):
        """LDIO: memory-mapped I/O read (fence counter, IPI status)."""
        return MemOutcome.hit(value=0, cycles=1)

    def stio(self, address, value, context=None):
        """STIO: memory-mapped I/O write (IPI send, block transfer)."""
        return MemOutcome.hit(cycles=1)
