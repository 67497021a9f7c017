"""The APRIL trap mechanism (paper Sections 3, 5, 6).

"When a trap is signalled in APRIL, the trap mechanism lets the pipeline
empty and passes control to the trap handler.  The trap handler executes
in the same task frame as the thread that trapped so that it can access
all of the thread's registers."

Because the SPARC has a minimum trap overhead of five cycles (squashing
the pipeline and computing the trap vector), every trap in this
simulator charges :data:`TRAP_SQUASH_CYCLES` before its handler runs.
Handlers are run-time-system routines; in this reproduction they are
Python callables that mutate simulated state while *charging the cycle
cost the paper measured for the corresponding assembly routine* (see
DESIGN.md, substitution table).

A handler receives ``(cpu, frame, trap)`` and returns a
:class:`TrapAction` telling the hardware what to do next.
"""

import enum

from repro.errors import ProcessorError

#: Minimum trap overhead: pipeline squash + vector computation (Section 5).
TRAP_SQUASH_CYCLES = 5

#: Cycles for the switch-spin trap handler body (Section 6.1): rdpsr,
#: save, save, wrpsr, jmpl, rett = 6 cycles, for an 11-cycle total switch.
SWITCH_HANDLER_CYCLES = 6

#: Cycles for the future-touch handler when the future is resolved
#: (Section 6.2): decode the trapping instruction, test the value slot's
#: full/empty bit, substitute the value, rett.
FUTURE_TOUCH_RESOLVED_CYCLES = 23


class TrapKind(enum.Enum):
    """Synchronous and asynchronous trap causes."""

    # Identity hash, as on ``repro.obs.events.EventKind``: members are
    # singletons, and Enum's default ``__hash__`` is a Python-level
    # call each time ``Processor._take_trap`` counts a trap by kind.
    __hash__ = object.__hash__

    # Synchronous data exceptions (Section 4, "Memory Instructions").
    CACHE_MISS = "cache_miss"            # remote miss: controller trapped us
    EMPTY_LOAD = "empty_load"            # f/e exception: load of empty word
    FULL_STORE = "full_store"            # f/e exception: store to full word
    # Future detection (Section 4/5).
    FUTURE_COMPUTE = "future_compute"    # strict op on a future operand
    FUTURE_ADDRESS = "future_address"    # memory op with future address
    # Software traps: the run-time system's entry points.
    SOFTWARE = "software"
    # Asynchronous: interprocessor interrupts (Section 3.4).
    IPI = "ipi"
    # Error traps.
    ALIGNMENT = "alignment"
    ILLEGAL = "illegal"


_SOFTWARE = TrapKind.SOFTWARE


class TrapAction(enum.Enum):
    """What the processor does after a trap handler returns."""

    RETRY = "retry"        # re-execute the trapping instruction
    RESUME = "resume"      # continue after the trapping instruction
    SWITCHED = "switched"  # handler switched frames; use the new frame's PC
    HALT = "halt"          # stop this processor


class Trap:
    """Details of one trap event, passed to the handler."""

    __slots__ = ("kind", "vector", "instr", "pc", "address", "value", "cause")

    def __init__(self, kind, vector=0, instr=None, pc=0, address=None,
                 value=None, cause=None):
        self.kind = kind
        self.vector = vector    # software trap number (TRAP #n)
        self.instr = instr      # the decoded trapping Instruction
        self.pc = pc            # word address of the trapping instruction
        self.address = address  # memory address involved, if any
        self.value = value      # offending operand value, if any
        self.cause = cause      # free-form extra detail

    def __repr__(self):
        return "Trap(%s, vector=%d, pc=%#x)" % (self.kind.name, self.vector, self.pc)


class TrapTable:
    """Dispatch table mapping trap kinds (and software vectors) to handlers.

    A handler is ``callable(cpu, frame, trap) -> TrapAction``.  It
    charges its own body's cycles (``cpu.charge``) on top of the squash
    the trap sequence charged, mirroring the measured costs in Sections
    6.1-6.2.
    """

    def __init__(self):
        self._by_kind = {}
        self._by_vector = {}

    def register(self, kind, handler):
        """Install the handler for one trap kind."""
        self._by_kind[kind] = handler

    def register_software(self, vector, handler):
        """Install the handler for software trap number ``vector``."""
        self._by_vector[vector] = handler

    def lookup(self, trap):
        """Find the handler for a trap event.

        Raises :class:`ProcessorError` for unhandled traps: an unhandled
        trap on real hardware would wedge the machine, and silently
        ignoring one in a simulator hides bugs.
        """
        if trap.kind is _SOFTWARE:
            handler = self._by_vector.get(trap.vector)
            if handler is None:
                raise ProcessorError(
                    "unhandled software trap %d at pc=%#x" % (trap.vector, trap.pc)
                )
            return handler
        handler = self._by_kind.get(trap.kind)
        if handler is None:
            raise ProcessorError(
                "unhandled %s trap at pc=%#x (%r)" % (trap.kind.name, trap.pc, trap)
            )
        return handler


class TrapSignal(Exception):
    """Internal control-flow signal: an instruction raised a trap.

    Raised inside the reference interpreter's execute stage, which must
    unwind, and caught by the processor's step loop, which then runs
    the trap mechanism.  Never escapes the processor.  Generated code
    takes its traps in place instead (:mod:`repro.core.jit`); only what
    it delegates to the reference raises.
    """

    def __init__(self, trap):
        # ``Exception`` keeps ``(trap,)`` as its args: no message is
        # built per trap.
        self.trap = trap
