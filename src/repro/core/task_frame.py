"""Hardware task frames (paper Section 3, Figure 2).

A task frame is the register set, PC chain, and PSR belonging to one
*loaded* thread.  APRIL has four task frames; only the one designated by
the frame pointer (FP) is active.  The set of task frames "acts like a
cache on the virtual threads": the run-time system loads and unloads
thread state to and from memory through
:meth:`TaskFrame.save_state` / :meth:`TaskFrame.load_state`.

The SPARC implementation spends two register windows per frame — a user
window and a trap window (Section 5).  We model the trap window as the
``trap_saved_*`` slots where the trap mechanism banks the PC chain and
PSR of the interrupted thread.
"""

from repro.isa import registers
from repro.core.psr import ET_BIT, PSR

_ZEROS = (0,) * registers.NUM_FRAME_REGISTERS


class TaskFrame:
    """One hardware task frame: 32 registers + PC chain + PSR."""

    __slots__ = (
        "index", "regs", "pc", "npc", "psr",
        "trap_saved_pc", "trap_saved_npc", "trap_saved_psr",
        "thread", "window",
    )

    def __init__(self, index):
        self.index = index
        self.regs = [0] * registers.NUM_FRAME_REGISTERS
        self.pc = 0
        self.npc = 4
        self.psr = PSR()
        # Trap window: where the hardware banks state on a trap.
        self.trap_saved_pc = 0
        self.trap_saved_npc = 0
        self.trap_saved_psr = 0
        #: The run-time Thread currently loaded here (None = free frame).
        self.thread = None
        #: ``(lo, hi)`` byte bounds of the loaded thread's own stack,
        #: the addresses a run-ahead tail may load and store (see
        #: :class:`repro.mem.memory.StackWindows`, which keeps it);
        #: empty unless the machine runs ahead.  Not thread state.
        self.window = (0, 0)

    @property
    def occupied(self):
        """True when a thread is loaded in this frame."""
        return self.thread is not None

    def reset(self):
        """Clear the frame for a fresh thread."""
        self.regs[:] = _ZEROS
        self.pc = 0
        self.npc = 4
        self.psr.value = ET_BIT
        self.thread = None

    def save_state(self):
        """Capture the full architectural state (for thread unloading).

        Returns the ``(regs, pc, npc, psr)`` tuple the run-time system
        stores with the unloaded thread; pass it back to
        :meth:`load_state` to reload.
        """
        return list(self.regs), self.pc, self.npc, self.psr.value

    def load_state(self, state):
        """Restore architectural state captured by :meth:`save_state`."""
        self.regs[:], self.pc, self.npc, self.psr.value = state

    def enter_trap(self):
        """Bank the PC chain and PSR in the trap window (hardware trap)."""
        self.trap_saved_pc = self.pc
        self.trap_saved_npc = self.npc
        self.trap_saved_psr = self.psr.value

    def return_from_trap(self, retry):
        """Restore banked state; retry re-executes the trapping instruction."""
        self.psr.value = self.trap_saved_psr
        if retry:
            self.pc = self.trap_saved_pc
            self.npc = self.trap_saved_npc
        else:
            self.pc = self.trap_saved_npc
            self.npc = self.trap_saved_npc + 4

    def __repr__(self):
        tid = self.thread.tid if self.thread is not None else None
        return "TaskFrame(%d, pc=%#x, thread=%r)" % (self.index, self.pc, tid)
