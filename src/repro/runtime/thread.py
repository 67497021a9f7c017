"""Virtual threads (paper Section 3, Figure 2).

"Threads in ALEWIFE are virtual.  Only a small subset of all threads can
be physically resident on the processors; these threads are called
loaded threads.  The remaining threads are referred to as unloaded
threads and live on various queues in memory, waiting their turn to be
loaded."

A :class:`Thread` is the descriptor the run-time system keeps for one
virtual thread: its saved architectural state when unloaded, its stack
region, the future cell it is computing (if it was spawned by
``future``), and scheduling bookkeeping.
"""

import enum

from repro.errors import RuntimeSystemError


class ThreadState(enum.Enum):
    """Life cycle of a virtual thread."""

    # Identity hash, as on ``repro.obs.events.EventKind``: members are
    # singletons, and Enum's default ``__hash__`` is a Python-level call
    # on every lookup in :data:`TRANSITIONS`.
    __hash__ = object.__hash__

    READY = "ready"          # runnable, waiting on a ready queue
    LOADED = "loaded"        # resident in a hardware task frame
    BLOCKED = "blocked"      # unloaded, waiting on an unresolved future
    DONE = "done"            # finished; descriptor kept for inspection


#: The legal successors of each state (the scheduler's transitions).
TRANSITIONS = {
    ThreadState.READY: (ThreadState.LOADED,),
    ThreadState.LOADED: (
        ThreadState.READY, ThreadState.BLOCKED, ThreadState.DONE,
    ),
    ThreadState.BLOCKED: (ThreadState.READY,),
    ThreadState.DONE: (),
}


class Thread:
    """One virtual thread.

    Args:
        tid: the thread's id, given by its creator; the run-time system
            uses its spawn index (main is 0), which the scheduler writes
            into the PSR's TID field when the thread loads.
        stack_base: byte address of the thread's stack (grows upward).
        stack_words: stack capacity.
        home_node: node whose ready queue this thread prefers.
        future: the future-tagged pointer this thread resolves on exit,
            or ``None`` for plain threads (the main thread).
    """

    __slots__ = (
        "tid", "_name", "state", "stack_base", "stack_words", "home_node",
        "future", "entry_closure", "args", "is_root", "stolen_base",
        "saved_state", "spin_count", "last_fault_pc", "blocked_on",
        "block_pc", "result", "lazy_markers",
    )

    def __init__(self, tid, stack_base, stack_words, home_node=0, future=None,
                 name=None, entry_closure=None, args=(), is_root=False):
        self.tid = tid
        #: The name given at spawn; :attr:`name` makes the default one
        #: when somebody reads it.
        self._name = name
        self.state = ThreadState.READY
        self.stack_base = stack_base
        self.stack_words = stack_words
        self.home_node = home_node
        self.future = future
        #: Entry closure word + argument words for fresh-thread bootstrap.
        self.entry_closure = entry_closure
        self.args = tuple(args)
        #: True for the thread whose exit finishes the whole run.  Lazy
        #: continuation stealing transfers root-ness with the stack bottom.
        self.is_root = is_root
        #: Stack addresses below this were stolen away (lazy splitting).
        self.stolen_base = stack_base
        #: Saved architectural state while unloaded: the
        #: ``(regs, pc, npc, psr)`` tuple of TaskFrame.save_state.
        self.saved_state = None
        #: Consecutive unresolved-touch context switches (starvation guard).
        self.spin_count = 0
        #: PC of the last full/empty fault (resets the spin counter when
        #: the thread faults somewhere new).
        self.last_fault_pc = None
        #: The future this thread is blocked on, when BLOCKED.
        self.blocked_on = None
        #: PC of the touch that blocked this thread (source attribution
        #: for the lifetime accountant; survives until the next block).
        self.block_pc = None
        #: Result word once DONE.
        self.result = None
        #: Lazy-task markers pushed by this thread (innermost last).
        self.lazy_markers = []

    @property
    def name(self):
        """The given name, or ``thread-<tid>``."""
        return self._name or "thread-%d" % self.tid

    @property
    def stack_limit(self):
        """First byte past the stack region."""
        return self.stack_base + 4 * self.stack_words

    def transition(self, new_state):
        """Move to ``new_state``; raise unless :data:`TRANSITIONS`
        allows it.  The scheduler calls this."""
        if new_state not in TRANSITIONS[self.state]:
            raise RuntimeSystemError(
                "%s: illegal transition %s -> %s"
                % (self.name, self.state.value, new_state.value)
            )
        self.state = new_state

    def __repr__(self):
        return "Thread(%s, %s, stack=%#x)" % (
            self.name, self.state.value, self.stack_base)
