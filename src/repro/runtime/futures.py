"""Future bookkeeping: waiter lists and resolution.

The future *cell* lives in simulated memory (see
:mod:`repro.runtime.heap`): its value slot's full/empty bit is the
resolution flag, exactly as in the paper.  This module adds the
run-time-system bookkeeping the hardware does not provide: which
blocked threads wait on which unresolved future, so resolution can move
them back to a ready queue.
"""

from repro.isa.tags import ADDRESS_MASK
from repro.errors import RuntimeSystemError
from repro.obs.events import EventBus, EventKind


class FutureTable:
    """Maps unresolved future cells to their blocked waiters."""

    def __init__(self, events=None):
        self._waiters = {}     # cell byte address -> [Thread]
        self.created = 0       # eager + stolen-lazy futures
        self.resolved = 0
        self.touches_resolved = 0    # touch traps that found a value
        self.touches_unresolved = 0  # touch traps that had to wait
        #: The machine's observer surface (:mod:`repro.obs.events`).
        self.events = events if events is not None else EventBus()

    # -- counter/event bookkeeping (single choke points) -----------------

    def note_created(self, cycle=0, node=0, cell=None):
        """A future cell was created (eager create or lazy steal)."""
        self.created += 1
        bus = self.events
        if bus.active and EventKind.FUTURE_CREATE in bus.active:
            bus.emit(EventKind.FUTURE_CREATE, cycle, node, cell=cell)

    def note_touch(self, resolved, cycle=0, node=0, cell=None):
        """A touch trap ran; ``resolved`` = the value was already there."""
        if resolved:
            self.touches_resolved += 1
        else:
            self.touches_unresolved += 1
        bus = self.events
        if bus.active and EventKind.FUTURE_TOUCH in bus.active:
            bus.emit(EventKind.FUTURE_TOUCH, cycle, node,
                     cell=cell, resolved=resolved)

    def note_resolved(self, cell, cycle=0, node=0):
        """The future cell at ``cell`` was resolved: returns the threads
        blocked on it, no longer recorded as waiting."""
        waiters = self._waiters.pop(cell, ())
        self.resolved += 1
        bus = self.events
        if bus.active and EventKind.FUTURE_RESOLVE in bus.active:
            bus.emit(EventKind.FUTURE_RESOLVE, cycle, node,
                     cell=cell, waiters=len(waiters))
        return waiters

    def note_woken(self, cycle=0, node=0, cell=None, tid=None, waker=None):
        """One blocked waiter was moved back to a ready queue.

        ``waker`` is the tid of the thread that resolved the future —
        the producer→consumer edge the critical-path analyzer follows.
        """
        bus = self.events
        if bus.lifetime is not None:
            bus.lifetime.wake(cycle, tid, waker)
        if bus.active and EventKind.THREAD_WAKE in bus.active:
            bus.emit(EventKind.THREAD_WAKE, cycle, node,
                     cell=cell, tid=tid, waker=waker)

    def counters(self):
        """Counter snapshot for reports."""
        return {
            "created": self.created,
            "resolved": self.resolved,
            "touches_resolved": self.touches_resolved,
            "touches_unresolved": self.touches_unresolved,
            "waiting": self.waiting_count(),
        }

    def add_waiter(self, future_word, thread):
        """Record a thread blocked on an unresolved future."""
        self._waiters.setdefault(future_word & ADDRESS_MASK, []).append(thread)

    def waiting_count(self):
        """Total threads blocked on any future (deadlock diagnostics)."""
        return sum(len(threads) for threads in self._waiters.values())

    def check_empty_on_shutdown(self):
        """Raise if the machine finished with threads still blocked."""
        if self._waiters:
            cells = sorted(self._waiters)
            raise RuntimeSystemError(
                "machine finished with threads blocked on futures at %s"
                % ", ".join("%#x" % c for c in cells[:5])
            )
