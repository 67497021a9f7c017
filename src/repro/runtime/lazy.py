"""Lazy task creation (paper Section 3.2; Mohr, Kranz & Halstead [17]).

"With lazy task creation a future expression does not create a new
task, but computes the expression as a local procedure call, leaving
behind a marker indicating that a new task could have been created.
The new task is created only when some processor becomes idle and looks
for work, stealing the continuation of that procedure call."

Protocol (compiled code <-> run-time system):

1. ``(future E)`` evaluates E's argument registers, loads the
   continuation resume address into ``t7``, and traps ``V_LAZY_PUSH``.
   The handler records a :class:`LazyMarker` capturing the thread and
   its stack pointer and publishes it on the node's lazy queue.
2. The child E is then evaluated *inline* — by protocol it only touches
   the stack at or above the marker's SP, so the continuation frames
   below stay frozen while the marker is stealable.
3. On return, compiled code traps ``V_LAZY_FINISH``.  If the marker was
   never stolen it is simply discarded — the future cost was a few
   cycles of push/pop.  If it *was* stolen, the handler resolves the
   future the thief created and retires this thread (its continuation
   now runs elsewhere).

A thief always steals a thread's **oldest** active marker: the stolen
continuation is the region between the thread's previously-stolen
boundary and the marker's SP, so stealing oldest-first keeps every
region well-formed.  The stack slice is *copied* into the thief's new
thread (stack splitting); compiled code addresses the stack only
SP-relatively, so the copy relocates freely.  Any older (already
stolen) markers ride along to the new thread, which will reach their
``V_LAZY_FINISH`` traps.  "The race conditions are resolved using the
fine-grain locking provided by the full/empty bits" — in this simulator
the event loop serializes handler execution, which subsumes that lock.
"""

from collections import deque

from repro.errors import RuntimeSystemError


class LazyMarker:
    """One 'a task could have been created here' marker."""

    __slots__ = ("thread", "sp", "resume_pc", "node",
                 "stolen", "future", "active")

    def __init__(self, thread, sp, resume_pc, node):
        self.thread = thread
        self.sp = sp                # stack pointer at push time
        self.resume_pc = resume_pc  # continuation entry (after the finish trap)
        self.node = node            # node whose lazy queue lists it
        self.stolen = False
        self.future = None          # future cell created by the thief
        self.active = True          # still on a lazy queue / owner list

    def __repr__(self):
        state = "stolen" if self.stolen else ("active" if self.active else "dead")
        return "LazyMarker(%s, sp=%#x)" % (state, self.sp)


class LazyQueue:
    """Per-node queue of stealable markers.

    Owners push at the back and pop from the back (LIFO, like a call
    stack); thieves steal from the front (the oldest, coarsest-grain
    work) — the classic lazy-task-queue discipline.  Entries are
    invalidated in place (``active``/``stolen`` flags) and skipped
    during steals, avoiding O(n) removals.  ``live`` counts the entries
    still stealable — +1 per push, -1 per discard and per steal, the
    only ways a queued marker stops being active and unstolen.
    """

    def __init__(self, node):
        self.node = node
        self._markers = deque()
        self.pushes = 0
        self.steals = 0
        self.discards = 0
        self.peak_depth = 0
        self.live = 0

    def counters(self):
        """Counter snapshot for reports."""
        return {
            "pushes": self.pushes,
            "steals": self.steals,
            "discards": self.discards,
            "peak_depth": self.peak_depth,
            "live": self.live,
        }

    def push(self, marker):
        self._markers.append(marker)
        self.pushes += 1
        self.live += 1
        if self.live > self.peak_depth:
            self.peak_depth = self.live

    def discard(self, marker):
        """Owner finished the marker unstolen; drop it lazily."""
        marker.active = False
        self.discards += 1
        self.live -= 1
        while self._markers and not self._markers[-1].active:
            self._markers.pop()

    def steal(self):
        """Take the oldest stealable marker, or ``None``.

        A marker is stealable only while it is its thread's oldest
        active, unstolen marker; front-of-queue order guarantees that
        for live entries, so the first live entry wins.
        """
        while self._markers:
            marker = self._markers[0]
            if not marker.active or marker.stolen:
                self._markers.popleft()
                continue
            if marker is not _oldest_active(marker.thread):
                # Stale ordering (cannot happen with oldest-first steals,
                # but guard against protocol violations loudly).
                raise RuntimeSystemError(
                    "lazy queue head %r is not its thread's oldest marker"
                    % marker
                )
            self._markers.popleft()
            marker.stolen = True
            self.steals += 1
            self.live -= 1
            return marker
        return None

    def __len__(self):
        return self.live


def _oldest_active(thread):
    for marker in thread.lazy_markers:
        if marker.active and not marker.stolen:
            return marker
    return None
