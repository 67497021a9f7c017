"""Message passing over IPIs and block transfers (paper Section 3.4).

"We are considering an interprocessor-interrupt mechanism (IPI) which
permits preemptive messages to be sent to specific processors.  IPIs
offer reasonable alternatives to polling and, in conjunction with
block-transfers, form a primitive for the message-passing computational
model."

This module builds exactly that primitive on the simulated hardware:

* a per-node **mailbox** in simulated memory (a ring of slots whose
  full/empty bits flow-control producer and consumer);
* ``send``: the sender deposits the payload with a block transfer (or
  plain stores for single words) and fires an IPI at the target;
* the IPI handler wakes a registered receiver (or queues the
  notification until one asks).

User programs drive it through the controller's memory-mapped registers
(``STIO``); this Python layer is the run-time-system half, used by the
examples and tests and available to trap handlers.
"""

from collections import deque

from repro.errors import RuntimeSystemError
from repro.isa import tags

#: Mailbox geometry: slots of (header, payload...) words.
DEFAULT_SLOTS = 8
SLOT_WORDS = 8            # 1 header + up to 7 payload words


class Mailbox:
    """One node's receive ring in simulated memory."""

    def __init__(self, memory, base, slots):
        self.memory = memory
        self.base = base
        self.slots = slots
        self.head = 0       # next slot the consumer reads
        self.tail = 0       # next slot the producer writes
        for index in range(slots):
            memory.set_full(self._slot(index), False)

    def _slot(self, index):
        return self.base + 4 * SLOT_WORDS * (index % self.slots)

    def deposit(self, words):
        """Producer side; returns the slot address, or None when full."""
        if len(words) >= SLOT_WORDS:
            raise RuntimeSystemError(
                "message longer than a mailbox slot (%d words)" % SLOT_WORDS)
        address = self._slot(self.tail)
        if self.memory.is_full(address):
            return None      # ring full: sender must retry
        self.memory.write_word(address, tags.make_fixnum(len(words)))
        for i, word in enumerate(words):
            self.memory.write_word(address + 4 * (i + 1), word)
        self.memory.set_full(address, True)   # publish
        self.tail += 1
        return address

    def collect(self):
        """Consumer side; returns the payload words, or None when empty."""
        address = self._slot(self.head)
        if not self.memory.is_full(address):
            return None
        count = tags.fixnum_value(self.memory.read_word(address))
        words = [self.memory.read_word(address + 4 * (i + 1))
                 for i in range(count)]
        self.memory.set_full(address, False)  # free the slot
        self.head += 1
        return words


class MessagePassing:
    """Machine-wide message-passing service on mailboxes + IPIs."""

    def __init__(self, machine, slots=DEFAULT_SLOTS):
        self.cpus = machine.cpus
        runtime = machine.runtime
        self.mailboxes = []
        for node in range(len(machine.cpus)):
            base = runtime.kernel_heap(node).arena.allocate(
                slots * SLOT_WORDS)
            self.mailboxes.append(Mailbox(machine.memory, base, slots))
        self.notifications = [deque() for _ in machine.cpus]
        self.receivers = {}        # node -> callable(src_node, words)
        self.sent = 0
        self.delivered = 0
        runtime.set_ipi_receiver(self._on_ipi)

    # -- sending ------------------------------------------------------------

    def send(self, src_node, dst_node, payload_words, charge_to=None):
        """Deposit a message and interrupt the target.

        Returns True on success, False if the target's mailbox is full
        (the sender should back off and retry — preemptive messages are
        unreliable under overload, like the hardware).
        """
        if not 0 <= dst_node < len(self.mailboxes):
            raise RuntimeSystemError("bad destination node %d" % dst_node)
        mailbox = self.mailboxes[dst_node]
        if mailbox.deposit(list(payload_words)) is None:
            return False
        cpu = self.cpus[dst_node]
        cpu.post_ipi(("message", src_node))
        if charge_to is not None:
            # Block transfer + IPI launch cost, charged to the sender.
            charge_to.charge(4 + len(payload_words), "trap")
        self.sent += 1
        return True

    # -- receiving --------------------------------------------------------------

    def on_message(self, node, callback):
        """Install ``callback(src_node, payload_words)`` for a node."""
        self.receivers[node] = callback

    def receive(self, node):
        """Poll a node's mailbox directly; returns words or None."""
        return self.mailboxes[node].collect()

    def pending(self, node):
        """IPI notifications not yet consumed by a receiver."""
        return len(self.notifications[node])

    def _on_ipi(self, cpu, message):
        if not (isinstance(message, tuple) and message
                and message[0] == "message"):
            return            # someone else's IPI payload
        src = message[1]
        words = self.mailboxes[cpu.node_id].collect()
        if words is None:
            raise RuntimeSystemError(
                "IPI with empty mailbox on node %d" % cpu.node_id)
        self.delivered += 1
        callback = self.receivers.get(cpu.node_id)
        if callback is not None:
            callback(src, words)
        else:
            self.notifications[cpu.node_id].append((src, words))
