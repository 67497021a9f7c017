"""Message-passing on shared-memory hardware (paper Section 3.4).

    python examples/message_passing.py

APRIL's out-of-band mechanisms — interprocessor interrupts plus block
transfers — "form a primitive for the message-passing computational
model".  This example rings a token around four nodes through
full/empty-flow-controlled mailboxes, each hop delivered by an IPI,
while every node also runs an ordinary Mul-T computation: the two
models coexist on one machine.
"""

from repro.isa import tags
from repro.isa.assembler import assemble
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import EventKind, FlightRecorder
from repro.runtime import stubs
from repro.runtime.ipi import MessagePassing

#: Every node spins on a little arithmetic so the ring has time to turn.
PROGRAM = stubs.thread_start_stub() + """
main:
    set 3000, t0
loop:
    cmpr t0, 0
    ble done
    ba loop
    @subr t0, 1, t0
done:
    set 0, a0
    ret
"""


def main():
    nodes = 4
    laps = 3
    machine = AlewifeMachine(assemble(PROGRAM),
                             MachineConfig(num_processors=nodes))
    mp = MessagePassing(machine)
    flight = FlightRecorder().attach(machine)
    hops = []

    def forward(node):
        def handler(src, words):
            value = tags.fixnum_value(words[0])
            hops.append((src, node, value))
            if value < nodes * laps:
                mp.send(node, (node + 1) % nodes,
                        [tags.make_fixnum(value + 1)],
                        charge_to=machine.cpus[node])
        return handler

    for node in range(nodes):
        mp.on_message(node, forward(node))

    # A compute thread on every node, so the ring interrupts real work.
    runtime = machine.runtime
    for node in range(1, nodes):
        closure = runtime.kernel_heap(node).closure(
            machine.program.address_of("main"))
        runtime.scheduler.enqueue(
            runtime.new_thread(node, entry_closure=closure,
                               name="worker-%d" % node), node)

    print("Token ring over %d nodes, %d laps, IPI per hop\n" % (nodes, laps))
    mp.send(0, 1, [tags.make_fixnum(1)])
    machine.run()

    for src, dst, value in hops:
        lap = (value - 1) // nodes + 1
        print("  hop %2d (lap %d): node %d -> node %d" % (value, lap, src, dst))
    print("\nmessages sent: %d, delivered: %d" % (mp.sent, mp.delivered))
    print("all %d processors also retired their compute loops:" % nodes)
    for cpu in machine.cpus:
        print("  node %d: %d instructions" % (
            cpu.node_id, cpu.stats.instructions))
    assert len(hops) == nodes * laps
    print("\nLast trap entries on each node (flight recorder):")
    for node in range(nodes):
        traps = [event for event in flight.rings[node]
                 if event.kind is EventKind.TRAP_ENTER]
        for event in traps[-2:]:
            print("  %r" % event)


if __name__ == "__main__":
    main()
