"""The interactive machine monitor behind ``april monitor``.

A debugger REPL driving one :class:`~repro.machine.alewife.AlewifeMachine`
through the resumable :class:`~repro.machine.alewife.MachineStepper`:
single-step, step-over, run-until-cycle, pc breakpoints, watchpoints on
memory words *and their full/empty bits*, register/memory/PSR/task-frame
inspection and poking, a virtual-thread table, and disassembly around
any pc — the monitor-OS workflow of the related 8-bit-emulator repo,
grown onto APRIL's multithreaded hardware.

Scriptable: feed :meth:`Monitor.repl` an iterable of command lines
(``april monitor --script FILE``) and every command is echoed with its
output, producing a deterministic transcript: a thread's id is its spawn
index in the run and compiler labels are numbered per compile, so the
transcript is byte-identical across runs.

Commands (see ``help``)::

    step [N]            next            run [until CYCLE]
    break ADDR|LABEL    watch ADDR|LABEL    delete ID    bp
    regs [NODE]  psr [NODE]  frames [NODE]  threads  where
    mem ADDR [N]        disas [ADDR] [N]
    poke reg NAME VAL | poke mem ADDR VAL | poke fe ADDR full|empty
    node N              quit
"""

import sys

from repro.errors import ReproError, SimulationError
from repro.isa import registers
from repro.isa.disassembler import disassemble_around, disassemble_word
from repro.isa.encoding import decode
from repro.isa.instructions import Opcode
from repro.runtime.thread import ThreadState

_HELP = """\
commands:
  step [N]              execute N instructions (any node); alias: s
  next                  step over a call on the focused node; alias: n
  run [until CYCLE]     run to breakpoint/watchpoint/end; alias: c
  break ADDR|LABEL      set a pc breakpoint; alias: b
  watch ADDR|LABEL      watch a memory word + its full/empty bit
  bp                    list breakpoints and watchpoints
  delete ID             remove a breakpoint/watchpoint
  where                 one-line position summary per node
  regs [NODE]           active-frame + global registers
  psr [NODE]            processor state register
  frames [NODE]         hardware task frames
  threads               virtual thread table (tid = spawn index)
  mem ADDR [N]          dump N words with full/empty state
  disas [ADDR] [N]      disassemble around an address (default: pc)
  poke reg NAME VALUE   write a register on the focused node
  poke mem ADDR VALUE   write a memory word
  poke fe ADDR full|empty   set a word's full/empty bit
  poke psr VALUE        write the focused node's active PSR
  node N                focus a node (default 0)
  quit                  leave the monitor; alias: q"""


class Monitor:
    """One interactive/scripted debugging session over a machine.

    Args:
        machine: a fresh :class:`AlewifeMachine` (not yet run).
        entry: program entry label (already compiler-resolved).
        args: tagged/int arguments for the entry thread.
        out: output stream (default stdout).
        echo: echo each command with the prompt before its output —
            set for script mode so transcripts read like a session.
        max_cycles: stepper cycle budget.
    """

    PROMPT = "(april) "

    def __init__(self, machine, entry="main", args=(), out=None,
                 echo=False, max_cycles=200_000_000):
        self.machine = machine
        self.out = out if out is not None else sys.stdout
        self.echo = echo
        self.stepper = machine.stepper(entry=entry, args=args,
                                       max_cycles=max_cycles)
        self.node = 0
        self.breakpoints = {}      # id -> address
        self.watchpoints = {}      # id -> address
        self._next_id = 1
        self._watch_state = {}     # address -> (value, full)
        self._watch_access = {}    # address -> "n0 pc 0x... store"
        self.finished = False
        self._quit = False
        for cpu in machine.cpus:
            cpu.watch_hook = self._on_access

    # -- plumbing ----------------------------------------------------------

    def _print(self, text=""):
        self.out.write(text + "\n")

    def _cpu(self, token=None):
        node = self.node if token is None else int(token, 0)
        if not 0 <= node < len(self.machine.cpus):
            raise ValueError("no node %d (have 0..%d)"
                             % (node, len(self.machine.cpus) - 1))
        return self.machine.cpus[node]

    def _labels(self):
        return getattr(self.machine.program, "labels", {}) or {}

    def _resolve(self, token):
        """An address from a label name or a 0x/decimal literal."""
        labels = self._labels()
        if token in labels:
            return labels[token]
        try:
            return int(token, 0)
        except ValueError:
            raise ValueError("not a label or address: %r" % token)

    def _on_access(self, cpu, pc, address, is_load, outcome):
        if address in self._watch_state:
            self._watch_access[address] = "node %d pc %#x %s" % (
                cpu.node_id, pc, "load" if is_load else "store")

    # -- the REPL ----------------------------------------------------------

    def repl(self, lines=None):
        """Run the session; ``lines`` is an iterable of commands (script
        mode) or None for interactive stdin."""
        machine = self.machine
        self._print("april monitor: %d node(s), %d program words — "
                    "type 'help' for commands"
                    % (len(machine.cpus), len(machine.program.words)))
        if lines is None:
            self._interactive()
        else:
            for raw in lines:
                line = raw.strip()
                if self.echo:
                    self._print(self.PROMPT + line)
                if not line or line.startswith("#"):
                    continue
                self.dispatch(line)
                if self._quit:
                    break

    def _interactive(self):
        while not self._quit:
            try:
                line = input(self.PROMPT)
            except EOFError:
                self._print()
                return
            line = line.strip()
            if not line:
                continue
            self.dispatch(line)

    def dispatch(self, line):
        """Execute one command line."""
        parts = line.split()
        command, argv = parts[0], parts[1:]
        handler = _COMMANDS.get(command)
        if handler is None:
            self._print("error: unknown command %r (try 'help')" % command)
            return
        try:
            handler(self, argv)
        except (ValueError, IndexError) as exc:
            self._print("error: %s" % exc)
        except SimulationError as exc:
            self.finished = True
            self._print("simulation stopped: %s" % exc)
        except ReproError as exc:
            self._print("error: %s" % exc)

    # -- position reporting ------------------------------------------------

    def _instruction_at(self, pc):
        try:
            return disassemble_word(self.machine.memory.read_word(pc))
        except ReproError:
            return "<unmapped>"

    def _where_line(self, cpu):
        frame = cpu.frames[cpu.fp]
        thread = frame.thread
        if thread is None:
            return ("node %d  cycle %d  <idle>%s"
                    % (cpu.node_id, cpu.cycles,
                       "  HALTED" if cpu.halted else ""))
        return ("node %d  cycle %d  frame %d  %s  pc %#06x: %s"
                % (cpu.node_id, cpu.cycles, cpu.fp, thread.name, frame.pc,
                   self._instruction_at(frame.pc)))

    def _report_finish(self):
        self.finished = True
        result = self.stepper.result()
        for line in result.output:
            self._print(line)
        self._print("program finished: result %r after %d cycles"
                    % (result.value, result.cycles))

    # -- watchpoints -------------------------------------------------------

    def _poll_watchpoints(self):
        """Report every watched word whose value or f/e bit changed."""
        memory = self.machine.memory
        hits = []
        for wid in sorted(self.watchpoints):
            address = self.watchpoints[wid]
            now = (memory.read_word(address), memory.is_full(address))
            old = self._watch_state.get(address)
            if now != old:
                self._watch_state[address] = now
                access = self._watch_access.pop(address, None)
                hits.append(
                    "watchpoint %d at %#x: %#010x/%s -> %#010x/%s%s"
                    % (wid, address, old[0], "full" if old[1] else "empty",
                       now[0], "full" if now[1] else "empty",
                       "  (%s)" % access if access else ""))
        for hit in hits:
            self._print(hit)
        return bool(hits)

    def _refresh_watch(self, address):
        if address in self._watch_state:
            memory = self.machine.memory
            self._watch_state[address] = (memory.read_word(address),
                                          memory.is_full(address))

    # -- stepping commands -------------------------------------------------

    def _advance(self, guard=None):
        """One stepper iteration + bookkeeping; returns the StepInfo."""
        info = self.stepper.step_machine(guard=guard)
        if info is None:
            self._report_finish()
        return info

    def cmd_step(self, argv):
        count = int(argv[0], 0) if argv else 1
        if count < 1:
            raise ValueError("step count must be >= 1")
        if self.finished:
            self._print("program already finished")
            return
        executed = 0
        while executed < count:
            info = self._advance()
            if info is None:
                return
            if info.executed:
                executed += 1
                cpu = self.machine.cpus[info.node]
                self._print("[%d] n%d %#06x: %s"
                            % (cpu.cycles, info.node, info.pc,
                               self._instruction_at(info.pc)))
            self._poll_watchpoints()

    def cmd_next(self, argv):
        """Step over: a call on the focused node runs to its return."""
        if self.finished:
            self._print("program already finished")
            return
        cpu = self._cpu()
        frame = cpu.frames[cpu.fp]
        over = None
        if frame.thread is not None:
            pc = frame.pc
            try:
                instr = decode(self.machine.memory.read_word(pc))
            except ReproError:
                instr = None
            if instr is not None and instr.op in (Opcode.CALL, Opcode.JMPL):
                over = pc + 8
        if over is None:
            # Nothing to step over: behave like `step` restricted to
            # the focused node.
            while True:
                info = self._advance()
                if info is None:
                    return
                self._poll_watchpoints()
                if info.executed and info.node == cpu.node_id:
                    break
            self._print(self._where_line(cpu))
            return

    # A guarded run until the focused node is back at the return pc.
        node = cpu.node_id

        def guard(candidate):
            return (candidate.node_id == node
                    and candidate.frames[candidate.fp].pc == over)

        self._run_loop(guard_extra=guard, first_unguarded=True)

    def cmd_run(self, argv):
        until = None
        if argv:
            if len(argv) != 2 or argv[0] != "until":
                raise ValueError("usage: run [until CYCLE]")
            until = int(argv[1], 0)
        if self.finished:
            self._print("program already finished")
            return
        self._run_loop(until=until, first_unguarded=True)

    def _bp_hit(self, cpu):
        pc = cpu.frames[cpu.fp].pc
        for bid in sorted(self.breakpoints):
            if self.breakpoints[bid] == pc:
                return bid
        return None

    def _run_loop(self, until=None, guard_extra=None, first_unguarded=False):
        """The shared continue loop: stop on breakpoint, watchpoint,
        guard, cycle bound, or program end.

        ``first_unguarded`` executes the current instruction before
        re-arming breakpoints, so ``run`` after a breakpoint stop makes
        progress instead of re-stopping in place.
        """
        bp_guard = (lambda cpu: self._bp_hit(cpu) is not None
                    or (guard_extra is not None and guard_extra(cpu)))
        first = first_unguarded
        while True:
            info = self._advance(guard=None if first else bp_guard)
            first = False
            if info is None:
                return
            if info.stopped:
                cpu = self.machine.cpus[info.node]
                bid = self._bp_hit(cpu)
                if bid is not None:
                    self._print("breakpoint %d at %#06x" % (bid, info.pc))
                self._print(self._where_line(cpu))
                return
            if self._poll_watchpoints():
                self._print(self._where_line(self.machine.cpus[info.node]))
                return
            if until is not None and self.machine.time >= until:
                self._print("stopped at cycle bound %d (machine time %d)"
                            % (until, self.machine.time))
                return

    # -- breakpoints / watchpoints ----------------------------------------

    def cmd_break(self, argv):
        address = self._resolve(argv[0])
        bid = self._next_id
        self._next_id += 1
        self.breakpoints[bid] = address
        self._print("breakpoint %d at %#06x: %s"
                    % (bid, address, self._instruction_at(address)))

    def cmd_watch(self, argv):
        address = self._resolve(argv[0])
        if address % 4:
            raise ValueError("watch address must be word-aligned")
        wid = self._next_id
        self._next_id += 1
        self.watchpoints[wid] = address
        memory = self.machine.memory
        state = (memory.read_word(address), memory.is_full(address))
        self._watch_state[address] = state
        self._print("watchpoint %d at %#06x: %#010x/%s"
                    % (wid, address, state[0],
                       "full" if state[1] else "empty"))

    def cmd_bp(self, argv):
        for bid in sorted(self.breakpoints):
            address = self.breakpoints[bid]
            self._print("breakpoint %d at %#06x: %s"
                        % (bid, address, self._instruction_at(address)))
        for wid in sorted(self.watchpoints):
            address = self.watchpoints[wid]
            value, full = self._watch_state[address]
            self._print("watchpoint %d at %#06x: %#010x/%s"
                        % (wid, address, value,
                           "full" if full else "empty"))
        if not self.breakpoints and not self.watchpoints:
            self._print("no breakpoints or watchpoints")

    def cmd_delete(self, argv):
        which = int(argv[0], 0)
        if which in self.breakpoints:
            del self.breakpoints[which]
            self._print("deleted breakpoint %d" % which)
        elif which in self.watchpoints:
            address = self.watchpoints.pop(which)
            if address not in self.watchpoints.values():
                self._watch_state.pop(address, None)
            self._print("deleted watchpoint %d" % which)
        else:
            raise ValueError("no breakpoint/watchpoint %d" % which)

    # -- inspection --------------------------------------------------------

    def cmd_where(self, argv):
        for cpu in self.machine.cpus:
            self._print(self._where_line(cpu))

    def cmd_regs(self, argv):
        cpu = self._cpu(argv[0] if argv else None)
        frame = cpu.frames[cpu.fp]
        shown = False
        for number in range(1, registers.NUM_FRAME_REGISTERS):
            value = frame.regs[number]
            if value:
                self._print("  %-4s = %#010x"
                            % (registers.register_name(number), value))
                shown = True
        for index in range(registers.NUM_GLOBAL_REGISTERS):
            value = cpu.globals[index]
            if value:
                self._print("  %-4s = %#010x"
                            % (registers.register_name(
                                registers.GLOBAL_BASE + index), value))
                shown = True
        if not shown:
            self._print("  (all registers zero)")

    def cmd_psr(self, argv):
        cpu = self._cpu(argv[0] if argv else None)
        self._print("  %r" % cpu.frames[cpu.fp].psr)

    def cmd_frames(self, argv):
        cpu = self._cpu(argv[0] if argv else None)
        for frame in cpu.frames:
            owner = "<free>"
            if frame.thread is not None:
                owner = "%s (%s)" % (frame.thread.name,
                                     frame.thread.state.value)
            self._print("  frame %d%s pc=%#06x npc=%#06x  %s"
                        % (frame.index,
                           "*" if frame.index == cpu.fp else " ",
                           frame.pc, frame.npc, owner))

    def cmd_threads(self, argv):
        runtime = self.machine.runtime
        loaded_at = {}
        for cpu in self.machine.cpus:
            for frame in cpu.frames:
                if frame.thread is not None:
                    loaded_at[frame.thread.tid] = (cpu.node_id, frame.index)
        self._print("  %4s  %-20s %-8s %4s  %s"
                    % ("tid", "name", "state", "home", "where"))
        for thread in runtime.threads:
            if thread.state is ThreadState.LOADED:
                node, frame = loaded_at.get(thread.tid, (None, None))
                where = ("node %d frame %d" % (node, frame)
                         if node is not None else "loaded")
            elif thread.state is ThreadState.BLOCKED:
                from repro.isa import tags
                where = "cell %#x" % tags.pointer_address(thread.blocked_on)
                if thread.block_pc is not None:
                    where += " pc %#x" % thread.block_pc
            elif thread.state is ThreadState.READY:
                where = "ready queue n%d" % thread.home_node
            else:
                where = "done"
            self._print("  %4d  %-20s %-8s %4d  %s"
                        % (thread.tid, thread.name, thread.state.value,
                           thread.home_node, where))

    def cmd_mem(self, argv):
        address = self._resolve(argv[0])
        count = int(argv[1], 0) if len(argv) > 1 else 8
        memory = self.machine.memory
        for offset in range(count):
            word_address = address + 4 * offset
            self._print("  %#06x  %#010x  %s"
                        % (word_address, memory.read_word(word_address),
                           "full" if memory.is_full(word_address)
                           else "empty"))

    def cmd_disas(self, argv):
        if argv:
            pc = self._resolve(argv[0])
            window = int(argv[1], 0) if len(argv) > 1 else 4
        else:
            cpu = self._cpu()
            pc = cpu.frames[cpu.fp].pc
            window = 4
        listing = disassemble_around(self.machine.memory.read_word, pc,
                                     before=window, after=window,
                                     labels=self._labels())
        for line in listing.splitlines():
            self._print("  " + line)

    # -- mutation ----------------------------------------------------------

    def cmd_poke(self, argv):
        if not argv:
            raise ValueError("usage: poke reg|mem|fe|psr ...")
        what = argv[0]
        if what == "reg":
            number = registers.register_number(argv[1])
            value = int(argv[2], 0)
            self._cpu().write_reg(number, value)
            self._print("  %s = %#010x" % (argv[1], value))
        elif what == "mem":
            address = self._resolve(argv[1])
            value = int(argv[2], 0)
            self.machine.memory.write_word(address, value)
            self._refresh_watch(address)
            self._print("  [%#06x] = %#010x" % (address, value))
        elif what == "fe":
            address = self._resolve(argv[1])
            state = argv[2]
            if state not in ("full", "empty"):
                raise ValueError("poke fe takes 'full' or 'empty'")
            self.machine.memory.set_full(address, state == "full")
            self._refresh_watch(address)
            self._print("  [%#06x] marked %s" % (address, state))
        elif what == "psr":
            value = int(argv[1], 0)
            self._cpu().frames[self._cpu().fp].psr.value = value
            self._print("  psr = %#010x" % value)
        else:
            raise ValueError("usage: poke reg|mem|fe|psr ...")

    def cmd_node(self, argv):
        cpu = self._cpu(argv[0])
        self.node = cpu.node_id
        self._print("focused node %d" % self.node)

    def cmd_help(self, argv):
        self._print(_HELP)

    def cmd_quit(self, argv):
        self._quit = True


_COMMANDS = {
    "help": Monitor.cmd_help,
    "step": Monitor.cmd_step, "s": Monitor.cmd_step,
    "next": Monitor.cmd_next, "n": Monitor.cmd_next,
    "run": Monitor.cmd_run, "c": Monitor.cmd_run,
    "continue": Monitor.cmd_run,
    "break": Monitor.cmd_break, "b": Monitor.cmd_break,
    "watch": Monitor.cmd_watch,
    "bp": Monitor.cmd_bp,
    "delete": Monitor.cmd_delete,
    "where": Monitor.cmd_where,
    "regs": Monitor.cmd_regs,
    "psr": Monitor.cmd_psr,
    "frames": Monitor.cmd_frames,
    "threads": Monitor.cmd_threads,
    "mem": Monitor.cmd_mem,
    "disas": Monitor.cmd_disas,
    "poke": Monitor.cmd_poke,
    "node": Monitor.cmd_node,
    "quit": Monitor.cmd_quit, "q": Monitor.cmd_quit,
}
