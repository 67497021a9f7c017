"""Postpass branch-delay-slot filling (paper Section 2.1, reference [10]).

"Single-thread performance is optimized, and techniques used in RISC
processors for enhancing pipeline performance can be applied" — the
canonical such technique for APRIL's single-cycle branch delay slot is
Hennessy & Gross-style postpass scheduling: move the instruction
preceding a branch into its delay slot when that is semantically
transparent, replacing the assembler's conservative ``nop``.

The pass is deliberately conservative.  A candidate — the instruction
just before a delayed op B — moves into B's slot only if **all** of:

* neither carries a label (a jump target may not move or absorb code),
  and the candidate is not already some slot's instruction;
* the candidate writes nothing B reads;
* the candidate reads and writes nothing B writes: ``call``/``jmpl``
  write their link *before* the slot executes, and every delayed op
  writes the PC chain, so no branch, trap, ``rett`` or ``halt`` moves.

What an instruction reads and writes is its :mod:`repro.isa.optable`
row — registers, the condition codes, the full/empty bit, the whole
PSR, the frame pointer, the PC chain — over the registers the statement
names.  Every delayed op reads FP (its taken test, link and base are
the current frame's), so a frame op never moves into a slot; ``wrpsr``
writes the whole PSR, so it never moves past a branch on the condition
codes or the full/empty bit.

Because the slot executes on *both* branch outcomes — exactly like the
original pre-branch position — no liveness analysis beyond the above is
needed.
"""

from repro.isa.assembler import Assembler
from repro.isa.optable import REGISTER_FIELDS, ROWS


def _effects_of(stmt):
    """``(reads, writes)`` of an instruction statement — the register
    numbers its parsed instruction names, bar the hard-wired zero, and
    its row's processor state — or ``None`` for a data statement."""
    instr = stmt.instr
    if instr is None:
        return None
    row = ROWS[instr.op]
    return tuple(
        {number for number in row.registers(instr, fields) if number}
        | {name for name in fields if name not in REGISTER_FIELDS}
        for fields in (row.reads, row.writes))


class DelaySlotFiller:
    """The postpass pass, hooked into the assembler pipeline."""

    def __init__(self):
        self.filled = 0
        self.total_slots = 0

    def run(self, statements, labeled_ids):
        """Fill slots; returns the new statement list.

        ``labeled_ids`` is the set of ``id()`` values of statements that
        carry a label (jump targets) — neither a labeled candidate nor a
        labeled branch may take part in a move (moving a labeled
        candidate would relocate the target; filling a labeled branch's
        slot would make the candidate execute on the jump-in path where
        it previously did not).
        """
        result = list(statements)
        i = 2
        while i < len(result):
            slot = result[i]
            if not slot.is_slot:
                i += 1
                continue
            self.total_slots += 1
            branch = result[i - 1]
            candidate = result[i - 2]
            if self._can_fill(candidate, branch, labeled_ids):
                # [cand, branch, nop] -> [branch, cand]; the candidate
                # becomes the slot instruction.
                candidate.is_slot = True
                del result[i]
                result[i - 2], result[i - 1] = branch, candidate
                self.filled += 1
                continue
            i += 1
        return result

    def _can_fill(self, candidate, branch, labeled_ids):
        if id(candidate) in labeled_ids or id(branch) in labeled_ids:
            return False     # jump targets cannot move or absorb code
        if candidate.is_slot:
            return False
        moved = _effects_of(candidate)
        fixed = _effects_of(branch)
        if moved is None or fixed is None:
            return False
        reads, writes = moved
        branch_reads, branch_writes = fixed
        return not (writes & branch_reads or (reads | writes) & branch_writes)


class OptimizingAssembler(Assembler):
    """Assembler with the delay-slot filler enabled.

    Statistics of the last assembly are exposed as
    :attr:`slots_filled` / :attr:`slots_total`.
    """

    def __init__(self, base=0):
        super().__init__(base=base)
        self.slots_filled = 0
        self.slots_total = 0

    def assemble(self, source):
        statements, labels_at, equs = self._parse(source)
        # Anchor each label to its statement *object* so indices can be
        # re-derived after the pass moves things around.
        anchors = [
            (label, statements[index] if index < len(statements) else None,
             org)
            for label, index, org in labels_at
        ]
        labeled_ids = {id(stmt) for _l, stmt, _o in anchors
                       if stmt is not None}
        filler = DelaySlotFiller()
        statements = filler.run(statements, labeled_ids)
        self.slots_filled = filler.filled
        self.slots_total = filler.total_slots
        position = {id(stmt): idx for idx, stmt in enumerate(statements)}
        labels_at = [
            (label,
             position[id(stmt)] if stmt is not None else len(statements),
             org)
            for label, stmt, org in anchors
        ]
        labels = self._layout(statements, labels_at, equs)
        return self._emit(statements, labels)


def assemble_optimized(source, base=0):
    """Assemble with delay-slot filling; returns the Program."""
    return OptimizingAssembler(base=base).assemble(source)
