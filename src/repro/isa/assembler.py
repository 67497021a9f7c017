"""A two-pass assembler for APRIL assembly.

Syntax (one statement per line; ``;`` starts a comment)::

    .equ NFRAMES, 4          ; named constant
    .org 0x100               ; move the location counter forward
    .word 42                 ; literal data word (label or integer)
    .fixnum -7               ; data word encoded as an APRIL fixnum
    .space 8                 ; reserve zeroed words

    entry:                   ; label (word address)
        set 1000, sp         ; pseudo: load a 32-bit constant
        add a0, 1, t0        ; compute: op rs1, rs2|imm, rd
        cmp t0, a1
        ble done
        ld [a0+1], t1        ; loads: op [base+offset], rd
        st t1, [sp+0]        ; stores: op src, [base+offset]
        call fact            ; PC-relative call, links ra
        ret                  ; pseudo: jmpl [ra+0], r0
    done:
        halt

**Branch delay slots.**  APRIL has a single-cycle branch delay slot
(paper Section 3).  The assembler keeps the toolchain honest by
automatically inserting a ``nop`` after every branch, ``call``, and
``jmpl`` (and the ``ret`` pseudo).  A source line beginning with ``@``
is placed *into* the preceding delay slot instead, letting hand-written
run-time code (or the optimizer in :mod:`repro.isa.optimizer`) fill
slots explicitly::

        call fact
        @mov t3, a0          ; executes in fact's delay slot

Pseudo-instructions: ``nop``, ``mov s, d``, ``set imm|label, d``,
``b label`` (alias ``ba``), ``ret``, ``ld``/``st`` (aliases for the
default trapping flavors ``ldnt``/``stnt``), ``neg s, d``, ``not s, d``,
``inc``/``dec d``.
"""

from repro.errors import AssemblerError
from repro.isa import registers, tags
from repro.isa.encoding import IMM11_MAX, IMM11_MIN, encode
from repro.isa.instructions import Instruction, Opcode
from repro.isa.optable import ROWS

_OPCODES_BY_NAME = {op.name.lower(): op for op in Opcode}

_ALIAS_OPS = {
    "ld": Opcode.LDNT,
    "st": Opcode.STNT,
}


class Program:
    """An assembled APRIL program.

    All addresses are *byte* addresses; instructions and data words are
    4 bytes each, and ``words[i]`` lives at ``base + 4*i``.

    Attributes:
        base: byte address the program is linked at (multiple of 4).
        words: the encoded 32-bit instruction/data words.
        labels: mapping of label name to absolute byte address.
        source_map: mapping of byte address to (line number, source text).
    """

    def __init__(self, base, words, labels, source_map):
        self.base = base
        self.words = words
        self.labels = labels
        self.source_map = source_map

    def __len__(self):
        return len(self.words)

    @property
    def end(self):
        """First byte address past the program."""
        return self.base + 4 * len(self.words)

    def address_of(self, label):
        """Absolute byte address of a label."""
        if label not in self.labels:
            raise AssemblerError("unknown label: %s" % label)
        return self.labels[label]

    def location(self, address):
        """Source (line, text) for a byte address, or ``None``."""
        return self.source_map.get(address)


class _Statement:
    """One parsed source statement awaiting label resolution.

    An instruction's ``instr`` has its opcode and registers from pass 0;
    ``value`` is its immediate operand still to resolve in pass 2,
    ``(how, text)`` with ``how`` one of ``"+"``, ``"-"`` (a value or
    its negation), ``"hilo"`` or ``"target"`` — or ``None``.
    """

    __slots__ = ("kind", "line", "mnemonic", "operands", "address", "size",
                 "is_slot", "instr", "value")

    def __init__(self, kind, line, mnemonic=None, operands=(), instr=None,
                 value=None):
        self.kind = kind          # 'instr' | 'word' | 'fixnum' | 'space'
        self.line = line
        self.mnemonic = mnemonic
        self.operands = operands
        self.address = None
        self.size = 1
        self.is_slot = False      # auto-inserted branch delay slot nop
        self.instr = instr
        self.value = value


def _tokenize_operands(text):
    """Split an operand field on top-level commas."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, base=0):
        self.base = base

    def assemble(self, source):
        """Assemble APRIL assembly source text into a :class:`Program`."""
        statements, labels_at, equs = self._parse(source)
        labels = self._layout(statements, labels_at, equs)
        return self._emit(statements, labels)

    # -- pass 0: parse ---------------------------------------------------

    def _parse(self, source):
        statements = []
        labels_at = []          # (label, statement index) pairs
        equs = {}
        pending_org = None
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            while ":" in line:
                label, _, rest = line.partition(":")
                label = label.strip()
                if not label.replace("_", "").isalnum() or label[0].isdigit():
                    raise AssemblerError("bad label %r" % label, lineno)
                labels_at.append((label, len(statements), pending_org))
                pending_org = None
                line = rest.strip()
            if not line:
                continue
            fill_slot = line.startswith("@")
            if fill_slot:
                line = line[1:].strip()
            mnemonic, _, operand_text = line.partition(" ")
            mnemonic = mnemonic.lower()
            operands = _tokenize_operands(operand_text)

            if mnemonic == ".equ":
                if len(operands) != 2:
                    raise AssemblerError(".equ needs name, value", lineno)
                name = operands[0]
                if name in equs:
                    raise AssemblerError("duplicate symbol %r" % name, lineno)
                equs[name] = (self._parse_int(operands[1], lineno), lineno)
                continue
            if mnemonic in (".org", ".space", ".align"):
                self._arity(operands, 1, lineno)
            if mnemonic == ".org":
                pending_org = self._parse_int(operands[0], lineno)
                statements.append(_Statement("org", lineno, operands=(pending_org,)))
                continue
            if mnemonic == ".word":
                statements.append(_Statement("word", lineno, operands=tuple(operands)))
                continue
            if mnemonic == ".fixnum":
                statements.append(
                    _Statement("fixnum", lineno, operands=tuple(operands))
                )
                continue
            if mnemonic == ".space":
                stmt = _Statement("space", lineno)
                stmt.size = self._parse_int(operands[0], lineno)
                if stmt.size < 0:
                    raise AssemblerError(".space count is negative", lineno)
                statements.append(stmt)
                continue
            if mnemonic == ".align":
                stmt = _Statement("align", lineno)
                stmt.size = self._parse_int(operands[0], lineno)
                if stmt.size % 4 or stmt.size <= 0:
                    raise AssemblerError(
                        ".align needs a positive multiple of 4", lineno)
                statements.append(stmt)
                continue
            if mnemonic.startswith("."):
                raise AssemblerError("unknown directive %s" % mnemonic, lineno)

            for expanded in self._expand(mnemonic, operands, lineno):
                statements.append(self._build(*expanded, lineno))
            if fill_slot:
                self._fill_previous_slot(statements, lineno)
            elif ROWS[statements[-1].instr.op].delayed:
                slot = self._build("nop", (), lineno)
                slot.is_slot = True
                statements.append(slot)
        return statements, labels_at, equs

    def _fill_previous_slot(self, statements, lineno):
        """Move this just-appended instruction into the preceding nop slot."""
        if len(statements) < 2:
            raise AssemblerError("@-slot with no preceding branch", lineno)
        filler = statements.pop()
        prev = statements[-1]
        if not prev.is_slot:
            raise AssemblerError(
                "@-slot must directly follow a branch/call/jmpl", lineno
            )
        statements[-1] = filler

    def _expand(self, mnemonic, operands, lineno):
        """Expand pseudo-instructions; yields (mnemonic, operands) pairs.

        ``set`` with a label or wide constant becomes ``lui``+``oril``;
        a narrow literal becomes a single ``addr``.
        """
        if mnemonic == "nop":
            return [("nop", ())]
        if mnemonic == "halt":
            return [("halt", ())]
        if mnemonic == "mov":
            self._arity(operands, 2, lineno)
            return [("or", (operands[0], "r0", operands[1]))]
        if mnemonic == "neg":
            self._arity(operands, 2, lineno)
            return [("subr", ("r0", operands[0], operands[1]))]
        if mnemonic == "not":
            self._arity(operands, 2, lineno)
            return [("xor", (operands[0], "-1", operands[1]))]
        if mnemonic == "inc":
            self._arity(operands, 1, lineno)
            return [("addr", (operands[0], "1", operands[0]))]
        if mnemonic == "dec":
            self._arity(operands, 1, lineno)
            return [("addr", (operands[0], "-1", operands[0]))]
        if mnemonic == "cmpr":
            # Raw compare: set CCs without the strict future check
            # (address and tag comparisons in run-time code).
            self._arity(operands, 2, lineno)
            return [("subr", (operands[0], operands[1], "r0"))]
        if mnemonic == "ret":
            return [("jmpl", ("[ra+0]", "r0"))]
        if mnemonic == "b":
            return [("ba", tuple(operands))]
        if mnemonic == "set":
            self._arity(operands, 2, lineno)
            value, rd = operands
            literal = self._try_int(value)
            if literal is not None and IMM11_MIN <= literal <= IMM11_MAX:
                return [("addr", ("r0", value, rd))]
            # Wide constant or label: lui/oril pair resolved in pass 2.
            return [("lui", (rd, "%hi:" + value)), ("oril", (rd, "%lo:" + value))]
        return [(mnemonic, tuple(operands))]

    @staticmethod
    def _arity(operands, count, lineno):
        if len(operands) != count:
            raise AssemblerError(
                "expected %d operands, got %d" % (count, len(operands)), lineno
            )

    # -- pass 1: layout ----------------------------------------------------

    def _layout(self, statements, labels_at, equs):
        """Addresses for every statement; returns the symbol table:
        labels, then the ``.equ`` constants."""
        labels = {}
        address = self.base
        addresses = []
        for stmt in statements:
            if stmt.kind == "org":
                target = stmt.operands[0]
                if target < address:
                    raise AssemblerError(".org moves backwards", stmt.line)
                if target % 4:
                    raise AssemblerError(".org target not word aligned", stmt.line)
                addresses.append(address)
                address = target
                continue
            if stmt.kind == "align":
                boundary = stmt.size
                padding = (boundary - address % boundary) % boundary
                stmt.address = address
                stmt.size = padding // 4
                addresses.append(address)
                address += padding
                continue
            stmt.address = address
            addresses.append(address)
            if stmt.kind == "word" or stmt.kind == "fixnum":
                stmt.size = len(stmt.operands)
            address += stmt.size * 4
        for label, index, _org in labels_at:
            if label in labels:
                raise AssemblerError("duplicate label %r" % label)
            if index < len(statements):
                # Skip org/align to the next emitting statement.
                j = index
                while j < len(statements) and statements[j].kind in ("org", "align"):
                    j += 1
                labels[label] = statements[j].address if j < len(statements) else address
            else:
                labels[label] = address
        for name, (value, lineno) in equs.items():
            if name in labels:
                raise AssemblerError("duplicate symbol %r" % name, lineno)
            labels[name] = value
        return labels

    # -- pass 2: emit --------------------------------------------------------

    def _emit(self, statements, labels):
        end = self.base
        for stmt in statements:
            if stmt.kind != "org":
                end = max(end, stmt.address + stmt.size * 4)
        words = [0] * ((end - self.base) // 4)
        source_map = {}
        for stmt in statements:
            if stmt.kind == "org":
                continue
            offset = (stmt.address - self.base) // 4
            if stmt.kind in ("space", "align"):
                continue
            if stmt.kind == "word":
                for k, operand in enumerate(stmt.operands):
                    words[offset + k] = self._resolve_value(operand, labels, stmt.line) & tags.WORD_MASK
            elif stmt.kind == "fixnum":
                for k, operand in enumerate(stmt.operands):
                    value = self._resolve_value(operand, labels, stmt.line)
                    words[offset + k] = tags.make_fixnum(value)
            else:
                instr = stmt.instr
                if stmt.value is not None:
                    instr.imm = self._immediate(stmt, labels)
                try:
                    words[offset] = encode(instr)
                except Exception as exc:
                    raise AssemblerError(str(exc), stmt.line)
                source_map[stmt.address] = (stmt.line, "%s %s" % (
                    stmt.mnemonic, ", ".join(stmt.operands)))
        return Program(self.base, words, labels, source_map)

    def _build(self, mnemonic, operands, lineno):
        """Pass 0: an instruction statement, read by its opcode's
        format — registers now, the immediate operand left in ``value``
        for pass 2."""
        op = _ALIAS_OPS.get(mnemonic) or _OPCODES_BY_NAME.get(mnemonic)
        if op is None:
            raise AssemblerError("unknown mnemonic %r" % mnemonic, lineno)
        kinds = ROWS[op].format.operands
        self._arity(operands, len(kinds), lineno)
        instr = Instruction(op)
        value = None
        for kind, text in zip(kinds, operands):
            if kind == "rd" or kind == "rs1":
                setattr(instr, kind, self._reg(text, lineno))
                continue
            if kind == "rhs":
                number = registers.register_number(text)
                if number is not None:
                    instr.rs2 = number
                    continue
            instr.use_imm = True
            if kind == "address":
                instr.rs1, value = self._address(text, lineno)
            elif kind in ("hilo", "target"):
                value = (kind, text)
            else:
                value = ("+", text)
        return _Statement("instr", lineno, mnemonic, operands, instr, value)

    def _immediate(self, stmt, labels):
        """Pass 2: the value of ``stmt``'s immediate operand."""
        how, text = stmt.value
        if how == "hilo":
            return self._resolve_hilo(text, labels, stmt.line)
        if how == "target":
            return self._branch_offset(text, stmt, labels)
        value = self._resolve_value(text, labels, stmt.line)
        return -value if how == "-" else value

    def _branch_offset(self, target, stmt, labels):
        """A branch target: a literal offset in instructions, or a label."""
        literal = self._try_int(target)
        if literal is not None:
            return literal
        if target not in labels:
            raise AssemblerError("unknown label %r" % target, stmt.line)
        delta = labels[target] - stmt.address
        if delta % 4:
            raise AssemblerError(
                "branch target %r not word aligned" % target, stmt.line)
        return delta >> 2

    # -- operand helpers -----------------------------------------------------

    def _reg(self, text, lineno):
        number = registers.register_number(text)
        if number is None:
            raise AssemblerError("expected register, got %r" % text, lineno)
        return number

    def _address(self, text, lineno):
        """``[reg+offset]`` / ``[reg-offset]`` / ``[reg]``: the base
        register and the offset still to resolve (``None``: 0)."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise AssemblerError("expected [base+offset], got %r" % text, lineno)
        inner = text[1:-1].strip()
        for sep in ("+", "-"):
            if sep in inner:
                base_text, _, offset_text = inner.partition(sep)
                return (self._reg(base_text.strip(), lineno),
                        (sep, offset_text.strip()))
        return self._reg(inner, lineno), None

    @staticmethod
    def _try_int(text):
        try:
            return int(text, 0)
        except ValueError:
            return None

    def _parse_int(self, text, lineno):
        value = self._try_int(text)
        if value is None:
            raise AssemblerError("expected integer, got %r" % text, lineno)
        return value

    def _resolve_value(self, text, labels, lineno):
        literal = self._try_int(text)
        if literal is not None:
            return literal
        if labels is not None and text in labels:
            return labels[text]
        raise AssemblerError("unresolved symbol %r" % text, lineno)

    def _resolve_hilo(self, text, labels, lineno):
        """Resolve a ``%hi:``/``%lo:`` operand from a ``set`` expansion."""
        if text.startswith("%hi:"):
            value = self._resolve_value(text[4:], labels, lineno) & tags.WORD_MASK
            return (value >> 14) & 0x3FFFF
        if text.startswith("%lo:"):
            value = self._resolve_value(text[4:], labels, lineno) & tags.WORD_MASK
            return value & 0x3FFF
        return self._resolve_value(text, labels, lineno)


def assemble(source, base=0):
    """Assemble source text at a base word address (module-level helper)."""
    return Assembler(base=base).assemble(source)
