"""APRIL register architecture (paper Section 3, Figure 2).

The user-visible processor state comprises four *task frames*, each a set
of 32 general-purpose registers plus a PC chain and a Processor State
Register, and a set of 8 *global* registers that are accessible
regardless of the active frame.  Only one task frame is active at a
time, designated by the frame pointer (FP).

Register names accepted by the assembler:

* ``r0`` .. ``r31``  — frame-relative registers of the *active* frame.
  ``r0`` is hardwired to zero (reads return 0, writes are discarded),
  which gives us NOP/MOV encodings for free.
* ``g0`` .. ``g7``  — the global registers (encoded as numbers 32..39).

Software conventions used by the Mul-T compiler and run-time system
(these are conventions, not hardware):

========= ========= ==================================================
Name      Register  Role
========= ========= ==================================================
``zero``  r0        hardwired zero
``sp``    r14       stack pointer (grows upward, byte-addressed)
``ra``    r15       return address (link register)
``a0-a3`` r2..r5    first four arguments / return value in ``a0``
``t0-t7`` r6..r13   caller-saved temporaries
``s0-s5`` r16..r21  callee-saved locals
``cl``    r22       callee's closure pointer
``gp``    g0        heap allocation pointer register (per processor)
``gl``    g1        heap allocation limit
``rt``    g2        scratch for run-time handlers
``nil``   g3        the ``()``/``#f`` singleton (fast null tests)
``true``  g4        the ``#t`` singleton
========= ========= ==================================================
"""

NUM_FRAME_REGISTERS = 32
NUM_GLOBAL_REGISTERS = 8
NUM_TASK_FRAMES = 4

#: Encoded register numbers: 0..31 frame-relative, 32..39 global.
GLOBAL_BASE = NUM_FRAME_REGISTERS
NUM_REGISTER_NAMES = NUM_FRAME_REGISTERS + NUM_GLOBAL_REGISTERS

ZERO = 0
SP = 14
RA = 15

#: Argument registers a0..a3 (a0 doubles as the return-value register).
ARG_REGS = (2, 3, 4, 5)
#: Caller-saved temporaries t0..t7.
TEMP_REGS = (6, 7, 8, 9, 10, 11, 12, 13)
#: Callee-saved locals s0..s5.
SAVED_REGS = (16, 17, 18, 19, 20, 21)

GP = GLOBAL_BASE + 0
GL = GLOBAL_BASE + 1
RT = GLOBAL_BASE + 2
NIL = GLOBAL_BASE + 3
TRUE = GLOBAL_BASE + 4

#: Closure register: callee finds its closure (captured environment) here.
CL = 22

_ALIASES = {
    "zero": ZERO,
    "sp": SP,
    "ra": RA,
    "cl": CL,
    "gp": GP,
    "gl": GL,
    "rt": RT,
    "nil": NIL,
    "true": TRUE,
}
for _i, _r in enumerate(ARG_REGS):
    _ALIASES["a%d" % _i] = _r
for _i, _r in enumerate(TEMP_REGS):
    _ALIASES["t%d" % _i] = _r
for _i, _r in enumerate(SAVED_REGS):
    _ALIASES["s%d" % _i] = _r


def register_number(name):
    """Parse a register name (``r5``, ``g2``, ``sp``...) to its number.

    Returns ``None`` if the name is not a register.
    """
    name = name.lower()
    if name in _ALIASES:
        return _ALIASES[name]
    if len(name) >= 2 and name[0] in "rg" and name[1:].isdigit():
        index = int(name[1:])
        if name[0] == "r" and 0 <= index < NUM_FRAME_REGISTERS:
            return index
        if name[0] == "g" and 0 <= index < NUM_GLOBAL_REGISTERS:
            return GLOBAL_BASE + index
    return None


def register_name(number):
    """Render an encoded register number as its canonical name."""
    if 0 <= number < NUM_FRAME_REGISTERS:
        return "r%d" % number
    if GLOBAL_BASE <= number < NUM_REGISTER_NAMES:
        return "g%d" % (number - GLOBAL_BASE)
    raise ValueError("invalid register number: %d" % number)
