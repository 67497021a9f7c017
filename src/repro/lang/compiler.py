"""The Mul-T compiler driver.

``compile_source`` takes Mul-T program text and produces a
:class:`CompiledProgram`: assembled APRIL code (with the run-time stubs
linked in) plus the metadata the machine needs to start it.

Compilation modes (the systems compared in Table 3):

=============== ======================= ====================================
mode            futures                 software checks
=============== ======================= ====================================
``sequential``  stripped (plain E)      off — the "T seq" column
``eager``       real tasks per future   off on APRIL / on for Encore
``lazy``        lazy task creation      off on APRIL
=============== ======================= ====================================

``software_checks=True`` adds the Encore Multimax configuration: inline
future-tag tests before every strict operand (no tag hardware).
"""

import threading

from repro.errors import CompilerError
from repro.isa.assembler import assemble
from repro.lang.analyzer import Analyzer
from repro.lang.codegen import CodeGenerator
from repro.lru import LRU

#: Library functions available to every program, written in Mul-T.
PRELUDE = """
(define (abs x) (if (< x 0) (- 0 x) x))
(define (min2 a b) (if (< a b) a b))
(define (max2 a b) (if (> a b) a b))
(define (even? n) (= (remainder n 2) 0))
(define (odd? n) (not (= (remainder n 2) 0)))
(define (list-length lst)
  (if (null? lst) 0 (+ 1 (list-length (cdr lst)))))
(define (list-ref lst k)
  (if (= k 0) (car lst) (list-ref (cdr lst) (- k 1))))
(define (reverse-onto l acc)
  (if (null? l) acc (reverse-onto (cdr l) (cons (car l) acc))))
(define (list-reverse l) (reverse-onto l '()))
(define (iota-from n k)
  (if (= k 0) '() (cons n (iota-from (+ n 1) (- k 1)))))
(define (iota k) (iota-from 0 k))
"""

MODES = ("sequential", "eager", "lazy")


class CompiledProgram:
    """A compiled, assembled Mul-T program."""

    def __init__(self, source, mode, software_checks, asm_source, program,
                 program_ast):
        self.source = source
        self.mode = mode
        self.software_checks = software_checks
        self.asm_source = asm_source
        self.program = program
        self.ast = program_ast
        #: Entry name -> the canonical JSON of the program block a job's
        #: content hash covers, filled by
        #: :func:`repro.exp.job.program_fragment`.  It rides the shared
        #: object through :data:`COMPILE_CACHE`, so each distinct
        #: program is encoded once per process.
        self.hash_fragments = {}

    def entry_label(self, name="main"):
        """Assembly label of a top-level function."""
        definition = self.ast.lookup(name)
        if definition is None or not definition.is_function:
            raise CompilerError("no top-level function named %s" % name)
        return definition.lam.label

    @property
    def wants_lazy_scheduling(self):
        """Machine configs must enable lazy stealing for this program."""
        return self.mode == "lazy"


#: The process-wide compile cache: :class:`CompiledProgram` by every
#: :func:`compile_source` argument.  Sweeps are grids of cells over a
#: handful of programs, and every cell needs the compiled words twice
#: (content hash, then run), so each distinct program costs one
#: compilation per process.  A hit hands back the same object, which
#: is sound because nothing outside the assembler writes a
#: ``Program``'s words/labels/source map — the machine copies the
#: words into its own memory bank.  64 programs is several sweeps'
#: worth of (program, mode, checks) variants at well under a megabyte
#: each.
COMPILE_CACHE = LRU(64)

# One compile at a time: a key compiles once even when serve's thread
# dispatch mode asks for it from several threads, and the lock guards
# the cache's LRU order and counters.
_COMPILE_LOCK = threading.Lock()


def compile_source(source, mode="eager", software_checks=False,
                   include_prelude=True, optimize=False):
    """Compile Mul-T source text into a :class:`CompiledProgram`.

    ``optimize=True`` runs the postpass branch-delay-slot filler
    (:mod:`repro.isa.optimizer`) over the generated assembly.

    Answers from :data:`COMPILE_CACHE` when the same arguments were
    compiled before in this process; the returned object is shared, so
    treat it as read-only.
    """
    if mode not in MODES:
        raise CompilerError("unknown compilation mode %r" % mode)
    key = (source, mode, software_checks, include_prelude, optimize)
    with _COMPILE_LOCK:
        compiled = COMPILE_CACHE.get(key)
        if compiled is None:
            compiled = _compile(*key)
            COMPILE_CACHE.put(key, compiled)
    return compiled


def _compile(source, mode, software_checks, include_prelude, optimize):
    full_source = (PRELUDE + source) if include_prelude else source
    analyzer = Analyzer(strip_futures=(mode == "sequential"),
                        lazy_futures=(mode == "lazy"))
    program_ast = analyzer.analyze_program(full_source)
    generator = CodeGenerator(
        program_ast,
        lazy_futures=(mode == "lazy"),
        software_checks=software_checks,
    )
    asm_source = generator.generate()
    if optimize:
        from repro.isa.optimizer import assemble_optimized
        program = assemble_optimized(asm_source)
    else:
        program = assemble(asm_source)
    return CompiledProgram(
        source, mode, software_checks, asm_source, program, program_ast)
