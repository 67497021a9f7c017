"""Tagged heap allocation for the APRIL run-time system.

The Mul-T heap holds cons cells, vectors, closures, and future value
cells, all 8-byte aligned so their pointers can carry the Figure 3 tags.
Allocation is bump-pointer per processor: each node owns an *arena* (a
slice of the shared address space) and compiled code allocates inline
from the ``gp``/``gl`` global registers; the run-time system uses the
same arenas for futures, thread stacks and descriptors.

Object layouts (word offsets from the untagged base address):

* **cons** — ``[0]`` car, ``[1]`` cdr.  No header: the tag is the type.
* **vector** — ``[0]`` header, ``[1..n]`` elements.
* **closure** — ``[0]`` header, ``[1]`` code entry address (raw),
  ``[2..]`` captured values.
* **future cell** — ``[0]`` value slot, *full/empty bit starts empty*;
  ``[1]`` state word.  "The future is resolved if the full/empty bit of
  the future's value slot is set to full" (paper Section 6.2).

Headers are raw words: ``(length << 8) | type_code``.  Booleans and the
empty list are distinguished static objects allocated once per machine:
``#f`` and ``()`` are the same object (classic Lisp), ``#t`` is another.
"""

from repro.errors import RuntimeSystemError
from repro.isa import tags

#: Header type codes.
TYPE_VECTOR = 1
TYPE_CLOSURE = 2
TYPE_FUTURE = 3
TYPE_SINGLETON = 4
TYPE_STRING = 5

#: Word offsets within a future cell.
FUTURE_VALUE_SLOT = 0
FUTURE_STATE_SLOT = 1
FUTURE_STATE_UNRESOLVED = 0
FUTURE_STATE_RESOLVED = 1
_UNRESOLVED = tags.make_fixnum(FUTURE_STATE_UNRESOLVED)

#: Byte displacement that cancels each pointer tag when addressing the
#: object's base word, e.g. ``ld [consptr + CAR_OFF], rd``.
CAR_OFF = -tags.TAG_CONS
CDR_OFF = 4 - tags.TAG_CONS
VECTOR_HEADER_OFF = -tags.TAG_OTHER
VECTOR_ELEM_OFF = 4 - tags.TAG_OTHER          # element 0
CLOSURE_CODE_OFF = 4 - tags.TAG_OTHER
CLOSURE_CAPTURE_OFF = 8 - tags.TAG_OTHER      # capture 0
FUTURE_VALUE_OFF = -tags.TAG_FUTURE


def make_header(type_code, length):
    """Build a raw header word."""
    return ((length << 8) | type_code) & tags.WORD_MASK


def header_type(word):
    """Type code of a header word."""
    return word & 0xFF


def header_length(word):
    """Payload length (in words) of a header word."""
    return (word >> 8) & 0xFFFFFF


class Arena:
    """A bump-pointer allocation region inside the shared memory.

    Compiled code allocates with the same discipline through the
    ``gp``/``gl`` registers; the run-time keeps ``pointer`` in sync with
    the processor's ``gp`` when both allocate from one arena.
    """

    def __init__(self, memory, base, limit):
        if base % tags.OBJECT_ALIGN or limit % tags.OBJECT_ALIGN:
            raise RuntimeSystemError("arena bounds must be 8-byte aligned")
        if limit <= base:
            raise RuntimeSystemError("empty arena [%#x, %#x)" % (base, limit))
        self.memory = memory
        self.base = base
        self.limit = limit
        self.pointer = base

    @property
    def free_words(self):
        return (self.limit - self.pointer) // 4

    def allocate(self, nwords):
        """Reserve ``nwords`` (rounded up to 8-byte multiples).

        Returns the byte address of the block.  Raises on exhaustion —
        the reproduction runs without a garbage collector, so arenas are
        sized generously and exhaustion is a configuration error.
        """
        nbytes = ((nwords * 4 + tags.OBJECT_ALIGN - 1)
                  // tags.OBJECT_ALIGN) * tags.OBJECT_ALIGN
        address = self.pointer
        if address + nbytes > self.limit:
            raise RuntimeSystemError(
                "arena exhausted: need %d bytes, %d left (grow heap_words)"
                % (nbytes, self.limit - address)
            )
        self.pointer = address + nbytes
        return address


class Heap:
    """Typed object allocation over an :class:`Arena`."""

    def __init__(self, arena):
        self.arena = arena
        self.memory = arena.memory

    # -- constructors ------------------------------------------------------

    def cons(self, car, cdr):
        """Allocate a pair; returns the cons-tagged pointer."""
        address = self.arena.allocate(2)
        self.memory.write_word(address, car)
        self.memory.write_word(address + 4, cdr)
        return tags.make_cons(address)

    def vector(self, length, fill=0):
        """Allocate a vector of ``length`` elements; other-tagged."""
        if length < 0:
            raise RuntimeSystemError("negative vector length")
        address = self.arena.allocate(length + 1)
        self.memory.write_word(address, make_header(TYPE_VECTOR, length))
        for i in range(length):
            self.memory.write_word(address + 4 * (i + 1), fill)
        return tags.make_other(address)

    def closure(self, code_address, captures=()):
        """Allocate a closure over ``captures``; other-tagged."""
        address = self.arena.allocate(2 + len(captures))
        self.memory.write_word(address, make_header(TYPE_CLOSURE, len(captures)))
        self.memory.write_word(address + 4, code_address)
        for i, value in enumerate(captures):
            self.memory.write_word(address + 8 + 4 * i, value)
        return tags.make_other(address)

    def future_cell(self):
        """Allocate an unresolved future; returns the future-tagged pointer.

        The value slot's full/empty bit starts *empty*: a strict consumer
        that reaches it before resolution synchronizes on that bit.
        """
        address = self.arena.allocate(2)
        self.memory.new_cell(address, _UNRESOLVED)
        # An arena address is an aligned word in the bank (new_cell
        # checked the bank): make_future's checks hold.
        return address | tags.TAG_FUTURE

    def singleton(self, code):
        """Allocate a distinguished static object (``()``/``#f``, ``#t``)."""
        address = self.arena.allocate(2)
        self.memory.write_word(address, make_header(TYPE_SINGLETON, code))
        self.memory.write_word(address + 4, 0)
        return tags.make_other(address)

    def string(self, text):
        """Allocate a string as one char per word (simple, debug-friendly)."""
        address = self.arena.allocate(len(text) + 1)
        self.memory.write_word(address, make_header(TYPE_STRING, len(text)))
        for i, ch in enumerate(text):
            self.memory.write_word(address + 4 * (i + 1), ord(ch))
        return tags.make_other(address)

    # -- accessors (run-time side; compiled code uses inline loads) --------

    def car(self, pair):
        return self.memory.read_word(tags.pointer_address(pair))

    def cdr(self, pair):
        return self.memory.read_word(tags.pointer_address(pair) + 4)

    def set_car(self, pair, value):
        self.memory.write_word(tags.pointer_address(pair), value)

    def set_cdr(self, pair, value):
        self.memory.write_word(tags.pointer_address(pair) + 4, value)

    def vector_length(self, vec):
        return header_length(self.memory.read_word(tags.pointer_address(vec)))

    def vector_ref(self, vec, index):
        self._check_index(vec, index)
        return self.memory.read_word(tags.pointer_address(vec) + 4 * (index + 1))

    def vector_set(self, vec, index, value):
        self._check_index(vec, index)
        self.memory.write_word(
            tags.pointer_address(vec) + 4 * (index + 1), value)

    def _check_index(self, vec, index):
        length = self.vector_length(vec)
        if not 0 <= index < length:
            raise RuntimeSystemError(
                "vector index %d out of range [0, %d)" % (index, length))

    def closure_code(self, clo):
        return self.memory.read_word(tags.pointer_address(clo) + 4)

    def closure_capture(self, clo, index):
        return self.memory.read_word(tags.pointer_address(clo) + 8 + 4 * index)

    # -- future cells ------------------------------------------------------------

    def future_is_resolved(self, future):
        """Test the value slot's full/empty bit (the paper's check)."""
        return self.memory.is_full(tags.pointer_address(future))

    def future_value(self, future):
        address = tags.pointer_address(future)
        if not self.memory.is_full(address):
            raise RuntimeSystemError("reading unresolved future @%#x" % address)
        return self.memory.read_word(address)

    def resolve_future(self, future, value):
        """Store the value and set the slot full (resolving the future)."""
        address = tags.pointer_address(future)
        if self.memory.is_full(address):
            raise RuntimeSystemError(
                "future @%#x resolved twice" % address)
        self.memory.write_word(address, value)
        self.memory.set_full(address, True)
        self.memory.write_word(
            address + 4, tags.make_fixnum(FUTURE_STATE_RESOLVED))

    # -- Python <-> simulated data conversion (tests, harness, printing) ----

    def from_python(self, obj, false_object=None, true_object=None):
        """Build a tagged value from a Python int / bool / list / tuple."""
        if isinstance(obj, bool):
            if false_object is None or true_object is None:
                raise RuntimeSystemError("boolean conversion needs singletons")
            return true_object if obj else false_object
        if isinstance(obj, int):
            return tags.make_fixnum(obj)
        if isinstance(obj, (list, tuple)):
            if false_object is None:
                raise RuntimeSystemError("list conversion needs nil singleton")
            result = false_object
            for item in reversed(obj):
                result = self.cons(
                    self.from_python(item, false_object, true_object), result)
            return result
        raise RuntimeSystemError("cannot convert %r to a tagged value" % (obj,))

    def to_python(self, word, false_object=None, true_object=None, depth=0):
        """Decode a tagged value into Python data (for assertions)."""
        if depth > 10000:
            raise RuntimeSystemError("cyclic or too-deep structure")
        if false_object is not None and word == false_object:
            return []
        if true_object is not None and word == true_object:
            return True
        if tags.is_fixnum(word):
            return tags.fixnum_value(word)
        if tags.is_cons(word):
            items = []
            while tags.is_cons(word):
                items.append(self.to_python(
                    self.car(word), false_object, true_object, depth + 1))
                word = self.cdr(word)
                depth += 1
            return items
        if tags.is_future(word):
            if self.future_is_resolved(word):
                return self.to_python(
                    self.future_value(word), false_object, true_object,
                    depth + 1)
            return "<unresolved future>"
        if tags.is_other(word):
            header = self.memory.read_word(tags.pointer_address(word))
            kind = header_type(header)
            if kind == TYPE_VECTOR:
                return [
                    self.to_python(self.vector_ref(word, i),
                                   false_object, true_object, depth + 1)
                    for i in range(self.vector_length(word))
                ]
            if kind == TYPE_STRING:
                base = tags.pointer_address(word)
                return "".join(
                    chr(self.memory.read_word(base + 4 * (i + 1)))
                    for i in range(header_length(header))
                )
            if kind == TYPE_CLOSURE:
                return "<closure@%d>" % tags.pointer_address(word)
            if kind == TYPE_SINGLETON:
                return "<singleton:%d>" % header_length(header)
        return "<raw:%#010x>" % word
