"""APRIL data type encodings (paper Figure 3).

APRIL words are 32 bits wide and carry their type in the low-order bits,
as in the Berkeley SPUR processor:

======== ============ ==========================================
Type     Low bits     Payload
======== ============ ==========================================
Fixnum   ``00``       signed 30-bit integer in the high 30 bits
Other    ``010``      8-byte-aligned pointer (vectors, closures)
Cons     ``110``      8-byte-aligned pointer to a pair
Future   ``101``      8-byte-aligned pointer to a future cell
======== ============ ==========================================

The crucial property (paper Section 4): *future pointers are detected by
their non-zero least significant bit*.  Compute instructions trap when an
operand has bit 0 set; memory instructions trap when an address operand
has bit 0 set.  Fixnum arithmetic operates directly on the tagged
representation because ``(a << 2) + (b << 2) == (a + b) << 2``.

Addresses are *byte* addresses (words live at multiples of 4).  Heap
objects are 8-byte aligned — "object allocation at word boundaries is
favored for other reasons" [11] — so the low three bits of a pointer are
free to hold the tag, and a tagged pointer is simply ``address | tag``.
Compiled code addresses a field of an object with a displacement that
cancels the tag, e.g. ``ld [consptr + (4 - TAG_CONS)], rd`` fetches the
cdr of a pair.
"""

from repro.errors import TagError

WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF
BYTES_PER_WORD = 4
OBJECT_ALIGN = 8

#: Low-bit tag values from Figure 3 of the paper.
TAG_FIXNUM = 0b00   # two-bit tag; any word with low bits 00
TAG_OTHER = 0b010
TAG_CONS = 0b110
TAG_FUTURE = 0b101

#: Mask covering a three-bit pointer tag.
PTR_TAG_MASK = 0b111

#: Mask covering a tagged pointer's address bits.
ADDRESS_MASK = ~PTR_TAG_MASK & WORD_MASK

FIXNUM_MIN = -(1 << 29)
FIXNUM_MAX = (1 << 29) - 1

_TAG_NAMES = {
    TAG_OTHER: "other",
    TAG_CONS: "cons",
    TAG_FUTURE: "future",
}


def make_fixnum(value):
    """Encode a Python int as an APRIL fixnum word.

    Raises :class:`TagError` if the value does not fit in 30 signed bits.
    """
    if not FIXNUM_MIN <= value <= FIXNUM_MAX:
        raise TagError("fixnum out of range: %d" % value)
    return (value << 2) & WORD_MASK


def fixnum_value(word):
    """Decode a fixnum word into a signed Python int."""
    if word & 0b11:
        raise TagError("not a fixnum: %#010x" % word)
    value = word >> 2
    if value > (1 << 29) - 1:
        value -= 1 << 30
    return value


def is_fixnum(word):
    """True if the word carries the fixnum tag (low two bits ``00``)."""
    return (word & 0b11) == 0


def make_pointer(tag, address):
    """Encode an 8-byte-aligned byte address with a three-bit tag."""
    if tag not in _TAG_NAMES:
        raise TagError("invalid pointer tag: %#o" % tag)
    if address < 0 or address > WORD_MASK:
        raise TagError("address out of range: %d" % address)
    if address % OBJECT_ALIGN:
        raise TagError("pointer target not 8-byte aligned: %d" % address)
    return address | tag


def pointer_address(word):
    """Recover the 8-byte-aligned byte address from a tagged pointer."""
    return word & ADDRESS_MASK


def pointer_tag(word):
    """Return the three-bit tag of a pointer word."""
    return word & PTR_TAG_MASK


def is_pointer(word):
    """True if the word carries any pointer tag (other/cons/future)."""
    return (word & PTR_TAG_MASK) in _TAG_NAMES


def is_future(word):
    """True if this word is a future pointer.

    Per the paper, futures are recognized by a set least-significant bit;
    of the defined encodings only ``101`` has bit 0 set.
    """
    return (word & PTR_TAG_MASK) == TAG_FUTURE


def has_future_lsb(word):
    """The hardware future-detection predicate: is bit 0 set?

    This is what the modified non-fixnum trap on SPARC tests (Section 5):
    it fires on *any* word whose lowest bit is set, which by construction
    is exactly the future tag.
    """
    return bool(word & 1)


def make_cons(address):
    """Encode a cons (pair) pointer."""
    return make_pointer(TAG_CONS, address)


def make_other(address):
    """Encode an 'other' pointer (vector, closure, string...)."""
    return make_pointer(TAG_OTHER, address)


def make_future(address):
    """Encode a future pointer."""
    return make_pointer(TAG_FUTURE, address)


def is_cons(word):
    """True for cons-tagged words."""
    return (word & PTR_TAG_MASK) == TAG_CONS


def is_other(word):
    """True for other-tagged words."""
    return (word & PTR_TAG_MASK) == TAG_OTHER


def tag_name(word):
    """Human-readable type name of a tagged word."""
    if is_fixnum(word):
        return "fixnum"
    return _TAG_NAMES.get(word & PTR_TAG_MASK, "untagged")


def describe(word):
    """Render a tagged word for debugging, e.g. ``fixnum(42)``."""
    if is_fixnum(word):
        return "fixnum(%d)" % fixnum_value(word)
    if is_pointer(word):
        return "%s@%d" % (tag_name(word), pointer_address(word))
    return "raw(%#010x)" % word
