"""Byte-identity pins for the ISA tools.

Two sha256 digests, computed before the encoder, decoder, disassembler
and assembler were rebuilt around the opcode table's ``format`` column
and never re-pinned since:

* **Word corpus.** For every opcode byte 0..255, the all-zero and
  all-one 24-bit payloads plus 32 payloads from ``random.Random(byte)``.
  Per word: ``repr(decode(w))``, ``disassemble_word(w)`` and
  ``encode(decode(w))``, or the type name of what the call raised.
* **Compiled words.** ``program.words`` of every workload in
  :data:`repro.workloads.ALL`, in every compilation mode, with and
  without the delay-slot filler.

A change that means to alter what the tools produce re-pins the digest
and says why; a failure here otherwise means a reader of the format
column drifted from what the per-category code did.
"""

import hashlib
import random

from repro import workloads
from repro.isa.disassembler import disassemble_word
from repro.isa.encoding import decode, encode
from repro.lang import compiler
from repro.lang.compiler import MODES, compile_source
from repro.lru import LRU

WORD_CORPUS_SHA256 = (
    "c6968449e420a3e55ac47a4be07f34349fb7d367e40b124fcb9a804c2c527715")
COMPILED_WORDS_SHA256 = (
    "b98b4a9577f7ec14f0aff911a8d2bb32d48d0e56ac49deedf8e6f0eaf2b6d2fe")


def _outcome(call, word):
    try:
        return str(call(word))
    except Exception as exc:   # the kind of failure is part of the pin
        return type(exc).__name__


def corpus_words():
    """Every opcode byte with 34 payloads each, in a fixed order."""
    for byte in range(256):
        rng = random.Random(byte)
        payloads = [0, 0xFFFFFF] + [rng.getrandbits(24) for _ in range(32)]
        for payload in payloads:
            yield (byte << 24) | payload


def word_corpus_digest():
    digest = hashlib.sha256()
    for word in corpus_words():
        line = "%08x|%s|%s|%s\n" % (
            word,
            _outcome(lambda w: repr(decode(w)), word),
            _outcome(disassemble_word, word),
            _outcome(lambda w: encode(decode(w)), word))
        digest.update(line.encode())
    return digest.hexdigest()


def compiled_words_digest():
    digest = hashlib.sha256()
    for module in workloads.ALL:
        for mode in MODES:
            for optimize in (False, True):
                program = compile_source(module.source(), mode=mode,
                                         optimize=optimize).program
                digest.update(("%s|%s|%s|%d|" % (
                    module.NAME, mode, optimize, program.base)).encode())
                digest.update(",".join("%08x" % w for w in program.words)
                              .encode() + b"\n")
    return digest.hexdigest()


class TestByteIdentity:
    def test_word_corpus(self):
        assert word_corpus_digest() == WORD_CORPUS_SHA256

    def test_compiled_words(self, monkeypatch):
        # A cache of its own, so the process-wide one's hit and miss
        # counts stay what the compile-cache tests expect.
        monkeypatch.setattr(compiler, "COMPILE_CACHE", LRU(64))
        assert compiled_words_digest() == COMPILED_WORDS_SHA256
