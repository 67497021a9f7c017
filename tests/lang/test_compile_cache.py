"""The process-wide compile cache: identity on a hit, every argument
in the key, the bound, and the read-only contract that makes sharing
one ``CompiledProgram`` between runs sound.  The cache is a
:class:`repro.lru.LRU` (``tests/test_lru.py`` covers the class)."""

import pytest

from repro.errors import CompilerError
from repro.harness.table3 import SYSTEMS, row_jobs
from repro.lang import compiler
from repro.lang.compiler import COMPILE_CACHE, compile_source
from repro.lru import LRU
from repro.machine.alewife import run_program
from repro.machine.config import MachineConfig
from repro import workloads

FIB = workloads.get("fib").source()


@pytest.fixture(autouse=True)
def own_cache(monkeypatch):
    """A compile cache of this module's own, so what modules run
    earlier in the process compiled cannot turn an expected miss into
    a hit."""
    cache = LRU(COMPILE_CACHE.capacity)
    monkeypatch.setattr(compiler, "COMPILE_CACHE", cache)
    monkeypatch.setitem(globals(), "COMPILE_CACHE", cache)


def test_hit_is_the_identical_object():
    first = compile_source(FIB, mode="eager")
    before = COMPILE_CACHE.counters()
    assert compile_source(FIB, mode="eager") is first
    after = COMPILE_CACHE.counters()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


@pytest.mark.parametrize("changed", [
    {"source": FIB + "\n"},
    {"mode": "lazy"},
    {"mode": "sequential"},
    {"software_checks": True},
    {"include_prelude": False},
    {"optimize": True},
])
def test_any_differing_argument_misses(changed):
    kwargs = dict(source=FIB, mode="eager", software_checks=False,
                  include_prelude=True, optimize=False)
    baseline = compile_source(**kwargs)
    kwargs.update(changed)
    before = COMPILE_CACHE.counters()["misses"]
    other = compile_source(**kwargs)
    assert other is not baseline
    assert COMPILE_CACHE.counters()["misses"] == before + 1
    assert compile_source(**kwargs) is other


def test_failed_compile_is_not_cached():
    for _ in range(2):
        with pytest.raises(CompilerError):
            compile_source("(define (main) (undefined-function 1))")
    with pytest.raises(CompilerError):
        compile_source(FIB, mode="bogus")


def test_lru_bound_evicts_least_recently_used():
    cache = type(COMPILE_CACHE)(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refreshes "a"
    cache.put("c", 3)                   # evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.counters() == {"hits": 3, "misses": 1, "size": 2}


def test_process_cache_stays_bounded():
    for n in range(COMPILE_CACHE.capacity + 3):
        compile_source("(define (main) %d)" % n, include_prelude=False)
    assert COMPILE_CACHE.counters()["size"] == COMPILE_CACHE.capacity


def test_table3_fib_cells_hash_identically_cold_and_warm():
    def hashes():
        fib = workloads.get("fib")
        return [job.content_hash() for system in SYSTEMS
                for job in row_jobs(fib, system)]

    COMPILE_CACHE.clear()
    cold = hashes()
    misses = COMPILE_CACHE.counters()["misses"]
    warm = hashes()
    assert len(cold) == 20
    assert warm == cold
    assert COMPILE_CACHE.counters()["misses"] == misses    # all reused


def test_mult_run_leaves_program_words_unchanged():
    compiled = compile_source(FIB, mode="eager")
    words = list(compiled.program.words)
    labels = dict(compiled.program.labels)
    for _ in range(2):
        result = run_program(compiled.program,
                             MachineConfig(num_processors=2),
                             entry=compiled.entry_label("main"), args=(7,))
        assert result.value == 13
    assert compiled.program.words == words
    assert compiled.program.labels == labels
