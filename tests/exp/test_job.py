"""Job specs: content hashing, payloads, pickling."""

import pickle

import pytest

from repro.baselines.encore import encore_config
from repro.exp import job as job_module
from repro.exp.job import SCHEMA_VERSION, CallJob, Job, canonical_json
from repro.lang.compiler import COMPILE_CACHE
from repro.machine.config import MachineConfig
from repro import workloads

FIB = workloads.get("fib").source()
TWO_ENTRIES = """
(define (add3 a b c) (+ a (+ b c)))
(define (main) (add3 1 2 3))
"""


def fib_job(**overrides):
    kwargs = dict(key=("t", "fib"), source=FIB, mode="eager",
                  config=MachineConfig(num_processors=2), args=(7,))
    kwargs.update(overrides)
    return Job(**kwargs)


class TestContentHash:
    def test_stable_across_instances(self):
        assert fib_job().content_hash() == fib_job().content_hash()

    def test_stable_across_compile_order(self):
        # Gensym label names depend on how many programs compiled
        # earlier in the process; the hash must not.
        first = fib_job().content_hash()
        Job(("other",), workloads.get("queens").source()).content_hash()
        assert fib_job().content_hash() == first

    def test_key_not_part_of_hash(self):
        assert (fib_job(key=("a",)).content_hash()
                == fib_job(key=("b",)).content_hash())

    def test_config_knob_changes_hash(self):
        base = fib_job()
        other = fib_job(config=MachineConfig(num_processors=4))
        assert base.content_hash() != other.content_hash()
        knob = fib_job(config=MachineConfig(num_processors=2,
                                            touch_spin_limit=0))
        assert base.content_hash() != knob.content_hash()

    def test_args_and_budget_change_hash(self):
        base = fib_job()
        assert base.content_hash() != fib_job(args=(8,)).content_hash()
        assert (base.content_hash()
                != fib_job(max_cycles=1000).content_hash())

    def test_mode_changes_hash_via_compiled_words(self):
        assert (fib_job(mode="eager").content_hash()
                != fib_job(mode="sequential").content_hash())

    def test_schema_version_in_hash(self, monkeypatch):
        base = fib_job().content_hash()
        monkeypatch.setattr("repro.exp.job.SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        assert fib_job().content_hash() != base

    def test_source_reformat_same_words_same_hash(self):
        # Same program, different whitespace: assembles to identical
        # words, so cached results remain valid.
        reformatted = FIB.replace("\n", "\n ")
        assert (fib_job().content_hash()
                == fib_job(source=reformatted).content_hash())


def whole_dict_hash(job):
    """The content hash as one ``_digest`` of the whole hash input —
    the form :meth:`Job.content_hash` splices together."""
    compiled = job.compiled()
    program = compiled.program
    return job_module._digest({
        "schema": job_module.SCHEMA_VERSION,
        "kind": job.kind,
        "program": {
            "base": program.base,
            "words": list(program.words),
            "entry": program.labels[compiled.entry_label(job.entry)],
        },
        "config": job.config.to_dict(),
        "args": list(job.args),
        "max_cycles": job.max_cycles,
    })


HASH_MATRIX = {
    "sequential": dict(mode="sequential"),
    "eager": dict(mode="eager"),
    "lazy": dict(mode="lazy",
                 config=MachineConfig(num_processors=4, lazy_futures=True)),
    "software-checks": dict(software_checks=True, config=encore_config(2)),
    "optimize": dict(optimize=True),
    "other-entry": dict(source=TWO_ENTRIES, entry="add3", args=(4, 5, 6)),
    "prelude-entry": dict(entry="abs", args=(-3,)),
    "no-args": dict(source=TWO_ENTRIES, args=()),
    "coherent": dict(config=MachineConfig(num_processors=4,
                                          memory_mode="coherent")),
    "encore": dict(mode="sequential", config=encore_config(1)),
    "max-cycles-nonce": dict(max_cycles=400_000_000 + 8 * 12345 + 3),
}


class TestHashSplice:
    """``content_hash`` splices a memoised program fragment into the
    encoding of the cell's own fields; the bytes hashed must be those
    of ``canonical_json`` over the whole input, for every kind of
    cell."""

    @pytest.mark.parametrize("case", sorted(HASH_MATRIX))
    def test_spliced_hash_equals_whole_dict_hash(self, case):
        job = fib_job(**HASH_MATRIX[case])
        assert job.content_hash() == whole_dict_hash(job)

    def test_cells_of_one_program_share_one_fragment(self, monkeypatch):
        built = []
        encode = job_module._encode_program
        monkeypatch.setattr(job_module, "_encode_program",
                            lambda *a: built.append(a) or encode(*a))
        COMPILE_CACHE.clear()
        hashes = {fib_job(args=(n,)).content_hash() for n in range(6)}
        assert len(hashes) == 6
        assert len(built) == 1
        # Another entry point of the same program is its own fragment.
        fib_job(entry="abs", args=(1,)).content_hash()
        assert len(built) == 2

    def test_schema_is_read_at_hash_time(self, monkeypatch):
        job = fib_job()
        job.content_hash()                  # fragment memoised
        monkeypatch.setattr(job_module, "SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        bumped = fib_job()
        assert bumped.content_hash() == whole_dict_hash(bumped)
        assert bumped.content_hash() != job.content_hash()

    def test_unknown_entry_raises_and_memoises_nothing(self):
        from repro.errors import CompilerError
        job = fib_job(entry="no-such-function")
        with pytest.raises(CompilerError):
            job.content_hash()
        assert "no-such-function" not in job.compiled().hash_fragments


class TestPayloadAndPickle:
    def test_payload_is_plain_data(self):
        payload = fib_job(expect=13).payload()
        canonical_json(payload)          # JSON-serializable
        assert payload["kind"] == "mult"
        assert payload["args"] == [7]
        assert payload["expect"] == 13
        assert payload["config"]["num_processors"] == 2

    def test_pickle_drops_compiled_program(self):
        # A job is plain data: hashing it leaves no compiled program
        # on it, so the pickle a worker receives is the spec alone.
        job = fib_job()
        expected = job.content_hash()
        blob = pickle.dumps(job)
        assert len(blob) < 2 * len(FIB) + 2048
        assert pickle.loads(blob).content_hash() == expected
        # An unhashed job recomputes the same hash on the other side,
        # even when that process has compiled nothing yet.
        unhashed = pickle.dumps(fib_job())
        COMPILE_CACHE.clear()
        assert pickle.loads(unhashed).content_hash() == expected

    def test_label(self):
        assert fib_job(key=("table3", "fib", 4)).label == "table3/fib/4"

    def test_scalar_key_wrapped(self):
        assert fib_job(key="solo").key == ("solo",)


class TestCallJob:
    def test_hash_covers_target(self):
        a = CallJob(("b",), "mod", "f", kwargs={"quick": True})
        b = CallJob(("b",), "mod", "f", kwargs={"quick": False})
        c = CallJob(("b",), "mod", "g", kwargs={"quick": True})
        assert len({a.content_hash(), b.content_hash(),
                    c.content_hash()}) == 3

    def test_not_cacheable_by_default(self):
        assert CallJob(("b",), "mod", "f").cacheable is False
        assert fib_job().cacheable is True

    def test_payload(self):
        payload = CallJob(("b",), "mod", "f", kwargs={"x": 1}).payload()
        assert payload == {"kind": "call", "module": "mod", "func": "f",
                           "kwargs": {"x": 1}}


def test_mult_and_call_hashes_distinct():
    # Different kinds can never collide on the schema field layout.
    assert fib_job().content_hash() != CallJob(
        ("t", "fib"), "mod", "f").content_hash()


def test_canonical_json_is_byte_stable():
    assert (canonical_json({"b": 1, "a": [1, 2]})
            == '{"a":[1,2],"b":1}')
    with pytest.raises(TypeError):
        canonical_json({"bad": object()})
