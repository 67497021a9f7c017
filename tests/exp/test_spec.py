"""Sweep specs and the deterministic merged output."""

import json

import pytest

from repro.errors import SweepSpecError
from repro.exp.runner import run_jobs
from repro.exp.spec import (
    expand_spec, load_spec, merged_output, render_output, validate_spec,
)


def smoke_spec():
    return {
        "name": "smoke",
        "grid": {
            "programs": ["fib"],
            "systems": ["APRIL", "Apr-lazy"],
            "cpus": [1, 2],
            "args": {"fib": [7]},
        },
    }


class TestValidation:
    def test_good_spec_passes(self):
        validate_spec(smoke_spec())

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda s: s.pop("grid"), "grid"),
        (lambda s: s["grid"].update(programs=[]), "programs"),
        (lambda s: s["grid"].update(programs=["nope"]), "unknown program"),
        (lambda s: s["grid"].update(systems=["VAX"]), "unknown system"),
        (lambda s: s["grid"].update(cpus=[0]), "cpus"),
        (lambda s: s["grid"].update(cpus="4"), "cpus"),
        (lambda s: s["grid"].update(args=[1]), "args"),
        (lambda s: s.update(config=[1]), "config"),
    ])
    def test_bad_specs_raise(self, mutate, fragment):
        spec = smoke_spec()
        mutate(spec)
        with pytest.raises(SweepSpecError, match=fragment):
            validate_spec(spec)

    def test_load_spec_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(SweepSpecError, match="valid JSON"):
            load_spec(str(path))

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(SweepSpecError, match="cannot read"):
            load_spec(str(tmp_path / "absent.json"))

    def test_load_spec_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(smoke_spec()))
        assert load_spec(str(path))["name"] == "smoke"


class TestBadCellsFailBeforeAnyRuns:
    """A grid whose cells cannot build is refused by ``expand_spec``,
    before any cell runs — not left to fail cell by cell."""

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda s: s.update(config={"bogus_knob": 1}), "bogus_knob"),
        (lambda s: s.update(config={"num_task_frames": 0}), "task frame"),
        (lambda s: s.update(config={"num_processors": 2}),
         "config.num_processors"),
        (lambda s: s["grid"].update(args={"fib": "x"}), "args"),
        (lambda s: s["grid"].update(args={"fib": [7, "8"]}), "args"),
        (lambda s: s.update(max_cycles=-5), "max_cycles"),
        (lambda s: s.update(max_cycles=0), "max_cycles"),
        # Once a worker that hung building the machine.
        (lambda s: s.update(config={"memory_mode": "coherent",
                                    "network_dim": 0}),
         "bad config: network_dim"),
        # Once accepted, and a TypeError in the worker.
        (lambda s: s.update(config={"memory_mode": "coherent",
                                    "network_dim": 1.5}),
         "bad config: network_dim must be an integer"),
        (lambda s: s.update(config={"cache_assoc": True}),
         "bad config: cache_assoc must be an integer"),
        (lambda s: s.update(config={"touch_spin_limit": "2"}),
         "bad config: touch_spin_limit must be an integer"),
    ], ids=["unknown-knob", "no-task-frames", "num-processors",
            "args-not-a-list", "args-not-ints", "negative-max-cycles",
            "zero-max-cycles", "zero-dimensional-network",
            "fractional-network", "flag-for-a-count", "string-for-a-count"])
    def test_expand_spec_raises(self, mutate, fragment):
        spec = smoke_spec()
        mutate(spec)
        with pytest.raises(SweepSpecError, match=fragment):
            expand_spec(spec)


#: Keys and content hashes of accepted specs, computed before the
#: job-spec checks moved into one module.
GRID_PINS = [
    (("smoke", "fib", "APRIL", "parallel", 1),
     "6540202ddb5352a4e0e0c9ba4c2b0931044e04453ed62fc8e9f030352eb423ba"),
    (("smoke", "fib", "APRIL", "parallel", 2),
     "fedad899b7025981ab1f280f2c665a023c4b37d257bb1730f5b0fa441bfeb073"),
    (("smoke", "fib", "Apr-lazy", "parallel", 1),
     "db1af0cdc8e3b01d50c2fed1ce0e4757db7dc96fcc6c90ecba3cd81744a44170"),
    (("smoke", "fib", "Apr-lazy", "parallel", 2),
     "ede5fb3c14a182faf5a1c71f129844b5e386e127ecd4dee209d3010f0e48fd50"),
    (("mixed", "queens", "Encore", "parallel", 2),
     "3d63063b182461d89699c47c7eb9b5a028814b53c688826309e8115978e800fd"),
]
SERVE_PINS = [
    (("serve", "fib", "APRIL", "parallel", 1),
     "bae09eb70ae7064528cf2e32ab7657bc06382edae43a67b77d427bed8a70ff2f"),
    (("serve", "fib", "Apr-lazy", "parallel", 1),
     "d2c16d8438615579b829275ee9e68c54ff14c20546f480ebc254301a9c15890d"),
    (("serve", "fib", "APRIL", "parallel", 2),
     "a9d0e5ff982dd3c4ba637539a9ff33550115e4922448e2d8910aac9c1b291544"),
    (("serve", "fib", "Apr-lazy", "parallel", 2),
     "8ad22624f270080e6cb76c4ee58324e4034cc958c830d9557ab4448bfc7de8ff"),
    (("serve", "fib", "APRIL", "parallel", 1),
     "750c3256cf3de44c82c226ff0427ccad486a49b088b611977b0cfb9e2749d27e"),
    (("serve", "source"),
     "c2fca66be786aa308cb5c8d03b9d7a413ebf56dc70b1fe2f2b195609801b7847"),
    (("serve", "source"),
     "167a0233d15fc1c77ae88e8f0eba2c15c4f94274d85cfaf429a60507024b3b32"),
]


class TestServeRefusesNonIntegerKnobs:
    """A serve spec with a float, bool or string in an integer knob is
    a ``bad-job``, named or source form; a flag stays a flag."""

    @pytest.mark.parametrize("spec", [
        {"program": "fib", "config": {"memory_mode": "coherent",
                                      "network_dim": 1.5}},
        {"source": "(define (main) 1)",
         "config": {"memory_mode": "coherent", "network_dim": 1.5}},
        {"source": "(define (main) 1)", "config": {"stack_words": 512.0}},
    ], ids=["named", "source", "source-float-size"])
    def test_bad_job(self, spec):
        from repro.serve.protocol import ServeRequestError, job_from_spec

        with pytest.raises(ServeRequestError, match="must be an integer") \
                as err:
            job_from_spec(spec)
        assert err.value.kind == "bad-job"

    def test_flags_stay_flags(self):
        from repro.serve.protocol import job_from_spec

        job = job_from_spec({"source": "(define (main) 1)",
                             "config": {"custom_april_switch": True}})
        assert job.config.custom_april_switch is True


class TestAcceptedSpecsUnchanged:
    """A spec that was accepted builds exactly the job it built."""

    def test_grid_cells(self):
        mixed = {"name": "mixed",
                 "grid": {"programs": ["queens"], "systems": ["Encore"],
                          "cpus": [2]},
                 "max_cycles": 9_000_000,
                 "config": {"touch_spin_limit": 0}}
        jobs = expand_spec(smoke_spec()) + expand_spec(mixed)
        assert [(job.key, job.content_hash()) for job in jobs] == GRID_PINS

    def test_serve_specs(self):
        from repro.serve.loadgen import cold_spec, hot_specs
        from repro.serve.protocol import job_from_spec

        specs = hot_specs() + [
            cold_spec(12345, 3),
            {"source": "(define (main n) (+ n 1))", "mode": "lazy",
             "processors": 2, "args": [41], "max_cycles": 1_000_000,
             "config": {"touch_spin_limit": 0}},
            {"source": "(define (main) 42)"},
        ]
        jobs = [job_from_spec(spec) for spec in specs]
        assert [(job.key, job.content_hash()) for job in jobs] == SERVE_PINS


class TestExpansion:
    def test_grid_expansion_order(self):
        jobs = expand_spec(smoke_spec())
        assert [job.key for job in jobs] == [
            ("smoke", "fib", "APRIL", "parallel", 1),
            ("smoke", "fib", "APRIL", "parallel", 2),
            ("smoke", "fib", "Apr-lazy", "parallel", 1),
            ("smoke", "fib", "Apr-lazy", "parallel", 2),
        ]
        assert jobs[0].args == (7,)
        assert jobs[1].config.num_processors == 2
        assert jobs[2].mode == "lazy"

    def test_config_overrides_reach_cells(self):
        spec = smoke_spec()
        spec["config"] = {"touch_spin_limit": 0}
        jobs = expand_spec(spec)
        assert all(job.config.touch_spin_limit == 0 for job in jobs)

    def test_max_cycles(self):
        spec = smoke_spec()
        spec["max_cycles"] = 1234
        assert expand_spec(spec)[0].max_cycles == 1234


class TestMergedOutput:
    def test_byte_stable_across_pool_sizes(self):
        spec = smoke_spec()
        serial = render_output(merged_output(spec, run_jobs(
            expand_spec(spec))))
        pooled = render_output(merged_output(spec, run_jobs(
            expand_spec(spec), pool_size=2)))
        # Dedupe counts differ by schedule but cells must not; compare
        # the cell arrays byte-for-byte.
        assert (json.loads(serial)["cells"] == json.loads(pooled)["cells"])

    def test_layout(self):
        spec = smoke_spec()
        spec["grid"]["cpus"] = [1]
        spec["grid"]["systems"] = ["APRIL"]
        merged = merged_output(spec, run_jobs(expand_spec(spec)))
        assert merged["schema"] == "april-sweep/1"
        (cell,) = merged["cells"]
        assert cell["status"] == "ok"
        assert cell["value"] == 13
        assert cell["cycles"] > 0
        assert len(cell["hash"]) == 64
        assert merged["summary"]["executed"] == 1

    def test_failed_cell_recorded_not_raised(self):
        spec = smoke_spec()
        spec["grid"]["cpus"] = [1]
        spec["grid"]["systems"] = ["APRIL"]
        spec["max_cycles"] = 50                     # guaranteed blowout
        merged = merged_output(spec, run_jobs(expand_spec(spec)))
        (cell,) = merged["cells"]
        assert cell["status"] == "failed"
        assert cell["kind"] == "SimulationError"
        assert merged["summary"]["failed"] == 1

    def test_render_output_canonical(self):
        spec = smoke_spec()
        spec["grid"]["cpus"] = [1]
        spec["grid"]["systems"] = ["APRIL"]
        sweep = run_jobs(expand_spec(spec))
        text = render_output(merged_output(spec, sweep))
        assert text.endswith("\n")
        assert text == render_output(merged_output(spec, sweep))
        assert json.loads(text)["name"] == "smoke"
