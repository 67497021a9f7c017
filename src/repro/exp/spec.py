"""One job-spec vocabulary: sweep grids (``april sweep SPEC.json``),
serve cells and source specs, and the deterministic merged output.

A spec file names a grid of Table-3-style cells::

    {
      "name": "smoke",
      "grid": {
        "programs": ["fib", "queens"],
        "systems": ["APRIL", "Apr-lazy"],
        "cpus": [1, 2, 4],
        "args": {"fib": [8]}
      },
      "max_cycles": 500000000,
      "config": {"num_task_frames": 4}
    }

``programs`` are workload names from :mod:`repro.workloads`;
``systems`` are Table 3's rows (``Encore`` / ``APRIL`` / ``Apr-lazy``);
``args`` optionally overrides a program's default workload size;
``config`` optionally overrides :class:`~repro.machine.config.
MachineConfig` knobs for every cell.  Each grid point becomes one
*cell* — ``{"program", "system", "processors", "args", "max_cycles",
"config"}``, the wire form ``april serve`` also accepts, with an
optional ``variant`` — and each cell one :class:`~repro.exp.job.Job`.
The serve protocol's other form, the *source spec*, carries inline
Mul-T text (``source``) with its ``mode`` and run knobs instead of a
program name and system row.

Where each check lives, all in this module:

* :func:`_check_fields` — every field of both forms: unknown keys, the
  names (program, system, variant, mode), processors, args,
  max_cycles, and config as an object.  :func:`check_name` is its name
  check, which ``april table3``/``speedup`` share.
* :func:`cell_to_job` / :func:`source_to_job` — the fields, then the
  :class:`MachineConfig` built once, so an unknown knob or an
  out-of-range value is a :class:`SweepSpecError` too.
* :func:`expand_spec` — the grid's own shape (``grid``, ``programs``,
  ``systems``, ``cpus``, ``args``), then every grid point through
  :func:`cell_to_job`, so a bad spec fails before any cell runs.

The merged output is byte-stable: cells appear in grid-expansion order
(never worker completion order), the JSON layout is canonical
(``sort_keys``, fixed separators), and nothing host- or time-dependent
(wall clock, cache hit flags) appears in the cell array.
"""

import json

from repro.errors import ConfigError, SweepSpecError
from repro.exp.job import Job, canonical_json
from repro.machine.config import MachineConfig

#: Merged-output schema tag.
OUTPUT_SCHEMA = "april-sweep/1"

#: Keys a cell (one grid point; serve's named-workload form) may carry.
CELL_KEYS = frozenset((
    "program", "system", "variant", "processors", "args", "max_cycles",
    "config",
))

#: Keys a source spec (serve's inline Mul-T form) may carry.
SOURCE_KEYS = frozenset((
    "source", "mode", "software_checks", "optimize", "processors",
    "config", "entry", "args", "max_cycles", "expect",
))


def load_spec(path):
    """Parse a spec file; returns the spec dict (:func:`expand_spec`
    checks it)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SweepSpecError("cannot read spec %s: %s" % (path, exc))
    except ValueError as exc:
        raise SweepSpecError("spec %s is not valid JSON: %s" % (path, exc))


def check_name(kind, name):
    """Raise :class:`SweepSpecError` unless ``name`` is a known
    ``program``, ``system``, ``variant`` or ``mode``."""
    from repro import workloads
    from repro.harness.table3 import SYSTEMS, VARIANTS
    from repro.lang.compiler import MODES

    known = {"program": sorted(workloads.BY_NAME), "system": SYSTEMS,
             "variant": VARIANTS, "mode": MODES}[kind]
    if name not in known:
        raise SweepSpecError(
            "unknown %s %r (have: %s)" % (kind, name, ", ".join(known)))


def _check_fields(spec, keys):
    """Raise :class:`SweepSpecError` unless ``spec`` is a job spec
    whose keys are among ``keys`` (:data:`CELL_KEYS` or
    :data:`SOURCE_KEYS`) and whose fields are well-formed."""
    cell = keys is CELL_KEYS
    if not isinstance(spec, dict):
        raise SweepSpecError("job spec must be a JSON object")
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise SweepSpecError(
            "unknown job spec key(s) %s (have: %s)"
            % (", ".join(unknown), ", ".join(sorted(keys))))
    if cell:
        check_name("program", spec.get("program"))
    elif "source" not in spec:
        raise SweepSpecError(
            "job spec needs either \"program\" (named workload) or "
            "\"source\" (inline Mul-T)")
    elif not isinstance(spec["source"], str) or not spec["source"].strip():
        raise SweepSpecError("source must be non-empty Mul-T text")
    for kind in ("system", "variant", "mode"):
        if kind in spec:
            check_name(kind, spec[kind])
    for knob in ("processors", "max_cycles"):
        value = spec.get(knob, 1)
        if not isinstance(value, int) or value < 1:
            raise SweepSpecError("%s must be a positive int" % knob)
    # A cell's null args mean the program's default size.
    args = spec.get("args", [])
    if not (isinstance(args, list) and all(isinstance(a, int) for a in args)
            or args is None and cell):
        raise SweepSpecError("args must be a list of ints")
    config = spec.get("config", {})
    if not isinstance(config, dict):
        raise SweepSpecError("config must be an object of knob overrides")
    if "num_processors" in config and (cell or "processors" in spec):
        raise SweepSpecError(
            "give processors at the top level, not config.num_processors")


def _build(make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose one step that can fail on
    checked fields is building the :class:`MachineConfig`: what an
    unknown knob or a bad value raises becomes a
    :class:`SweepSpecError`."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, ConfigError) as exc:
        raise SweepSpecError("bad config: %s" % exc) from None


def cell_to_job(cell, key_prefix=("serve",)):
    """The :class:`~repro.exp.job.Job` one checked cell names."""
    from repro import workloads
    from repro.harness.table3 import DEFAULT_MAX_CYCLES, cell_job

    _check_fields(cell, CELL_KEYS)
    args = cell.get("args")
    return _build(
        cell_job, workloads.get(cell["program"]),
        cell.get("system", "APRIL"), cell.get("variant", "parallel"),
        cell.get("processors", 1),
        args=None if args is None else tuple(args),
        max_cycles=cell.get("max_cycles", DEFAULT_MAX_CYCLES),
        config_overrides=cell.get("config"), key_prefix=tuple(key_prefix))


def source_to_job(spec, key=("serve", "source")):
    """The :class:`~repro.exp.job.Job` one checked source spec names::

        {"source": "(define (main) 42)", "mode": "eager",
         "processors": 4, "config": {...}, "args": [...],
         "max_cycles": ..., "expect": optional}

    ``processors`` is a convenience alias for ``config.num_processors``
    (it may not appear in both)."""
    _check_fields(spec, SOURCE_KEYS)
    knobs = dict(spec.get("config", {}))
    if "processors" in spec:
        knobs["num_processors"] = spec["processors"]
    return Job(
        key, spec["source"], mode=spec.get("mode", "eager"),
        software_checks=bool(spec.get("software_checks", False)),
        optimize=bool(spec.get("optimize", False)),
        config=_build(MachineConfig, **knobs),
        entry=spec.get("entry", "main"), args=spec.get("args", ()),
        max_cycles=spec.get("max_cycles", 200_000_000),
        expect=spec.get("expect"))


def validate_spec(spec):
    """Raise :class:`SweepSpecError` unless every cell of ``spec``
    builds (see :func:`expand_spec`)."""
    expand_spec(spec)


def expand_spec(spec):
    """The spec's grid as a list of jobs, in grid-expansion order
    (programs outermost, then systems, then processor counts); raises
    :class:`SweepSpecError` for a malformed grid or any bad cell."""
    if not isinstance(spec, dict):
        raise SweepSpecError("spec must be a JSON object")
    grid = spec.get("grid")
    if not isinstance(grid, dict):
        raise SweepSpecError("spec needs a \"grid\" object")
    programs = grid.get("programs")
    if not programs or not isinstance(programs, list):
        raise SweepSpecError("grid.programs must be a non-empty list")
    systems = grid.get("systems", ["APRIL"])
    if not isinstance(systems, list):
        raise SweepSpecError("grid.systems must be a list")
    cpus = grid.get("cpus", [1])
    if (not isinstance(cpus, list) or not cpus
            or not all(isinstance(n, int) and n >= 1 for n in cpus)):
        raise SweepSpecError("grid.cpus must be a list of positive ints")
    args_by_program = grid.get("args", {})
    if not isinstance(args_by_program, dict):
        raise SweepSpecError("grid.args must map program name to arg list")

    shared = {key: spec[key] for key in ("max_cycles", "config")
              if key in spec}
    prefix = (spec.get("name", "sweep"),)
    jobs = []
    for program in programs:
        cell = dict(shared, program=program)
        if program in args_by_program:
            cell["args"] = args_by_program[program]
        for system in systems:
            for processors in cpus:
                jobs.append(cell_to_job(
                    dict(cell, system=system, processors=processors),
                    key_prefix=prefix))
    return jobs


def merged_output(spec, sweep):
    """The deterministic merged result dict for a finished sweep."""
    cells = []
    for outcome in sweep:
        cell = {"key": list(outcome.key), "hash": outcome.hash}
        if outcome.ok:
            cell["status"] = "ok"
            cell["value"] = outcome.value
            cell["cycles"] = outcome.cycles
        else:
            cell["status"] = "failed"
            cell["kind"] = outcome.kind
            cell["message"] = outcome.message
            if outcome.context:
                cell["context"] = outcome.context
        cells.append(cell)
    return {
        "schema": OUTPUT_SCHEMA,
        "name": spec.get("name", "sweep"),
        "cells": cells,
        "summary": sweep.summary(),
    }


def render_output(merged):
    """The merged output as canonical, byte-stable JSON text."""
    return canonical_json(merged) + "\n"
