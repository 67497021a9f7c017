"""Checks of the benchmark itself (not part of tier-1):

    python -m pytest perf/tests

Runs all eight workloads at toy size, untraced and traced, and holds
the output against ``BENCHMARK.json``.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
OUT = os.path.join(PERF, "out")
sys.path.insert(0, PERF)

import common                                              # noqa: E402
import compare                                             # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
QUICK_BUDGET_S = 30


def tree(root):
    """``{path: (size, mtime_ns)}`` of every file the benchmark could
    have left behind outside ``perf/out``."""
    found = {}
    for folder, folders, files in os.walk(root):
        folders[:] = [d for d in folders
                      if d not in ("__pycache__", ".git", ".pytest_cache",
                                   ".hypothesis")
                      and os.path.join(folder, d) != OUT]
        for name in files:
            path = os.path.join(folder, name)
            status = os.stat(path)
            found[path] = (status.st_size, status.st_mtime_ns)
    return found


def run_set(*flags):
    out = os.path.join(OUT, "quick-%s.json" % ("traced" if flags else "plain"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--quick", "--out", out,
         *flags], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle), done.stdout, elapsed


@pytest.fixture(scope="module")
def spec():
    return common.load_spec()


@pytest.fixture(scope="module")
def quick():
    """Both quick sets, the time they took and the file tree around
    them."""
    before = tree(ROOT)
    plain, plain_out, plain_s = run_set()
    traced, traced_out, traced_s = run_set("--traced")
    return {"plain": plain, "traced": traced, "plain_out": plain_out,
            "traced_out": traced_out, "seconds": (plain_s, traced_s),
            "before": before, "after": tree(ROOT)}


def test_spec_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        names.append(entry["name"])
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_quick_sets_run_every_workload_in_time(spec, quick):
    wanted = [w["name"] for w in spec["workloads"]]
    for kind in ("plain", "traced"):
        assert [run["workload"] for run in quick[kind]["runs"]] == wanted
    assert max(quick["seconds"]) < QUICK_BUDGET_S
    for run in quick["plain"]["runs"] + quick["traced"]["runs"]:
        assert run["correct"], run["errors"]
        assert run["failed"] == 0 and run["attempted"] >= 1


def test_output_agrees_with_the_spec(spec, quick):
    for kind, key in (("plain", "end_to_end"), ("traced", "per_layer")):
        wanted = {e["name"]: e["unit"] for e in spec[key]}
        for run in quick[kind]["runs"]:
            assert set(run["metrics"]) == set(wanted), run["workload"]
            for name, entry in run["metrics"].items():
                assert entry["unit"] == wanted[name]
                assert isinstance(entry["value"], (int, float))
    for run in quick["plain"]["runs"]:
        for name, entry in run["metrics"].items():
            assert entry["value"] > 0, (run["workload"], name)
    # The table printed for people names every metric with its unit,
    # direction and bound.
    for entry in spec["end_to_end"]:
        line = next(l for l in quick["plain_out"].splitlines()
                    if l.split()[:1] == [entry["name"]])
        assert entry["unit"] in line and entry["better"] in line
        assert "bound %.0f%%" % (100 * entry["bound"]) in line


def test_driver_line(spec):
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--workload",
         "seq-steady", "--seed", "3", "--seconds", "0.3", "--trace", "0",
         "--quick"], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {e["name"] for e in spec["end_to_end"]}
    for entry in last["metrics"].values():
        assert set(entry) == {"value", "unit"}


def test_traced_selves_tile_the_traced_wall(spec, quick):
    for run in quick["traced"]["runs"]:
        with open(os.path.join(ROOT, run["trace_file"])) as handle:
            trace = json.load(handle)
        assert trace["wall"] > 0
        assert sum(trace["layers_self"].values()) == trace["wall"], \
            run["workload"]
        metrics = run["metrics"]
        selves = sum(entry["value"] for name, entry in metrics.items()
                     if name.endswith(".self_s"))
        assert selves == pytest.approx(
            metrics["bench.traced_wall_s"]["value"], rel=1e-9)


def test_simulated_counters_do_not_depend_on_tracing(quick):
    traced = {run["workload"]: run for run in quick["traced"]["runs"]}
    for run in quick["plain"]["runs"]:
        assert run["exact"] == traced[run["workload"]]["exact"]


def test_layers_separate(quick):
    runs = {run["workload"]: run["metrics"] for run in quick["traced"]["runs"]}

    def value(workload, name):
        return runs[workload][name]["value"]

    for workload in runs:
        fabric = value(workload, "mem.self_s") + value(workload, "net.self_s")
        assert (fabric > 0) == (workload == "coherent-steady"), workload
    assert value("seq-steady", "runtime.traps") < 10
    assert value("eager-steady", "runtime.threads_created") > 10
    assert value("lazy-steady", "runtime.trap_us.lazy_push") > 0
    assert value("table3-warm", "exp.executed") == 0
    assert value("table3-warm", "core.self_s") == 0
    assert value("table3-cold", "exp.executed") > 0
    assert value("serve-hot", "serve.hit_ratio") == 1
    assert value("serve-mixed", "serve.span_us.execute") > 0


def test_nothing_written_outside_out(quick):
    before, after = quick["before"], quick["after"]
    assert sorted(set(after) - set(before)) == []
    assert [path for path in before if after.get(path) != before[path]] == []
    leftovers = [name for name in os.listdir(OUT)
                 if name.startswith(("serve-", "t3-"))]
    assert leftovers == []


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  "baseline"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "seq-steady", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- compare.py ------------------------------------------------------------


def result_set(seed, values, failed=0, exact=None):
    """A one-workload result set with the given ``sim_kcycles_per_s``
    round summary ``(median, q1, q3)``."""
    mid, q1, q3 = values
    return {"schema": common.SCHEMA, "seed": seed, "runs": [{
        "workload": "seq-steady", "seed": seed, "attempted": 100,
        "failed": failed, "exact": exact or {"cycles": 5}, "noisy": False,
        "metrics": {"sim_kcycles_per_s": {"value": mid, "q1": q1, "q3": q3,
                                          "n": 11, "unit": "kcycles/s"}}}]}


def compared(base, change, spec):
    stream = io.StringIO()
    blocking = compare.compare(base, change, spec, stream)
    row = next(line for line in stream.getvalue().splitlines()
               if " sim_kcycles_per_s " in line)
    return blocking, row.split()[-1], stream.getvalue()


def test_compare_verdicts(spec):
    bound = next(e["bound"] for e in spec["end_to_end"]
                 if e["name"] == "sim_kcycles_per_s")
    steady = (1000.0, 990.0, 1010.0)
    assert compared([result_set(1, steady)], [result_set(1, steady)],
                    spec)[:2] == (0, "ok")
    # Slower by more than the bound with tight quartiles: resolved,
    # blocking.
    slow = 1000.0 * (1 - bound - 0.05)
    assert compared([result_set(1, steady)],
                    [result_set(1, (slow, slow - 10, slow + 10))],
                    spec)[:2] == (1, "REGRESSION")
    # The same medians inside a spread wider than the bound cannot be
    # told apart.
    half = 1000.0 * (bound / 2 + 0.05)
    assert compared([result_set(1, (1000.0, 1000.0 - half, 1000.0 + half))],
                    [result_set(1, (slow, slow - half, slow + half))],
                    spec)[:2] == (0, "unresolved")
    # Quartile ranges that do not overlap: better, but one pair is no
    # claim.
    assert compared([result_set(1, steady)],
                    [result_set(1, (1100.0, 1090.0, 1110.0))],
                    spec)[:2] == (0, "better")


def test_compare_needs_ten_pairs_for_a_gain(spec):
    base = [result_set(i, (1000.0 + i, 990.0, 1010.0)) for i in range(10)]
    change = [result_set(i, (1100.0 + i, 1090.0, 1110.0)) for i in range(10)]
    assert compared(base, change, spec)[:2] == (0, "gain")
    assert compared(base[:9], change[:9], spec)[:2] == (0, "better")
    # Two losses in ten pairs: not nine tenths.
    change[0] = result_set(0, (900.0, 890.0, 910.0))
    change[1] = result_set(1, (900.0, 890.0, 910.0))
    assert compared(base, change, spec)[1] != "gain"


def test_compare_blocks_on_failures_and_counter_changes(spec):
    steady = (1000.0, 990.0, 1010.0)
    blocking, _, text = compared([result_set(1, steady)],
                                 [result_set(1, steady, failed=1)], spec)
    assert blocking == 1 and "failed_share rose" in text
    blocking, _, text = compared(
        [result_set(1, steady)],
        [result_set(1, steady, exact={"cycles": 6})], spec)
    assert blocking == 1 and "simulated counters differ" in text
