#!/usr/bin/env python3
"""The repo benchmark: eight workloads from compile to served result.

Driver form (``BENCHMARK.json``'s command)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--workload`` it runs all eight and prints every metric by
name with unit, direction and bound; ``--traced`` is ``--trace 1``,
``--quick`` runs toy sizes, ``--out FILE`` writes the result set that
``perf/compare.py`` reads.  See ``perf/README.md``.
"""

import argparse
import json
import os
import subprocess
import sys
import time

_STARTED = time.perf_counter()

import common                                              # noqa: E402

common.require_program()

import serveload                                           # noqa: E402
import simloads                                            # noqa: E402

WORKLOADS = simloads.NAMES + serveload.NAMES

#: Fresh processes per untraced invocation: each samples set-up once
#: and measures its share of ``--seconds``.
CHILDREN = {"table3-warm": 2}
DEFAULT_CHILDREN = 3
#: Set-up samples of a serve workload (boot + prime, fresh cache each).
SERVE_SETUPS = 3
#: Fresh ``april run`` processes behind ``cold_run_s``.
COLD_RUNS = 5
COLD_FLAGS = {
    "seq-steady": ["--mode", "sequential"],
    "eager-steady": ["-p", "4"],
    "lazy-steady": ["--mode", "lazy", "-p", "4"],
    "coherent-steady": ["-p", "4", "--coherent"],
}
CHILD_TIMEOUT_S = 170
LAYERS = ("lang", "isa", "core", "runtime", "machine", "mem", "net", "exp",
          "harness", "serve", "client", "bench")


def summary(values):
    """Median, quartiles and count of one metric's samples."""
    q1, q3 = common.quartiles(values)
    return {"value": common.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def calibrated_summary(samples, work=None):
    """Summary of ``(duration, calib ms)`` samples in calibrated time,
    with the uncalibrated median beside it as ``raw``.  With ``work``
    (an amount per sample) the samples become work per second."""
    if work is None:
        values = [common.calibrated(duration, calib)
                  for duration, calib in samples]
        raw = [duration for duration, _ in samples]
    else:
        values = [amount / common.calibrated(duration, calib)
                  for (duration, calib), amount in zip(samples, work)]
        raw = [amount / duration
               for (duration, _), amount in zip(samples, work)]
    return dict(summary(values), raw=common.median(raw))


def host_summary(calib):
    """The calibration samples of a run and the ``noisy`` verdict."""
    return {"calib_ms": summary(calib),
            "noisy": common.spread(calib) > common.NOISY_SPREAD}


def ratio(top, bottom):
    return top / bottom if bottom else 0.0


# -- children --------------------------------------------------------------


def spawn_child(name, seed, seconds, mode, max_rounds, quick):
    """Run one in-process workload child; returns its report dict."""
    command = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds), "--max-rounds", str(max_rounds),
               "--spawned-at", repr(time.time())]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, cwd=common.ROOT)
    if done.returncode != 0:
        raise RuntimeError("%s child (%s) exited with %d"
                           % (name, mode, done.returncode))
    return json.loads(done.stdout.splitlines()[-1])


def cold_run_s(name):
    """Wall time of fresh ``python -m repro.cli run examples/fib.mult``
    processes with this workload's flags — what an ``april run`` user
    pays every time.  Returns ``(median s, failures)``."""
    command = [sys.executable, "-m", "repro.cli", "run",
               os.path.join("examples", "fib.mult"), "--args", "10"]
    command += COLD_FLAGS[name]
    times = []
    failures = 0
    for _ in range(COLD_RUNS):
        start = time.perf_counter()
        done = subprocess.run(command, env=common.child_env(),
                              cwd=common.ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or b"result: 55" not in done.stdout:
            failures += 1
    return common.median(times), failures


# -- in-process workloads --------------------------------------------------


def run_inprocess(name, seed, seconds, trace, quick):
    """Spawn the children of one invocation and pool their reports."""
    reports = []
    if name == "table3-cold":
        # The batch user's pass: every round is a fresh process.  With
        # tracing, plain and traced processes alternate.
        modes = ("plain", "traced") if trace else ("plain",)
        start = time.perf_counter()
        while True:
            for mode in modes:
                reports.append(spawn_child(name, seed, 0.0, mode, 1, quick))
            if quick or time.perf_counter() - start >= seconds:
                break
    elif trace:
        reports.append(spawn_child(name, seed, seconds, "cycle",
                                   1 if quick else 1000, quick))
    else:
        children = 1 if quick else CHILDREN.get(name, DEFAULT_CHILDREN)
        for _ in range(children):
            reports.append(spawn_child(name, seed, seconds / children,
                                       "plain", 1 if quick else 1000, quick))
    pooled = Pooled(name, reports)
    if not trace:
        return pooled.end_to_end()
    cold = 0.0
    if name in COLD_FLAGS and not quick:
        cold, failures = cold_run_s(name)
        pooled.attempted += COLD_RUNS
        pooled.failed += failures
    return pooled.per_layer(cold)


class Pooled:
    """The reports of one invocation's children, pooled."""

    def __init__(self, name, reports):
        self.name = name
        self.reports = reports
        self.attempted = sum(r["attempted"] for r in reports)
        self.failed = sum(r["failed"] for r in reports)
        self.errors = [e for r in reports for e in r["errors"]]
        self.calib = [c for r in reports for c in r["calib_ms"]]
        exact = [r["exact"] for r in reports if r["exact"] is not None]
        self.exact = exact[0] if exact else {}
        for other in exact[1:]:
            if other != self.exact:
                self.fail("children disagree on simulated counters: "
                          "%r vs %r" % (other, self.exact))

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def rounds(self, kind):
        return [r for report in self.reports for r in report["rounds"]
                if r["kind"] == kind]

    def base(self):
        return dict(host_summary(self.calib), attempted=self.attempted,
                    failed=self.failed, errors=self.errors[:20],
                    exact=self.exact)

    def end_to_end(self):
        rounds = self.rounds("plain")
        walls = [(r["wall_ns"] / 1e9, r["calib_ms"]) for r in rounds]
        out = self.base()
        out["metrics"] = {
            "setup_s": calibrated_summary(
                [(r["setup_s"], r["setup_calib_ms"]) for r in self.reports]),
            "sim_kcycles_per_s": calibrated_summary(
                walls, work=[r["cycles"] / 1e3 for r in rounds]),
            "jobs_per_s": calibrated_summary(
                walls, work=[r["jobs"] for r in rounds]),
            "lat_p50_us": calibrated_summary(
                [(r["lat_us"], r["calib_ms"]) for r in rounds]),
            "peak_rss_mb": summary([r["rss_mb"] for r in self.reports]),
        }
        return out

    # -- the layer ledger ----------------------------------------------

    def merged_trace(self):
        """Tracer totals summed over the traced children."""
        totals = {}
        durations = {}
        wall = 0
        for report in self.reports:
            trace = report.get("trace")
            if not trace:
                continue
            wall += trace["wall_ns"]
            for name, entry in trace["totals"].items():
                into = totals.setdefault(name, [0, 0, 0])
                into[0] += entry["calls"]
                into[1] += entry["self_ns"]
                into[2] += entry["inclusive_ns"]
            for name, values in trace["durations_ns"].items():
                durations.setdefault(name, []).extend(values)
        return totals, durations, wall

    def per_layer(self, cold_run):
        """Per-layer metrics of one traced round (means over the traced
        rounds), in uncalibrated host time."""
        totals, durations, wall_ns = self.merged_trace()
        traced = self.rounds("traced")
        plain = self.rounds("plain")
        rounds = max(1, len(traced))
        counters = next((r["counters"] for r in self.reports
                         if r["counters"]), {})
        steady = self.name in simloads.STEADY

        def calls(name):
            return totals.get(name, (0, 0, 0))[0] / rounds

        def self_s(prefix):
            dotted = prefix + "."
            return sum(t[1] for name, t in totals.items()
                       if name == prefix or name.startswith(dotted)) \
                / rounds / 1e9

        def mean_us(name, inclusive=True):
            count, own, whole = totals.get(name, (0, 0, 0))
            return ((whole if inclusive else own) / count / 1e3
                    if count else 0.0)

        layers = {}
        for name, entry in totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + entry[1]
        if sum(layers.values()) != wall_ns:
            self.fail("layer selves sum to %d ns, traced wall is %d ns"
                      % (sum(layers.values()), wall_ns))

        m = {}
        for layer in LAYERS:
            m[layer + ".self_s"] = layers.get(layer, 0) / rounds / 1e9
        m["bench.traced_wall_s"] = wall_ns / rounds / 1e9
        m["bench.wrap_s"] = self_s("bench.wrap")
        if traced and plain:
            m["bench.trace_overhead_ratio"] = ratio(
                common.median([r["wall_ns"] for r in traced]),
                common.median([r["wall_ns"] for r in plain]))
        m["bench.calib_ms"] = common.median(self.calib)
        m["bench.calib_spread"] = common.spread(self.calib)
        m["sim_cycles"] = counters.get("cycles", 0)
        m["cold_run_s"] = cold_run

        instructions = counters.get("instructions", 0)
        kcycles = counters.get("cycles", 0) / 1e3
        step_calls = calls("core.step") + calls("core.step_block")
        m["core.instructions"] = instructions
        m["core.step_calls"] = step_calls
        m["core.instr_per_call"] = ratio(instructions, step_calls)
        m["core.ns_per_instr"] = ratio(m["core.self_s"] * 1e9, instructions)
        for key in ("jit_compiles", "jit_runs", "jit_deopts", "superblocks"):
            m["core." + key] = counters.get(key, 0)

        m["runtime.trap_s"] = self_s("runtime.trap")
        m["runtime.idle_s"] = self_s("runtime.idle")
        m["runtime.traps"] = counters.get("traps", 0)
        for kind in ("future_touch", "future_create", "thread_exit",
                     "lazy_push", "lazy_finish", "fe_exception",
                     "cache_miss", "ipi"):
            m["runtime.trap_us." + kind] = mean_us("runtime.trap." + kind)
        m["runtime.idle_polls"] = calls("runtime.idle")
        for key in ("lazy_stolen", "threads_created", "context_switches"):
            m["runtime." + key] = counters.get(key, 0)

        m["machine.build_ms"] = mean_us("machine.build") / 1e3
        m["machine.loop_self_s"] = self_s("machine.loop")
        m["machine.slices_per_kcycle"] = ratio(counters.get("slices", 0),
                                               kcycles)
        m["machine.idle_polls_per_kcycle"] = ratio(m["runtime.idle_polls"],
                                                   kcycles)

        m["mem.accesses"] = calls("mem.access")
        m["mem.us_per_access"] = mean_us("mem.access")
        m["mem.dir_self_s"] = self_s("mem.dir")
        m["mem.dir_requests"] = counters.get("dir_requests", 0)
        m["mem.cache_hit_ratio"] = ratio(
            counters.get("mem_hits", 0),
            counters.get("mem_hits", 0) + counters.get("mem_misses", 0))
        m["mem.transactions"] = counters.get("transactions", 0)
        m["mem.stall_cycles"] = counters.get("stall_cycles", 0)
        m["net.sends"] = calls("net.send")
        m["net.us_per_send"] = mean_us("net.send")
        m["net.avg_latency_cycles"] = ratio(counters.get("net_latency", 0),
                                            counters.get("net_messages", 0))

        report = self.reports[0]
        obs = report.get("obs") or {}
        if report["observed_ns"]:
            observed = common.median(report["observed_ns"])
            dormant = common.median(report["leg_ns"][str(obs["leg"])])
            m["obs.attach_ms"] = common.median(report["attach_ms"])
            m["obs.observed_ratio"] = ratio(observed, dormant)
            m["observed_kcycles_per_s"] = ratio(obs["cycles"] * 1e6, observed)
            m["obs.events_recorded"] = obs["events_recorded"]
            m["obs.txn_recorded"] = obs["txn_recorded"]

        m["exp.hash_us"] = mean_us("exp.hash", inclusive=False)
        m["exp.cache_get_us"] = mean_us("exp.cache_get")
        m["exp.cache_put_us"] = mean_us("exp.cache_put")
        jobs = [d / 1e6 for d in durations.get("exp.execute", ())]
        if jobs:
            m["exp.job_p50_ms"] = common.median(jobs)
            m["exp.job_max_ms"] = max(jobs)
        cells = traced[0]["jobs"] if traced and not steady else 0
        run_jobs_ns = totals.get("exp.run_jobs", (0, 0, 0))[2]
        execute_ns = totals.get("exp.execute", (0, 0, 0))[2]
        m["exp.engine_overhead_ms"] = ratio(
            (run_jobs_ns - execute_ns) / rounds / 1e6, cells)
        for key in ("payload_bytes", "executed", "cache_hits", "deduped"):
            m["exp." + key] = counters.get(key, 0)
        m["harness.rows_ms"] = mean_us("harness.rows") / 1e3
        m["paper_err"] = counters.get("paper_err", 0.0)

        m.update(next((r["ladder"] for r in self.reports if r.get("ladder")),
                      {}))
        if steady:
            parts = report["setup_parts"]
            m["cli.import_ms"] = parts.get("import_ms", 0.0)
            m["cli.cold_compile_ms"] = parts.get("compile_ms", 0.0)
            m["cli.cold_build_ms"] = parts.get("build_ms", 0.0)
            m["cli.cold_first_run_ms"] = parts.get("first_run_ms", 0.0)

        m["failed_share"] = ratio(self.failed, self.attempted)
        out = self.base()
        out["metrics"] = {name: {"value": value} for name, value in m.items()}
        out["trace_file"] = write_trace(self.name, {
            "workload": self.name,
            "traced_rounds": len(traced),
            "unit": "ns",
            "wall": wall_ns,
            "layers_self": layers,
            "totals": {name: {"calls": t[0], "self_ns": t[1],
                              "inclusive_ns": t[2]}
                       for name, t in sorted(totals.items())},
            "spans": next((r["trace"]["spans"] for r in self.reports
                           if r.get("trace")), []),
            "spans_dropped": sum(r["trace"]["spans_dropped"]
                                 for r in self.reports if r.get("trace")),
        })
        return out


def write_trace(name, document):
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, "trace-%s.json" % name)
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return os.path.relpath(path, common.ROOT)


# -- serve workloads -------------------------------------------------------


def run_serve(name, seed, seconds, trace, quick):
    run = serveload.ServeRun(name, seed, quick)
    calib = []
    rounds = []                     # (kind, wall ns, tally, calib ms)
    try:
        setups = run.setup(1 if quick else SERVE_SETUPS)
        calib.append(common.calib_ms())
        deadline = time.perf_counter() + seconds
        while True:
            measured = [("plain",) + run.round()]
            if trace:
                measured.append(("traced",) + run.round(pull=True))
            calib.append(common.calib_ms())
            around = sum(calib[-2:]) / 2
            rounds.extend(entry + (around,) for entry in measured)
            if quick or time.perf_counter() >= deadline:
                break
        conn = run.server.connect()
        server_metrics = conn.ask({"op": "metrics", "id": "end"})["metrics"]
        conn.close()
        rss_mb = run.server.peak_rss_mb()
    finally:
        exit_code = run.close()

    everything = serveload.merge([tally for _, _, tally, _ in rounds])
    if exit_code != 0:
        everything.fail("april serve exited with %s" % exit_code)
    calib += [sample for _, sample in setups]
    out = dict(host_summary(calib), exact={})
    plain = [entry[1:] for entry in rounds if entry[0] == "plain"]
    if trace:
        out["metrics"], out["trace_file"] = serve_layers(
            name, run, rounds, plain, everything, server_metrics, calib,
            quick)
    else:
        walls = [(wall / 1e9, around) for wall, _, around in plain]
        out["metrics"] = {
            "setup_s": calibrated_summary(setups),
            "sim_kcycles_per_s": calibrated_summary(
                walls, work=[tally.cycles / 1e3 for _, tally, _ in plain]),
            "jobs_per_s": calibrated_summary(
                walls, work=[run.requests_per_round] * len(plain)),
            "lat_p50_us": pooled_latency(plain),
            "peak_rss_mb": summary([rss_mb]),
        }
    out["attempted"] = everything.attempted
    out["failed"] = everything.failed
    out["errors"] = everything.errors[:20]
    return out


def pooled_latency(plain):
    """Client-observed latency in calibrated µs: the median pooled over
    every measured request with their count, and the quartiles of the
    rounds' own medians (how far the estimate moves, not how wide the
    latency distribution is)."""
    pooled = calibrated_summary([(lat / 1e3, around)
                                 for _, tally, around in plain
                                 for lat in tally.lat_ns])
    q1, q3 = common.quartiles([
        common.calibrated(common.median(tally.lat_ns) / 1e3, around)
        for _, tally, around in plain])
    return dict(pooled, q1=q1, q3=q3)


def serve_layers(name, run, rounds, plain, everything, server_metrics,
                 calib, quick):
    """The server's own spans, pulled through its ``trace`` op, tiled
    against the callers' request time (uncalibrated host time)."""
    traced_walls = [wall for kind, wall, _, _ in rounds if kind == "traced"]
    traced = serveload.merge([tally for kind, _, tally, _ in rounds
                              if kind == "traced"])
    failed_before = traced.failed
    book = serveload.ledger(traced)
    everything.failed += traced.failed - failed_before
    everything.errors.extend(traced.errors[failed_before:])
    requests = max(1, book["traced_requests"])
    service_us = sum(book["rungs_us"].values())
    if service_us + book["client_us"] != book["request_us"]:
        everything.fail("serve ledger does not tile the request time")

    plain_all = serveload.merge([tally for _, tally, _ in plain])
    latencies = sorted(lat / 1e3 for lat in plain_all.lat_ns)
    ok = max(1, sum(plain_all.served.values()))
    counters = server_metrics["counters"]
    per_round = max(1, len(traced_walls))
    m = {}
    for rung in serveload.RUNGS:
        m["serve.span_us." + rung] = ratio(book["rungs_us"][rung],
                                           book["rung_counts"].get(rung, 0))
    for span in serveload.WORKER_SPANS:
        m["serve.worker_us." + span] = ratio(book["worker_us"][span],
                                             book["worker_counts"][span])
    m["serve.flush_us"] = (common.median(book["flush_us"])
                           if book["flush_us"] else 0.0)
    parse_us, encode_us = serveload.protocol_costs(200 if quick else 2000)
    m["serve.protocol_parse_us"] = parse_us
    m["serve.protocol_encode_us"] = encode_us
    m["serve.client_us"] = book["client_us"] / requests
    m["serve.hit_ratio"] = plain_all.served["hit"] / ok
    m["serve.dedupe_ratio"] = plain_all.served["deduped"] / ok
    m["serve.executed"] = counters["executed"]
    m["serve.rejected"] = (counters["rejected_overload"]
                           + counters["rejected_ratelimit"]
                           + counters["rejected_draining"])
    m["serve.worker_utilization"] = server_metrics["workers"][
        "busy_fraction"]
    m["req_per_s"] = common.median(
        [run.requests_per_round * 1e9 / wall for wall, _, _ in plain])
    m["lat_p99_us"] = common.percentile(latencies, 99)
    m["serve.self_s"] = service_us / 1e6 / per_round
    m["client.self_s"] = book["client_us"] / 1e6 / per_round
    m["bench.traced_wall_s"] = book["request_us"] / 1e6 / per_round
    m["bench.trace_overhead_ratio"] = (
        common.median(traced_walls)
        / common.median([wall for wall, _, _ in plain]))
    m["bench.calib_ms"] = common.median(calib)
    m["bench.calib_spread"] = common.spread(calib)
    m["failed_share"] = everything.failed / max(1, everything.attempted)
    m["sim_cycles"] = common.median([tally.cycles for _, tally, _ in plain])
    trace_file = write_trace(name, {
        "workload": name,
        "traced_rounds": len(traced_walls),
        "unit": "us",
        "wall": book["request_us"],
        "layers_self": dict(book["rungs_us"], client=book["client_us"]),
        "worker_us": book["worker_us"],
        "traced_requests": book["traced_requests"],
        "spans": [traced.traces[i] for i in sorted(traced.traces)[:2000]],
    })
    return {k: {"value": v} for k, v in m.items()}, trace_file


# -- output ----------------------------------------------------------------


def run_workload(name, seed, seconds, trace, quick, spec):
    """One workload, one set of metrics (end-to-end or per-layer): every
    metric ``BENCHMARK.json`` lists, 0 where a layer is not on the
    workload's path."""
    runner = run_serve if name in serveload.NAMES else run_inprocess
    result = runner(name, seed, seconds, trace, quick)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    unknown = sorted(set(result["metrics"]) - {e["name"] for e in wanted})
    if unknown:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s"
                           % ", ".join(unknown))
    result["metrics"] = {
        entry["name"]: dict(result["metrics"].get(entry["name"],
                                                  {"value": 0.0}),
                            unit=entry["unit"])
        for entry in wanted}
    result.update(workload=name, seed=seed, seconds=seconds,
                  traced=bool(trace), correct=result["failed"] == 0)
    return result


def driver_line(result):
    """The contract's last line: exactly four keys."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    })


def print_table(result, spec, stream):
    """Every metric by name, with unit, direction and bound."""
    entries = spec["per_layer"] if result["traced"] else spec["end_to_end"]
    stream.write("== %s  seed %d  %s  attempted %d  failed %d%s\n" % (
        result["workload"], result["seed"],
        "traced" if result["traced"] else "untraced",
        result["attempted"], result["failed"],
        "  NOISY HOST" if result["noisy"] else ""))
    for entry in entries:
        found = result["metrics"][entry["name"]]
        line = "  %-30s %14.6g %-10s %-6s" % (
            entry["name"], found["value"], entry["unit"], entry["better"])
        if "bound" in entry:
            line += " bound %.0f%%" % (100 * entry["bound"])
        if "q1" in found:
            line += "  [q1 %.6g q3 %.6g n %d]" % (found["q1"], found["q3"],
                                                  found["n"])
        if "raw" in found:
            line += "  raw %.6g" % found["raw"]
        stream.write(line + "\n")
    for error in result["errors"]:
        stream.write("  ! %s\n" % error)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--child", choices=("plain", "traced", "cycle"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-rounds", type=int, default=1000,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        # What a workload child imports, timed as ``cli.import_ms``.
        import repro.harness.table3                        # noqa: F401
        import repro.lang.run                              # noqa: F401
        import repro.obs                                   # noqa: F401
        import_ms = (time.perf_counter() - _STARTED) * 1e3
        if args.spawned_at is None:
            args.spawned_at = time.time()
        return simloads.child_main(args, import_ms)

    spec = common.load_spec()
    trace = 1 if args.traced else args.trace
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.quick else float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, trace, args.quick,
                              spec)
        results.append(result)
        print_table(result, spec, sys.stdout)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": common.SCHEMA, "seed": args.seed,
                       "seconds": seconds, "quick": args.quick,
                       "traced": bool(trace), "runs": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload:
        # The result line says whether the run was correct; the exit
        # status only says that it was printed.
        print(driver_line(results[0]))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
