"""The ``april`` command-line interface.

Subcommands::

    april run PROGRAM.mult [-p CPUS] [--mode eager|lazy|sequential]
                           [--encore] [--coherent] [--args 10 ...]
                           [--json] [--profile] [--timeline]
                           [--events out.json] [--txn out.json] [--window N]
                           [--watchdog] [--watchdog-interval N]
                           [--postmortem out.json]
                           # --watchdog: stop a hung run with a typed
                           # HangDetected post-mortem (wait-for graph,
                           # last events, disassembly) instead of
                           # burning --max-cycles; exit code 3
    april monitor PROGRAM.mult [-p CPUS] [--mode ...] [--coherent]
                               [--args 10 ...] [--script FILE]
                               # interactive machine debugger: step,
                               # breakpoints, full/empty watchpoints,
                               # pokes, thread table, disassembly
    april explain PROGRAM.mult [run options] [--json]
                               # why is speedup sublinear: per-thread cycle
                               # accounting + ranked critical-path report
    april report PROGRAM.mult [run options] [--histograms]
                              [--threads] [--critical-path]
                              [--out report.json]
    april asm PROGRAM.s          # assemble + list
    april table3 [--programs fib,factor] [--systems APRIL,Apr-lazy]
                 [--jobs N] [--no-cache] [--force]
    april speedup [--programs fib] [--system Apr-lazy] [--cpus 1 2 4]
                  [--jobs N] [--no-cache] [--force]
    april sweep SPEC.json [--jobs N] [--no-cache] [--force] [--out FILE]
    april figure5
    april serve [--socket PATH] [--tcp HOST:PORT] [--workers N]
                [--queue-limit N] [--rate R] [--burst N] [--timeout S]
                [--cache-dir DIR] [--no-cache] [--hot-entries N]
                [--drain-timeout S] [--metrics-out FILE]
                [--trace-ring N] [--slow-log FILE] [--slow-ms N]
                [--trace-perfetto FILE]
                # long-running sweep service: NDJSON job specs over a
                # unix socket, single-flight dedupe, shared result
                # cache, backpressure + rate limiting, graceful
                # SIGTERM drain, `metrics` op with p50/p90/p99,
                # per-request span tracing served by the `trace` op,
                # NDJSON slow-request log, Perfetto server timeline
    april loadgen [--socket PATH] [--tcp HOST:PORT] [--rate R]
                  [--requests N] [--connections N] [--hot-ratio F]
                  [--seed N] [--dedupe-burst N] [--json] [--out FILE]
                  # spray a hot/cold job mix at a running server and
                  # report achieved RPS, hit/dedupe ratios, latency
    april top [--socket PATH] [--tcp HOST:PORT] [--interval S]
              [--count N] [--once] [--plain]
              # live dashboard over `metrics` + `trace`: req/s,
              # hit/dedupe ratios, queue depth, p50/p99 by served
              # axis, slowest in-flight and completed requests

The grid commands (``table3``, ``speedup``, ``sweep``) run through the
:mod:`repro.exp` experiment engine: ``--jobs N`` fans cells out to N
worker processes, finished cells land in the content-addressed cache
under ``results/cache/`` (interrupted sweeps resume for free),
``--no-cache`` bypasses it, and ``--force`` re-executes and refreshes
cached cells.
"""

import argparse
import json
import sys

from repro.errors import HangDetected, ReproError
from repro.harness.figure5 import render_report
from repro.harness.table3 import SYSTEMS, render_table3, run_table3
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.lang.run import run_mult
from repro.machine.config import MachineConfig
from repro.obs import Observation


def _build_config(args):
    config = MachineConfig(
        num_processors=args.processors,
        memory_mode="coherent" if args.coherent else "ideal",
    )
    if args.encore:
        from repro.baselines.encore import encore_config
        config = encore_config(args.processors)
    return config


def _build_observation(args, force=False):
    """An Observation when any observability flag asks for one."""
    profile = getattr(args, "profile", False)
    events = getattr(args, "events", None)
    timeline = getattr(args, "timeline", False)
    txn = getattr(args, "txn", None)
    histograms = getattr(args, "histograms", False)
    threads = (getattr(args, "threads", False)
               or getattr(args, "critical_path", False))
    if not (force or profile or events or timeline or txn or histograms
            or threads):
        return None
    # The sampler pins the run to the per-instruction oracle, so it is
    # attached only where its windows are read: the timeline, the
    # Perfetto counter tracks, and profiled runs (pinned anyway).
    sampled = timeline or events or profile or force
    return Observation(
        events=bool(events) or force,
        window=args.window if sampled else 0,
        profile=profile or force,
        txn=bool(txn) or histograms or force,
        threads=threads,
    )


def _build_watchdog(args):
    """A Watchdog (with its flight recorder) when --watchdog asked."""
    if not getattr(args, "watchdog", False):
        return None
    from repro.obs.flight import Watchdog
    return Watchdog(interval=getattr(args, "watchdog_interval", 2048))


def _run_observed(args, force_obs=False):
    with open(args.program) as handle:
        source = handle.read()
    obs = _build_observation(args, force=force_obs)
    result = run_mult(source, mode=args.mode, args=tuple(args.args),
                      software_checks=args.encore,
                      config=_build_config(args), observe=obs,
                      watchdog=_build_watchdog(args))
    return result, obs


def _report_hang(exc, args):
    """Render a HangDetected post-mortem; exit code 3 distinguishes a
    detected hang from both success (0) and ordinary errors (1/2)."""
    print(exc.render())
    out = getattr(args, "postmortem", None)
    if out:
        with open(out, "w") as handle:
            json.dump(exc.postmortem, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote post-mortem JSON to %s" % out, file=sys.stderr)
    return 3


def _cmd_run(args):
    try:
        result, obs = _run_observed(args)
    except HangDetected as exc:
        return _report_hang(exc, args)

    if args.json:
        payload = {
            "result": result.value,
            "cycles": result.cycles,
            "output": result.output,
            "stats": result.stats.to_dict(),
        }
        if obs is not None:
            payload.update(obs.to_dict())
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in result.output:
            print(line)
        print("result:", result.value)
        print("cycles: %d   utilization: %.1f%%   futures: %d   switches: %d"
              % (result.cycles, 100 * result.stats.utilization,
                 result.stats.futures_created, result.stats.context_switches))
        if obs is not None and obs.profiler is not None:
            print()
            print(obs.profiler.report(top=args.top))
        if obs is not None and args.timeline and obs.sampler is not None:
            print()
            print(obs.sampler.render())

    _write_outputs(obs, args)
    return 0


def _write_outputs(obs, args):
    """Write the Perfetto trace and the coherence-transaction JSON, as
    requested."""
    if obs is None:
        return
    if args.events:
        path = obs.write_perfetto(args.events)
        print("wrote Perfetto trace to %s (open in ui.perfetto.dev)" % path,
              file=sys.stderr)
    txn = getattr(args, "txn", None)
    if txn:
        path = obs.write_txn(txn)
        print("wrote %d coherence transactions to %s"
              % (obs.txn.summary()["recorded"], path), file=sys.stderr)


def _cmd_explain(args):
    """Why is speedup sublinear: accounting tables + critical path."""
    from repro.obs import ConservationError

    with open(args.program) as handle:
        source = handle.read()
    obs = Observation(
        events=bool(args.events),
        window=args.window if args.events else 0,
        txn=bool(args.txn) or args.coherent,
        threads=True,
    )
    result = run_mult(source, mode=args.mode, args=tuple(args.args),
                      software_checks=args.encore,
                      config=_build_config(args), observe=obs)
    try:
        data = obs.explain(top=args.top, why_top=args.top)
        obs.lifetime.check()
    except ConservationError as exc:
        print("error: cycle conservation violated: %s" % exc,
              file=sys.stderr)
        return 1

    if args.json:
        data["result"] = result.value
        data["cycles"] = result.cycles
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(obs.explain_render(top=args.top))
    _write_outputs(obs, args)
    return 0


def _cmd_report(args):
    result, obs = _run_observed(args, force_obs=True)
    report = obs.report(result=result, top=args.top)
    if args.histograms and "histograms" not in report:
        report["histograms"] = obs.hist.to_dict()
    if getattr(args, "critical_path", False):
        report["critical_path"] = obs.explain(
            top=args.top, why_top=args.top)["critical_path"]
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print("wrote report to %s" % args.out, file=sys.stderr)
    else:
        print(text)
    _write_outputs(obs, args)
    return 0


def _build_cache(args):
    """The result cache the sweep flags ask for (None = bypass)."""
    if getattr(args, "no_cache", False):
        return None
    from repro.exp.cache import default_cache
    return default_cache()


def _split_names(values):
    """Flatten ``--programs fib,queens factor`` style lists."""
    names = []
    for value in values or ():
        names.extend(part for part in value.split(",") if part)
    return names


def _print_sweep_trailer(summary, failures):
    """Summary + failed cells on stderr (stdout stays byte-stable)."""
    from repro.harness.reporting import sweep_summary_line
    print(sweep_summary_line(summary), file=sys.stderr)
    for outcome in failures:
        print("failed: %s: %s: %s"
              % (outcome.job.label, outcome.kind, outcome.message),
              file=sys.stderr)


def _cmd_monitor(args):
    """The interactive machine debugger (``april monitor``)."""
    from repro.lang.run import build_mult_machine
    from repro.obs.monitor import Monitor

    with open(args.program) as handle:
        source = handle.read()
    machine, compiled = build_mult_machine(
        source, mode=args.mode, software_checks=args.encore,
        config=_build_config(args))
    monitor = Monitor(machine, entry=compiled.entry_label("main"),
                      args=tuple(args.args), echo=bool(args.script),
                      max_cycles=args.max_cycles)
    if args.script:
        with open(args.script) as handle:
            lines = handle.read().splitlines()
        monitor.repl(lines)
    else:
        monitor.repl()
    return 0


def _cmd_asm(args):
    with open(args.program) as handle:
        program = assemble(handle.read())
    print(disassemble(program.words, base=program.base,
                      labels=program.labels))
    return 0


def _cmd_table3(args):
    result = run_table3(program_names=_split_names(args.programs) or None,
                        systems=tuple(_split_names(args.systems)) or SYSTEMS,
                        pool_size=args.jobs, cache=_build_cache(args),
                        force=args.force, timeout_s=args.timeout)
    print(render_table3(result))
    _print_sweep_trailer(result.sweep.timing_summary(), result.failures)
    return 1 if result.failures else 0


def _cmd_speedup(args):
    from repro.harness.speedup import render_speedup, run_speedup
    curves, sweep = run_speedup(
        program_names=_split_names(args.programs) or None,
        system=args.system, cpus=tuple(args.cpus), pool_size=args.jobs,
        cache=_build_cache(args), force=args.force, timeout_s=args.timeout)
    print(render_speedup(curves))
    _print_sweep_trailer(sweep.timing_summary(), sweep.failures)
    return 1 if sweep.failures else 0


def _cmd_sweep(args):
    from repro.exp.runner import run_jobs
    from repro.exp.spec import (
        expand_spec, load_spec, merged_output, render_output,
    )
    spec = load_spec(args.spec)
    jobs = expand_spec(spec)
    sweep = run_jobs(jobs, pool_size=args.jobs, cache=_build_cache(args),
                     force=args.force, timeout_s=args.timeout)
    text = render_output(merged_output(spec, sweep))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print("wrote sweep results to %s" % args.out, file=sys.stderr)
    else:
        sys.stdout.write(text)
    _print_sweep_trailer(sweep.timing_summary(), sweep.failures)
    return 1 if sweep.failures else 0


def _cmd_figure5(args):
    print(render_report())
    return 0


def _cmd_serve(args):
    """The long-running sweep service (``april serve``)."""
    import asyncio
    import signal

    from repro.serve.server import build_server

    async def _main():
        server = build_server(args)
        await server.start()
        where = []
        if args.socket:
            where.append("unix:%s" % args.socket)
        if args.tcp:
            where.append("tcp:%s" % args.tcp)
        print("april serve: listening on %s (%d workers, queue limit %d)"
              % (", ".join(where), args.workers, args.queue_limit),
              file=sys.stderr)

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("april serve: draining...", file=sys.stderr)
        leftover = await server.stop(drain_timeout_s=args.drain_timeout)
        snapshot = server.metrics_snapshot()
        if args.trace_perfetto:
            trace = server.trace_perfetto()
            if trace is None:
                print("note: --trace-perfetto ignored (tracing disabled)",
                      file=sys.stderr)
            else:
                with open(args.trace_perfetto, "w") as handle:
                    json.dump(trace, handle, sort_keys=True)
                    handle.write("\n")
                print("wrote server timeline to %s (open in "
                      "ui.perfetto.dev)" % args.trace_perfetto,
                      file=sys.stderr)
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote final metrics to %s" % args.metrics_out,
                  file=sys.stderr)
        counters = snapshot["counters"]
        print("april serve: drained (%d abandoned): %d requests, "
              "%d executed, %d cache hits, %d deduped, %d failed"
              % (leftover, counters["requests"], counters["executed"],
                 counters["cache_hits"], counters["deduped"],
                 counters["failed"]), file=sys.stderr)
        return 0

    return asyncio.run(_main())


def _endpoint(args):
    """``(socket_path, host, port)`` a client command connects to:
    ``--tcp`` when given, else ``--socket``."""
    if not args.tcp:
        return args.socket, None, None
    from repro.serve.protocol import parse_tcp
    return (None,) + parse_tcp(args.tcp)


def _cmd_loadgen(args):
    """The traffic harness (``april loadgen``)."""
    import asyncio

    from repro.serve.loadgen import render_report as render_loadgen
    from repro.serve.loadgen import run_loadgen

    socket_path, host, port = _endpoint(args)

    try:
        report = asyncio.run(run_loadgen(
            socket_path=socket_path, host=host, port=port,
            rate=args.rate, requests=args.requests,
            connections=args.connections, hot_ratio=args.hot_ratio,
            seed=args.seed, nonce=args.nonce, program=args.program,
            burst=args.dedupe_burst))
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print("error: cannot reach server: %s" % exc, file=sys.stderr)
        return 1

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print("wrote loadgen report to %s" % args.out, file=sys.stderr)
    if args.json and not args.out:
        print(text)
    else:
        print(render_loadgen(report))
    return 0 if report["statuses"]["error"] == 0 else 1


def _cmd_top(args):
    """The live dashboard (``april top``)."""
    import asyncio

    from repro.serve.top import run_top

    socket_path, host, port = _endpoint(args)

    count = 1 if args.once else args.count
    plain = args.plain or args.once
    try:
        frames = asyncio.run(run_top(
            socket_path=socket_path, host=host, port=port,
            interval_s=args.interval, count=count, plain=plain))
    except KeyboardInterrupt:
        return 0
    return 0 if frames else 1


def _window(text):
    """argparse type of ``--window``: a cycle count, 0 for no sampler."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be 0 or more cycles")
    return value


def _add_machine_options(cmd):
    """The program and the machine it runs on."""
    cmd.add_argument("program")
    cmd.add_argument("-p", "--processors", type=int, default=1)
    cmd.add_argument("--mode", default="eager",
                     choices=("eager", "lazy", "sequential"))
    cmd.add_argument("--encore", action="store_true",
                     help="Encore Multimax baseline configuration")
    cmd.add_argument("--coherent", action="store_true",
                     help="full caches + directory + network")
    cmd.add_argument("--args", type=int, nargs="*", default=[],
                     help="fixnum arguments passed to (main ...)")


def _add_observation_options(cmd):
    """What a batch run records (``run``, ``explain``, ``report``)."""
    cmd.add_argument("--events", metavar="FILE",
                     help="write a Perfetto/Chrome trace JSON of the run")
    cmd.add_argument("--txn", metavar="FILE",
                     help="write every coherence transaction (spans, "
                          "latency histograms, anomalies) as JSON")
    cmd.add_argument("--window", type=_window, default=4096,
                     help="utilization sampler window in cycles "
                          "(0 = no sampler)")
    cmd.add_argument("--top", type=int, default=20,
                     help="profile entries to show/emit")


def _add_sweep_options(cmd):
    cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for the cell grid (default 1 "
                          "= run inline; results are byte-identical)")
    cmd.add_argument("--no-cache", action="store_true",
                     help="bypass the content-addressed result cache")
    cmd.add_argument("--force", action="store_true",
                     help="re-execute cells even when cached (and refresh "
                          "the cache)")
    cmd.add_argument("--timeout", type=int, metavar="SECONDS",
                     help="per-cell wall-clock limit (failed cell, "
                          "bounded retry, sweep continues)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="april",
        description="APRIL (ISCA 1990) reproduction: simulate Mul-T "
                    "programs on a coarse-grain multithreaded machine.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="compile and run a Mul-T program")
    _add_machine_options(run_cmd)
    _add_observation_options(run_cmd)
    run_cmd.add_argument("--json", action="store_true",
                         help="machine-readable result on stdout")
    run_cmd.add_argument("--profile", action="store_true",
                         help="hot-path profile with source attribution")
    run_cmd.add_argument("--timeline", action="store_true",
                         help="per-node utilization timeline")
    run_cmd.add_argument("--watchdog", action="store_true",
                         help="attach the hang watchdog + flight recorder: "
                              "stop deadlock/livelock with a post-mortem "
                              "(exit code 3) instead of burning cycles")
    run_cmd.add_argument("--watchdog-interval", type=int, default=2048,
                         metavar="N", help="cycles between watchdog checks "
                                           "(default 2048)")
    run_cmd.add_argument("--postmortem", metavar="FILE",
                         help="with --watchdog: also write the post-mortem "
                              "as JSON on a detected hang")
    run_cmd.set_defaults(func=_cmd_run)

    mon_cmd = sub.add_parser(
        "monitor", help="interactive machine debugger: step, breakpoints, "
                        "full/empty watchpoints, pokes, disassembly")
    _add_machine_options(mon_cmd)
    mon_cmd.add_argument("--script", metavar="FILE",
                         help="run monitor commands from FILE (echoed; "
                              "deterministic transcript) instead of stdin")
    mon_cmd.add_argument("--max-cycles", type=int, default=200_000_000)
    mon_cmd.set_defaults(func=_cmd_monitor)

    explain_cmd = sub.add_parser(
        "explain", help="explain why speedup is sublinear: per-thread "
                        "cycle accounting + ranked critical-path report")
    _add_machine_options(explain_cmd)
    _add_observation_options(explain_cmd)
    explain_cmd.add_argument("--json", action="store_true",
                             help="byte-stable JSON (thread accounting + "
                                  "critical path) instead of text")
    explain_cmd.set_defaults(func=_cmd_explain)

    report_cmd = sub.add_parser(
        "report", help="run a program and emit the full JSON machine report")
    _add_machine_options(report_cmd)
    _add_observation_options(report_cmd)
    report_cmd.add_argument("--out", metavar="FILE",
                            help="write the report here instead of stdout")
    report_cmd.add_argument("--histograms", action="store_true",
                            help="include the latency histogram section "
                                 "(p50/p90/p99 per kind/hops/node)")
    report_cmd.add_argument("--threads", action="store_true",
                            help="include the per-thread cycle accounting "
                                 "section (lifetime accountant)")
    report_cmd.add_argument("--critical-path", action="store_true",
                            help="include the causal critical-path section "
                                 "(implies --threads)")
    report_cmd.set_defaults(func=_cmd_report)

    asm_cmd = sub.add_parser("asm", help="assemble and list APRIL assembly")
    asm_cmd.add_argument("program")
    asm_cmd.set_defaults(func=_cmd_asm)

    t3 = sub.add_parser("table3", help="regenerate Table 3")
    t3.add_argument("--programs", nargs="*", metavar="NAME[,NAME]",
                    help="only these programs (space- or comma-separated: "
                         "fib, factor, queens, speech)")
    t3.add_argument("--systems", nargs="*", metavar="SYS[,SYS]",
                    help="only these system rows (Encore, APRIL, Apr-lazy) "
                         "— with --programs, regenerates a single grid "
                         "cell without running the full table")
    _add_sweep_options(t3)
    t3.set_defaults(func=_cmd_table3)

    sp = sub.add_parser(
        "speedup", help="Section 7 speedup curves over the sequential "
                        "baseline")
    sp.add_argument("--programs", nargs="*", metavar="NAME[,NAME]",
                    help="workloads to sweep (default: all four)")
    sp.add_argument("--system", default="Apr-lazy",
                    choices=("Encore", "APRIL", "Apr-lazy"))
    sp.add_argument("--cpus", type=int, nargs="*", default=[1, 2, 4, 8, 16],
                    help="processor counts to sweep")
    _add_sweep_options(sp)
    sp.set_defaults(func=_cmd_speedup)

    sweep_cmd = sub.add_parser(
        "sweep", help="run a declarative experiment grid from a JSON spec")
    sweep_cmd.add_argument("spec", help="sweep spec file (see repro.exp.spec)")
    sweep_cmd.add_argument("--out", metavar="FILE",
                           help="write merged results here instead of stdout")
    _add_sweep_options(sweep_cmd)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    f5 = sub.add_parser("figure5", help="regenerate Table 4 + Figure 5")
    f5.set_defaults(func=_cmd_figure5)

    serve_cmd = sub.add_parser(
        "serve", help="long-running sweep service: job specs over a unix "
                      "socket, single-flight dedupe, shared result cache, "
                      "backpressure, graceful drain")
    serve_cmd.add_argument("--socket", metavar="PATH", default="april.sock",
                           help="unix socket to listen on (default "
                                "april.sock)")
    serve_cmd.add_argument("--tcp", metavar="HOST:PORT",
                           help="also listen on TCP (e.g. 127.0.0.1:7010)")
    serve_cmd.add_argument("--workers", type=int, default=2, metavar="N",
                           help="persistent worker processes (default 2)")
    serve_cmd.add_argument("--queue-limit", type=int, default=64,
                           metavar="N",
                           help="max in-flight executions before new work "
                                "is fast-failed 'overloaded' (default 64; "
                                "followers of an open flight ride free)")
    serve_cmd.add_argument("--rate", type=float, default=0.0, metavar="R",
                           help="per-connection token-bucket limit in "
                                "requests/s (0 = unlimited)")
    serve_cmd.add_argument("--burst", type=float, default=None, metavar="N",
                           help="token-bucket burst size (default: rate)")
    serve_cmd.add_argument("--timeout", type=int, default=None,
                           metavar="SECONDS",
                           help="per-job wall-clock limit (typed 'timeout' "
                                "failure; enforced in the worker and at "
                                "the pool)")
    serve_cmd.add_argument("--cache-dir", metavar="DIR",
                           help="result cache root (default: the sweep "
                                "cache, results/cache or $REPRO_CACHE_DIR)")
    serve_cmd.add_argument("--no-cache", action="store_true",
                           help="serve without the on-disk result cache "
                                "(hot LRU and single-flight still apply)")
    serve_cmd.add_argument("--hot-entries", type=int, default=512,
                           metavar="N",
                           help="in-memory result LRU capacity (default "
                                "512)")
    serve_cmd.add_argument("--drain-timeout", type=float, default=10.0,
                           metavar="SECONDS",
                           help="max wait for in-flight jobs on SIGTERM "
                                "(default 10)")
    serve_cmd.add_argument("--metrics-out", metavar="FILE",
                           help="write the final metrics snapshot as JSON "
                                "on clean shutdown")
    serve_cmd.add_argument("--trace-ring", type=int, default=512,
                           metavar="N",
                           help="completed request traces kept after their "
                                "connections close (default 512; 0 turns "
                                "request tracing off entirely)")
    serve_cmd.add_argument("--slow-log", metavar="FILE",
                           help="append every request slower than --slow-ms "
                                "as one NDJSON trace line (flushed live)")
    serve_cmd.add_argument("--slow-ms", type=float, default=1000.0,
                           metavar="N",
                           help="slow-log threshold in milliseconds of "
                                "service latency (default 1000)")
    serve_cmd.add_argument("--trace-perfetto", metavar="FILE",
                           help="on drain, write every recorded request "
                                "trace as a Perfetto/Chrome timeline "
                                "(connection + worker tracks, dedupe "
                                "arrows)")
    serve_cmd.set_defaults(func=_cmd_serve)

    lg = sub.add_parser(
        "loadgen", help="spray a hot/cold job mix at a running april "
                        "serve and report RPS, hit/dedupe ratios, latency")
    lg.add_argument("--socket", metavar="PATH", default="april.sock",
                    help="server unix socket (default april.sock)")
    lg.add_argument("--tcp", metavar="HOST:PORT",
                    help="connect over TCP instead of the unix socket")
    lg.add_argument("--rate", type=float, default=500.0, metavar="R",
                    help="target aggregate request rate in requests/s "
                         "(0 = as fast as possible; default 500)")
    lg.add_argument("--requests", type=int, default=2000, metavar="N",
                    help="total requests to send (default 2000)")
    lg.add_argument("--connections", type=int, default=4, metavar="N",
                    help="concurrent client connections (default 4)")
    lg.add_argument("--hot-ratio", type=float, default=0.9, metavar="F",
                    help="fraction of requests drawn from the hot spec "
                         "set (default 0.9)")
    lg.add_argument("--seed", type=int, default=1234,
                    help="hot/cold mix RNG seed (default 1234)")
    lg.add_argument("--nonce", type=int, default=None, metavar="N",
                    help="cold-spec namespace (default: time-derived, so "
                         "every run's cold jobs are genuinely cold)")
    lg.add_argument("--program", default="fib",
                    help="workload the specs run (default fib)")
    lg.add_argument("--dedupe-burst", type=int, default=0, metavar="N",
                    help="after the main run, fire N identical never-seen "
                         "cold requests back-to-back and report the "
                         "single-flight scorecard")
    lg.add_argument("--json", action="store_true",
                    help="full JSON report on stdout")
    lg.add_argument("--out", metavar="FILE",
                    help="write the JSON report here")
    lg.set_defaults(func=_cmd_loadgen)

    top_cmd = sub.add_parser(
        "top", help="live dashboard for a running april serve: req/s, "
                    "ratios, queue depth, p50/p99 by served axis, "
                    "slowest in-flight and completed requests")
    top_cmd.add_argument("--socket", metavar="PATH", default="april.sock",
                         help="server unix socket (default april.sock)")
    top_cmd.add_argument("--tcp", metavar="HOST:PORT",
                         help="connect over TCP instead of the unix socket")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="seconds between polls (default 2)")
    top_cmd.add_argument("--count", type=int, default=None, metavar="N",
                         help="render N frames then exit (default: until "
                              "interrupted)")
    top_cmd.add_argument("--once", action="store_true",
                         help="one frame, no screen clearing (= --count 1 "
                              "--plain)")
    top_cmd.add_argument("--plain", action="store_true",
                         help="append frames instead of redrawing the "
                              "screen (for logs/pipes)")
    top_cmd.set_defaults(func=_cmd_top)
    return parser


def main(argv=None):
    """Run one subcommand; returns the exit code.

    What the package itself raises (:class:`ReproError`: a bad program,
    configuration, spec, listener) and a file that cannot be read or
    written is one ``error:`` line and exit 2 — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
