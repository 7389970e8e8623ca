"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one benchmark under one policy and print its stats;
* ``suite`` — run a benchmark x policy grid and print speedups;
* ``figure`` — print one artifact of :mod:`repro.experiments`' table by
  id (fig01..fig16, tab01/tab04/tab05, ext_related_work) or ``all``;
* ``manifest`` — print the summary of a suite run's JSON manifest;
* ``workload`` — characterize a benchmark's instruction stream;
* ``trace`` — record/replay **this simulator's own** block-stream dumps
  of a benchmark (an internal debugging format), or (``trace run``)
  simulate with the telemetry recorder attached and export Chrome-trace
  JSON (Perfetto-loadable) plus JSONL (see :mod:`repro.telemetry`).
  To bring a trace captured *outside* this simulator, see ``ingest``;
* ``ingest`` — import an **external** basic-block trace (schema-v1
  JSONL, ChampSim branch records, or ``pc,target,taken`` CSV) as a
  content-addressed store row, optionally registering it as a first-class
  benchmark name usable in ``run``/``suite``/``sweep``/``submit``
  (see :mod:`repro.traces`);
* ``diff`` — compare two run dumps / manifests / traces and name the
  first diverging counter or event (exit 0 match, 1 diverged,
  2 incomparable);
* ``lint`` — run the AST determinism/architecture rules
  (see :mod:`repro.analysis`);
* ``serve`` — run the simulation job server (priority queue, worker
  pool, durable result store; see :mod:`repro.service`);
* ``submit`` — submit one cell to a running server (``--wait`` blocks
  for the result);
* ``jobs`` — list/inspect/cancel server jobs, ``--drain`` it, or
  ``--watch SECONDS`` to poll and redraw until Ctrl-C;
* ``sweep`` — compile (``plan``), execute (``run``), or resolve
  (``status``) a declarative TOML/JSON sweep spec against the result
  store, a local pool, or a running server (see :mod:`repro.sweeps`);
* ``dash`` — summarize (and ``--open`` in a browser) a running
  server's live dashboard;
* ``list`` — show the available benchmarks, policies, and figures.

Every result is looked up in and written to one result store
(:mod:`repro.simulator.cache`). ``--store DIR`` (or the ``REPRO_STORE``
env var) picks its root, else ``<cache dir>/store`` — the root ``serve``
also defaults to, so batch and served work share one result set. The
trace names registered in that store are the trace benchmarks a
command accepts.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Container, List, Optional, Sequence

from repro.experiments import FIGURES, artifact_files
from repro.simulator.cache import STORE_ENV, StoreSchemaError, open_store
from repro.simulator.policies import POLICIES, get_policy
from repro.simulator.runner import (
    DEFAULT_BACKOFF_S,
    DEFAULT_INSTRUCTIONS,
    DEFAULT_RETRIES,
    DEFAULT_WARMUP,
    resolve_jobs,
    run_benchmark,
)
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    external_benchmark_names,
    get_profile,
    known_benchmark_names,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="PDIP (ASPLOS 2024) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one benchmark x policy")
    p_run.add_argument("benchmark", choices=known_benchmark_names())
    p_run.add_argument("policy", choices=sorted(POLICIES))
    _budget_args(p_run)
    p_run.add_argument("--no-cache", action="store_true",
                       help="skip the store lookup and simulate (the "
                            "result is still stored)")
    _store_arg(p_run)
    p_run.add_argument("--stats-out", default=None, metavar="PATH",
                       help="also write the stats as a JSON run dump "
                            "(comparable with 'repro diff')")

    p_suite = sub.add_parser("suite", help="benchmark x policy grid")
    p_suite.add_argument("--benchmarks", default="all",
                         type=_names(known_benchmark_names(), BENCHMARK_NAMES),
                         help="comma-separated names or 'all'")
    p_suite.add_argument("--policies", default="baseline,pdip_44",
                         type=_names(POLICIES),
                         help="comma-separated policy names")
    _budget_args(p_suite)
    _jobs_arg(p_suite, "all cores")
    _store_arg(p_suite)

    p_fig = sub.add_parser("figure", help="regenerate a paper artifact")
    p_fig.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    _jobs_arg(p_fig, "serial")
    _store_arg(p_fig)

    p_man = sub.add_parser("manifest", help="summarize a suite run manifest")
    p_man.add_argument("path", nargs="?", default=None,
                       help="manifest JSON (default: the most recent)")
    p_man.add_argument("--cells", action="store_true",
                       help="also list the per-cell records")

    p_wl = sub.add_parser("workload", help="characterize a benchmark")
    p_wl.add_argument("benchmark", choices=known_benchmark_names())
    p_wl.add_argument("--instructions", type=int, default=200_000)
    p_wl.add_argument("--seed", type=int, default=1)

    p_tr = sub.add_parser(
        "trace",
        help="record/replay this simulator's own block-stream dumps "
             "(internal format; for external traces see 'repro ingest')")
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)
    t_rec = tr_sub.add_parser("record")
    t_rec.add_argument("benchmark", choices=known_benchmark_names())
    t_rec.add_argument("path", help="output trace file")
    t_rec.add_argument("--blocks", type=int, default=50_000)
    t_rec.add_argument("--seed", type=int, default=1)
    t_rep = tr_sub.add_parser("replay")
    t_rep.add_argument("benchmark", choices=known_benchmark_names())
    t_rep.add_argument("path", help="trace file to replay")
    t_rep.add_argument("--policy", default="baseline",
                       choices=sorted(POLICIES))
    t_rep.add_argument("--instructions", type=int, default=100_000)
    t_rep.add_argument("--warmup", type=int, default=20_000)
    t_rep.add_argument("--seed", type=int, default=1)
    t_run = tr_sub.add_parser(
        "run", help="simulate with the telemetry recorder attached and "
                    "export Chrome-trace + JSONL traces")
    t_run.add_argument("benchmark", choices=known_benchmark_names())
    t_run.add_argument("--policy", default="pdip_44",
                       choices=sorted(POLICIES))
    t_run.add_argument("--instructions", type=int,
                       default=DEFAULT_INSTRUCTIONS)
    t_run.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    t_run.add_argument("--seed", type=int, default=1)
    t_run.add_argument("--out", default=None, metavar="PREFIX",
                       help="output prefix for <PREFIX>.trace.json / "
                            ".trace.jsonl / .run.json (default: "
                            "<benchmark>-<policy>-s<seed>)")
    t_run.add_argument("--capacity", type=int, default=None,
                       help="event ring capacity (default: "
                            "REPRO_TELEMETRY_CAPACITY env, else 65536)")
    t_run.add_argument("--sample-every", type=int, default=None,
                       help="keep every Nth event (default: "
                            "REPRO_TELEMETRY_SAMPLE env, else 1)")

    from repro.traces.convert import FORMATS
    from repro.traces.downsample import DEFAULT_BUDGET, DEFAULT_WINDOW

    p_ing = sub.add_parser(
        "ingest",
        help="import an external basic-block trace as a content-addressed "
             "workload (unlike 'repro trace', which handles this "
             "simulator's own dumps)")
    p_ing.add_argument("file", help="trace file (.jsonl/.champsim/.csv, "
                                    "optionally gzipped)")
    p_ing.add_argument("--format", dest="format", default="auto",
                       choices=FORMATS,
                       help="input format (default: sniffed from the "
                            "first line)")
    p_ing.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="downsample to about this many instructions "
                            "(default %d)" % DEFAULT_BUDGET)
    p_ing.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                       help="downsampler window in events (default %d)"
                            % DEFAULT_WINDOW)
    p_ing.add_argument("--seed", type=int, default=0,
                       help="downsampler fill-selection seed (default 0)")
    p_ing.add_argument("--register", default=None, metavar="NAME",
                       help="also register the trace as benchmark NAME "
                            "(persists in the store; "
                            "usable in run/suite/sweep/submit)")
    _store_arg(p_ing)

    p_diff = sub.add_parser(
        "diff", help="compare two run dumps, manifests, or traces")
    p_diff.add_argument("a", help="first artifact (JSON or .jsonl)")
    p_diff.add_argument("b", help="second artifact")
    p_diff.add_argument("--format", dest="format", default="text",
                        choices=("text", "json"),
                        help="report format (json for CI)")

    p_lint = sub.add_parser(
        "lint", help="run the AST determinism/architecture rules")
    p_lint.add_argument("paths", nargs="*", default=[],
                        help="files/directories to scan (default: src/repro)")
    p_lint.add_argument("--format", dest="format", default="text",
                        choices=("text", "json", "github"),
                        help="report format (github emits Actions "
                             "::error annotations)")
    p_lint.add_argument("--select", default=None,
                        help="comma-separated rule names (default: all)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")
    p_lint.add_argument("--timings", action="store_true",
                        help="print per-rule wall time after the report")
    p_lint.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="fail (exit 1) if the full lint run takes "
                             "longer than SECONDS")

    p_serve = sub.add_parser(
        "serve", help="run the simulation job server (see repro.service)")
    _endpoint_args(p_serve)
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="simulation worker processes (default 2)")
    p_serve.add_argument("--queue-limit", type=int, default=None,
                         help="max queued jobs before 429 (default 256)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-attempt job timeout in seconds "
                              "(default: none)")
    p_serve.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                         help="retry budget per job beyond try #1 "
                              "(default %d)" % DEFAULT_RETRIES)
    p_serve.add_argument("--backoff", type=float, default=DEFAULT_BACKOFF_S,
                         help="base retry backoff seconds, doubled per "
                              "attempt (default %g)" % DEFAULT_BACKOFF_S)
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="result store root (default: REPRO_STORE "
                              "env, else <cache dir>/store)")
    p_serve.add_argument("--no-store", action="store_true",
                         help="run without durable persistence")
    p_serve.add_argument("--allow-faults", action="store_true",
                         help="accept fault-injection jobs (failure-mode "
                              "tests and CI only)")

    p_submit = sub.add_parser(
        "submit", help="submit one cell to a running job server")
    # the server checks the name against the benchmarks it knows
    p_submit.add_argument("benchmark")
    p_submit.add_argument("policy", choices=sorted(POLICIES))
    p_submit.add_argument("--instructions", type=int,
                          default=DEFAULT_INSTRUCTIONS)
    p_submit.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    p_submit.add_argument("--seed", type=int, default=1)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs earlier (default 0)")
    _endpoint_args(p_submit)
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job is terminal and print "
                               "its stats")
    p_submit.add_argument("--wait-timeout", type=float, default=None,
                          help="give up waiting after this many seconds")

    p_jobs = sub.add_parser(
        "jobs", help="list or manage jobs on a running server")
    p_jobs.add_argument("job", nargs="?", default=None,
                        help="job id to show in detail (default: list all)")
    p_jobs.add_argument("--cancel", metavar="ID", default=None,
                        help="cancel a queued or running job")
    p_jobs.add_argument("--drain", action="store_true",
                        help="ask the server to drain and exit")
    p_jobs.add_argument("--watch", type=float, default=None,
                        metavar="SECONDS",
                        help="poll and redraw every SECONDS until Ctrl-C")
    _endpoint_args(p_jobs)

    p_sweep = sub.add_parser(
        "sweep", help="compile/run/inspect a declarative sweep spec "
                      "(see repro.sweeps)")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    for verb, blurb in (("plan", "compile a spec and print its plan"),
                        ("run", "execute the dirty cells of a plan"),
                        ("status", "resolve a plan without executing")):
        p_verb = sweep_sub.add_parser(verb, help=blurb)
        p_verb.add_argument("spec", help="sweep spec file (.toml or .json)")
        _store_arg(p_verb)
        if verb != "plan":
            p_verb.add_argument("--state", default=None, metavar="PATH",
                                help="resumable state file (default: keyed "
                                     "by plan digest under the cache dir; "
                                     "'' disables)")
        p_verb.add_argument("--format", dest="format", default="text",
                            choices=("text", "json"))
        if verb == "plan":
            p_verb.add_argument("--cells", action="store_true",
                                help="list every compiled cell")
        if verb == "run":
            _jobs_arg(p_verb, "all cores")
            p_verb.add_argument("--endpoint", default=None,
                                metavar="HOST:PORT",
                                help="submit dirty cells to a running "
                                     "'repro serve' instead of a local pool")
            p_verb.add_argument("--max-in-flight", type=int, default=None,
                                help="bound on outstanding service "
                                     "submissions (default 16)")
            p_verb.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                                help="local-pool retry budget per cell "
                                     "(default %d)" % DEFAULT_RETRIES)
            p_verb.add_argument("--report", default=None, metavar="PATH",
                                help="write the JSON sweep report here")
            p_verb.add_argument("--no-stats", action="store_true",
                                help="omit per-cell stats from the report")
            p_verb.add_argument("--quiet", action="store_true",
                                help="suppress per-cell progress lines")

    p_dash = sub.add_parser(
        "dash", help="show/open the live dashboard of a running server")
    _endpoint_args(p_dash)
    p_dash.add_argument("--open", action="store_true",
                        help="open the dashboard in a web browser")

    sub.add_parser("list", help="show benchmarks, policies, figures")
    return parser


def _names(catalog: Container[str], every: Sequence[str] = ()
           ) -> Callable[[str], List[str]]:
    """argparse type: a comma list of names in ``catalog`` (or, when
    ``every`` is given, the word ``all`` for those)."""
    def parse(text: str) -> List[str]:
        if every and text == "all":
            return list(every)
        names = [name.strip() for name in text.split(",")]
        bad = [name for name in names if name not in catalog]
        if bad:
            raise argparse.ArgumentTypeError(
                "unknown name %r (see 'repro list')" % bad[0])
        return names
    return parse


def _budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS)
    parser.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    parser.add_argument("--seed", type=int, default=1)


def _jobs_arg(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the simulation grid "
                             "(default: REPRO_JOBS env, else %s)" % default)


def _store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result store root (default: REPRO_STORE "
                             "env, else <cache dir>/store)")


def _endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="server port (default 8642)")


def _run_dump(args: argparse.Namespace, stats, session=None,
              trace=None) -> dict:
    """JSON run dump: the artifact ``repro diff`` compares."""
    dump: dict = {
        "schema": 1,
        "benchmark": args.benchmark,
        "policy": args.policy,
        "seed": args.seed,
        "instructions": args.instructions,
        "warmup": args.warmup,
        "stats": dict(stats.counters()),
    }
    if session is not None:
        dump["telemetry"] = session.summary()
    if trace is not None:
        dump["trace"] = trace
    return dump


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one benchmark x policy."""
    stats = run_benchmark(args.benchmark, args.policy,
                          instructions=args.instructions,
                          warmup=args.warmup, seed=args.seed,
                          use_cache=not args.no_cache,
                          store=open_store())
    if args.stats_out:
        import json
        from pathlib import Path

        out = Path(args.stats_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            # no sort_keys: the stats dict's declaration order (pipeline
            # order) is what makes diff's "first diverging counter" useful
            json.dump(_run_dump(args, stats), fh, indent=1)
            fh.write("\n")
        print(f"run dump: {out}")
    td = stats.topdown
    print(f"{args.benchmark} / {args.policy}")
    print(f"  IPC        {stats.ipc:.3f}")
    print(f"  MPKI       L1I {stats.l1i_mpki:.1f}  L2I {stats.l2i_mpki:.1f}"
          f"  L2D {stats.l2d_mpki:.1f}  L3 {stats.l3_mpki:.2f}")
    print(f"  top-down   ret {td['retiring']:.0%}  fe {td['frontend_bound']:.0%}"
          f"  bad-spec {td['bad_speculation']:.0%}"
          f"  be {td['backend_bound']:.0%}")
    if stats.prefetches_issued:
        print(f"  prefetch   PPKI {stats.ppki:.1f}  "
              f"accuracy {stats.prefetch_accuracy:.0%}  "
              f"late {stats.prefetch_late_fraction:.0%}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """``repro suite``: a benchmark x policy grid, with its run manifest."""
    from repro.experiments.common import collect, geomean_speedup_pct
    from repro.simulator.manifest import RunManifest

    policies = args.policies  # both lists were checked at parse time
    jobs = resolve_jobs(args.jobs, default=os.cpu_count() or 1)
    manifest = RunManifest(jobs=jobs)
    try:
        results = collect(policies, args.benchmarks, args.instructions,
                          args.warmup, seed=args.seed, n_jobs=jobs,
                          manifest=manifest)
        for bench, by_policy in results.items():
            for policy, stats in by_policy.items():
                print(f"{bench:16s} {policy:18s} {stats.summary()}")
    finally:
        # a failed cell is on record before its error propagates; a grid
        # that did not compile ran nothing to record
        if manifest.cells:
            print(f"\nmanifest: {manifest.write()}")
    if "baseline" in policies:
        print()
        for policy in policies:
            if policy == "baseline":
                continue
            print(f"geomean speedup {policy}: "
                  f"{geomean_speedup_pct(results, policy):+.2f}%")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """``repro figure``: print paper artifacts' text tables."""
    if args.jobs is not None:
        # the figure drivers read REPRO_JOBS through experiments.common
        os.environ["REPRO_JOBS"] = str(args.jobs)
    figures = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for figure in figures:
        name = FIGURES[figure]
        print(artifact_files(name)[name + ".txt"])
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    """``repro manifest``: summarize a suite run's JSON manifest."""
    from pathlib import Path

    from repro.simulator import manifest as manifest_mod

    path = Path(args.path) if args.path else manifest_mod.latest()
    if path is None:
        print("no manifests found under", manifest_mod.manifest_dir())
        return 1
    try:
        data = manifest_mod.load(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest {path}: {exc}")
        return 1
    print(f"[{path}]")
    print(manifest_mod.render_summary(data))
    if args.cells:
        print()
        for cell in data.get("cells", []):
            src = "hit " if cell["cache_hit"] else cell["worker"]
            print(f"  {cell['benchmark']:16s} {cell['policy']:18s} "
                  f"seed={cell['seed']} {src:10s} "
                  f"{cell['wall_time']:7.2f}s x{cell['attempts']} "
                  f"{cell['status']}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """``repro workload``: characterize a benchmark."""
    from repro.workloads.analysis import characterize, render

    profile = get_profile(args.benchmark)
    print(render(characterize(profile, instructions=args.instructions,
                              seed=args.seed)))
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    """``repro trace run``: simulate with telemetry, export both formats."""
    import json

    from repro.telemetry import TelemetrySession, export_recorder

    session = TelemetrySession.from_env(capacity=args.capacity,
                                        sample_every=args.sample_every)
    # a traced run simulates anyway, and must leave the store alone
    stats = run_benchmark(args.benchmark, args.policy,
                          instructions=args.instructions,
                          warmup=args.warmup, seed=args.seed,
                          use_cache=False, telemetry=session)
    prefix = args.out or "%s-%s-s%d" % (args.benchmark, args.policy,
                                        args.seed)
    meta = {"benchmark": args.benchmark, "policy": args.policy,
            "seed": args.seed, "instructions": args.instructions,
            "warmup": args.warmup}
    paths = export_recorder(session.recorder, prefix, meta=meta)
    run_path = str(prefix) + ".run.json"
    with open(run_path, "w") as fh:
        # no sort_keys: preserve the stats dict's pipeline-order keys
        # (diff names the *first* diverging counter in this order)
        json.dump(_run_dump(args, stats, session=session, trace=paths),
                  fh, indent=1)
        fh.write("\n")
    summary = session.recorder.summary()
    print(f"{args.benchmark} / {args.policy} seed={args.seed}: "
          f"{stats.summary()}")
    print(f"  events     {summary['events_offered']} offered, "
          f"{summary['events_retained']} retained "
          f"(ring dropped {summary['events_dropped_ring']}, "
          f"sampled out {summary['events_sampled_out']})")
    print(f"  chrome     {paths['chrome']}   (load in ui.perfetto.dev)")
    print(f"  jsonl      {paths['jsonl']}")
    print(f"  run dump   {run_path}   (compare with 'repro diff')")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: record/replay traces or run with telemetry."""
    from repro.simulator.runner import get_layout
    from repro.workloads.profiles import external_benchmark
    from repro.workloads.trace import TraceReplayer, record
    from repro.workloads.walker import PathWalker

    if args.trace_command == "run":
        return _cmd_trace_run(args)
    profile = get_profile(args.benchmark)
    layout = get_layout(args.benchmark, seed=args.seed)
    ext = external_benchmark(args.benchmark)
    if args.trace_command == "record":
        if ext is not None:
            walker = ext.walker_factory(layout, args.seed)
        else:
            walker = PathWalker(layout, seed=args.seed,
                                indirect_noise=profile.indirect_noise)
        with open(args.path, "w") as fh:
            instructions = record(walker, args.blocks, fh,
                                  workload=args.benchmark, seed=args.seed)
        print(f"recorded {args.blocks} blocks ({instructions:,} "
              f"instructions) to {args.path}")
        return 0
    # replay
    from repro.simulator.policies import build_machine

    with open(args.path) as fh:
        replayer = TraceReplayer(layout, fh, loop=True)
    machine = build_machine(layout, profile, get_policy(args.policy),
                            seed=args.seed)
    machine.walker = replayer
    stats = machine.run(args.instructions, warmup=args.warmup)
    print(f"replayed {args.path}: {stats.summary()}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: external trace -> content-addressed workload."""
    from repro.traces.ingest import ingest_path
    from repro.traces.schema import TraceIngestError

    store = open_store()
    try:
        report = ingest_path(args.file, fmt=args.format, store=store,
                             name=args.register or "",
                             budget=args.budget, window=args.window,
                             seed=args.seed)
    except (TraceIngestError, OSError) as exc:
        print(f"ingest failed: {exc}")
        return 1
    source = ("ingested" if report.created else
              "store hit (same bytes + parameters already ingested)")
    print(f"{args.file}: {source}")
    print(f"  format       {report.format}")
    print(f"  digest       {report.digest}")
    print(f"  events       {report.events:,}")
    print(f"  instructions {report.instructions:,}")
    ds = report.downsample
    if ds is not None and ds.sampled:
        print(f"  downsample   kept {ds.events_kept:,}/{ds.events_in:,} "
              f"events across {ds.windows_kept}/{ds.windows_total} windows "
              f"({ds.phase_windows} phase heads; budget {ds.budget:,}, "
              f"seed {ds.seed})")
    if args.register:
        try:
            from repro.traces.registry import register_ingested

            reg = register_ingested(args.register, report,
                                    budget=args.budget, window=args.window,
                                    seed=args.seed)
        except TraceIngestError as exc:
            print(f"register failed: {exc}")
            return 1
        print(f"  registered   '{args.register}' in store {reg} "
              f"(usable in run/suite/sweep/submit)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """``repro diff``: compare two run artifacts (see repro.telemetry.diff)."""
    import json

    from repro.telemetry import diff_paths

    report = diff_paths(args.a, args.b)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: AST determinism/architecture rules."""
    from repro.analysis.cli import run_lint

    select = ([s.strip() for s in args.select.split(",") if s.strip()]
              if args.select else None)
    return run_lint(args.paths, fmt=args.format, select=select,
                    list_rules=args.list_rules, timings=args.timings,
                    budget=args.budget)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the simulation job server until drained."""
    from repro.service import server as service_server
    from repro.simulator.cache import store_root

    return service_server.serve(
        host=args.host,
        port=(args.port if args.port is not None
              else service_server.DEFAULT_PORT),
        store_root=None if args.no_store else str(store_root()),
        jobs=args.jobs,
        queue_limit=(args.queue_limit if args.queue_limit is not None
                     else service_server.DEFAULT_QUEUE_LIMIT),
        timeout=args.timeout,
        retries=args.retries, backoff=args.backoff,
        allow_faults=args.allow_faults)


def _client(args: argparse.Namespace):
    from repro.service.client import ServiceClient
    from repro.service.server import DEFAULT_PORT

    return ServiceClient(host=args.host,
                         port=args.port if args.port is not None
                         else DEFAULT_PORT)


def _job_line(job: dict) -> str:
    line = (f"  {job['id']}  {job.get('benchmark', '?'):16s} "
            f"{job.get('policy', '?'):18s} seed={job.get('seed', '?')} "
            f"prio={job.get('priority', 0)} {job['state']:9s} "
            f"x{job['attempts']}")
    if job.get("source"):
        line += f" [{job['source']}]"
    if job.get("error"):
        line += f"  {job['error']}"
    return line


def _print_job(job: dict) -> None:
    print(_job_line(job))


def cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: send one cell to a running server."""
    from repro.service.client import ServiceError

    client = _client(args)
    try:
        job = client.submit(args.benchmark, args.policy,
                            instructions=args.instructions,
                            warmup=args.warmup, seed=args.seed,
                            priority=args.priority)
        print(f"job {job['id']} {job['state']} (key {job['key'][:12]})")
        if not args.wait:
            return 0
        job = client.wait(job["id"], timeout=args.wait_timeout)
        _print_job(job)
        if job["state"] != "done":
            return 1
        result = client.result(job["id"])
        stats = result["stats"]
        ipc = (stats["instructions"] / stats["cycles"]
               if stats.get("cycles") else 0.0)
        print(f"  IPC {ipc:.3f}  ({result['source']})")
        return 0
    except (ServiceError, ConnectionError, OSError, TimeoutError) as exc:
        print(f"submit failed: {exc}")
        return 1


def _jobs_screen(health: dict, jobs: list) -> str:
    """One full ``repro jobs`` listing as a string (for --watch redraw)."""
    lines = [f"server {health['state']}: {health['queued']} queued, "
             f"{health['running']} running, {health['jobs']} total"]
    lines.extend(_job_line(job) for job in jobs)
    return "\n".join(lines)


def _watch_jobs(client, interval: float) -> int:
    """``repro jobs --watch``: clear + redraw until Ctrl-C (exit 0)."""
    import time as _time

    from repro.service.client import ServiceError

    interval = max(float(interval), 0.05)
    try:
        while True:
            try:
                screen = _jobs_screen(client.health(), client.jobs())
            except (ServiceError, ConnectionError, OSError) as exc:
                screen = f"server unreachable: {exc}"
            # ANSI clear-screen + home, then the fresh listing
            sys.stdout.write("\x1b[2J\x1b[H" + screen +
                             f"\n\n(every {interval:g}s; Ctrl-C to exit)\n")
            sys.stdout.flush()
            _time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """``repro jobs``: list/inspect/cancel jobs, or drain the server."""
    import json

    from repro.service.client import ServiceError

    client = _client(args)
    if args.watch is not None:
        return _watch_jobs(client, args.watch)
    try:
        if args.drain:
            client.drain()
            print("drain requested")
            return 0
        if args.cancel:
            job = client.cancel(args.cancel)
            _print_job(job)
            return 0
        if args.job:
            job = client.status(args.job)
            print(json.dumps(job, indent=1, sort_keys=True))
            return 0
        print(_jobs_screen(client.health(), client.jobs()))
        return 0
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"jobs failed: {exc}")
        return 1


def _parse_endpoint(text: str):
    """``HOST:PORT`` / ``:PORT`` / ``HOST`` → (host, port)."""
    from repro.service.server import DEFAULT_PORT

    host, sep, port = text.rpartition(":")
    if not sep:
        return text or "127.0.0.1", DEFAULT_PORT
    return host or "127.0.0.1", int(port)


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep plan|run|status``: the declarative sweep engine."""
    import json

    from repro.sweeps import (
        DEFAULT_MAX_IN_FLIGHT,
        SweepSpecError,
        compile_spec,
        load_spec,
        load_state,
        run_sweep,
        sweep_state_path,
    )

    try:
        plan = compile_spec(load_spec(args.spec))
    except SweepSpecError as exc:
        print(f"sweep spec error: {exc}")
        return 2

    if args.sweep_command == "plan":
        if args.format == "json":
            doc = dict(plan.summary(),
                       cells=[dict(c.payload(), key=c.key)
                              for c in plan.cells])
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        summary = plan.summary()
        print(f"sweep {summary['name']}: {summary['cells']} cells "
              f"(plan {summary['plan_digest'][:12]})")
        print(f"  benchmarks: {', '.join(summary['benchmarks'])}")
        print(f"  policies:   {', '.join(summary['policies'])}")
        print(f"  configs:    {', '.join(summary['configs'])}")
        if args.cells:
            for cell in plan.cells:
                print(f"  {cell.describe():44s} {cell.key[:12]}")
        return 0

    store = open_store()
    if args.sweep_command == "status":
        state_file = (sweep_state_path(plan) if args.state is None
                      else args.state)
        state = load_state(state_file, plan) if state_file else {
            "done": {}, "failed": {}}
        counts = {"store": 0, "failed": 0, "pending": 0}
        rows = []
        for cell in plan.cells:
            if cell.key in store:
                source = "store"
            elif cell.key in state["failed"]:
                source = "failed"
            else:
                source = "pending"
            counts[source] += 1
            rows.append(dict(cell.payload(), key=cell.key, source=source))
        if args.format == "json":
            print(json.dumps({"name": plan.name, "plan_digest": plan.digest,
                              "counts": counts, "cells": rows},
                             indent=2, sort_keys=True))
        else:
            print(f"sweep {plan.name}: {len(plan.cells)} cells, "
                  f"{counts['store']} warm (store), "
                  f"{counts['pending']} pending, {counts['failed']} failed")
        return 0 if not counts["failed"] else 1

    # sweep run
    client = None
    if args.endpoint:
        from repro.service.client import ServiceClient

        host, port = _parse_endpoint(args.endpoint)
        client = ServiceClient(host=host, port=port)
    report = run_sweep(
        plan, store=store, client=client, jobs=args.jobs,
        retries=args.retries,
        max_in_flight=(args.max_in_flight if args.max_in_flight is not None
                       else DEFAULT_MAX_IN_FLIGHT),
        state_path=args.state, report_path=args.report,
        include_stats=not args.no_stats, verbose=not args.quiet)
    counts = report.counts
    if args.format == "json":
        print(json.dumps(dict(counts, name=plan.name,
                              plan_digest=plan.digest),
                         indent=2, sort_keys=True))
    else:
        print(f"sweep {plan.name}: {counts['total']} cells — "
              f"{counts['store']} store, "
              f"{counts['executed']} executed, {counts['failed']} failed")
        if args.report:
            print(f"report: {args.report}")
    for key, error in list(report.failed.items())[:5]:
        print(f"  failed {key[:12]}: {error}")
    return 0 if not counts["failed"] else 1


def cmd_dash(args: argparse.Namespace) -> int:
    """``repro dash``: summarize (and optionally open) the dashboard."""
    from repro.service.client import ServiceError

    client = _client(args)
    url = f"http://{client.host}:{client.port}/dash"
    try:
        state = client.dash_state()
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"dash failed: {exc}")
        return 1
    server = state.get("server") or {}
    jobs = state.get("jobs") or {}
    print(f"server {server.get('state', '?')}: "
          f"{jobs.get('queued', 0)} queued, {jobs.get('running', 0)} "
          f"running, {jobs.get('total', 0)} jobs")
    for sweep in state.get("sweeps") or []:
        counts = sweep.get("counts") or {}
        done = counts.get("store", 0) + counts.get("executed", 0)
        print(f"sweep {sweep['name']} [{sweep['state']}]: "
              f"{done}/{sweep.get('total', 0)} done, "
              f"{counts.get('failed', 0)} failed")
    print(f"dashboard: {url}")
    if args.open:
        import webbrowser

        webbrowser.open(url)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list``: show the catalogs."""
    print("benchmarks:")
    for name in BENCHMARK_NAMES:
        print(f"  {name:16s} {get_profile(name).description}")
    externals = external_benchmark_names()
    if externals:
        print("\ntrace benchmarks (ingested; see 'repro ingest'):")
        for name in externals:
            profile = get_profile(name)
            digest = getattr(profile, "trace_digest", "")[:12]
            print(f"  {name:16s} [{digest}] {profile.description}")
    print("\npolicies:")
    for name in sorted(POLICIES):
        print(f"  {name:18s} {POLICIES[name].description}")
    print("\nfigures:", " ".join(sorted(FIGURES)))
    return 0


COMMANDS = {
    "run": cmd_run,
    "suite": cmd_suite,
    "figure": cmd_figure,
    "manifest": cmd_manifest,
    "workload": cmd_workload,
    "trace": cmd_trace,
    "ingest": cmd_ingest,
    "diff": cmd_diff,
    "lint": cmd_lint,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
    "sweep": cmd_sweep,
    "dash": cmd_dash,
    "list": cmd_list,
}


def _export_store(root: Optional[str]) -> None:
    # --store roots the process's one store: every open_store() of this
    # command, the figure code it runs, its pool children, and the trace
    # names the parser offers as benchmarks
    if root:
        os.environ[STORE_ENV] = root


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: run with env-controlled budgets and print."""
    # resolved before the parser is built, whose benchmark choices
    # include the trace names of the store this command will use
    early = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    early.add_argument("--store")
    _export_store(early.parse_known_args(argv)[0].store)
    try:
        args = build_parser().parse_args(argv)
        _export_store(getattr(args, "store", None))  # also an abbreviated --sto
        return COMMANDS[args.command](args)
    except StoreSchemaError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
