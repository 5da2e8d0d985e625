"""Command-line interface.

Subcommands::

    repro dine --topology ring --n 8 --crashes 2 --horizon 300 --timeline
    repro daemon --protocol coloring --topology grid --n 12 --crashes 2
    repro experiments --only e1 e3 e9 --seeds 0 1 2 3 --jobs 4
    repro report e1 --seeds 1 2 3 --json report.json
    repro verify --topology ring --n 3
    repro check trace.jsonl wire.jsonl --topology ring --n 3
    repro trace cluster-run/spans.jsonl --pid 2
    repro fuzz --budget 60s --runs 50 --shrink
    repro fuzz --mutants --budget 60s
    repro bakeoff --duration 5 --topology ring --n 5
    repro cluster --topology ring --n 3 --processes 3 --duration 2
    repro serve --spec run/spec.json --host-index 0
    repro loadgen --n 8 --processes 3 --sessions 10000
    repro loadgen --spec run/spec.json --sessions 5000

(or ``python -m repro …``).  ``dine`` runs one dining scenario and prints
the guarantee scorecard (plus an ASCII timeline on request, and a wait
diagnosis for any starving diner); ``daemon`` hosts a self-stabilizing
protocol; ``experiments`` runs registered scenarios from
:mod:`repro.scenarios` — ``--list`` enumerates them, ``--seeds``
replicates across seeds (printing the aggregated table), ``--jobs`` fans
seeds out over worker processes, ``--no-cache`` bypasses the
``.repro_cache/`` result cache, and ``--cache-stats`` prints its
hit/miss/byte tallies; ``report`` runs (or replays from cache) a
scenario with metrics collection on and prints the run report —
quiescence curve, last-violation time, channel-bound peak, kernel
hotspots.  ``dine``, ``daemon``, ``experiments``, and ``report`` accept
``--metrics PATH`` to dump the raw metrics snapshot (JSON, or Prometheus
text exposition when the path ends in ``.prom``).

``cluster`` runs Algorithm 1 *live*: one OS process per host, real
sockets, a wall-clock heartbeat ◇P₁, then the merged safety/fairness
verdict and a Prometheus rendering of the combined metrics (exit 0 only
on a clean run); its hosts are forks of the launcher.  ``serve`` runs
one host standalone, from a spec that already carries an epoch.  With
``--serve-locks`` every host additionally exposes the lease service of
:mod:`repro.locks`: named resources mapped onto conflict-graph diners,
granted to clients by the unchanged Algorithm 1.

``loadgen`` drives tens of thousands of short-lived lease sessions
against a ``--serve-locks`` cluster — either one already running
(``--spec``) or one it launches itself — and reports grant/deny/expiry
counters, client-observed latency quantiles, and whether every grant
carried the serving diner's eating-span trace context (exit 0 only on a
full PASS: all sessions completed, zero errors, zero leaked leases, and
a clean merged cluster verdict in self-launch mode).

``check`` replays recorded artifacts — trace JSONL files (``dine
--trace``, per-host ``trace.jsonl``) and/or wire logs (``wire.jsonl``)
— through the full :mod:`repro.checks` suite offline and prints the
same verdict scorecard every other front end uses (exit 0 only when
every judged property passes).

``trace`` renders recorded request spans (``dine --spans``, per-host
``spans.jsonl``, a cluster's stitched ``spans.jsonl``, or trace/wire
logs rebuilt offline) as per-request timelines plus the critical path of
the slowest — or a named — request.

``fuzz`` runs adversarial campaigns from :mod:`repro.faults`: sampled
latency/crash/flap/burst schedules against the pristine algorithm
(exit 1 on any violation), or — with ``--mutants`` — one kill-campaign
per seeded bug, exiting 1 if any selected mutant survives.  ``--shrink``
delta-debugs every failure to a minimal witness directory replayable by
``repro check`` and ``repro fuzz --plan``.

``bakeoff`` races the whole classical-DME zoo — Algorithm 1 under ◇P₁
and P, Choy–Singh, fork-priority, edge reversal, Lamport's bakery,
Ricart–Agrawala, and Lehmann–Rabin — through identical fault plans and
the one verdict pipeline on both substrates, printing the comparative
table (throughput, message count and Section 7 bits, fairness, verdict
map) and exiting 0 iff every cell matches its recorded expected
property-status map (where a FAIL can be the *correct* answer: the
classics are supposed to starve on a crash).  See ``docs/BASELINES.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core import (
    AlwaysHungry,
    DiningTable,
    DistributedDaemon,
    heartbeat_detector,
    null_detector,
    perfect_detector,
    query_detector,
    scripted_detector,
)
from repro.graphs import topologies
from repro.sim.crash import CrashPlan
from repro.sim.latency import PartialSynchronyLatency
from repro.sim.rng import RandomStreams
from repro.stabilization import (
    BfsSpanningTree,
    DijkstraTokenRing,
    GreedyRecoloring,
    MaximalIndependentSet,
    MaximalMatching,
)
from repro.trace.timeline import render_timeline

TOPOLOGIES = (
    "ring", "path", "star", "clique", "grid", "tree", "random",
    "geometric", "scale_free",
)
DETECTORS = ("scripted", "perfect", "null", "heartbeat", "query")
PROTOCOLS = ("coloring", "token-ring", "matching", "mis", "bfs-tree")


def _build_detector(name: str, convergence: float):
    if name == "scripted":
        return scripted_detector(convergence_time=convergence, random_mistakes=convergence > 0)
    if name == "perfect":
        return perfect_detector()
    if name == "null":
        return null_detector()
    if name == "heartbeat":
        return heartbeat_detector()
    if name == "query":
        return query_detector()
    raise ValueError(name)


def _crash_plan(graph, crashes: int, horizon: float, seed: int) -> CrashPlan:
    if crashes <= 0:
        return CrashPlan.none()
    return CrashPlan.random(
        graph.nodes, crashes, (horizon * 0.05, horizon * 0.3), RandomStreams(seed + 1)
    )


def _metrics_registry(args: argparse.Namespace):
    """A fresh registry when ``--metrics`` was given, else None."""
    if not getattr(args, "metrics", None):
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(snapshot: dict, path: str) -> None:
    """Dump a metrics snapshot: Prometheus text for ``*.prom``, else JSON."""
    if path.endswith(".prom"):
        from repro.obs import render_prometheus

        payload = render_prometheus(snapshot)
    else:
        payload = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(payload)
    print(f"  metrics written:       {path}")


# ----------------------------------------------------------------------
# dine
# ----------------------------------------------------------------------
def cmd_dine(args: argparse.Namespace) -> int:
    graph = topologies.by_name(args.topology, args.n, seed=args.seed)
    crash_plan = _crash_plan(graph, args.crashes, args.horizon, args.seed)
    latency = None
    real_detector = args.detector in ("heartbeat", "query")
    if real_detector:
        # For message-passing detectors, --convergence is the GST; the
        # pre-GST jitter is hostile but bounded so the adaptive timeouts
        # settle within the run (same regime as experiment E8).
        latency = PartialSynchronyLatency(
            gst=args.convergence or 50.0, min_delay=0.1, pre_gst_max=8.0, post_gst_max=1.0
        )
    registry = _metrics_registry(args)
    table = DiningTable(
        graph,
        seed=args.seed,
        detector=_build_detector(args.detector, args.convergence),
        crash_plan=crash_plan,
        latency=latency,
        workload=AlwaysHungry(eat_time=args.eat_time, think_time=0.01),
        metrics=registry,
    )
    tracer = None
    if args.spans:
        from repro.obs.tracing import attach_tracer

        tracer = attach_tracer(table)
    table.run(until=args.horizon)
    spans = tracer.finish() if tracer is not None else []

    meals = table.eat_counts()
    print(f"dining on {args.topology}-{args.n}, seed {args.seed}, "
          f"detector {args.detector}, {args.crashes} crashes, horizon {args.horizon:g}")
    print(f"  total meals:           {sum(meals.values())}")
    print(f"  crashed:               {list(crash_plan.faulty) or 'none'}")
    starving = table.starving_correct(patience=args.horizon * 0.4)
    print(f"  starving correct:      {starving or 'none'}")
    violations = table.violations()
    settle = max(args.convergence, crash_plan.last_crash_time + 1.0) + args.eat_time
    if real_detector:
        # A real detector announces no convergence instant: allow half the
        # post-GST window for the adaptive timeouts to absorb mistakes.
        settle = args.convergence + (args.horizon - args.convergence) * 0.5
    late = table.violations_after(settle)
    print(f"  exclusion violations:  {len(violations)} total, {len(late)} after t={settle:g}")
    print(f"  max overtaking (late): {table.max_overtaking(after=settle)}")
    print(f"  peak msgs per edge:    {table.occupancy.max_occupancy} (bound 4)")
    if registry is not None:
        _write_metrics(registry.snapshot(), args.metrics)
    if args.trace:
        from repro.trace.serialize import dump_path

        records = dump_path(table.trace, args.trace)
        print(f"  trace written:         {args.trace} ({records} records; "
              f"replay with `repro check`)")
    if args.spans:
        from repro.obs.tracing import dump_spans

        written = dump_spans(args.spans, spans)
        print(f"  spans written:         {args.spans} ({written} spans; "
              f"render with `repro trace`)")

    from repro.obs import render_verdict_text

    verdict = table.verdict(settle=settle, patience=args.horizon * 0.4)
    if spans:
        from repro.checks import annotate_violations

        verdict = annotate_violations(verdict, spans)
    print()
    for line in render_verdict_text(verdict).splitlines():
        print(f"  {line}")

    if starving:
        from repro.core.diagnostics import explain_verdict

        print()
        print(explain_verdict(table, verdict, spans=spans))

    if args.timeline:
        print()
        print(render_timeline(table.trace, end=min(args.horizon, args.timeline_span), width=args.width))
    return 0 if not starving and not late else 1


# ----------------------------------------------------------------------
# daemon
# ----------------------------------------------------------------------
def _build_protocol(name: str, graph):
    if name == "coloring":
        return GreedyRecoloring(graph)
    if name == "matching":
        return MaximalMatching(graph)
    if name == "mis":
        return MaximalIndependentSet(graph, initial={pid: True for pid in graph.nodes})
    if name == "bfs-tree":
        return BfsSpanningTree(graph, root=min(graph.nodes),
                               initial={pid: (1, None) for pid in graph.nodes})
    raise ValueError(name)


def cmd_daemon(args: argparse.Namespace) -> int:
    if args.protocol == "token-ring":
        protocol = DijkstraTokenRing(args.n, initial=[(3 * i) % (args.n + 1) for i in range(args.n)])
        graph = protocol.graph
        if args.crashes:
            print("note: the token ring is a crash-free client; ignoring --crashes", file=sys.stderr)
            args.crashes = 0
    else:
        graph = topologies.by_name(args.topology, args.n, seed=args.seed)
        protocol = _build_protocol(args.protocol, graph)

    crash_plan = _crash_plan(graph, args.crashes, args.horizon, args.seed)
    registry = _metrics_registry(args)
    daemon = DistributedDaemon(
        graph,
        protocol,
        seed=args.seed,
        detector=_build_detector(args.detector, args.convergence),
        crash_plan=crash_plan,
        metrics=registry,
    )
    daemon.run(until=args.horizon)

    print(f"daemon hosting {args.protocol} on {args.topology}-{len(graph)}, "
          f"{args.crashes} crashes, horizon {args.horizon:g}")
    print(f"  protocol steps:      {daemon.steps_executed}")
    print(f"  sharing violations:  {daemon.sharing_violations}")
    converged = daemon.converged()
    when = daemon.convergence_time()
    print(f"  converged:           {converged}" + (f" (since t≈{when:.1f})" if converged else ""))
    if registry is not None:
        _write_metrics(registry.snapshot(), args.metrics)
    return 0 if converged else 1


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def _scenario_sort_key(scenario) -> tuple:
    """Display order: by experiment number, primaries before companions."""
    experiment = scenario.experiment
    try:
        number = int(experiment.lstrip("e"))
    except ValueError:
        number = 10**6
    return (number, scenario.name)


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.common import print_experiment
    from repro.scenarios import Runner, all_scenarios

    scenarios = sorted(all_scenarios(), key=_scenario_sort_key)
    wanted = {name.lower() for name in (args.only or [])}
    known = {s.name for s in scenarios} | {s.experiment for s in scenarios}
    unknown = sorted(wanted - known)
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}",
            file=sys.stderr,
        )
        return 2
    selected = [
        s for s in scenarios if not wanted or s.name in wanted or s.experiment in wanted
    ]
    if args.seeds is not None and not args.seeds:
        print("--seeds needs at least one seed", file=sys.stderr)
        return 2

    if args.list_scenarios:
        for scenario in selected:
            print(f"{scenario.name:<5} {scenario.title}")
            print(f"      {scenario.spec.describe()}")
        return 0

    runner = Runner(
        jobs=args.jobs, use_cache=not args.no_cache, collect_metrics=bool(args.metrics)
    )
    snapshots = []
    for scenario in selected:
        result = runner.run(scenario.name, seeds=args.seeds)
        if len(result.seeds) > 1:
            aggregated = result.aggregate()
            columns = result.aggregate_table_columns(aggregated)
            title = f"{scenario.title} (aggregated over {len(result.seeds)} seeds)"
            print_experiment(title, scenario.claim, aggregated, columns)
        else:
            print_experiment(scenario.title, scenario.claim, result.rows, scenario.columns)
        if args.metrics:
            merged = result.merged_metrics()
            if merged is not None:
                snapshots.append(merged)
    if args.metrics:
        from repro.obs import merge_snapshots

        if snapshots:
            _write_metrics(merge_snapshots(snapshots), args.metrics)
        else:
            print("no metrics collected (nothing ran?)", file=sys.stderr)
    if args.cache_stats:
        print(runner.cache_stats.describe())
    return 0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import build_report, render_report_text
    from repro.scenarios import Runner, scenario_names

    known = scenario_names()
    if args.scenario not in known:
        print(
            f"unknown scenario {args.scenario!r}; known: {', '.join(sorted(known))}",
            file=sys.stderr,
        )
        return 2

    runner = Runner(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        collect_metrics=True,
        collect_checks=True,
    )
    result = runner.run(args.scenario, seeds=args.seeds)
    report = build_report(result, top=args.top, bound=args.bound)
    print(render_report_text(report))
    if args.cache_stats:
        print()
        print(runner.cache_stats.describe())

    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"\nreport written: {args.json}")
    if args.prom:
        from repro.obs import render_prometheus

        merged = result.merged_metrics()
        if merged is not None:
            with open(args.prom, "w", encoding="utf-8") as stream:
                stream.write(render_prometheus(merged))
            print(f"metrics written: {args.prom}")

    checks = report.get("checks")
    checks_ok = checks is None or bool(checks.get("ok", True))
    return 0 if report["summary"].get("channel_bound_ok", True) and checks_ok else 1


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import explore_dining

    graph = topologies.by_name(args.topology, args.n, seed=args.seed if hasattr(args, "seed") else 0)
    report = explore_dining(
        graph,
        max_sessions=args.sessions,
        crashable=tuple(args.crashable),
        max_states=args.max_states,
    )
    crash_note = f", crashable={args.crashable}" if args.crashable else ""
    print(f"exhaustive exploration of {args.topology}-{args.n} "
          f"({args.sessions} session(s) per diner{crash_note}):")
    print(f"  reachable states:   {report.states_visited}")
    print(f"  events replayed:    {report.events_fired}")
    print(f"  terminal states:    {report.terminal_states}")
    print(f"  max depth:          {report.max_depth}")
    if report.truncated:
        print("  TRUNCATED: state budget exhausted — no verdict")
        return 2
    if report.violations:
        violation = report.violations[0]
        print(f"  VIOLATION: {violation.kind} — {violation.detail}")
        for step in violation.path:
            print(f"    {step}")
        return 1
    print("  verdict:            CLEAN (exclusion, uniqueness, no deadlock "
          "in every reachable state)")
    from repro.obs import render_verdict_text

    for line in render_verdict_text(report.verdict()).splitlines():
        print(f"  {line}")
    return 0


# ----------------------------------------------------------------------
# check (offline replay of recorded artifacts)
# ----------------------------------------------------------------------
def cmd_check(args: argparse.Namespace) -> int:
    from repro.checks import CheckConfig, load_events_path, merge_events, replay
    from repro.obs import render_verdict_text

    if args.spec:
        from repro.net.cluster import ClusterSpec, check_config_for

        spec = ClusterSpec.load(args.spec)
        edges = sorted(spec.graph().edges)
        config = check_config_for(spec)
        horizon = args.horizon if args.horizon is not None else spec.duration
    else:
        graph = topologies.by_name(args.topology, args.n, seed=args.seed)
        edges = sorted(graph.edges)
        config = CheckConfig(
            channel_bound=args.bound,
            settle=args.settle,
            patience=args.patience,
            overtaking_after=args.after,
            quiescence_grace=args.grace,
        )
        horizon = args.horizon

    events = merge_events(*(load_events_path(path) for path in args.artifacts))
    verdict = replay(edges, events, config, horizon=horizon)
    print(f"replayed {len(events)} event(s) from {len(args.artifacts)} artifact(s)")
    print(render_verdict_text(verdict))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(verdict.to_json(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"verdict written: {args.json}")
    return 0 if verdict.ok else 1


# ----------------------------------------------------------------------
# trace (request timelines and critical paths)
# ----------------------------------------------------------------------
def _is_span_artifact(path: str) -> bool:
    """True when the file's first record is a serialized span."""
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                return json.loads(line).get("kind") == "span"
            except json.JSONDecodeError:
                return False
    return False


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.checks import load_events_path, merge_events
    from repro.obs.tracing import (
        completed_meals,
        load_spans,
        render_critical_path,
        render_timeline,
        request_spans,
        slowest_request,
        spans_from_events,
        stitch_spans,
    )

    span_lists = []
    event_paths = []
    for path in args.artifacts:
        if _is_span_artifact(path):
            span_lists.append(load_spans(path))
        else:
            event_paths.append(path)
    if event_paths:
        events = merge_events(*(load_events_path(path) for path in event_paths))
        span_lists.append(spans_from_events(events, horizon=args.horizon))
    spans = stitch_spans(*span_lists)
    if not spans:
        print("no spans found (trace the run first: dine --spans, cluster, "
              "or a tracing host)", file=sys.stderr)
        return 2

    requests = request_spans(spans)
    print(f"{len(spans)} span(s) from {len(args.artifacts)} artifact(s): "
          f"{len(requests)} request(s), {completed_meals(spans)} meal(s)")
    print()
    for line in render_timeline(spans, pid=args.pid, limit=args.limit):
        print(line)

    if args.trace_id:
        target: Optional[int] = int(args.trace_id, 0)
    else:
        target = slowest_request(spans, pid=args.pid)
    if target is not None:
        print()
        for line in render_critical_path(spans, target):
            print(line)
    return 0


# ----------------------------------------------------------------------
# fuzz (adversarial campaigns / mutation testing)
# ----------------------------------------------------------------------
def _parse_budget(text: Optional[str]) -> Optional[float]:
    """Parse ``60s`` / ``2m`` / ``1h`` / ``90`` into wall-clock seconds."""
    if text is None:
        return None
    units = {"s": 1.0, "m": 60.0, "h": 3600.0}
    scale = units.get(text[-1:].lower())
    number = text[:-1] if scale else text
    try:
        return float(number) * (scale or 1.0)
    except ValueError:
        raise SystemExit(f"bad --budget {text!r}; expected e.g. 60s, 2m, 90") from None


def cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    from repro.faults import (
        CampaignSpec,
        FaultPlan,
        all_mutants,
        run_campaign,
        run_mutation_harness,
        run_plan,
        shrink_plan,
        write_witness,
    )

    if args.list_mutants:
        for mutant in all_mutants():
            crash = "  [needs crash]" if mutant.needs_crash else ""
            print(f"{mutant.name:<26} expects {', '.join(mutant.expected)}{crash}")
            print(f"    {mutant.description}")
        return 0

    def emit_witness(result, shrink_result, directory):
        path = write_witness(shrink_result.result, directory, shrink=shrink_result)
        print(f"  witness: {path} ({', '.join(shrink_result.result.failed)})")

    # --plan: replay one serialized plan bit-for-bit.
    if args.plan:
        plan = FaultPlan.load(args.plan)
        print(f"plan: {plan.describe()}")
        result = run_plan(plan, substrate=args.substrate)
        print(result.verdict.describe())
        if result.failed and args.shrink:
            shrunk = shrink_plan(plan, baseline=result)
            print(shrunk.describe())
            emit_witness(result, shrunk, args.out)
        return 0 if result.ok else 1

    base = CampaignSpec(
        topology=args.topology,
        n=args.n,
        seed=args.seed,
        runs=args.runs,
        budget_seconds=_parse_budget(args.budget),
        substrate=args.substrate,
        archetypes=tuple(args.archetypes) if args.archetypes else None,
    )

    # --mutants: one kill-campaign per seeded bug; exit 1 on survivors.
    if args.mutants is not None:
        report = run_mutation_harness(args.mutants or None, base=base)
        print(report.describe())
        if args.shrink:
            for outcome in report.outcomes:
                if outcome.killed and outcome.killing_result is not None:
                    shrunk = shrink_plan(
                        outcome.killing_result.plan,
                        baseline=outcome.killing_result,
                    )
                    outcome.shrink = shrunk
                    emit_witness(
                        outcome.killing_result,
                        shrunk,
                        os.path.join(args.out, outcome.name),
                    )
        if args.json:
            with open(args.json, "w", encoding="utf-8") as stream:
                json.dump(report.to_json(), stream, indent=2, sort_keys=True)
                stream.write("\n")
            print(f"report written: {args.json}")
        return 0 if not report.survivors else 1

    # Plain campaign against the pristine algorithm: exit 1 on violations.
    campaign = run_campaign(base, jobs=args.jobs)
    print(campaign.describe())
    failure = campaign.first_failure
    if failure is not None and args.shrink:
        shrunk = shrink_plan(failure.plan, baseline=failure)
        print(shrunk.describe())
        emit_witness(failure, shrunk, args.out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(campaign.to_json(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"campaign written: {args.json}")
    return 0 if campaign.ok else 1


def cmd_bakeoff(args: argparse.Namespace) -> int:
    from repro.baselines.bakeoff import SUBSTRATES, TOPOLOGIES as GRID, ZOO, run_bakeoff

    if args.list:
        for key, spec in ZOO.items():
            print(f"{key:<16} {spec.title}")
            print(f"    {spec.guarantees}")
        return 0
    topologies_list = GRID if args.topology == "all" else (args.topology,)
    substrates = SUBSTRATES if args.substrate == "both" else (args.substrate,)
    report = run_bakeoff(
        topologies_list=topologies_list,
        n=args.n,
        duration=args.duration,
        seed=args.seed,
        substrates=substrates,
        algorithms=args.algorithms,
    )
    print(report.render_table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(report.to_json(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"report written: {args.json}")
    failing = report.failing()
    print(
        f"bakeoff: {len(report.cells)} cells, "
        f"{len(report.cells) - len(failing)} matched their expected maps"
        + (f", {len(failing)} MISMATCHED" if failing else "")
    )
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# cluster / serve (live runtime)
# ----------------------------------------------------------------------
def _parse_crash_spec(text: Optional[str]) -> dict:
    """Parse ``pid:time,pid:time`` into {pid: crash_instant}."""
    crashes: dict = {}
    if not text:
        return crashes
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pid_text, _, time_text = part.partition(":")
        try:
            crashes[int(pid_text)] = float(time_text)
        except ValueError:
            raise SystemExit(f"bad --crash entry {part!r}; expected pid:time") from None
    return crashes


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.net.cluster import ClusterSpec, launch, placement_summary

    spec = ClusterSpec(
        topology=args.topology,
        n=args.n,
        processes=args.processes,
        duration=args.duration,
        seed=args.seed,
        eat_time=args.eat_time,
        think_time=args.think_time,
        heartbeat_interval=args.heartbeat_interval,
        initial_timeout=args.initial_timeout,
        timeout_increment=args.timeout_increment,
        transport=args.transport,
        crash_times=_parse_crash_spec(args.crash),
        run_dir=args.run_dir,
        tracing=not args.no_tracing,
        scrape_base=args.scrape_base,
        flight=args.flight,
        serve_locks=args.serve_locks,
    )
    print(
        f"live cluster: {args.topology}-{args.n} over {args.processes} "
        f"process(es) via {args.transport}, {args.duration:g}s"
    )
    print(f"  placement: {placement_summary(spec)}")
    if spec.scrape_base is not None:
        ports = ", ".join(
            str(spec.scrape_base + index) for index in range(spec.processes)
        )
        print(f"  /metrics:  127.0.0.1 port(s) {ports}")
    verdict = launch(spec)
    if args.metrics:
        _write_metrics(verdict.metrics, args.metrics)
    return 0 if verdict.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import LaunchError
    from repro.net.cluster import serve

    try:
        return serve(args.spec, args.host_index, output_dir=args.output)
    except LaunchError as exc:
        raise SystemExit(f"repro serve: {exc}") from None


# ----------------------------------------------------------------------
# loadgen (lease sessions against a --serve-locks cluster)
# ----------------------------------------------------------------------
def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from repro.errors import LaunchError
    from repro.locks.loadgen import LoadgenOptions, run_loadgen
    from repro.net.cluster import (
        ClusterSpec,
        ClusterVerdict,
        merge_run,
        placement_summary,
        start_cluster,
        wait_cluster,
    )

    options = LoadgenOptions(
        sessions=args.sessions,
        concurrency=args.concurrency,
        connections_per_host=args.connections,
        ttl_ms=args.ttl_ms,
        hold_fraction=args.hold_fraction,
        abandon_fraction=args.abandon_fraction,
        acquire_timeout=args.acquire_timeout,
        seed=args.seed,
    )

    def emit(report) -> None:
        print(report.describe())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as stream:
                json.dump(report.to_dict(), stream, indent=2, sort_keys=True)
                stream.write("\n")
            print(f"report written: {args.json}")

    # Against an already-running cluster: burst, report, done.
    if args.spec:
        spec = ClusterSpec.load(args.spec)
        if not spec.serve_locks:
            print("spec was not launched with --serve-locks", file=sys.stderr)
            return 2
        report = asyncio.run(run_loadgen(spec, options))
        emit(report)
        return 0 if report.ok else 1

    # Self-contained: launch a --serve-locks cluster here, burst against
    # it while it runs, then wait it out and fold in the merged verdict.
    spec = ClusterSpec(
        topology=args.topology,
        n=args.n,
        processes=args.processes,
        duration=args.duration,
        seed=args.seed,
        transport=args.transport,
        run_dir=args.run_dir,
        tracing=not args.no_tracing,
        scrape_base=args.scrape_base,
        serve_locks=True,
    )
    print(
        f"lease service: {args.topology}-{args.n} over {args.processes} "
        f"process(es) via {args.transport}, {args.duration:g}s; "
        f"{options.sessions} sessions x{options.concurrency}"
    )
    try:
        handle = start_cluster(spec)
    except LaunchError as exc:
        print(f"cluster failed to start: {exc}", file=sys.stderr)
        return 1
    print(f"  placement: {placement_summary(spec)}")
    # Every host is listening; frames that beat a host's start wait for it.
    time.sleep(max(0.0, spec.epoch - time.time()))
    report = asyncio.run(run_loadgen(spec, options))
    emit(report)

    failures = wait_cluster(handle)
    verdict = ClusterVerdict.unmerged(failures) if failures else merge_run(spec)
    print()
    print(verdict.describe())
    leaked = int((verdict.locks or {}).get("leaked_leases", 0))
    return 0 if report.ok and verdict.ok and leaked == 0 else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Eventually k-bounded wait-free distributed daemons (Song & Pike, DSN 2007).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dine = sub.add_parser("dine", help="run one dining scenario and check the guarantees")
    dine.add_argument("--topology", choices=TOPOLOGIES, default="ring")
    dine.add_argument("--n", type=int, default=8)
    dine.add_argument("--seed", type=int, default=1)
    dine.add_argument("--crashes", type=int, default=1)
    dine.add_argument("--detector", choices=DETECTORS, default="scripted")
    dine.add_argument("--convergence", type=float, default=30.0,
                      help="detector convergence time (scripted) / GST (heartbeat)")
    dine.add_argument("--horizon", type=float, default=300.0)
    dine.add_argument("--eat-time", type=float, default=1.0)
    dine.add_argument("--timeline", action="store_true", help="print an ASCII timeline")
    dine.add_argument("--timeline-span", type=float, default=120.0)
    dine.add_argument("--width", type=int, default=100)
    dine.add_argument("--metrics", metavar="PATH",
                      help="write the run's metrics snapshot (JSON, or Prometheus "
                           "text if PATH ends in .prom)")
    dine.add_argument("--trace", metavar="PATH",
                      help="write the run's trace as JSONL (replayable offline "
                           "with `repro check`)")
    dine.add_argument("--spans", metavar="PATH",
                      help="attach the request tracer and write its spans as "
                           "JSONL (render with `repro trace`)")
    dine.set_defaults(func=cmd_dine)

    daemon = sub.add_parser("daemon", help="schedule a self-stabilizing protocol")
    daemon.add_argument("--protocol", choices=PROTOCOLS, default="coloring")
    daemon.add_argument("--topology", choices=TOPOLOGIES, default="grid")
    daemon.add_argument("--n", type=int, default=12)
    daemon.add_argument("--seed", type=int, default=1)
    daemon.add_argument("--crashes", type=int, default=1)
    daemon.add_argument("--detector", choices=DETECTORS, default="scripted")
    daemon.add_argument("--convergence", type=float, default=20.0)
    daemon.add_argument("--horizon", type=float, default=400.0)
    daemon.add_argument("--metrics", metavar="PATH",
                        help="write the run's metrics snapshot (JSON, or Prometheus "
                             "text if PATH ends in .prom)")
    daemon.set_defaults(func=cmd_daemon)

    experiments = sub.add_parser("experiments", help="reproduce the paper's claim tables")
    experiments.add_argument("--only", nargs="*", metavar="EN",
                             help="subset by experiment or scenario name, "
                                  "e.g. --only e1 e3 e8b")
    experiments.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes for seed sweeps (default 1: serial)")
    experiments.add_argument("--seeds", type=int, nargs="*", metavar="S",
                             help="override each scenario's seed list; more than one "
                                  "seed prints the aggregated (mean/min/max) table")
    experiments.add_argument("--no-cache", action="store_true",
                             help="bypass the .repro_cache/ result cache")
    experiments.add_argument("--list", action="store_true", dest="list_scenarios",
                             help="list registered scenarios instead of running them")
    experiments.add_argument("--metrics", metavar="PATH",
                             help="collect metrics and write the merged snapshot "
                                  "(JSON, or Prometheus text if PATH ends in .prom)")
    experiments.add_argument("--cache-stats", action="store_true", dest="cache_stats",
                             help="print result-cache hit/miss/byte tallies at the end")
    experiments.set_defaults(func=cmd_experiments)

    report = sub.add_parser(
        "report", help="run one scenario with metrics on and print the run report"
    )
    report.add_argument("scenario", help="registered scenario name, e.g. e1")
    report.add_argument("--seeds", type=int, nargs="*", metavar="S",
                        help="override the scenario's seed list")
    report.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for seed sweeps (default 1: serial)")
    report.add_argument("--no-cache", action="store_true",
                        help="bypass the .repro_cache/ result cache")
    report.add_argument("--top", type=int, default=5, metavar="N",
                        help="kernel hotspots to show (default 5)")
    report.add_argument("--bound", type=int, default=4,
                        help="per-edge dining channel bound to assert (default 4)")
    report.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    report.add_argument("--prom", metavar="PATH",
                        help="also write merged metrics as Prometheus text exposition")
    report.add_argument("--cache-stats", action="store_true", dest="cache_stats",
                        help="print result-cache hit/miss/byte tallies")
    report.set_defaults(func=cmd_report)

    verify = sub.add_parser(
        "verify", help="exhaustively explore every schedule of a small scope"
    )
    verify.add_argument("--topology", choices=("path", "ring", "star", "clique"), default="path")
    verify.add_argument("--n", type=int, default=2)
    verify.add_argument("--sessions", type=int, default=1)
    verify.add_argument("--crashable", type=int, nargs="*", default=[],
                        help="pids that may crash at any point of any schedule")
    verify.add_argument("--max-states", type=int, default=500_000)
    verify.set_defaults(func=cmd_verify)

    check = sub.add_parser(
        "check",
        help="replay recorded trace/wire artifacts through the property checkers",
    )
    check.add_argument("artifacts", nargs="+", metavar="PATH",
                       help="JSONL artifacts: traces (dine --trace, host trace.jsonl) "
                            "and/or wire logs (wire.jsonl); streams are merged")
    check.add_argument("--spec", metavar="PATH",
                       help="cluster spec.json: take topology, bound, and the "
                            "settle/patience windows from the recorded run")
    check.add_argument("--topology", choices=TOPOLOGIES, default="ring")
    check.add_argument("--n", type=int, default=3)
    check.add_argument("--seed", type=int, default=0,
                       help="seed the topology was built with (random graphs)")
    check.add_argument("--bound", type=int, default=4,
                       help="per-edge dining channel bound (default 4)")
    check.add_argument("--settle", type=float, default=None,
                       help="judge exclusion overlaps only after this instant "
                            "(omit: count but never fail)")
    check.add_argument("--patience", type=float, default=None,
                       help="hungry-longer-than-this fails progress "
                            "(omit: informational)")
    check.add_argument("--after", type=float, default=None,
                       help="judge the overtaking bound only after this instant")
    check.add_argument("--grace", type=float, default=None,
                       help="post-crash sends later than crash+grace fail quiescence")
    check.add_argument("--horizon", type=float, default=None,
                       help="judge open windows up to this instant "
                            "(default: last event time, or the spec duration)")
    check.add_argument("--json", metavar="PATH", help="also write the verdict as JSON")
    check.set_defaults(func=cmd_check)

    trace = sub.add_parser(
        "trace",
        help="render per-request timelines and the critical path from artifacts",
    )
    trace.add_argument("artifacts", nargs="+", metavar="PATH",
                       help="spans.jsonl from a traced run, and/or trace/wire "
                            "JSONL to rebuild spans from offline")
    trace.add_argument("--pid", type=int, default=None,
                       help="only this diner's requests")
    trace.add_argument("--trace-id", metavar="ID",
                       help="critical path for this request (hex or decimal "
                            "trace id; default: the slowest request)")
    trace.add_argument("--limit", type=int, default=10, metavar="N",
                       help="most recent requests to render (default 10)")
    trace.add_argument("--horizon", type=float, default=None,
                       help="close still-open spans at this instant when "
                            "rebuilding from trace/wire events")
    trace.set_defaults(func=cmd_trace)

    fuzz = sub.add_parser(
        "fuzz",
        help="adversarial fuzz campaigns, mutation testing, and witness shrinking",
    )
    fuzz.add_argument("--topology", choices=TOPOLOGIES + ("mixed",), default="ring",
                      help="conflict graph shape; 'mixed' rotates the sampler's "
                           "topology pool (ring/grid/random/geometric/scale_free) "
                           "across the campaign walk")
    fuzz.add_argument("--n", type=int, default=5)
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed: the whole sampled walk derives from it")
    fuzz.add_argument("--runs", type=int, default=20,
                      help="sampled plans per campaign (per mutant with --mutants)")
    fuzz.add_argument("--budget", metavar="60s",
                      help="wall-clock lid per campaign, e.g. 60s, 2m "
                           "(checked before each run is submitted; the walk "
                           "only truncates)")
    fuzz.add_argument("--archetypes", nargs="+", metavar="NAME",
                      help="restrict the walk to these sampler archetypes "
                           "(e.g. churn_storm flash_crowd rolling_restart); "
                           "default: all ten")
    fuzz.add_argument("--substrate", choices=("kernel", "live"), default="kernel",
                      help="where plans run (live: loopback AsyncHost, scaled time)")
    fuzz.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes judging a kernel campaign's plans "
                           "(default: the CPUs available; 1: in-process; the "
                           "results are the same for every N)")
    fuzz.add_argument("--mutants", nargs="*", metavar="NAME",
                      help="mutation testing: kill-campaign per named mutant "
                           "(no names: the whole registry); exit 1 on survivors")
    fuzz.add_argument("--list-mutants", action="store_true",
                      help="list the seeded-bug registry and exit")
    fuzz.add_argument("--shrink", action="store_true",
                      help="delta-debug each failure to a minimal witness directory")
    fuzz.add_argument("--plan", metavar="PATH",
                      help="replay one witness plan.json instead of sampling")
    fuzz.add_argument("--out", default="fuzz-witness", metavar="DIR",
                      help="witness root for --shrink (default fuzz-witness/)")
    fuzz.add_argument("--json", metavar="PATH",
                      help="also write the campaign/mutation report as JSON")
    fuzz.set_defaults(func=cmd_fuzz)

    bakeoff = sub.add_parser(
        "bakeoff",
        help="race the classical-DME zoo through the verdict pipeline "
             "and gate on each algorithm's recorded expected-status map",
    )
    bakeoff.add_argument("--topology", choices=("ring", "geometric", "scale_free", "all"),
                         default="all",
                         help="one comparison topology, or the full grid (default)")
    bakeoff.add_argument("--n", type=int, default=5)
    bakeoff.add_argument("--duration", type=float, default=20.0,
                         help="virtual horizon per cell; judge windows scale with it")
    bakeoff.add_argument("--seed", type=int, default=1)
    bakeoff.add_argument("--substrate", choices=("kernel", "live", "both"),
                         default="both",
                         help="kernel cells judge every regime; live cells "
                              "(loopback AsyncHost) pin the safety half")
    bakeoff.add_argument("--algorithms", nargs="+", metavar="NAME",
                         help="restrict to these zoo entries (default: all)")
    bakeoff.add_argument("--list", action="store_true",
                         help="list the zoo and each entry's guarantees, then exit")
    bakeoff.add_argument("--json", metavar="PATH",
                         help="also write the full report (cells, expected maps, "
                              "mismatches) as JSON")
    bakeoff.set_defaults(func=cmd_bakeoff)

    cluster = sub.add_parser(
        "cluster",
        help="run Algorithm 1 live: one OS process per host over real sockets",
    )
    cluster.add_argument("--topology", choices=TOPOLOGIES, default="ring")
    cluster.add_argument("--n", type=int, default=3)
    cluster.add_argument("--processes", type=int, default=3,
                         help="OS processes to spread the diners over")
    cluster.add_argument("--duration", type=float, default=2.0,
                         help="wall-clock seconds the actors run")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--eat-time", type=float, default=0.05)
    cluster.add_argument("--think-time", type=float, default=0.01)
    cluster.add_argument("--heartbeat-interval", type=float, default=0.25)
    cluster.add_argument("--initial-timeout", type=float, default=0.75)
    cluster.add_argument("--timeout-increment", type=float, default=0.25)
    cluster.add_argument("--transport", choices=("unix", "tcp"), default="unix")
    cluster.add_argument("--crash", metavar="PID:T,...",
                         help="crash injections, e.g. --crash 2:0.5,4:1.0")
    cluster.add_argument("--run-dir", default="cluster-run",
                         help="directory for spec, per-host outputs, and logs")
    cluster.add_argument("--metrics", metavar="PATH",
                         help="write the merged cluster metrics (JSON, or "
                              "Prometheus text if PATH ends in .prom)")
    cluster.add_argument("--scrape-base", type=int, metavar="PORT",
                         help="serve live /metrics per host on "
                              "127.0.0.1:PORT+host_index while the run lasts")
    cluster.add_argument("--flight", action="store_true",
                         help="arm each host's flight recorder (dumps recent "
                              "trace/wire/span rings on FAIL)")
    cluster.add_argument("--no-tracing", action="store_true",
                         help="disable request tracing (no span logs, no wire "
                              "trace context)")
    cluster.add_argument("--serve-locks", action="store_true",
                         help="install the lease service on every host: diners "
                              "serve client demand (see `repro loadgen`)")
    cluster.set_defaults(func=cmd_cluster)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive short-lived lease sessions against a --serve-locks cluster",
    )
    loadgen.add_argument("--spec", metavar="PATH",
                         help="spec.json of an already-running --serve-locks "
                              "cluster (omit to launch one here)")
    loadgen.add_argument("--topology", choices=TOPOLOGIES, default="ring")
    loadgen.add_argument("--n", type=int, default=8)
    loadgen.add_argument("--processes", type=int, default=3)
    loadgen.add_argument("--duration", type=float, default=30.0,
                         help="cluster lifetime when launching here (the burst "
                              "must fit inside it)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--transport", choices=("unix", "tcp"), default="unix")
    loadgen.add_argument("--run-dir", default="loadgen-run",
                         help="run directory when launching here")
    loadgen.add_argument("--scrape-base", type=int, metavar="PORT",
                         help="serve live /metrics per host while the run lasts")
    loadgen.add_argument("--no-tracing", action="store_true",
                         help="disable tracing (grants lose their eating-span "
                              "context, so the span-backed check is skipped)")
    loadgen.add_argument("--sessions", type=int, default=10_000,
                         help="total acquire/release sessions (default 10000)")
    loadgen.add_argument("--concurrency", type=int, default=200,
                         help="sessions in flight at once (default 200)")
    loadgen.add_argument("--connections", type=int, default=4,
                         help="client connections per serving host (default 4)")
    loadgen.add_argument("--ttl-ms", type=int, default=50,
                         help="lease TTL per session in milliseconds (default 50)")
    loadgen.add_argument("--hold-fraction", type=float, default=0.2,
                         help="mean hold time as a fraction of the TTL (default 0.2)")
    loadgen.add_argument("--abandon-fraction", type=float, default=0.02,
                         help="fraction of grants never released — the TTL must "
                              "reclaim them (default 0.02)")
    loadgen.add_argument("--acquire-timeout", type=float, default=30.0)
    loadgen.add_argument("--json", metavar="PATH",
                         help="also write the loadgen report as JSON")
    loadgen.set_defaults(func=cmd_loadgen)

    serve = sub.add_parser(
        "serve", help="run one host of a cluster spec that carries an epoch"
    )
    serve.add_argument("--spec", required=True, help="path to the cluster spec.json")
    serve.add_argument("--host-index", type=int, required=True)
    serve.add_argument("--output", default=None,
                       help="output directory (default: <run-dir>/host-<index>)")
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
