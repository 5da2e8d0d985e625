"""Run reports: one digest per sweep, rendered three ways.

:func:`build_report` folds the per-seed metrics snapshots of a scenario
run (duck-typed: anything with ``scenario``/``title``/``seed_results``)
into a JSON-ready document whose ``summary`` answers the paper's
questions directly — when did the system quiesce toward crashed
processes, how close did any edge come to the 4-message channel bound,
and where did the kernel's wall clock actually go.

When the sweep also collected check verdicts (``repro report`` runs with
check collection on), the report carries the merged
:class:`~repro.checks.Verdict` under ``"checks"`` and the text rendering
appends its per-property scorecard — the one place exclusion (◇WX's
``last_overlap_end``) and bound excursions (channel-bound's
``exceedances_total``) are stated.

Renderers:

* :func:`render_report_text` — the human page ``repro report`` prints;
* :func:`render_verdict_text` — a :class:`~repro.checks.Verdict` (or its
  JSON form) as the indented scorecard every front end shares;
* :func:`render_prometheus` — Prometheus text exposition of a snapshot
  (counters, gauges, and cumulative ``_bucket`` histograms), for
  scraping a dumped file or diffing runs with standard tooling;
* the report dict itself is the JSON form (``json.dumps`` safe).
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.metrics import (
    counter_by_label,
    counter_total,
    gauge_entries,
    gauge_max,
    gauge_max_time,
    histogram_entries,
    merge_snapshots,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def quiescence_curve(snapshot: Mapping[str, object]) -> List[Dict[str, float]]:
    """Cumulative post-crash sends over virtual time, bucket by bucket.

    Each point is ``{"t": upper_bound, "sends": cumulative_count}``;
    only buckets where the count advances are kept, so the curve is the
    minimal staircase.  An empty list means perfect silence.
    """
    entries = histogram_entries(snapshot, "quiescence.post_crash_send_time")
    if not entries:
        return []
    merged = merge_snapshots([{"histograms": list(entries)}])
    entry = merged["histograms"][0]
    bounds = list(entry["bounds"]) + [float("inf")]
    curve: List[Dict[str, float]] = []
    cumulative = 0
    for bound, count in zip(bounds, entry["bucket_counts"]):
        if count:
            cumulative += int(count)
            t = bound if bound != float("inf") else entry.get("max")
            curve.append({"t": float(t), "sends": float(cumulative)})
    return curve


def hotspots(snapshot: Mapping[str, object], *, top: int = 5) -> List[Dict[str, object]]:
    """Top event sites by attributed wall-clock seconds."""
    seconds = counter_by_label(snapshot, "profile.wall_seconds_total", "site")
    events = counter_by_label(snapshot, "profile.events_total", "site")
    ranked = sorted(seconds.items(), key=lambda item: (-item[1], item[0]))
    return [
        {"site": site, "events": int(events.get(site, 0)), "seconds": secs}
        for site, secs in ranked[:top]
    ]


def check_costs(snapshot: Mapping[str, object]) -> List[Dict[str, object]]:
    """Per-property checker wall-clock attribution, costliest first.

    Populated when a run profiled its check suite (``repro report
    --profile-checks`` or any adapter built with ``profile=True``); the
    ranking is what the ROADMAP "checks back under 10%" work optimizes
    against.
    """
    seconds = counter_by_label(snapshot, "checks.property_wall_seconds_total", "property")
    events = counter_by_label(snapshot, "checks.property_events_total", "property")
    ranked = sorted(seconds.items(), key=lambda item: (-item[1], item[0]))
    return [
        {"property": name, "events": int(events.get(name, 0)), "seconds": secs}
        for name, secs in ranked
    ]


def summarize_snapshot(
    snapshot: Mapping[str, object], *, top: int = 5, bound: int = 4
) -> Dict[str, object]:
    """The headline numbers of one (possibly merged) snapshot."""
    channel_max = gauge_max(snapshot, "net.in_transit")
    sessions = counter_total(snapshot, "dining.sessions_total")
    acks = counter_total(snapshot, "net.messages_delivered_total", type="Ack")
    queue_entries = gauge_entries(snapshot, "sim.queue_depth")
    return {
        "events_processed": counter_total(snapshot, "sim.events_total"),
        "sim_time": gauge_max(snapshot, "sim.time"),
        "messages_sent": counter_total(snapshot, "net.messages_sent_total"),
        "messages_delivered": counter_total(snapshot, "net.messages_delivered_total"),
        "messages_dropped": counter_total(snapshot, "net.messages_dropped_total"),
        "messages_by_type": counter_by_label(snapshot, "net.messages_sent_total", "type"),
        "channel_bound": int(bound),
        "channel_max_in_transit": None if channel_max is None else int(channel_max),
        "channel_max_time": gauge_max_time(snapshot, "net.in_transit"),
        "channel_bound_ok": channel_max is None or channel_max <= bound,
        "meals": counter_total(snapshot, "dining.meals_total"),
        "sessions": sessions,
        "acks_per_session": (acks / sessions) if sessions else None,
        "fork_transfers": counter_total(snapshot, "net.messages_delivered_total", type="Fork"),
        "suspicions": counter_total(snapshot, "detector.suspicions_total"),
        "refutations": counter_total(snapshot, "detector.refutations_total"),
        "crashes": counter_total(snapshot, "crashes_total"),
        "protocol_steps": counter_total(snapshot, "daemon.protocol_steps_total"),
        "transient_faults": counter_total(snapshot, "daemon.transient_faults_total"),
        "post_crash_sends": counter_total(snapshot, "quiescence.post_crash_sends_total"),
        "quiescence_time": gauge_max(snapshot, "quiescence.last_post_crash_send_time"),
        "quiescence_curve": quiescence_curve(snapshot),
        "phase_seconds": counter_by_label(snapshot, "dining.phase_seconds_total", "phase"),
        "queue_depth_max": max(
            (e["max"] for e in queue_entries if e.get("max") is not None), default=None
        ),
        "profiled_seconds": counter_total(snapshot, "profile.wall_seconds_total"),
        "hotspots": hotspots(snapshot, top=top),
        "check_costs": check_costs(snapshot),
    }


def build_report(result, *, top: int = 5, bound: int = 4) -> Dict[str, object]:
    """Full run report for a scenario sweep (``RunResult``-shaped input).

    Seeds whose snapshot is missing (for example cache entries written
    before metrics existed) are listed in ``seeds_without_metrics``
    rather than silently skewing the summary.
    """
    snapshots = []
    missing: List[int] = []
    for seed_result in result.seed_results:
        snapshot = getattr(seed_result, "metrics", None)
        if snapshot:
            snapshots.append(snapshot)
        else:
            missing.append(seed_result.seed)
    merged = merge_snapshots(snapshots)
    checks = None
    merged_checks = getattr(result, "merged_checks", None)
    if callable(merged_checks):
        verdict = merged_checks()
        if verdict is not None:
            checks = verdict.to_json()
    return {
        "scenario": result.scenario,
        "title": result.title,
        "claim": result.claim,
        "seeds": list(result.seeds),
        "seeds_without_metrics": missing,
        "cache_hits": result.cache_hits,
        "compute_seconds": result.elapsed,
        "rows": len(result.rows),
        "summary": summarize_snapshot(merged, top=top, bound=bound),
        "checks": checks,
        "metrics": merged,
    }


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _fmt(value: Optional[float], suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}{suffix}"
    return f"{int(value)}{suffix}"


def render_verdict_text(verdict) -> str:
    """A check verdict as its indented scorecard.

    Accepts a :class:`~repro.checks.Verdict` or its ``to_json`` dict, so
    report documents round-tripped through JSON render identically.
    """
    from repro.checks import Verdict

    if not isinstance(verdict, Verdict):
        verdict = Verdict.from_json(verdict)
    return verdict.describe()


def render_report_text(report: Mapping[str, object]) -> str:
    """The page ``repro report`` prints."""
    summary = report["summary"]
    lines: List[str] = []
    seeds = report.get("seeds", [])
    lines.append(f"run report — {report['scenario']} ({report['title']})")
    lines.append(
        f"  seeds {list(seeds)}; {report.get('cache_hits', 0)} cache hit(s); "
        f"{report.get('rows', 0)} row(s); compute {report.get('compute_seconds', 0.0):.2f}s"
    )
    if report.get("seeds_without_metrics"):
        lines.append(
            f"  (no metrics for seeds {report['seeds_without_metrics']} — rerun with --no-cache)"
        )
    lines.append("")
    lines.append("guarantees")
    ok = "OK" if summary["channel_bound_ok"] else "VIOLATED"
    lines.append(
        f"  channel bound:       max {_fmt(summary['channel_max_in_transit'])} in transit per edge "
        f"(bound {summary['channel_bound']}, {ok}"
        + (
            f", peak at t={_fmt(summary['channel_max_time'])}"
            if summary.get("channel_max_time") is not None
            else ""
        )
        + ")"
    )
    lines.append(
        f"  quiescence:          last dining send to a crashed process at "
        f"t={_fmt(summary['quiescence_time'])} ({_fmt(summary['post_crash_sends'])} post-crash sends)"
    )
    curve = summary.get("quiescence_curve") or []
    if curve:
        staircase = ", ".join(f"t≤{_fmt(point['t'])}: {_fmt(point['sends'])}" for point in curve)
        lines.append(f"  quiescence curve:    {staircase}")
    if report.get("checks"):
        lines.append("")
        for line in render_verdict_text(report["checks"]).splitlines():
            lines.append(f"  {line}" if line else line)
    lines.append("")
    lines.append("volume")
    lines.append(
        f"  events {_fmt(summary['events_processed'])}; "
        f"messages {_fmt(summary['messages_sent'])} sent / "
        f"{_fmt(summary['messages_delivered'])} delivered / "
        f"{_fmt(summary['messages_dropped'])} dropped; "
        f"meals {_fmt(summary['meals'])}"
    )
    if summary.get("sessions"):
        lines.append(
            f"  sessions {_fmt(summary['sessions'])}; "
            f"acks/session {_fmt(summary['acks_per_session'])}; "
            f"fork transfers {_fmt(summary['fork_transfers'])}; "
            f"suspicions {_fmt(summary['suspicions'])}"
        )
    phase_seconds = summary.get("phase_seconds") or {}
    if phase_seconds:
        occupancy = ", ".join(
            f"{phase} {seconds:.1f}" for phase, seconds in sorted(phase_seconds.items())
        )
        lines.append(f"  phase occupancy (sim-time): {occupancy}")
    spots = summary.get("hotspots") or []
    if spots:
        lines.append("")
        lines.append(f"kernel hotspots (top {len(spots)} by wall-clock)")
        width = max(len(str(spot["site"])) for spot in spots)
        for spot in spots:
            lines.append(
                f"  {str(spot['site']).ljust(width)}  {spot['events']:>9} events  "
                f"{spot['seconds']:.4f}s"
            )
    costs = summary.get("check_costs") or []
    if costs:
        lines.append("")
        total = sum(cost["seconds"] for cost in costs)
        lines.append(f"check cost by property ({total:.4f}s attributed)")
        width = max(len(str(cost["property"])) for cost in costs)
        for cost in costs:
            share = 0.0 if total <= 0 else 100.0 * cost["seconds"] / total
            lines.append(
                f"  {str(cost['property']).ljust(width)}  {cost['events']:>9} events  "
                f"{cost['seconds']:.4f}s  {share:5.1f}%"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str, namespace: str) -> str:
    return _NAME_RE.sub("_", f"{namespace}_{name}")


def _prom_labels(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_NAME_RE.sub("_", str(key))}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(snapshot: Mapping[str, object], *, namespace: str = "repro") -> str:
    """Prometheus text exposition (format version 0.0.4) of a snapshot."""
    lines: List[str] = []
    seen_types: Dict[str, str] = {}

    def header(name: str, kind: str) -> None:
        if seen_types.get(name) != kind:
            lines.append(f"# TYPE {name} {kind}")
            seen_types[name] = kind

    for entry in snapshot.get("counters", ()):
        name = _prom_name(str(entry["name"]), namespace)
        header(name, "counter")
        lines.append(f"{name}{_prom_labels(entry.get('labels') or {})} {_prom_value(entry['value'])}")
    for entry in snapshot.get("gauges", ()):
        name = _prom_name(str(entry["name"]), namespace)
        header(name, "gauge")
        labels = entry.get("labels") or {}
        lines.append(f"{name}{_prom_labels(labels)} {_prom_value(entry['value'])}")
        for facet in ("max", "min"):
            if entry.get(facet) is not None:
                facet_name = f"{name}_{facet}"
                header(facet_name, "gauge")
                lines.append(f"{facet_name}{_prom_labels(labels)} {_prom_value(entry[facet])}")
    for entry in snapshot.get("histograms", ()):
        name = _prom_name(str(entry["name"]), namespace)
        header(name, "histogram")
        labels = dict(entry.get("labels") or {})
        cumulative = 0
        bounds: Sequence[float] = list(entry.get("bounds", ())) + [float("inf")]
        for bound, count in zip(bounds, entry["bucket_counts"]):
            cumulative += int(count)
            if count or bound == float("inf"):
                le = "+Inf" if bound == float("inf") else _prom_value(bound)
                bucket_labels = dict(labels)
                bucket_labels["le"] = le
                lines.append(f"{name}_bucket{_prom_labels(bucket_labels)} {cumulative}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_value(entry['sum'])}")
        lines.append(f"{name}_count{_prom_labels(labels)} {int(entry['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")
