"""The ledger's driver: runs repetitions, summarises, prints, compares.

Two ways in, one code path:

* ``python3 benchmarks/ledger/run.py --workload W --seed S --seconds T
  --trace 0|1`` — the contract of ``BENCHMARK.json``: one workload, one
  JSON object on the last line of standard output.
* ``PYTHONPATH=src python -m benchmarks.ledger --seed S [--trace]`` — every
  workload, repetitions interleaved round-robin, every metric printed by
  name with its unit; ``--compare`` and ``--selfcheck`` judge two such sets.

Every repetition is a fresh child interpreter (``child.py``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from benchmarks.ledger.stats import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HISTORY = os.path.join(HERE, "history.jsonl")

#: Repetitions per workload in one set (see :func:`summarise` for the value).
REPS = 5
#: Untraced repetitions beside the traced one when only layers are asked for.
TRACE_REPS = 3
#: The metric ``bench.trace_overhead_ratio`` compares traced to untraced on.
PRIMARY = {
    "kernel_scale": "meals_per_wall_s",
    "kernel_fuzz": "plans_per_wall_s",
    "live_loopback": "meals_per_wall_s",
    "live_wire": "meals_per_wall_s",
    "locks_closed": "sessions_per_s",
    "locks_open": "lease_p50_ms",  # its rate is fixed by the arrival schedule
}


def load_manifest() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as stream:
        return json.load(stream)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, rep_seconds: float, mode: str) -> Dict[str, object]:
    """Run one child to completion and return the record it printed."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"ledger: no program to measure: {src}/repro is missing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, ROOT])
    done = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.ledger.child",
            "--workload", workload,
            "--seed", str(seed),
            "--rep-seconds", repr(rep_seconds),
            "--spawned-at", repr(time.perf_counter()),
            "--mode", mode,
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"ledger: {workload} ({mode}) child exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def summarise(manifest, reps: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Value, median and quartiles of one workload's untraced repetitions.

    A metric's **value** is its favourable quartile over the repetitions
    (q3 of a rate, q1 of a time or size).  Load on this box only ever
    slows a repetition, and it comes in bursts that spoil two or three of
    five: measured here, the favourable quartile moves half as much from
    run to run as the median does (README, "How steady it is").
    """
    end_to_end = {}
    for metric in manifest["end_to_end"]:
        stats = summary([rep["end_to_end"][metric["name"]] for rep in reps])
        stats["value"] = stats["q3" if metric["better"] == "higher" else "q1"]
        end_to_end[metric["name"]] = stats
    failures = [detail for rep in reps for detail in rep["failures"]]
    failed = sum(rep["failed"] for rep in reps)
    exact = reps[0]["exact"]
    if any(rep["exact"] != exact for rep in reps):
        failed += 1
        failures.append(
            "exact counts differ across repetitions: "
            + json.dumps([rep["exact"] for rep in reps])
        )
    return {
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed,
        "failures": failures,
        "exact": exact,
        "end_to_end": end_to_end,
    }


def layer_values(
    manifest,
    workload: str,
    cell: Dict[str, object],
    untraced: Sequence[Dict[str, object]],
    traced: Dict[str, object],
    extras: Dict[str, object],
) -> Dict[str, float]:
    """Every per-layer metric of the manifest for one workload.

    A layer the workload bypasses reads 0.  What an untraced repetition
    can count is taken from those (their median); the rest comes from the
    traced repetition's wrappers and the extra runs.
    """
    primary = next(m for m in manifest["end_to_end"] if m["name"] == PRIMARY[workload])
    clean = cell["end_to_end"][primary["name"]]["value"]
    slowed = traced["end_to_end"][primary["name"]]
    ratio = clean / slowed if primary["better"] == "higher" else slowed / clean
    measured = {
        "bench.trace_overhead_ratio": ratio - 1.0,
        "bench.rep_spread": max(s["spread"] for s in cell["end_to_end"].values()),
    }
    measured.update(extras["layers"])
    measured.update(traced["layers"])
    for name in {name for rep in untraced for name in rep["layers"]}:
        samples = [rep["layers"][name] for rep in untraced if name in rep["layers"]]
        measured[name] = summary(samples)["median"]

    names = sorted(metric["name"] for metric in manifest["per_layer"])
    return {name: float(measured.get(name, 0.0)) for name in names}


# ----------------------------------------------------------------------
# Running sets
# ----------------------------------------------------------------------
def run_set(
    manifest,
    workloads: Sequence[str],
    seed: int,
    seconds: float,
    reps: int,
    trace: bool,
) -> Dict[str, object]:
    """One set: ``reps`` untraced repetitions of each workload, interleaved.

    Repetitions go round-robin across workloads (A B C, A B C, ...) so
    drift in background load hits all of them equally.  ``seconds`` is
    what a full set of ``REPS`` repetitions measures per workload.
    """
    rep_seconds = seconds / REPS  # the same sizes however many repetitions run
    untraced: Dict[str, List[Dict[str, object]]] = {name: [] for name in workloads}
    for _ in range(reps):
        for name in workloads:
            untraced[name].append(spawn(name, seed, rep_seconds, "untraced"))
    cells = {name: summarise(manifest, untraced[name]) for name in workloads}
    if trace:
        for name in workloads:
            traced = spawn(name, seed, rep_seconds, "traced")
            extras = spawn(name, seed, rep_seconds, "extras")
            cell = cells[name]
            cell["failed"] += traced["failed"]
            cell["failures"] += [f"traced: {d}" for d in traced["failures"]]
            cell["traced"] = {
                "wall_s": traced["window"][1] - traced["window"][0],
                "layer_table": traced["layer_table"],
                "spans": traced["spans"],
                "spans_path": traced["spans_path"],
                "in_process_server": name.startswith("locks_"),
            }
            cell["per_layer"] = layer_values(
                manifest, name, cell, untraced[name], traced, extras
            )
    return {
        "seed": seed,
        "seconds": seconds,
        "reps": reps,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workloads": cells,
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def failed_total(result: Dict[str, object]) -> int:
    return sum(cell["failed"] for cell in result["workloads"].values())


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_set(manifest, result: Dict[str, object]) -> None:
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    print(
        f"ledger: seed {result['seed']}, {result['reps']} repetition(s) sharing "
        f"{result['seconds']:g} s per workload, nproc {result['nproc']}, "
        f"commit {result['commit']}"
    )
    for name, cell in result["workloads"].items():
        print(f"\nworkload {name}")
        for metric, stats in cell["end_to_end"].items():
            print(
                f"  metric {name} {metric} {stats['value']:.6g} {units[metric]}"
                f"  (median {stats['median']:.6g}, q1 {stats['q1']:.6g},"
                f" q3 {stats['q3']:.6g}, n {stats['n']}, spread {stats['spread']:.3f})"
            )
        share = cell["failed"] / cell["attempted"]
        print(
            f"  metric {name} failed_share {share:.6g} share"
            f"  ({cell['failed']} of {cell['attempted']} operations)"
        )
        for detail in cell["failures"][:10]:
            print(f"    FAILED {detail}")
        for key, value in cell["exact"].items():
            print(f"  exact {name} {key} {value}")
        if "traced" in cell:
            traced = cell["traced"]
            where = (
                "server hosted in the generator's process"
                if traced["in_process_server"]
                else "same process as the untraced repetitions"
            )
            print(f"  traced repetition: {traced['wall_s']:.4f} s wall, {where}")
            print(f"  {'layer':<28} {'calls':>9} {'total_s':>10} {'self_s':>10}")
            for span, row in traced["layer_table"].items():
                print(
                    f"  layer {name} {span:<28} {row['calls']:>9d}"
                    f" {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
                )
            print(f"  spans: {traced['spans']} written to {traced['spans_path']}")
            for metric, value in cell["per_layer"].items():
                print(f"  metric {name} {metric} {value:.6g} {units[metric]}")


# ----------------------------------------------------------------------
# Comparing two sets
# ----------------------------------------------------------------------
def compare(manifest, first: Dict[str, object], second: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per end-to-end metric × workload of two sets of one seed.

    ``worse``: the second value is worse than the first by more than the
    bound.  ``unresolved``: it is not, but the spread of either side is
    wider than the bound and the two interquartile ranges overlap, so a
    change of the bound's size could hide.  ``agree`` otherwise.
    """
    rows = []
    for name, cell in first["workloads"].items():
        other = second["workloads"].get(name)
        if other is None:
            continue
        for metric in manifest["end_to_end"]:
            a = cell["end_to_end"][metric["name"]]
            b = other["end_to_end"][metric["name"]]
            change = (b["value"] - a["value"]) / a["value"]
            worsening = -change if metric["better"] == "higher" else change
            overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
            if worsening > metric["bound"]:
                verdict = "worse"
            elif max(a["spread"], b["spread"]) > metric["bound"] and overlap:
                verdict = "unresolved"
            else:
                verdict = "agree"
            rows.append(
                {
                    "workload": name, "metric": metric["name"],
                    "first": a, "second": b, "change": change,
                    "bound": metric["bound"], "verdict": verdict,
                }
            )
        if cell["exact"] != other["exact"]:
            rows.append(
                {
                    "workload": name, "metric": "exact", "verdict": "worse",
                    "first": cell["exact"], "second": other["exact"],
                }
            )
    return rows


def print_compare(rows: Sequence[Dict[str, object]]) -> None:
    print(
        f"{'workload':<14} {'metric':<17} {'first (q1..q3)':>30} "
        f"{'second (q1..q3)':>30} {'change':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        if row["metric"] == "exact":
            print(f"{row['workload']:<14} exact counts differ: {row['first']} vs {row['second']}")
            continue
        a, b = row["first"], row["second"]
        print(
            f"{row['workload']:<14} {row['metric']:<17}"
            f" {a['value']:>10.5g} ({a['q1']:.5g}..{a['q3']:.5g})".ljust(64)
            + f" {b['value']:>10.5g} ({b['q1']:.5g}..{b['q3']:.5g})".ljust(32)
            + f" {row['change']:>+8.3f} {row['bound']:>6.2f}  {row['verdict']}"
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def contract_run(manifest, args) -> int:
    """One workload, one JSON line: what the ``BENCHMARK.json`` command does."""
    trace = bool(args.trace)
    result = run_set(
        manifest, [args.workload], args.seed, args.seconds,
        TRACE_REPS if trace else REPS, trace,
    )
    print_set(manifest, result)
    cell = result["workloads"][args.workload]
    if trace:
        group, values = manifest["per_layer"], cell["per_layer"]
    else:
        group = manifest["end_to_end"]
        values = {name: stats["value"] for name, stats in cell["end_to_end"].items()}
    print(
        json.dumps(
            {
                "correct": cell["failed"] == 0,
                "attempted": cell["attempted"],
                "failed": cell["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group
                },
            }
        )
    )
    return 0 if cell["failed"] == 0 else 1


def append_history(result: Dict[str, object]) -> None:
    line = {key: result[key] for key in ("commit", "date", "seed", "nproc", "seconds", "reps")}
    line["end_to_end"] = {
        name: {
            metric: {key: stats[key] for key in ("value", "median", "q1", "q3")}
            for metric, stats in cell["end_to_end"].items()
        }
        for name, cell in result["workloads"].items()
    }
    with open(HISTORY, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(line) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0: working seed; 1: held out for claims)")
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]),
                        help="measured seconds per workload, shared by its repetitions")
    parser.add_argument("--workload", choices=names,
                        help="contract mode: this workload only, JSON on the last line")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add a traced repetition per workload and print the layer table")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repetition, traced (the smoke test)")
    parser.add_argument("--json", metavar="PATH", help="also write the set as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two sets written with --json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets back to back and compare them")
    args = parser.parse_args(argv)

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, "r", encoding="utf-8") as stream:
                sets.append(json.load(stream))
        rows = compare(manifest, *sets)
        print_compare(rows)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    if args.workload:
        return contract_run(manifest, args)

    if args.quick:
        result = run_set(manifest, names, args.seed, 2.0, 1, True)
    else:
        result = run_set(manifest, names, args.seed, args.seconds, REPS, bool(args.trace))
    print_set(manifest, result)
    status = 1 if failed_total(result) else 0
    if args.selfcheck:
        again = run_set(manifest, names, args.seed, args.seconds, REPS, False)
        print()
        print_set(manifest, again)
        print()
        rows = compare(manifest, result, again)
        print_compare(rows)
        if failed_total(again) or any(row["verdict"] == "worse" for row in rows):
            status = 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(result, stream, indent=1)
            stream.write("\n")
    if not args.quick:
        append_history(result)
    return status
