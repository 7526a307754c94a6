"""Benchmark entry point: run one workload for a while, print its metrics.

Usage, from the root of a checkout (the simulator is imported from
``src/``; nothing is installed)::

    python3 perfbench/run.py --workload fanout --seed 42 --seconds 40 --trace 0

One invocation is one fresh, single-threaded process running one workload
(see ``perfbench/workloads.py``) on one seed.  It repeats the workload's
set-up, run and report phases until ``--seconds`` is used up; every
repetition's query answers and the simulator's invariants are checked after
its timed phases.

* ``--trace 0`` prints the end-to-end metrics (untraced repetitions only).
  Host times are the best over the repetitions (see ``end_to_end``).
* ``--trace 1`` alternates untraced and traced repetitions and prints the
  per-layer metrics: self time and call counts of each layer's public entry
  points (wrapped from outside by ``perfbench/spantrace.py``), the layers'
  work counters, phase times and the tracing overhead.  The spans of the
  last traced repetition are written to ``.perfbench/spans-<workload>.bin``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The first failing
repetition ends the run with no metrics.  The exit code is 0 when every
check passed, 1 when one failed and 2 on a usage error or when the
simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Set-up time per repetition time; ``setup_s`` is the fastest set-up.
#: After each repetition, stand-alone set-ups are added until set-up time
#: reaches this share of the repetitions' time so far, so a cheap set-up is
#: sampled hundreds of times, spread over the whole run rather than bunched
#: at its end.
SETUP_SHARE = 0.05

#: Where the traced run writes its spans (relative to the checkout root).
SPANS_DIR = ROOT / ".perfbench"

#: Per-layer metrics: span names reported as ``<name>.self_s`` and
#: ``<name>.calls``.
SPAN_NAMES = (
    "sim.loop",
    "workloads.build_catalog",
    "service.init",
    "service.admission",
    "fleet.place",
    "fleet.submit",
    "fleet.diff_keys",
    "fleet.plan_migration",
    "fleet.report",
    "csd.device_submit",
    "csd.scheduler.add",
    "csd.scheduler.choose",
    "csd.scheduler.next",
    "csd.window_overlap",
    "core.on_arrival",
    "core.njoin",
    "core.cycle_requests",
    "core.request_objects",
    "core.cache.evict",
    "engine.filtered_rows",
    "engine.aggregate",
    "cluster.attribute_waiting",
)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _sim_consistent(reps) -> List[str]:
    """Simulated outputs and counters must repeat exactly for one seed."""
    first = reps[0]
    problems = []
    for index, rep in enumerate(reps[1:], start=1):
        if rep.sim != first.sim or rep.counters != first.counters:
            problems.append(f"repetition {index} simulated a different run than repetition 0")
    return problems


def end_to_end(workload, seed: int, seconds: float):
    """Untraced repetitions until the time is up; returns (reps, metrics).

    The work of a repetition is fixed for a seed (the run fails otherwise),
    and a busy host can only slow it down, so each host time is the best
    over the run's repetitions and set-ups rather than their median: on a
    shared host the median follows the neighbours' load, which shifts every
    10 to 60 seconds, while the best tracks the cost of the work.
    """
    from perfbench import measure

    reps = []
    setups: List[float] = []
    durations: List[float] = []
    rep_time = 0.0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rep = measure.run_rep(workload, seed)
        rep_time += time.perf_counter() - began
        reps.append(rep)
        if rep.problems:
            return reps, {}
        setups.append(rep.setup_s)
        while sum(setups) < SETUP_SHARE * rep_time:
            setups.append(measure.time_setup(workload, seed))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + median(durations) > seconds:
            break
    sim = reps[0].sim
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    metrics = {
        "wall_s": _metric(min(rep.wall_s for rep in reps), "s"),
        "setup_s": _metric(min(setups), "s"),
        "objects_per_s": _metric(max(rep.objects_served / rep.run_s for rep in reps), "1/s"),
        "peak_rss_mb": _metric(measure.peak_rss_mb(), "MB"),
        "sim_makespan_s": _metric(sim["sim_makespan_s"], "sim_s"),
        "sim_query_p50_s": _metric(sim["sim_query_p50_s"], "sim_s"),
        "sim_query_tail_s": _metric(sim["sim_query_tail_s"], "sim_s"),
        "query_ok_frac": _metric(1.0 - failed / attempted, "ratio"),
    }
    print(
        f"# {workload.name} seed {seed}: {len(reps)} repetitions and "
        f"{len(setups)} set-ups, "
        f"{int(sim['sim_queries'])} queries each; sim_query_tail_s is "
        f"p{sim['sim_query_tail_pct']:.1f} ({measure.TAIL_BEYOND} queries beyond it)"
    )
    return reps, metrics


def per_layer(workload, seed: int, seconds: float):
    """Alternating untraced and traced repetitions; returns (reps, metrics)."""
    from perfbench import measure
    from perfbench.spantrace import LAYERS, SpanRecorder

    plain = []
    traced = []
    totals: List[Dict[str, tuple]] = []
    durations: List[float] = []
    recorder: Optional[SpanRecorder] = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rep = measure.run_rep(workload, seed)
        plain.append(rep)
        if rep.problems:
            return plain, {}
        recorder = SpanRecorder(run_id=f"{workload.name}-seed{seed}-traced{len(traced)}")
        rep = measure.run_rep(workload, seed, recorder)
        traced.append(rep)
        if rep.problems:
            return plain + traced, {}
        totals.append(recorder.totals())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + median(durations) > seconds:
            break
    recorder.write(SPANS_DIR / f"spans-{workload.name}.bin")

    def self_s(name: str) -> float:
        return median([total.get(name, (0.0, 0))[0] for total in totals])

    metrics: Dict[str, Dict[str, object]] = {}
    names = set(totals[-1])
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = _metric(self_s(name), "s")
        metrics[f"{name}.calls"] = _metric(totals[-1].get(name, (0.0, 0))[1], "count")
    for layer in LAYERS:
        layer_names = [name for name in names if name.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = _metric(sum(self_s(name) for name in layer_names), "s")
    metrics["unwrapped.self_s"] = _metric(
        sum(self_s(name) for name in names if name.startswith("phase.")), "s"
    )
    units = {"_sim_s": "sim_s", "_frac": "ratio", "_rate": "ratio", "_ratio": "ratio"}
    for name, value in plain[0].counters.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = _metric(value, unit)
    metrics["sim.events_per_s"] = _metric(
        median([rep.counters["sim.events"] / rep.run_s for rep in plain]), "1/s"
    )
    metrics["phase.run_s"] = _metric(median([rep.run_s for rep in plain]), "s")
    metrics["phase.report_s"] = _metric(median([rep.report_s for rep in plain]), "s")
    # Only the first repetition sets up on a fresh heap (after imports);
    # later ones reuse memory the allocator kept and could read near 0.
    metrics["phase.setup_rss_mb"] = _metric(plain[0].setup_rss_mb, "MB")
    traced_wall = median([rep.wall_s for rep in traced])
    plain_wall = median([rep.wall_s for rep in plain])
    metrics["trace.overhead_frac"] = _metric(traced_wall / plain_wall - 1.0, "ratio")
    print(
        f"# {workload.name} seed {seed}: {len(plain)} untraced and {len(traced)} "
        f"traced repetitions; {len(recorder)} spans in the last traced one"
    )
    return plain + traced, metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seed <= 0 or args.seconds <= 0:
        print("perfbench: --seed and --seconds must be positive", file=sys.stderr)
        return 2

    measure_run = per_layer if args.trace else end_to_end
    reps, metrics = measure_run(workload, args.seed, args.seconds)
    problems = [problem for rep in reps for problem in rep.problems]
    problems += _sim_consistent(reps)
    for problem in problems[:20]:
        print(f"# FAIL {problem}")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
