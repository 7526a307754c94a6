"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench -q``).

They use a tiny fleet workload so the whole file runs in seconds.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

from repro.fleet.spec import DeviceJoin, FleetSpec, RebalancePolicy  # noqa: E402
from repro.scenarios.spec import ScenarioSpec, uniform_tenants  # noqa: E402
from repro.service.admission import AdmissionConfig  # noqa: E402
from repro.workloads.datagen import TableProfile  # noqa: E402

from perfbench import measure, run, spantrace  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, _profile  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="perfbench-tiny",
        description="Twelve Q12 tenants on a three-device fleet with a join.",
        tenants=uniform_tenants(12, "tpch:q12", cache_capacity=4),
        scale="perfbench-tiny",
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="ewma-latency",
            events=(DeviceJoin(device=3, at_seconds=50.0),),
            rebalance=RebalancePolicy(interval_seconds=60.0),
        ),
        admission=AdmissionConfig(max_in_flight=4),
        seed=seed,
    )


TINY = Workload(
    name="tiny",
    why="test workload",
    scale=_profile("perfbench-tiny", TableProfile(8, 5), orders=TableProfile(2, 20)),
    spec=_tiny_spec,
)


@pytest.fixture(scope="module")
def document():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_run():
    recorder = spantrace.SpanRecorder(run_id="test")
    rep = measure.run_rep(TINY, 7, recorder)
    return rep, recorder


def _wrappers_left():
    """Every traced wrapper still reachable from a loaded repro module."""
    code = spantrace._wrap(spantrace.SpanRecorder("probe"), "probe", len).__code__
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in vars(module).items():
            members = list(vars(value).values()) if isinstance(value, type) else []
            for item in [value, *members]:
                if getattr(item, "__code__", None) is code:
                    found.append(f"{name}.{attribute}")
    return found


def test_metric_names_are_well_formed(document):
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_printed_metrics_match_the_document(document):
    reps, end_to_end = run.end_to_end(TINY, 3, seconds=0.01)
    assert not [problem for rep in reps for problem in rep.problems]
    assert set(end_to_end) == {m["name"] for m in document["end_to_end"]}
    _reps, layered = run.per_layer(TINY, 3, seconds=0.01)
    assert set(layered) == {m["name"] for m in document["per_layer"]}
    for metrics in (end_to_end, layered):
        for name, entry in metrics.items():
            assert NAME.fullmatch(name)
            assert math.isfinite(entry["value"]), name
    declared = {m["name"]: m["unit"] for m in document["end_to_end"] + document["per_layer"]}
    for name, entry in {**end_to_end, **layered}.items():
        assert entry["unit"] == declared[name], name
    assert {w["name"] for w in document["workloads"]} == set(WORKLOADS)


def test_self_times_in_a_phase_sum_to_its_duration(traced_run):
    rep, recorder = traced_run
    assert not rep.problems
    self_times = recorder.self_times()
    roots = recorder.roots()
    phases = [i for i, parent in enumerate(recorder.parent) if parent < 0]
    assert [recorder.names[recorder.name_of[i]] for i in phases] == [
        "phase.setup",
        "phase.run",
        "phase.report",
    ]
    for phase in phases:
        duration = recorder.end[phase] - recorder.start[phase]
        covered = sum(t for t, root in zip(self_times, roots) if root == phase)
        assert covered == pytest.approx(duration, rel=1e-9, abs=1e-9)
    assert min(self_times) >= -1e-9
    totals = recorder.totals()
    for name in ("sim.loop", "fleet.submit", "csd.window_overlap", "core.on_arrival"):
        assert totals[name][1] > 0, name


def test_wrappers_are_removed_after_the_traced_run(traced_run):
    rep, _recorder = traced_run
    assert _wrappers_left() == []
    again = measure.run_rep(TINY, 7)
    assert again.sim == rep.sim
    assert again.counters["sim.events"] == rep.counters["sim.events"]
    assert again.counters == rep.counters


def test_setup_rss_is_measured_on_a_fresh_heap():
    """``phase.setup_rss_mb`` comes from the first set-up of a fresh process."""
    code = (
        "from perfbench import run\n"
        "from perfbench.test_perfbench import TINY\n"
        "_reps, metrics = run.per_layer(TINY, 3, seconds=0.01)\n"
        "print(metrics['phase.setup_rss_mb']['value'])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert float(out.splitlines()[-1]) > 0


def test_answer_check_flags_a_tampered_row():
    rep, _spec, service, result = measure.run_phases(TINY, 5)
    rep.attempted = measure.attempted_queries(TINY, 5)
    handle = service.sessions[0].handles[0]
    rows = handle.result().rows
    assert rows
    row = rows[0]
    column = next(key for key, value in row.items() if isinstance(value, (int, float)))
    row[column] = row[column] + 1
    measure.check(rep, service, result)
    assert rep.failed == 1
    assert "answer differs" in rep.problems[0]


def test_rows_match_tolerates_summation_order_only():
    expected = [{"g": "A", "s": 0.1 + 0.2}, {"g": "B", "s": 3}]
    assert measure.rows_match([{"g": "B", "s": 3}, {"g": "A", "s": 0.3}], expected)
    assert not measure.rows_match([{"g": "A", "s": 0.3001}, {"g": "B", "s": 3}], expected)
    assert not measure.rows_match([{"g": "A", "s": 0.3}], expected)
    assert not measure.rows_match([{"g": "A", "s": 0.3}, {"g": "C", "s": 3}], expected)


def test_tail_keeps_ten_queries_beyond_it():
    assert measure.tail([1.0] * 10) == (None, 0.0)
    value, percentile = measure.tail([float(i) for i in range(1, 25)])
    assert value == 14.0
    assert sum(1 for i in range(1, 25) if i > value) == 10
    assert percentile == pytest.approx(100 * 14 / 24)


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fanout", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
