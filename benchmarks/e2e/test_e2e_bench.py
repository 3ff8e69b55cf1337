"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs every workload at ``--scale smoke`` with the trace on, one more time
with another seed, and checks the shape of what comes out: every metric
``BENCHMARK.json`` names is there, finite and with its unit; the result
digest repeats across the two passes of one seed and differs for another;
only ``olap_shard_1m`` takes the shard path; no shared-memory segment leaks;
every ``client.op`` span has its stage children.  No timing is asserted.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
from e2ebench import spec, trace  # noqa: E402


#: Needs an aggregate served from a view that no write has made stale since
#: its last refresh: too rare to count on in a 260-statement smoke stream.
MAY_LACK_SAMPLES_AT_SMOKE = {"engine.matview.serve_us_p50"}


def _start(workload: str, seed: int, directory, traced: bool):
    out = os.path.join(directory, f"{workload}-{seed}.json")
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--scale", "smoke",
               "--seconds", "10", "--out", out,
               "--work-dir", os.path.join(directory, "work")]
    if traced:
        command += ["--trace", "--trace-out",
                    os.path.join(directory, f"{workload}.spans")]
    return out, subprocess.Popen(command, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)


def _finish(started):
    records = {}
    for workload, (out, process) in started.items():
        stdout, _ = process.communicate(timeout=120)
        assert process.returncode == 0, stdout
        with open(out) as handle:
            document = json.load(handle)
        (records[workload],) = document["runs"]
        records[workload]["fingerprint"] = document["fingerprint"]
        records[workload]["last_line"] = json.loads(stdout.strip().splitlines()[-1])
    return records


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{seed: {workload: run record}}; seed 1 traced, seed 2 not."""
    directory = str(tmp_path_factory.mktemp("e2e"))
    result = {}
    for seed, traced in ((1, True), (2, False)):
        # The four workloads of one seed run side by side: nothing here
        # asserts a timing, and it halves the test's wall time.
        started = {workload: _start(workload, seed, directory, traced)
                   for workload in spec.ALL}
        result[seed] = _finish(started)
    result["directory"] = directory
    return result


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_is_the_projection_of_spec(contract):
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(spec.ALL)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == spec.WORKLOADS
    assert [m["name"] for m in contract["end_to_end"]] == \
        list(spec.CONTRACT_END_TO_END)
    for entry in contract["end_to_end"]:
        metric = spec.END_TO_END_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == \
            (metric.unit, metric.better, metric.bound)
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    assert len(spec.END_TO_END) == 11


def test_every_named_metric_is_present_finite_and_carries_its_unit(runs, contract):
    for workload, record in runs[1].items():
        assert record["correct"], record["errors"]
        for metric in spec.END_TO_END:
            if workload in metric.workloads:
                entry = record["end_to_end"][metric.name]
                assert math.isfinite(entry["value"]), (workload, metric.name)
                assert entry["unit"] == metric.unit
                assert entry["samples"] >= 1
            else:
                assert metric.name not in record["end_to_end"]
        for metric in spec.PER_LAYER:
            entry = record["per_layer"].get(metric.name)
            if workload not in metric.workloads:
                assert entry is None, (workload, metric.name)
            elif entry is None:
                assert metric.name in MAY_LACK_SAMPLES_AT_SMOKE, \
                    (workload, metric.name)
            else:
                assert math.isfinite(entry["value"]), (workload, metric.name)
                assert entry["unit"] == metric.unit
        # The driver's line carries every per-layer metric of BENCHMARK.json.
        assert set(record["last_line"]) == \
            {"correct", "attempted", "failed", "metrics"}
        assert list(record["last_line"]["metrics"]) == \
            [m["name"] for m in contract["per_layer"]]
        assert record["last_line"]["failed"] == 0
        assert record["end_to_end"]["failed_share"]["value"] == 0


def test_untraced_line_carries_every_end_to_end_metric(runs, contract):
    for record in runs[2].values():
        metrics = record["last_line"]["metrics"]
        assert list(metrics) == [m["name"] for m in contract["end_to_end"]]
        for entry in contract["end_to_end"]:
            assert metrics[entry["name"]]["unit"] == entry["unit"]
            assert metrics[entry["name"]]["value"] > 0


def test_result_carries_the_machine_fingerprint(runs):
    record = runs[1][spec.OLTP_POINT]
    assert {"nproc", "platform", "python", "numpy", "git_commit"} <= \
        set(record["fingerprint"])
    assert record["statements"]["timed"] >= 64
    assert record["seed"] == 1 and record["scale"] == "smoke"


def test_digest_repeats_for_one_seed_and_differs_for_another(runs):
    for workload in spec.ALL:
        # ``correct`` includes: the traced pass (its own process) reproduced
        # the untraced pass's digest and simulated runtime bit for bit.
        assert runs[1][workload]["correct"]
        assert runs[2][workload]["correct"]
        assert runs[1][workload]["digest"] != runs[2][workload]["digest"]


def test_only_the_shard_workload_takes_the_shard_path(runs):
    for workload, record in runs[1].items():
        sharded = record["per_layer"]["engine.shard.sharded_share"]["value"]
        if workload == spec.OLAP_SHARD:
            assert sharded > 0
            assert record["per_layer"]["engine.shard.speedup_vs_serial"]["value"] > 0
        else:
            assert sharded == 0


def test_no_shared_memory_segment_is_leaked(runs):
    for record in runs[1].values():
        assert record["per_layer"]["engine.shard.leaked_segments"]["value"] == 0


def test_every_client_op_has_its_stage_children(runs):
    for workload in spec.ALL:
        spans = trace.read_spans(
            os.path.join(runs["directory"], f"{workload}.spans")
        )
        children = {}
        for span in spans:
            if span["parent"] == trace.CLIENT_OP:
                children.setdefault(span["op"], []).append(span)
        ops = [span for span in spans if span["name"] == trace.CLIENT_OP]
        assert len(ops) == runs[1][workload]["statements"]["timed"]
        for op in ops:
            stages = children[op["op"]]
            names = [span["name"] for span in stages]
            assert trace.BIND in names and trace.PLAN in names
            assert (trace.EXECUTE in names) != (trace.VIEW_SERVE in names)
            assert (trace.PARSE in names) == (workload != spec.HTAP_TPCH)
            for span in stages:
                assert op["start_us"] <= span["start_us"] <= span["end_us"] \
                    <= op["end_us"]
        lifecycle = {span["name"] for span in spans if span["op"] < 0}
        assert {"workloads.datagen", "engine.load_rows",
                "engine.integrity.scrub"} <= lifecycle


def _run(workload, seed, **values):
    return {
        "workload": workload, "seed": seed, "scale": "full", "seconds": 10.0,
        "digest": "d", "end_to_end": {
            name: {"value": value, "unit": spec.END_TO_END_BY_NAME[name].unit}
            for name, value in values.items()
        },
    }


def test_compare_applies_the_bounds():
    base = [_run(spec.OLTP_POINT, 1, p50_us=100.0 + i, ops_per_s=1000.0,
                 sim_runtime_s=1.0) for i in range(5)]
    same = [_run(spec.OLTP_POINT, 1, p50_us=101.0 + i, ops_per_s=990.0,
                 sim_runtime_s=1.0) for i in range(5)]
    lines, worse = compare.compare(base, same)
    assert not worse and all(line.split()[-4] != compare.WORSE or "exact" in line
                             for line in lines[1:])

    slower = [_run(spec.OLTP_POINT, 1, p50_us=130.0 + i, ops_per_s=1000.0,
                   sim_runtime_s=1.0) for i in range(5)]
    lines, worse = compare.compare(base, slower)
    assert worse
    assert any(line.startswith("p50_us") and compare.WORSE in line for line in lines)

    noisy = [_run(spec.OLTP_POINT, 1, p50_us=value, ops_per_s=1000.0,
                  sim_runtime_s=1.0) for value in (90.0, 100.0, 125.0, 140.0, 160.0)]
    lines, worse = compare.compare(base, noisy)
    assert not worse
    assert any(line.startswith("p50_us") and compare.UNRESOLVED in line
               for line in lines)

    drifted = [_run(spec.OLTP_POINT, 1, p50_us=100.0, ops_per_s=1000.0,
                    sim_runtime_s=1.0000001)]
    lines, worse = compare.compare(base, drifted)
    assert worse and any(line.startswith("exact") and compare.WORSE in line
                         for line in lines)
