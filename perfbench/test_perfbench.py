"""Tests of the benchmark itself.  None of them asserts on a timing."""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import metrics, run, tracing, workloads
from repro.codegen.program import Program

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = workloads.Sizes(
    sim_per_group=1,
    sim_trace=20_000,
    pipe_impls=4,
    pipe_trials=16,
    pipe_trace=20_000,
    svc_fresh=3,
    svc_repeats=6,
    svc_trace=5_000,
)


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_and_units_are_well_formed():
    bench = _load_benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert bench["paths"] == ["perfbench"]
    assert bench["command"][1] == "perfbench/run.py"


def test_inputs_are_deterministic_for_a_seed(tmp_path):
    mix = workloads.ServiceMix(7, TINY, str(tmp_path))
    again = workloads.ServiceMix(7, TINY, str(tmp_path))
    assert (mix.pairs, mix.plans) == (again.pairs, again.plans)
    assert mix.pairs != workloads.ServiceMix(8, TINY, str(tmp_path)).pairs
    for thread, plan in enumerate(mix.plans):
        own = range(thread * TINY.svc_fresh, (thread + 1) * TINY.svc_fresh)
        assert sorted(set(plan)) == list(own)  # only its own candidates
        assert len(plan) == TINY.svc_fresh + TINY.svc_repeats
    pool = [p.content_digest() for p in workloads.table2_programs(1, TINY.sim_scale)]
    assert pool == [p.content_digest() for p in workloads.table2_programs(1, TINY.sim_scale)]
    orders = [workloads.SimTable2(3, TINY, str(tmp_path)).rng.permutation(5) for _ in "ab"]
    assert orders[0].tolist() == orders[1].tolist()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_short_traced_run_emits_every_listed_span(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, TINY, str(tmp_path))
    untraced = workload.run_pass(None)
    tracer = tracing.Tracer()
    original = Program.__dict__["content_digest"]
    tracing.install_layer_wrappers(tracer)
    try:
        traced = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert Program.__dict__["content_digest"] is original
    assert set(metrics.REQUIRED_SPANS[name]) <= tracer.fired()
    assert workloads.check_repeats([untraced, traced]) == []
    assert workload.check([untraced, traced]) == []
    assert untraced.failed == traced.failed == 0
    layer = metrics.per_layer(tracer, [traced], [untraced])
    assert set(layer) == set(metrics.PER_LAYER)
    assert layer["sim.accesses"] > 0
    assert set(metrics.end_to_end([untraced], 0.0)) == set(metrics.END_TO_END)
