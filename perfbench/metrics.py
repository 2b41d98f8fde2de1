"""Metric definitions and their computation from passes and spans.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names and
units that ``BENCHMARK.json`` lists; the benchmark's tests keep the two in
agreement.  Per-layer times are self times per traced pass; counts are per
traced pass too.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Sequence, Tuple

import numpy as np

from perfbench.tracing import Tracer
from perfbench.workloads import PassResult

#: name -> unit, every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sim_maccs": "Macc/s",
    "pass_s": "s",
}

#: name -> unit.  Times are self times per traced pass.
PER_LAYER: Dict[str, str] = {
    "te.lower_s": "s",
    "codegen.build_s": "s",
    "autotune.build_s": "s",
    "codegen.instr_count_s": "s",
    "codegen.emit_s": "s",
    "codegen.emit_chunks": "count",
    "codegen.pack_s": "s",
    "codegen.pack_bytes": "bytes",
    "codegen.digest_s": "s",
    "sim.sweep_s": "s",
    "sim.accesses": "count",
    "sim.stats_s": "s",
    "sim.batch_s": "s",
    "sim.batch_candidates": "count",
    "sim.memo_hit_ratio": "ratio",
    "sim.memo_coalesced": "count",
    "autotune.runner_s": "s",
    "autotune.score_s": "s",
    "autotune.dedupe_hit_ratio": "ratio",
    "predictor.fit_s": "s",
    "predictor.feature_cache_hit_ratio": "ratio",
    "hardware.measure_s": "s",
    "hardware.measure_accesses": "count",
    "pipeline.dataset_s": "s",
    "pipeline.fit_s": "s",
    "pipeline.tune_s": "s",
    "rtop1_pct": "%",
    "service.hit_rtt_ms_p50": "ms",
    "service.miss_rtt_ms_p50": "ms",
    "service.handle_s": "s",
    "service.transport_s": "s",
    "service.store_get_s": "s",
    "service.store_get_calls": "count",
    "service.store_put_s": "s",
    "service.store_put_calls": "count",
    "service.store_hit_ratio": "ratio",
    "service.shed_ratio": "ratio",
    "reliability.client_retries": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}

#: Spans that must fire at least once in a traced run of each workload.
REQUIRED_SPANS: Dict[str, Tuple[str, ...]] = {
    "sim-table2": (
        "codegen.instr_count", "codegen.emit", "codegen.pack", "sim.sweep", "sim.stats",
    ),
    "paper-pipeline": (
        "pipeline.dataset", "pipeline.fit", "pipeline.tune", "te.lower",
        "codegen.build", "autotune.build", "codegen.instr_count", "codegen.emit",
        "codegen.pack", "codegen.digest", "sim.batch", "sim.sweep", "sim.stats",
        "autotune.runner", "autotune.score", "predictor.fit", "hardware.measure",
    ),
    "service-mix": (
        "service.client", "service.handle", "service.store_get", "service.store_put",
        "codegen.digest", "sim.batch", "sim.sweep", "sim.stats",
    ),
}


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q) * 1e3)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: Sequence[PassResult], process_setup_s: float) -> Dict[str, float]:
    """Every end-to-end metric from the untraced passes.

    Rates are medians of per-pass rates, so a pass that overlapped a burst
    of host load moves them less than a pooled total would.
    """
    latencies = [value for result in passes for value in result.latencies]
    median = statistics.median
    return {
        "setup_s": process_setup_s + median(result.setup_s for result in passes),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": median(len(r.latencies) / r.ops_wall_s for r in passes),
        "op_ms_p50": percentile_ms(latencies, 50),
        "op_ms_p90": percentile_ms(latencies, 90),
        "sim_maccs": median(result.accesses / result.wall_s for result in passes) / 1e6,
        "pass_s": median(result.wall_s for result in passes),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer: Tracer, traced: Sequence[PassResult], untraced: Sequence[PassResult]
) -> Dict[str, float]:
    """Every per-layer metric from the traced passes (0 where a layer idles)."""
    n = len(traced)
    own = tracer.self_times()
    counts = tracer.counts
    counters: Dict[str, float] = {}
    for result in traced:
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0.0) + value

    def self_s(name: str) -> float:
        return own.get(name, 0.0) / n

    def total_s(name: str) -> float:
        return sum(tracer.durations(name)) / n

    def p50_ms(values: Sequence[float]) -> float:
        return percentile_ms(values, 50) if values else 0.0

    wall = sum(result.wall_s for result in traced)
    covered = tracer.covered_seconds([result.window for result in traced])
    overhead = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced)
        - 1.0
    )
    return {
        "te.lower_s": self_s("te.lower"),
        "codegen.build_s": self_s("codegen.build"),
        "autotune.build_s": self_s("autotune.build"),
        "codegen.instr_count_s": self_s("codegen.instr_count"),
        "codegen.emit_s": self_s("codegen.emit"),
        "codegen.emit_chunks": counts["codegen.emit_chunks"] / n,
        "codegen.pack_s": self_s("codegen.pack"),
        "codegen.pack_bytes": counts["codegen.pack_bytes"] / n,
        "codegen.digest_s": self_s("codegen.digest"),
        "sim.sweep_s": self_s("sim.sweep"),
        "sim.accesses": counts["sim.accesses"] / n,
        "sim.stats_s": self_s("sim.stats"),
        "sim.batch_s": self_s("sim.batch"),
        "sim.batch_candidates": counts["sim.batch_candidates"] / n,
        "sim.memo_hit_ratio": _ratio(
            counters.get("memo.hits", 0.0),
            counters.get("memo.hits", 0.0) + counters.get("memo.misses", 0.0),
        ),
        "sim.memo_coalesced": counters.get("memo.coalesced", 0.0) / n,
        "autotune.runner_s": self_s("autotune.runner"),
        "autotune.score_s": self_s("autotune.score"),
        "autotune.dedupe_hit_ratio": _ratio(
            counters.get("autotune.dedupe_hits", 0.0),
            counters.get("autotune.dedupe_lookups", 0.0),
        ),
        "predictor.fit_s": self_s("predictor.fit"),
        "predictor.feature_cache_hit_ratio": _ratio(
            counters.get("features.hits", 0.0),
            counters.get("features.hits", 0.0) + counters.get("features.misses", 0.0),
        ),
        "hardware.measure_s": self_s("hardware.measure"),
        "hardware.measure_accesses": counts["hardware.measure_accesses"] / n,
        "pipeline.dataset_s": total_s("pipeline.dataset"),
        "pipeline.fit_s": total_s("pipeline.fit"),
        "pipeline.tune_s": total_s("pipeline.tune"),
        "rtop1_pct": counters.get("rtop1_pct", 0.0) / n,
        "service.hit_rtt_ms_p50": p50_ms(tracer.samples["service.hit_rtt"]),
        "service.miss_rtt_ms_p50": p50_ms(tracer.samples["service.miss_rtt"]),
        "service.handle_s": total_s("service.handle"),
        "service.transport_s": total_s("service.client") - total_s("service.handle"),
        "service.store_get_s": self_s("service.store_get"),
        "service.store_get_calls": counts["service.store_get_calls"] / n,
        "service.store_put_s": self_s("service.store_put"),
        "service.store_put_calls": counts["service.store_put_calls"] / n,
        "service.store_hit_ratio": _ratio(
            counters.get("store.hits", 0.0),
            counters.get("store.hits", 0.0) + counters.get("store.misses", 0.0),
        ),
        "service.shed_ratio": _ratio(
            counters.get("service.shed", 0.0), counters.get("service.requests", 0.0)
        ),
        "reliability.client_retries": counters.get("reliability.client_retries", 0.0) / n,
        "trace.coverage_pct": 100.0 * covered / wall,
        "trace.overhead_pct": 100.0 * overhead,
    }
