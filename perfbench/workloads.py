"""The benchmark's workloads: seeded inputs, timed passes and output checks.

Every workload runs in *passes*.  A pass first sets up its inputs (timed as
one ``setup_s`` sample), then runs the measured operations, then tears down.
Passes repeat until the measured time reaches the run's budget, so every
figure is a median or total over several passes.  Each pass starts from
empty caches: every simulation runs on a cold cache hierarchy, and the
memo, feature cache, result store and service are created (or cleared) per
pass.  Passes of one run are identical work, so their deterministic outputs
must agree exactly; :func:`check_repeats` enforces that.

The output checks (reference engine, local batch simulator) run after the
timed passes, outside every timed region and outside ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro.workloads  # noqa: F401 — registers the matmul tuning template
from repro.autotune import LocalBuilder, MeasureInput, create_task
from repro.autotune.measure import MeasureErrorNo
from repro.autotune.runner import SimulatorRunner
from repro.autotune.sketch.auto_scheduler import SearchTask, SketchPolicy, TuningOptions
from repro.autotune.sketch.cost_model import RandomCostModel
from repro.codegen.target import Target
from repro.metrics.evaluation import r_top1
from repro.pipeline import DatasetConfig, ExecutionPhase, execution_phase, generate_dataset
from repro.pipeline.dataset import DatasetGenerationError
from repro.predictor.features import default_feature_cache
from repro.predictor.training import ScorePredictor
from repro.service import ResultStore, ServiceClient, ServiceServer, SimulationService
from repro.service.client import ServiceError
from repro.sim import (
    BatchSimulator,
    RuntimeConfig,
    SimulationResult,
    Simulator,
    TraceOptions,
    default_simulation_cache,
)
from repro.workloads import conv2d_bias_relu_workload, scaled_group_params

#: Measure results whose error codes mean the simulation itself failed
#: (a candidate that does not compile is a property of the candidate).
SIMULATION_ERRORS = (
    MeasureErrorNo.RUN_TIMEOUT,
    MeasureErrorNo.WORKER_CRASH,
    MeasureErrorNo.RUNTIME_ERROR,
)
#: Client threads of the service workloads (the host has 2 cores).
CLIENT_THREADS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    sim_per_group: int = 6
    sim_scale: float = 0.18
    sim_trace: int = 300_000
    pipe_impls: int = 12
    pipe_trials: int = 128
    pipe_scale: float = 0.18
    pipe_trace: int = 120_000
    svc_fresh: int = 100
    svc_repeats: int = 300
    svc_trace: int = 40_000


@dataclass
class PassResult:
    """What one measured pass produced."""

    setup_s: float
    wall_s: float = 0.0
    #: Latency of every operation, in seconds.
    latencies: List[float] = field(default_factory=list)
    #: Time base of the throughput: the tuning stage on the pipeline,
    #: the whole pass elsewhere.
    ops_wall_s: float = 0.0
    #: Simulated data accesses the pass computed (memo and store hits excluded).
    accesses: int = 0
    attempted: int = 0
    failed: int = 0
    #: Deterministic outputs that must repeat exactly in every pass.
    repeat: Dict[str, object] = field(default_factory=dict)
    #: Counters read from the layers' own objects (traced passes only).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Timestamps of the pass's measured window (for trace coverage).
    window: Tuple[float, float] = (0.0, 0.0)


def stats_digest(result: SimulationResult) -> str:
    """Digest of a result's statistics, ``sim.host_seconds`` excluded."""
    flat = dict(result.stats.as_dict())
    flat.pop("sim.host_seconds", None)
    return hashlib.sha256(json.dumps(flat, sort_keys=True).encode()).hexdigest()


def _start(tracer) -> float:
    """Open a pass's measured window (spans record only inside it)."""
    if tracer is not None:
        tracer.active = True
    return time.perf_counter()


def _stop(tracer) -> float:
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    return end


@contextlib.contextmanager
def _stage(tracer, name: str):
    """A span of the benchmark's own around one pipeline stage."""
    span = tracer.begin(name) if tracer is not None else None
    try:
        yield
    finally:
        if tracer is not None:
            tracer.end(span)


class Workload:
    """Base class: one workload's passes and checks."""

    name = ""
    #: Untimed passes before the first measured one.
    warmup_passes = 0

    def __init__(self, seed: int, sizes: Sizes, scratch: str):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def check(self, passes: Sequence[PassResult]) -> List[str]:
        """Output checks after the timed passes; returns error messages."""
        return []


# ---------------------------------------------------------------------------
# sim-table2
# ---------------------------------------------------------------------------


def table2_programs(per_group: int, scale: float) -> List:
    """``per_group`` buildable sketch candidates of each Table II group.

    The pool is the same for every seed: per-call latency quantiles over a
    few dozen randomly drawn candidates move by ~20% between draws, which
    would drown the host-time changes this workload exists to show.
    """
    programs = []
    target = Target.from_name("x86")
    for group_id in range(5):
        task = SearchTask(
            conv2d_bias_relu_workload,
            scaled_group_params(group_id, scale).as_args(),
            target,
            name=f"conv2d_g{group_id}_x86",
        )
        policy = SketchPolicy(
            task, TuningOptions(seed=group_id), cost_model=RandomCostModel(seed=group_id)
        )
        built = []
        while len(built) < per_group:
            _, builds = policy.build_candidates(policy.sample_candidates(per_group))
            built += [build.program for build in builds if build.ok]
        programs += built[:per_group]
    return programs


class SimTable2(Workload):
    """One closed-loop caller running ``Simulator.run`` with memo off."""

    name = "sim-table2"
    warmup_passes = 1

    def __init__(self, seed, sizes, scratch):
        super().__init__(seed, sizes, scratch)
        self.trace = TraceOptions(max_accesses=sizes.sim_trace)

    def run_pass(self, tracer) -> PassResult:
        start = time.perf_counter()
        programs = table2_programs(self.sizes.sim_per_group, self.sizes.sim_scale)
        simulator = Simulator("x86", trace_options=self.trace, config=RuntimeConfig(memoize=False))
        order = self.rng.permutation(len(programs))
        result = PassResult(setup_s=time.perf_counter() - start)
        outcomes: Dict[int, SimulationResult] = {}
        begin = _start(tracer)
        for index in order:
            call = time.perf_counter()
            outcome = simulator.run(programs[index])
            result.latencies.append(time.perf_counter() - call)
            outcomes[int(index)] = outcome
        end = _stop(tracer)
        result.wall_s = result.ops_wall_s = end - begin
        result.window = (begin, end)
        result.attempted = len(programs)
        result.accesses = sum(outcome.trace_accesses for outcome in outcomes.values())
        result.repeat = {
            "stats": [stats_digest(outcomes[i]) for i in range(len(programs))],
            "sim.accesses": result.accesses,
        }
        return result

    def check(self, passes):
        programs = table2_programs(self.sizes.sim_per_group, self.sizes.sim_scale)
        oracle = Simulator(
            "x86", trace_options=self.trace,
            config=RuntimeConfig(memoize=False, engine="reference"),
        )
        expected = [stats_digest(oracle.run(program)) for program in programs]
        if passes[0].repeat["stats"] != expected:
            return ["sim-table2 statistics differ from the reference engine"]
        return []


# ---------------------------------------------------------------------------
# paper-pipeline
# ---------------------------------------------------------------------------

#: The Table II group the execution phase tunes.
TUNE_GROUP = 1


class _TimedRunner(SimulatorRunner):
    """The execution phase's runner, recording when each evaluation settles.

    Latency of one evaluation: from the start of the candidate's build to
    its scored result.  The tuner builds a round's candidates one after
    another and then hands them to the runner, so a candidate's build began
    the sum of its own and its successors' build times before the round
    reached the runner.
    """

    created: List["_TimedRunner"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.latencies: List[float] = []
        self._built_at: List[float] = []
        self.on_result = self._settled
        _TimedRunner.created.append(self)

    def run(self, measure_inputs, build_results):
        start = time.perf_counter()
        waited = np.cumsum([b.build_seconds for b in build_results][::-1])[::-1]
        self._built_at = (start - waited).tolist()
        return super().run(measure_inputs, build_results)

    def _settled(self, position, measure_input, result) -> None:
        self.latencies.append(time.perf_counter() - self._built_at[position])


class PaperPipeline(Workload):
    """Figure 4 at small scale: dataset, then train, then tune (riscv).

    The dataset's candidates and the tuner's own random draws are the same
    for every seed, for the reason :func:`table2_programs` gives (they also
    set the run's peak memory); the seed draws the train/test split and the
    predictor, and through the predictor's scores it steers the search.
    """

    name = "paper-pipeline"

    def run_pass(self, tracer) -> PassResult:
        sizes, seed = self.sizes, self.seed
        start = time.perf_counter()
        default_simulation_cache().clear()
        default_feature_cache().clear()
        dataset_config = DatasetConfig(
            arch="riscv",
            implementations_per_group=sizes.pipe_impls,
            scale=sizes.pipe_scale,
            trace_max_accesses=sizes.pipe_trace,
            n_parallel=1,
        )
        trace = TraceOptions(max_accesses=sizes.pipe_trace)
        tuning = TuningOptions(
            num_measure_trials=sizes.pipe_trials,
            num_measures_per_round=16,
        )
        result = PassResult(setup_s=time.perf_counter() - start)

        begin = _start(tracer)
        with _stage(tracer, "pipeline.dataset"):
            try:
                dataset = generate_dataset(dataset_config)
            except DatasetGenerationError as error:
                dataset = error.dataset
                result.failed += sizes.pipe_impls * len(error.failures)
        result.attempted += sizes.pipe_impls * len(dataset_config.groups)

        with _stage(tracer, "pipeline.fit"):
            train, test = dataset.train_test_split(0.25, seed=seed)
            predictor = ScorePredictor("xgboost", seed=seed).fit(train)
            worst = 0.0
            for group_id in test.group_ids():
                samples = test.group(group_id)
                scores = predictor.predict_dataset(samples, window="exact")
                worst = max(worst, r_top1([s.measured_time_s for s in samples], scores))

        tune_start = time.perf_counter()
        _TimedRunner.created = []
        execution_phase.SimulatorRunner = _TimedRunner
        try:
            with _stage(tracer, "pipeline.tune"):
                phase = ExecutionPhase(
                    predictor, "riscv", scaled_group_params(TUNE_GROUP, sizes.pipe_scale),
                    trace_options=trace, options=tuning, seed=seed,
                )
                records = phase.run().records
        finally:
            execution_phase.SimulatorRunner = SimulatorRunner
        end = _stop(tracer)
        (runner,) = _TimedRunner.created

        result.wall_s = end - begin
        result.window = (begin, end)
        result.ops_wall_s = end - tune_start
        result.latencies = runner.latencies
        result.attempted += len(records)
        result.failed += sum(
            1 for record in records if record.result.error_no in SIMULATION_ERRORS
        )
        result.accesses = sum(
            int(sample.flat_stats["sim.trace_accesses"]) for sample in dataset.samples
        ) + sum(sim.trace_accesses for sim in runner.simulation_results if not sim.cached)
        dedupe = runner.dedupe_hits / runner.dedupe_lookups if runner.dedupe_lookups else 0.0
        result.repeat = {
            "rtop1_pct": worst,
            "autotune.dedupe_hit_ratio": dedupe,
            "sim.accesses": result.accesses,
            "costs": [record.cost for record in records],
        }
        memo, features = default_simulation_cache(), default_feature_cache()
        result.counters = {
            "rtop1_pct": worst,
            "autotune.dedupe_hits": runner.dedupe_hits,
            "autotune.dedupe_lookups": runner.dedupe_lookups,
            "memo.hits": memo.hits,
            "memo.misses": memo.misses,
            "memo.coalesced": memo.coalesced,
            "features.hits": features.hits,
            "features.misses": features.misses,
        }
        return result


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

#: Matmul shapes whose configuration spaces supply the arm candidates.
MATMUL_SHAPES = ((16, 16, 16), (32, 32, 32), (64, 64, 64))


def matmul_candidates(rng: np.random.Generator, count: int) -> List[Tuple[int, int]]:
    """``count`` distinct ``(shape index, config index)`` pairs drawn by ``rng``."""
    target = Target.from_name("arm")
    sizes = [len(create_task("matmul", shape, target).config_space) for shape in MATMUL_SHAPES]
    flat = rng.choice(sum(sizes), size=count, replace=False)
    offsets = np.cumsum([0] + sizes)
    pairs = []
    for value in flat.tolist():
        shape = int(np.searchsorted(offsets, value, side="right") - 1)
        pairs.append((shape, int(value - offsets[shape])))
    return pairs


def build_matmul(pairs: Sequence[Tuple[int, int]]) -> List:
    target = Target.from_name("arm")
    tasks = [create_task("matmul", shape, target) for shape in MATMUL_SHAPES]
    builds = LocalBuilder().build(
        [MeasureInput(tasks[shape], tasks[shape].config_space.get(i)) for shape, i in pairs]
    )
    if not all(build.ok for build in builds):
        raise RuntimeError("a matmul candidate failed to build")
    return [build.program for build in builds]


class _Service:
    """A fresh service over a fresh on-disk store in the scratch directory."""

    def __init__(self, scratch: str, trace: TraceOptions):
        self.directory = os.path.join(scratch, "service-mix")
        shutil.rmtree(self.directory, ignore_errors=True)
        os.makedirs(self.directory)
        self.store = ResultStore(os.path.join(self.directory, "results.db"))
        self.service = SimulationService("arm", self.store, trace_options=trace)
        self.server = ServiceServer(self.service, port=0).start_in_thread()
        self.clients = [ServiceClient(self.server.url) for _ in range(CLIENT_THREADS)]

    def counters(self) -> Dict[str, float]:
        _, stats = self.service.handle_stats()
        store = self.store.counters()
        return {
            "store.hits": store["hits"],
            "store.misses": store["misses"],
            "memo.hits": stats["cache"]["hits"],
            "memo.misses": stats["cache"]["misses"],
            "memo.coalesced": stats["cache"]["coalesced"],
            "service.requests": stats["requests"],
            "service.shed": stats["shed_queue_full"] + stats["shed_breaker"]
            + stats["rate_limited"],
            "reliability.client_retries": sum(client.retries for client in self.clients),
        }

    def close(self) -> None:
        self.server.stop()
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _run_threads(target, count: int) -> None:
    """Run ``target(thread_index)`` on ``count`` threads and re-raise errors."""
    errors: List[BaseException] = []

    def body(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class ServiceMix(Workload):
    """Two closed-loop clients: ~3/4 repeated digests, ~1/4 fresh ones."""

    name = "service-mix"

    def __init__(self, seed, sizes, scratch):
        super().__init__(seed, sizes, scratch)
        self.trace = TraceOptions(max_accesses=sizes.svc_trace)
        fresh = sizes.svc_fresh
        self.pairs = matmul_candidates(self.rng, fresh * CLIENT_THREADS)
        #: Per thread, the candidate index of every request in order.  A
        #: repeat names a candidate the same thread requested before, so it
        #: is always a store or LRU hit, never a coalesced in-flight twin.
        self.plans: List[List[int]] = []
        for thread in range(CLIENT_THREADS):
            kinds = np.array([True] * (fresh - 1) + [False] * sizes.svc_repeats)
            self.rng.shuffle(kinds)
            own = list(range(thread * fresh, (thread + 1) * fresh))
            plan, seen = [own[0]], 1
            for is_fresh in kinds.tolist():
                if is_fresh:
                    plan.append(own[seen])
                    seen += 1
                else:
                    plan.append(own[int(self.rng.integers(0, seen))])
            self.plans.append(plan)

    def run_pass(self, tracer) -> PassResult:
        start = time.perf_counter()
        programs = build_matmul(self.pairs)
        service = _Service(self.scratch, self.trace)
        result = PassResult(setup_s=time.perf_counter() - start)
        replies: List[List[Tuple[int, object, float]]] = [[] for _ in self.plans]

        def client_loop(thread: int) -> None:
            client, out = service.clients[thread], replies[thread]
            for index in self.plans[thread]:
                call = time.perf_counter()
                try:
                    outcome = client.simulate(programs[index])
                except ServiceError as error:
                    outcome = error
                out.append((index, outcome, time.perf_counter() - call))

        try:
            begin = _start(tracer)
            _run_threads(client_loop, CLIENT_THREADS)
            end = _stop(tracer)
            if tracer:
                result.counters = service.counters()
        finally:
            service.close()
        result.wall_s = result.ops_wall_s = end - begin
        result.window = (begin, end)
        stats, first_seen = [], set()
        for thread_replies in replies:
            for index, outcome, latency in thread_replies:
                result.attempted += 1
                if not isinstance(outcome, SimulationResult):
                    result.failed += 1
                    continue
                result.latencies.append(latency)
                if index not in first_seen:
                    first_seen.add(index)
                    result.accesses += outcome.trace_accesses
                stats.append((index, stats_digest(outcome)))
        result.repeat = {"stats": sorted(stats), "sim.accesses": result.accesses}
        return result

    def check(self, passes):
        programs = build_matmul(self.pairs)
        local = BatchSimulator(
            "arm", trace_options=self.trace, config=RuntimeConfig(memoize=False)
        ).run_batch(programs)
        expected = [stats_digest(result) for result in local]
        errors = []
        for number, result in enumerate(passes):
            for index, digest in result.repeat["stats"]:
                if digest != expected[index]:
                    errors.append(
                        f"pass {number}: candidate {index} differs from "
                        "a local BatchSimulator run"
                    )
        return errors[:5]


WORKLOADS = {cls.name: cls for cls in (SimTable2, PaperPipeline, ServiceMix)}


def check_repeats(passes: Sequence[PassResult]) -> List[str]:
    """Every pass of a run must reproduce the first pass's outputs exactly."""
    errors = []
    for number, result in enumerate(passes[1:], start=1):
        for key, value in passes[0].repeat.items():
            if result.repeat.get(key) != value:
                errors.append(f"pass {number}: {key} differs from pass 0")
    return errors
