"""Candidate-batch scheduler: batched vs per-candidate equivalence.

The central hypothesis of the batch scheduler (and of the arena fast path it
rides on): *statistics are chunking-invariant*.  Packing many candidates'
descriptor chunks into shared arenas, sweeping them on one reused hierarchy
and fanning deduplicated results back out must be bit-identical — same
statistics, same error mapping, same retry accounting, same tuner
trajectory — to simulating every candidate alone.  ``sim.host_seconds`` is
the single wall-clock observable excluded from the comparison.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.workloads  # noqa: F401 — registers the tuning templates
from repro.autotune import (
    GATuner,
    LocalBuilder,
    MeasureInput,
    RandomTuner,
    SimulatorRunner,
    create_task,
)
from repro.autotune.measure import BuildResult, MeasureErrorNo
from repro.codegen import Target
from repro.codegen.program import pack_descriptor_arena
from repro.reliability import Deadline, DeadlineExceeded, RetryPolicy, deadline_scope
from repro.reliability import faults
from repro.sim import (
    BatchSimulator,
    RuntimeConfig,
    Simulator,
    SimulatorPool,
    TraceOptions,
    _native,
)
from repro.sim.memo import SimulationCache
from repro.sim.simulator import SimulationFailure, SimulationResult
from repro.sim.stats import SimulationStats

TRACE = TraceOptions(max_accesses=15_000)
#: Runtime config of the unmemoized simulators compared below.
NO_MEMO = RuntimeConfig(memoize=False)


@pytest.fixture(autouse=True)
def _fault_free():
    """Shield every test from ambient fault-injection profiles."""
    faults.configure("")
    yield
    faults.reset()


@pytest.fixture(scope="module")
def task():
    return create_task("matmul", (8, 8, 8), Target.arm())


@pytest.fixture(scope="module")
def inputs(task):
    return [MeasureInput(task, task.config_space.get(i)) for i in (0, 1, 2, 3, 5)]


@pytest.fixture(scope="module")
def programs(inputs):
    builds = LocalBuilder().build(inputs)
    assert all(build.ok for build in builds)
    return [build.program for build in builds]


def flat(result):
    """Statistics of one simulation, minus the wall-clock observable."""
    stats = dict(result.stats.as_dict())
    stats.pop("sim.host_seconds", None)
    return stats


def assert_bit_identical(batched, serial):
    assert len(batched) == len(serial)
    for b, s in zip(batched, serial):
        assert isinstance(b, SimulationResult), b
        assert flat(b) == flat(s)


# ---------------------------------------------------------------------------
# Arena candidate groups
# ---------------------------------------------------------------------------


class TestArenaGroups:
    def _chunks(self, program):
        return list(program.memory_trace_descriptors(max_accesses=TRACE.max_accesses))

    def test_group_bounds_partition_the_chunks(self, programs):
        per_candidate = [self._chunks(p) for p in programs[:3]]
        sizes = [len(chunks) for chunks in per_candidate]
        arena = pack_descriptor_arena(
            [c for chunks in per_candidate for c in chunks], group_sizes=sizes
        )
        assert arena.n_groups == 3
        assert list(arena.group_bounds) == [0, sizes[0], sizes[0] + sizes[1], sum(sizes)]
        for g, chunks in enumerate(per_candidate):
            view = arena.group_view(g)
            assert view.total == sum(c.total for c in chunks)
            assert list(view.chunks) == chunks
            assert view.chunk_meta.shape[0] == len(chunks)

    def test_group_views_share_backing_arrays(self, programs):
        chunks = self._chunks(programs[0]) + self._chunks(programs[1])
        sizes = [len(chunks) - 2, 2]
        arena = pack_descriptor_arena(chunks, group_sizes=sizes)
        for view in arena.group_views():
            assert view.max_chunk_total == arena.max_chunk_total
            assert view.max_pos_bound == arena.max_pos_bound
            assert view.max_grid_levels == arena.max_grid_levels

    def test_empty_group_is_allowed(self, programs):
        chunks = self._chunks(programs[0])
        arena = pack_descriptor_arena(chunks, group_sizes=[0, len(chunks)])
        assert arena.group_view(0).total == 0
        assert arena.group_view(1).total == arena.total

    def test_bad_group_sizes_are_rejected(self, programs):
        chunks = self._chunks(programs[0])
        with pytest.raises(ValueError):
            pack_descriptor_arena(chunks, group_sizes=[len(chunks) - 1])
        with pytest.raises(ValueError):
            pack_descriptor_arena(chunks, group_sizes=[-1, len(chunks) + 1])

    def test_ungrouped_arena_has_one_implicit_group(self, programs):
        chunks = self._chunks(programs[0])
        arena = pack_descriptor_arena(chunks)
        assert arena.n_groups == 1
        assert arena.group_view(0).total == arena.total
        with pytest.raises(IndexError):
            arena.group_view(1)

    def test_group_view_out_of_range(self, programs):
        chunks = self._chunks(programs[0])
        arena = pack_descriptor_arena(chunks, group_sizes=[len(chunks)])
        with pytest.raises(IndexError):
            arena.group_view(1)


# ---------------------------------------------------------------------------
# BatchSimulator bit-identity
# ---------------------------------------------------------------------------


class TestBatchSimulatorEquivalence:
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    @pytest.mark.parametrize("trace", ["descriptor", "expanded"])
    def test_bit_identical_across_engines_and_traces(self, programs, engine, trace):
        options = TraceOptions(max_accesses=TRACE.max_accesses, engine=engine, trace=trace)
        serial = [Simulator("arm", trace_options=options, config=NO_MEMO).run(p) for p in programs]
        batched = BatchSimulator("arm", trace_options=options, config=NO_MEMO).run_batch(programs)
        assert_bit_identical(batched, serial)

    def test_bit_identical_without_arena_batching(self, programs, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ARENA", "0")
        serial = [Simulator("arm", trace_options=TRACE, config=NO_MEMO).run(p) for p in programs]
        batched = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO).run_batch(programs)
        assert_bit_identical(batched, serial)

    def test_bit_identical_without_native_kernels(self, programs, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_NATIVE", "0")
        _native._reset_for_tests()
        try:
            serial = [
                Simulator("arm", trace_options=TRACE, config=NO_MEMO).run(p) for p in programs
            ]
            batched = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO).run_batch(
                programs
            )
            assert_bit_identical(batched, serial)
        finally:
            monkeypatch.undo()
            _native._reset_for_tests()

    def test_duplicates_in_one_batch(self, programs):
        doubled = list(programs) + list(programs)
        serial = [Simulator("arm", trace_options=TRACE, config=NO_MEMO).run(p) for p in doubled]
        batched = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO).run_batch(doubled)
        assert_bit_identical(batched, serial)

    def test_iter_batch_streams_in_input_order(self, programs):
        batch = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO)
        names = [outcome.program_name for outcome in batch.iter_batch(programs)]
        assert names == [p.name for p in programs]

    def test_memoized_rerun_is_served_cached(self, programs):
        # A private cache: the process-wide default memo may already hold
        # these programs from other test modules.
        batch = BatchSimulator(
            "arm",
            trace_options=TRACE,
            memo_cache=SimulationCache(),
            config=RuntimeConfig(memoize=True),
        )
        first = batch.run_batch(programs)
        second = batch.run_batch(programs)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        assert_bit_identical(second, first)

    def test_empty_batch(self):
        assert BatchSimulator("arm", trace_options=TRACE).run_batch([]) == []

    def test_sim_digest_is_stable_across_paths(self, programs):
        serial = Simulator("arm", trace_options=TRACE, config=NO_MEMO).run(programs[0])
        batched = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO).run_batch(
            [programs[0]]
        )[0]
        memoized = Simulator(
            "arm", trace_options=TRACE, config=RuntimeConfig(memoize=True)
        ).run(programs[0])
        assert serial.sim_digest
        assert serial.sim_digest == batched.sim_digest == memoized.sim_digest
        other = Simulator(
            "arm", trace_options=TraceOptions(max_accesses=7_000), config=NO_MEMO
        ).run(programs[0])
        assert other.sim_digest != serial.sim_digest


# ---------------------------------------------------------------------------
# Failure isolation inside a batch
# ---------------------------------------------------------------------------


class _BrokenProgram:
    """A program stand-in whose trace lowering always raises."""

    def __init__(self, name="broken"):
        self.name = name

    def content_digest(self):
        return f"broken:{self.name}"

    def instruction_counts(self):
        return {}

    def memory_trace_descriptors(self, **kwargs):
        raise RuntimeError("synthetic lowering failure")

    def memory_trace(self, **kwargs):
        raise RuntimeError("synthetic lowering failure")


class TestBatchFailureIsolation:
    def test_error_is_isolated_and_mapped_identically(self, programs):
        mixed = [programs[0], _BrokenProgram(), programs[1]]
        batch = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO)
        outcomes = list(batch.iter_batch(mixed, retry=RetryPolicy()))
        serial = [
            Simulator("arm", trace_options=TRACE, config=NO_MEMO).run(p)
            for p in (programs[0], programs[1])
        ]
        assert flat(outcomes[0]) == flat(serial[0])
        assert flat(outcomes[2]) == flat(serial[1])
        failure = outcomes[1]
        assert isinstance(failure, SimulationFailure)
        assert failure.kind == SimulationFailure.ERROR
        assert failure.attempts == 1
        assert "synthetic lowering failure" in failure.error

    def test_error_accounting_matches_per_candidate_path(self, programs):
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        mixed = [programs[0], _BrokenProgram(), programs[1]]
        pool = SimulatorPool("arm", n_parallel=1, trace_options=TRACE, backend="serial",
                             memoize=False, retry=retry)
        per_candidate = pool.run_many_resilient(mixed)
        batched = list(pool.iter_batch_resilient(mixed))
        for b, s in zip(batched, per_candidate):
            assert type(b) is type(s)
            if isinstance(b, SimulationFailure):
                assert (b.kind, b.attempts, b.error) == (s.kind, s.attempts, s.error)
            else:
                assert flat(b) == flat(s)

    def test_timeout_is_final_and_isolated(self, programs):
        batch = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO)
        outcomes = list(batch.iter_batch(programs, timeout_s=1e-9, retry=RetryPolicy(max_attempts=3)))
        assert len(outcomes) == len(programs)
        for outcome in outcomes:
            assert isinstance(outcome, SimulationFailure)
            assert outcome.kind == SimulationFailure.TIMEOUT
            assert outcome.attempts == 1  # timeouts are never retried

    def test_injected_crash_is_retried_in_isolation(self, programs):
        faults.configure("worker_crash:once")
        batch = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO)
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        outcomes = list(batch.iter_batch(programs, retry=retry))
        serial = [Simulator("arm", trace_options=TRACE, config=NO_MEMO).run(p) for p in programs]
        assert_bit_identical(outcomes, serial)

    def test_injected_crash_without_retry_budget_fails_alone(self, programs):
        faults.configure("worker_crash:once")
        batch = BatchSimulator("arm", trace_options=TRACE, config=NO_MEMO)
        outcomes = list(batch.iter_batch(programs, retry=RetryPolicy()))
        assert isinstance(outcomes[0], SimulationFailure)
        assert outcomes[0].kind == SimulationFailure.CRASH
        serial = [Simulator("arm", trace_options=TRACE, config=NO_MEMO).run(p) for p in programs]
        assert_bit_identical(outcomes[1:], serial[1:])


# ---------------------------------------------------------------------------
# SimulatorRunner: dedupe, fan-out, streaming, trajectory
# ---------------------------------------------------------------------------


def running_mean_score():
    """A deliberately order-sensitive score function (dynamic-window style)."""
    state = {"sum": 0.0, "count": 0}

    def score(result, measure_input):
        insts = float(result.stats.get("cpu.num_insts"))
        state["sum"] += insts
        state["count"] += 1
        return insts / (state["sum"] / state["count"])

    return score


class TestRunnerBatchedEquivalence:
    def _inputs_with_duplicates(self, task):
        indices = (0, 1, 0, 2, 1, 0)
        return [MeasureInput(task, task.config_space.get(i)) for i in indices]

    def test_results_and_trajectory_match_per_candidate_path(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        batched_runner = SimulatorRunner(
            "arm", trace_options=TRACE, score_function=running_mean_score(),
            memoize=False, batch=True,
        )
        serial_runner = SimulatorRunner(
            "arm", trace_options=TRACE, score_function=running_mean_score(),
            memoize=False, batch=False,
        )
        batched = batched_runner.run(inputs, builds)
        serial = serial_runner.run(inputs, builds)
        assert [r.costs for r in batched] == [r.costs for r in serial]
        assert [r.error_no for r in batched] == [r.error_no for r in serial]
        assert batched_runner.dedupe_lookups == len(inputs)
        assert batched_runner.dedupe_hits == 3
        assert serial_runner.dedupe_hits == 0

    def test_duplicate_fan_out_is_independent_and_marked_cached(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        runner = SimulatorRunner("arm", trace_options=TRACE, memoize=False, batch=True)
        runner.run(inputs, builds)
        simulations = runner.simulation_results
        assert len(simulations) == len(inputs)
        assert [s.cached for s in simulations] == [False, False, True, False, True, True]
        # Mutating a fan-out copy must not leak into the original.
        simulations[2].stats.group("sim").set("host_seconds", -1.0)
        assert simulations[0].stats.get("sim.host_seconds") != -1.0

    def test_on_result_streams_in_input_order(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        seen = []
        runner = SimulatorRunner(
            "arm", trace_options=TRACE, memoize=False, batch=True,
            on_result=lambda position, mi, result: seen.append(position),
        )
        results = runner.run(inputs, builds)
        assert seen == list(range(len(inputs)))
        assert len(results) == len(inputs)

    def test_build_failures_are_emitted_with_batch_results(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = list(LocalBuilder().build(inputs))
        builds[1] = BuildResult(
            program=None, build_seconds=0.0,
            error_no=MeasureErrorNo.COMPILE_ERROR, error_msg="synthetic build failure",
        )
        seen = []
        runner = SimulatorRunner(
            "arm", trace_options=TRACE, memoize=False, batch=True,
            on_result=lambda position, mi, result: seen.append(position),
        )
        results = runner.run(inputs, builds)
        assert len(results) == len(inputs)
        assert results[1].error_no == MeasureErrorNo.COMPILE_ERROR
        assert all(results[i].error_no == MeasureErrorNo.NO_ERROR for i in (0, 2, 3, 4, 5))
        assert seen == list(range(len(inputs)))

    def test_simulation_failure_maps_to_measure_error(self, task):
        inputs = self._inputs_with_duplicates(task)
        builds = LocalBuilder().build(inputs)
        runner = SimulatorRunner(
            "arm", trace_options=TRACE, memoize=False, batch=True, timeout_s=1e-9,
        )
        results = runner.run(inputs, builds)
        assert [r.error_no for r in results] == [MeasureErrorNo.RUN_TIMEOUT] * len(inputs)

    def test_batch_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_BATCH", "0")
        assert SimulatorRunner("arm", trace_options=TRACE).batch is False
        monkeypatch.setenv("REPRO_RUNNER_BATCH", "1")
        assert SimulatorRunner("arm", trace_options=TRACE).batch is True


class TestTunerTrajectory:
    @pytest.mark.parametrize("tuner_cls", [RandomTuner, GATuner])
    def test_fixed_seed_trajectory_is_identical(self, task, tuner_cls):
        trajectories = []
        for batch in (True, False):
            tuner = tuner_cls(task, seed=3)
            runner = SimulatorRunner(
                "arm", trace_options=TRACE, score_function=running_mean_score(),
                memoize=False, batch=batch,
            )
            tuner.tune(n_trial=24, runner=runner, builder=LocalBuilder(), batch_size=8)
            trajectories.append(
                (sorted(tuner.visited), tuner.best_cost, tuner.best_config.index,
                 tuner.trial_count)
            )
        assert trajectories[0] == trajectories[1]


# ---------------------------------------------------------------------------
# Memo coalescing (in-flight request merging)
# ---------------------------------------------------------------------------


class TestMemoCoalescing:
    def _stats(self, value=1.0):
        stats = SimulationStats()
        stats.group("sim").set("value", value)
        return stats

    def test_concurrent_requests_compute_once(self):
        cache = SimulationCache()
        calls = []

        def compute():
            calls.append(threading.get_ident())
            time.sleep(0.15)
            return self._stats()

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(cache.get_or_compute, "key", compute) for _ in range(8)]
            outcomes = [f.result() for f in futures]
        assert len(calls) == 1
        assert sum(1 for _, computed in outcomes if computed) == 1
        assert all(stats.get("sim.value") == 1.0 for stats, _ in outcomes)
        assert cache.coalesced == 7
        # Waiters receive independent copies, not aliases of one object.
        objects = {id(stats) for stats, _ in outcomes}
        assert len(objects) == len(outcomes)

    def test_leader_failure_releases_waiters(self):
        cache = SimulationCache()
        attempts = []
        started = threading.Event()

        def compute():
            attempts.append(None)
            started.set()
            if len(attempts) == 1:
                time.sleep(0.05)
                raise RuntimeError("first leader dies")
            return self._stats(2.0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(cache.get_or_compute, "key", compute)
            started.wait(timeout=2.0)
            second = pool.submit(cache.get_or_compute, "key", compute)
            with pytest.raises(RuntimeError):
                first.result()
            stats, computed = second.result()
        assert stats.get("sim.value") == 2.0
        assert len(attempts) == 2

    def test_waiter_honours_ambient_deadline(self):
        cache = SimulationCache()
        release = threading.Event()
        started = threading.Event()

        def compute():
            started.set()
            release.wait(timeout=5.0)
            return self._stats()

        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(cache.get_or_compute, "key", compute)
            started.wait(timeout=2.0)

            def waiter():
                with deadline_scope(Deadline.after(0.1)):
                    return cache.get_or_compute("key", compute)

            blocked = pool.submit(waiter)
            with pytest.raises(DeadlineExceeded):
                blocked.result()
            release.set()
            leader.result()
