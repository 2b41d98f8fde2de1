"""Chaos test harness: deadlines, retries, crash isolation, degradation.

Every test drives *real* production paths — the simulator pool, the
autotuning measure loop, the disk memo, the native kernel dispatch and the
dataset pipeline — under deterministic fault injection
(:mod:`repro.reliability.faults`).  The invariant checked throughout: a
fault-free run and a faulty-but-recovered run produce bit-identical
statistics (``sim.host_seconds``, a wall-clock observable, is excluded from
every comparison), and an unrecovered fault becomes a structured record —
never an unhandled exception, never a poisoned later batch.
"""

from __future__ import annotations

import json
import os
import time
import warnings

import pytest

import repro.workloads  # noqa: F401 — registers the schedule templates
from repro.autotune import (
    LocalBuilder,
    MeasureErrorNo,
    MeasureInput,
    MeasureResult,
    RunnerStatsCollector,
    SimulatorRunner,
    create_task,
    measure_batch,
)
from repro.codegen import Target
from repro.hardware import TargetBoard
from repro.pipeline.dataset import (
    DatasetConfig,
    DatasetGenerationError,
    generate_dataset,
)
from repro.reliability import (
    BackendDegradationWarning,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    InjectedFault,
    InjectedWorkerCrash,
    MemoQuarantineWarning,
    NativeKernelDemotionWarning,
    RetryPolicy,
    current_deadline,
    deadline_scope,
    fault_injection_enabled,
)
from repro.reliability import faults
from repro.sim import (
    RuntimeConfig,
    SimulationCache,
    SimulationFailure,
    SimulationResult,
    Simulator,
    SimulatorPool,
    TraceOptions,
)
from repro.sim import _native
from repro.sim.memo import _encode_entry

TRACE = TraceOptions(max_accesses=15_000)
#: Enough work that the per-chunk deadline poll actually runs several times.
SLOW_TRACE = TraceOptions(max_accesses=200_000, chunk_iterations=64)
#: Runtime config of the unmemoized simulators below.
NO_MEMO = RuntimeConfig(memoize=False)


@pytest.fixture(autouse=True)
def _fault_free():
    """Every test starts and ends with injection fully disabled.

    An *empty override* (not a bare reset) shields the suite from any
    ambient ``REPRO_FAULT_INJECT`` — the CI chaos legs export one — so each
    test controls its own profile; only :class:`TestChaosAcceptance` opts
    into the ambient profile explicitly.
    """
    faults.configure("")
    yield
    faults.reset()


@pytest.fixture
def restore_native():
    """Undo a process-wide native-kernel demotion after the test."""
    yield
    _native._reset_for_tests()


@pytest.fixture(scope="module")
def matmul_task():
    return create_task("matmul", (8, 8, 8), Target.arm())


@pytest.fixture(scope="module")
def matmul_inputs(matmul_task):
    return [
        MeasureInput(matmul_task, matmul_task.config_space.get(i)) for i in (0, 1, 2, 3)
    ]


@pytest.fixture(scope="module")
def programs(matmul_inputs):
    builds = LocalBuilder().build(matmul_inputs)
    assert all(build.ok for build in builds)
    return [build.program for build in builds]


def flat(result):
    """Statistics of one simulation, minus the wall-clock observable."""
    stats = dict(result.stats.as_dict())
    stats.pop("sim.host_seconds", None)
    return stats


def norm(dataset):
    """Comparable view of a dataset, minus per-sample wall-clock stats."""
    out = []
    for sample in dataset.samples:
        stats = {k: v for k, v in sample.flat_stats.items() if k != "sim.host_seconds"}
        out.append((sample.group_id, sample.implementation_id, stats, sample.measured_time_s))
    return out


# ---------------------------------------------------------------------------
# Fault registry
# ---------------------------------------------------------------------------


class TestFaultRegistry:
    def test_disabled_by_default(self):
        assert not fault_injection_enabled()
        assert not faults.should_inject("worker_crash")
        faults.maybe_raise("worker_crash")  # no-op
        faults.maybe_crash_worker()  # no-op

    def test_parse_profile_clauses(self):
        registry = faults.parse_profile(
            "a:p=0.25;b:once;c:n=3,after=2;seed=99"
        )
        assert registry.seed == 99
        assert registry.specs["a"].probability == 0.25
        assert registry.specs["b"].max_fires == 1
        assert registry.specs["c"].max_fires == 3
        assert registry.specs["c"].skip_first == 2

    def test_parse_profile_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            faults.parse_profile("a:bogus=1")

    def test_once_fires_exactly_once(self):
        faults.configure("site:once")
        decisions = [faults.should_inject("site") for _ in range(10)]
        assert decisions == [True] + [False] * 9

    def test_fire_cap_and_skip(self):
        faults.configure("site:n=2,after=3")
        decisions = [faults.should_inject("site") for _ in range(10)]
        assert decisions == [False] * 3 + [True, True] + [False] * 5

    def test_probabilistic_draws_replay_exactly(self):
        faults.configure("site:p=0.3", seed=7)
        first = [faults.should_inject("site") for _ in range(200)]
        faults.configure("site:p=0.3", seed=7)
        second = [faults.should_inject("site") for _ in range(200)]
        assert first == second
        assert any(first) and not all(first)
        faults.configure("site:p=0.3", seed=8)
        assert [faults.should_inject("site") for _ in range(200)] != first

    def test_maybe_raise_carries_site(self):
        faults.configure("boom:once")
        with pytest.raises(InjectedFault, match="site 'boom'"):
            faults.maybe_raise("boom")
        faults.maybe_raise("boom")  # consumed

    def test_crash_in_main_process_raises(self):
        faults.configure("worker_crash:once")
        with pytest.raises(InjectedWorkerCrash):
            faults.maybe_crash_worker()

    def test_environment_profile(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "envsite:once;seed=3")
        faults.reset()
        assert fault_injection_enabled()
        assert faults.should_inject("envsite")
        assert not faults.should_inject("envsite")


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=9, base_delay_s=0.05, max_delay_s=0.3, jitter=0.0)
        delays = [policy.delay_s(attempt) for attempt in range(1, 6)]
        assert delays == [0.05, 0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.1, jitter=0.5, seed=11)
        first = [policy.delay_s(a, key="prog") for a in (1, 2, 3)]
        second = [policy.delay_s(a, key="prog") for a in (1, 2, 3)]
        assert first == second
        for attempt, delay in zip((1, 2, 3), first):
            raw = min(0.1 * 2.0 ** (attempt - 1), policy.max_delay_s)
            assert raw * 0.5 <= delay <= raw
        assert first != [policy.delay_s(a, key="other") for a in (1, 2, 3)]

    def test_call_retries_then_succeeds(self):
        attempts = []
        slept = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01)
        assert policy.call(flaky, key="k", sleep=slept.append) == "ok"
        assert len(attempts) == 3 and len(slept) == 2

    def test_call_exhausts_and_raises(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01)
        with pytest.raises(ValueError):
            policy.call(lambda: (_ for _ in ()).throw(ValueError("x")), sleep=lambda _: None)

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "4")
        monkeypatch.setenv("REPRO_RETRY_BASE_DELAY_S", "0.01")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 4 and policy.base_delay_s == 0.01


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class _FakeClock:
    """Hand-driven monotonic clock for deterministic breaker trajectories."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=5.0, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # two in a row: not yet
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s() > 0.0

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=_FakeClock())
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=4.0, jitter=0.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()  # before the probe deadline
        clock.advance(4.0)
        assert breaker.allow()  # the single probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # probe in flight: everyone else refused
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_with_a_fresh_deadline(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=2.0, jitter=0.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe faulted
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(2.0)
        clock.advance(2.0)
        assert breaker.allow()

    def test_probe_schedule_is_deterministic_and_jitter_bounded(self):
        def trajectory():
            clock = _FakeClock()
            breaker = CircuitBreaker(
                failure_threshold=1, reset_timeout_s=10.0, jitter=0.5,
                seed=3, key="svc", clock=clock,
            )
            delays = []
            for _ in range(4):
                breaker.record_failure()
                delays.append(breaker.retry_after_s())
                clock.advance(delays[-1])
                assert breaker.allow()
            return delays

        first, second = trajectory(), trajectory()
        assert first == second  # replayable: pure function of (seed, key, opens)
        assert all(5.0 <= delay <= 10.0 for delay in first)
        assert len(set(first)) > 1  # jitter actually varies per open

    def test_counters_and_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        breaker = CircuitBreaker(failure_threshold=1, clock=_FakeClock())
        breaker.record_failure()
        counters = breaker.counters()
        assert counters["state"] == CircuitBreaker.OPEN
        assert counters["opens"] == 1.0
        assert counters["failures"] == 1.0


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_no_ambient_deadline_by_default(self):
        assert current_deadline() is None

    def test_scope_installs_and_restores(self):
        deadline = Deadline.after(60.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            deadline.check("inner work")  # far in the future: no-op
        assert current_deadline() is None

    def test_none_scope_is_transparent(self):
        with deadline_scope(None):
            assert current_deadline() is None

    def test_expired_deadline_raises_with_context(self):
        deadline = Deadline.after(-1.0)
        assert deadline.expired() and deadline.remaining() < 0
        with pytest.raises(DeadlineExceeded, match="during trace walk"):
            deadline.check("trace walk")

    def test_simulator_run_honours_timeout(self, programs):
        simulator = Simulator("arm", trace_options=SLOW_TRACE, config=NO_MEMO)
        with pytest.raises(DeadlineExceeded):
            simulator.run(programs[0], timeout_s=1e-9)
        # The same simulator still works once the budget is sane.
        result = simulator.run(programs[0], timeout_s=60.0)
        assert result.stats.get("cpu.num_insts") > 0


# ---------------------------------------------------------------------------
# Resilient simulator pool
# ---------------------------------------------------------------------------


class TestResilientPool:
    @pytest.fixture(scope="class")
    def baseline(self, programs):
        faults.configure("")  # class fixtures resolve before the autouse shield
        pool = SimulatorPool("arm", trace_options=TRACE, memoize=False)
        return [flat(r) for r in pool.run_many(programs)]

    @pytest.mark.parametrize(
        "backend,n_parallel", [("serial", 1), ("threads", 3), ("processes", 2)]
    )
    def test_fault_free_parity(self, programs, baseline, backend, n_parallel, monkeypatch):
        # Forked pool workers re-read the environment; keep them fault-free
        # even when a CI chaos leg exports an ambient profile.
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        pool = SimulatorPool(
            "arm", n_parallel=n_parallel, backend=backend, trace_options=TRACE, memoize=False
        )
        outcomes = pool.run_many_resilient(programs)
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert [flat(o) for o in outcomes] == baseline

    def test_serial_crash_contained_without_retry(self, programs):
        faults.configure("worker_crash:n=1", seed=7)
        pool = SimulatorPool("arm", trace_options=TRACE, memoize=False)
        outcomes = pool.run_many_resilient(programs)
        failures = [o for o in outcomes if isinstance(o, SimulationFailure)]
        assert len(failures) == 1
        assert failures[0].kind == SimulationFailure.CRASH
        assert "worker_crash" in failures[0].error
        assert len([o for o in outcomes if isinstance(o, SimulationResult)]) == len(programs) - 1

    def test_serial_crash_retried_to_success(self, programs, baseline):
        faults.configure("worker_crash:n=2", seed=7)
        pool = SimulatorPool(
            "arm",
            trace_options=TRACE,
            memoize=False,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.001),
        )
        outcomes = pool.run_many_resilient(programs)
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert [flat(o) for o in outcomes] == baseline

    def test_threads_crash_contained_per_program(self, programs):
        faults.configure("worker_crash:n=1", seed=3)
        pool = SimulatorPool(
            "arm", n_parallel=3, backend="threads", trace_options=TRACE, memoize=False
        )
        outcomes = pool.run_many_resilient(programs)
        failures = [o for o in outcomes if isinstance(o, SimulationFailure)]
        assert len(failures) == 1 and failures[0].kind == SimulationFailure.CRASH
        assert len(outcomes) == len(programs)

    def test_timeout_becomes_failure_record(self, programs):
        pool = SimulatorPool(
            "arm", trace_options=SLOW_TRACE, memoize=False, timeout_s=1e-9
        )
        outcomes = pool.run_many_resilient(programs[:2])
        assert all(
            isinstance(o, SimulationFailure) and o.kind == SimulationFailure.TIMEOUT
            for o in outcomes
        )
        assert "deadline" in outcomes[0].error

    def test_broken_process_pool_degrades_to_threads(self, programs, monkeypatch):
        # The profile travels to forked workers via the environment; each
        # fresh pool replays it from ordinal zero, so the crash re-fires on
        # every respawn until the budget degrades the backend to threads,
        # where the parent's own registry (n=1) fires once and is contained.
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:n=1;seed=3")
        faults.reset()
        pool = SimulatorPool(
            "arm",
            n_parallel=2,
            backend="processes",
            trace_options=TRACE,
            memoize=False,
            retry=RetryPolicy(max_attempts=1),
            max_pool_respawns=0,
        )
        with pytest.warns(BackendDegradationWarning):
            outcomes = pool.run_many_resilient(programs)
        assert len(outcomes) == len(programs)
        failures = [o for o in outcomes if isinstance(o, SimulationFailure)]
        assert len(failures) == 1 and failures[0].kind == SimulationFailure.CRASH
        assert len([o for o in outcomes if isinstance(o, SimulationResult)]) == len(programs) - 1

    def test_unknown_backend_still_rejected(self):
        pool = SimulatorPool("arm", backend="fibers")
        with pytest.raises(ValueError, match="unknown pool backend"):
            pool.run_many_resilient([])


# ---------------------------------------------------------------------------
# Autotune measure loop
# ---------------------------------------------------------------------------


class TestMeasureResilience:
    def test_crash_maps_to_worker_crash_error(self, matmul_inputs):
        faults.configure("worker_crash:n=1", seed=7)
        runner = SimulatorRunner("arm", trace_options=TRACE, memoize=False)
        results = measure_batch(LocalBuilder(), runner, matmul_inputs)
        assert len(results) == len(matmul_inputs)
        crashed = [r for r in results if r.error_no == MeasureErrorNo.WORKER_CRASH]
        assert len(crashed) == 1
        assert "crash" in crashed[0].error_msg
        assert crashed[0].costs == []
        assert sum(r.ok for r in results) == len(matmul_inputs) - 1

    def test_timeout_maps_to_run_timeout_without_poisoning(self, matmul_inputs):
        runner = SimulatorRunner(
            "arm", trace_options=SLOW_TRACE, memoize=False, timeout_s=1e-9
        )
        results = measure_batch(LocalBuilder(), runner, matmul_inputs)
        assert all(r.error_no == MeasureErrorNo.RUN_TIMEOUT for r in results)
        # A later batch on a healthy runner is unaffected.
        healthy = SimulatorRunner("arm", trace_options=TRACE, memoize=False)
        results = measure_batch(LocalBuilder(), healthy, matmul_inputs)
        assert all(r.ok for r in results)

    def test_measure_batch_retries_only_failed_slice(self, matmul_inputs):
        faults.configure("worker_crash:n=1", seed=7)
        runner = SimulatorRunner("arm", trace_options=TRACE, memoize=False)
        results = measure_batch(
            LocalBuilder(),
            runner,
            matmul_inputs,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
        )
        assert all(r.error_no == MeasureErrorNo.NO_ERROR for r in results)
        assert all(r.costs and r.costs[0] > 0 for r in results)

    def test_stats_collector_skips_failed_candidates(self, matmul_inputs):
        faults.configure("worker_crash:n=1", seed=7)
        board = TargetBoard("arm", trace_options=TRACE, seed=0)
        collector = RunnerStatsCollector(board, trace_options=TRACE, memoize=False)
        results = measure_batch(LocalBuilder(), collector, matmul_inputs)
        assert len(results) == len(matmul_inputs)
        assert sum(r.error_no == MeasureErrorNo.WORKER_CRASH for r in results) == 1
        # No paired training record for the crashed candidate.
        assert len(collector.records) == len(matmul_inputs) - 1


# ---------------------------------------------------------------------------
# Native kernel degradation
# ---------------------------------------------------------------------------


def _native_available() -> bool:
    return _native.event_kernel() is not None


class TestNativeDegradation:
    def test_injected_fault_demotes_to_numpy_bit_identically(self, programs, restore_native):
        if not _native_available():
            pytest.skip("compiled native kernels unavailable in this environment")
        simulator = Simulator("arm", trace_options=TRACE, config=NO_MEMO)
        baseline = [flat(simulator.run(p)) for p in programs]
        faults.configure("native_fault:once")
        with pytest.warns(NativeKernelDemotionWarning):
            demoted = [flat(simulator.run(p)) for p in programs]
        assert demoted == baseline
        # The demotion is process-wide and sticky until reset.
        assert _native.event_kernel() is None

    def test_probe_failure_falls_back_to_numpy(self, programs, restore_native):
        if not _native_available():
            pytest.skip("compiled native kernels unavailable in this environment")
        simulator = Simulator("arm", trace_options=TRACE, config=NO_MEMO)
        baseline = [flat(simulator.run(p)) for p in programs]
        _native._reset_for_tests()  # force the next use through the probe
        faults.configure("native_probe:once")
        with pytest.warns(NativeKernelDemotionWarning, match="probe failed"):
            fallback = [flat(simulator.run(p)) for p in programs]
        assert fallback == baseline

    def test_reset_restores_native_kernels(self, restore_native):
        if not _native_available():
            pytest.skip("compiled native kernels unavailable in this environment")
        with pytest.warns(NativeKernelDemotionWarning):
            _native.demote("test-induced demotion")
        assert _native.event_kernel() is None
        _native._reset_for_tests()
        assert _native.event_kernel() is not None


# ---------------------------------------------------------------------------
# Disk memo hardening
# ---------------------------------------------------------------------------


class TestMemoResilience:
    @pytest.fixture(scope="class")
    def stats(self, programs):
        faults.configure("")  # class fixtures resolve before the autouse shield
        simulator = Simulator("arm", trace_options=TRACE, config=NO_MEMO)
        return simulator.run(programs[0]).stats

    def test_roundtrip_through_disk(self, tmp_path, stats):
        cache = SimulationCache(disk_dir=tmp_path)
        cache.put("k" * 64, stats)
        fresh = SimulationCache(disk_dir=tmp_path)
        assert fresh.get("k" * 64).as_dict() == stats.as_dict()
        assert fresh.quarantined == 0

    @pytest.mark.parametrize("flavour", [0, 1, 2], ids=["truncated", "garbage", "wrong-schema"])
    def test_read_corruption_quarantines_as_miss(self, tmp_path, stats, flavour):
        cache = SimulationCache(disk_dir=tmp_path)
        cache.put("k" * 64, stats)
        # Burn read-site ordinals so the rotating corruption flavour under
        # test is the one applied to the real read below.
        faults.configure("memo_corrupt_read")
        registry = faults.active_registry()
        for _ in range(flavour):
            registry.should_inject("memo_corrupt_read")
        fresh = SimulationCache(disk_dir=tmp_path)
        with pytest.warns(MemoQuarantineWarning):
            assert fresh.get("k" * 64) is None
        assert fresh.quarantined == 1
        quarantined = list(tmp_path.glob("*.quarantine"))
        assert len(quarantined) == 1  # renamed aside, never deleted
        assert not (tmp_path / ("k" * 64 + ".json")).exists()
        # The miss is recoverable: recompute, re-store, read back clean.
        faults.reset()
        fresh.put("k" * 64, stats)
        assert fresh.get("k" * 64).as_dict() == stats.as_dict()

    def test_write_corruption_detected_on_next_read(self, tmp_path, stats):
        faults.configure("memo_corrupt_write:once")
        cache = SimulationCache(disk_dir=tmp_path)
        cache.put("k" * 64, stats)
        faults.reset()
        fresh = SimulationCache(disk_dir=tmp_path)
        with pytest.warns(MemoQuarantineWarning):
            assert fresh.get("k" * 64) is None

    def test_checksum_mismatch_quarantined(self, tmp_path, stats):
        cache = SimulationCache(disk_dir=tmp_path)
        cache.put("k" * 64, stats)
        path = tmp_path / ("k" * 64 + ".json")
        entry = json.loads(path.read_text(encoding="utf-8"))
        first_key = next(iter(entry["stats"]))
        entry["stats"][first_key] += 1.0  # bit-rot without updating the digest
        path.write_text(json.dumps(entry), encoding="utf-8")
        fresh = SimulationCache(disk_dir=tmp_path)
        with pytest.warns(MemoQuarantineWarning, match="checksum"):
            assert fresh.get("k" * 64) is None

    def test_legacy_flat_entries_still_accepted(self, tmp_path, stats):
        flat_stats = {k: float(v) for k, v in stats.as_dict().items()}
        (tmp_path / ("k" * 64 + ".json")).write_text(
            json.dumps(flat_stats), encoding="utf-8"
        )
        cache = SimulationCache(disk_dir=tmp_path)
        assert cache.get("k" * 64).as_dict() == stats.as_dict()
        assert cache.quarantined == 0

    def test_entries_are_checksummed_envelopes(self, stats):
        entry = json.loads(_encode_entry({k: float(v) for k, v in stats.as_dict().items()}))
        assert set(entry) == {"schema", "sha256", "stats"}

    def test_stale_tmp_swept_young_tmp_kept(self, tmp_path):
        stale = tmp_path / ".deadbeef.1234.tmp"
        young = tmp_path / ".cafef00d.5678.tmp"
        stale.write_text("{", encoding="utf-8")
        young.write_text("{", encoding="utf-8")
        old = time.time() - 3600.0
        os.utime(stale, (old, old))
        SimulationCache(disk_dir=tmp_path)
        assert not stale.exists()  # orphan from a killed worker
        assert young.exists()  # may belong to a live writer


# ---------------------------------------------------------------------------
# Dataset pipeline containment
# ---------------------------------------------------------------------------


DATASET_CONFIG = DatasetConfig(
    arch="arm",
    implementations_per_group=3,
    groups=(0, 1),
    scale=0.05,
    trace_max_accesses=4_000,
    n_exe=2,
    n_parallel=1,
)


class TestDatasetResilience:
    @pytest.fixture(scope="class")
    def baseline(self):
        faults.configure("")  # class fixtures resolve before the autouse shield
        return generate_dataset(DATASET_CONFIG)

    def test_fault_free_matches_strict_path(self, baseline):
        strict = generate_dataset(DATASET_CONFIG, strict=True)
        assert norm(strict) == norm(baseline)
        assert len(baseline.samples) == 6

    def test_failed_group_is_recorded_not_fatal(self, baseline):
        faults.configure("worker_crash:n=1", seed=5)
        with pytest.raises(DatasetGenerationError) as excinfo:
            generate_dataset(DATASET_CONFIG)
        error = excinfo.value
        assert len(error.failures) == 1
        assert error.failures[0].group_id in DATASET_CONFIG.groups
        assert "worker_crash" in error.failures[0].error
        # The partial dataset carries every surviving group's samples.
        assert len(error.dataset.samples) == 3
        assert [s for s in norm(error.dataset)] == [
            s for s in norm(baseline) if s[0] != error.failures[0].group_id
        ]

    def test_retry_recovers_bit_identically(self, baseline):
        faults.configure("worker_crash:n=1", seed=5)
        recovered = generate_dataset(
            DATASET_CONFIG, retry=RetryPolicy(max_attempts=2, base_delay_s=0.001)
        )
        assert norm(recovered) == norm(baseline)

    def test_strict_mode_propagates_first_error(self):
        faults.configure("worker_crash:n=1", seed=5)
        with pytest.raises(InjectedWorkerCrash):
            generate_dataset(DATASET_CONFIG, strict=True)

    def test_threads_backend_contains_failures(self, baseline):
        faults.configure("worker_crash:n=1", seed=5)
        config = DatasetConfig(
            arch="arm",
            implementations_per_group=3,
            groups=(0, 1),
            scale=0.05,
            trace_max_accesses=4_000,
            n_exe=2,
            n_parallel=2,
            backend="threads",
        )
        with pytest.raises(DatasetGenerationError) as excinfo:
            generate_dataset(config)
        assert len(excinfo.value.failures) == 1
        assert len(excinfo.value.dataset.samples) == 3


# ---------------------------------------------------------------------------
# Acceptance-scale chaos run
# ---------------------------------------------------------------------------


#: Default acceptance profile; a CI chaos leg overrides it through the
#: environment (``REPRO_FAULT_INJECT``) to stress different rates/seeds.
CHAOS_PROFILE = "worker_crash:p=0.2;memo_corrupt_read:p=0.2;native_fault:once;seed=42"


class TestChaosAcceptance:
    def test_chaos_batch_completes_with_structured_records(
        self, matmul_task, restore_native
    ):
        space = matmul_task.config_space
        inputs = [
            MeasureInput(matmul_task, space.get(i % len(space))) for i in range(32)
        ]
        builder = LocalBuilder()

        def run_batch(retry=None):
            runner = SimulatorRunner(
                "arm", trace_options=TRACE, memoize=False, timeout_s=30.0
            )
            return measure_batch(builder, runner, inputs, retry=retry)

        pristine = run_batch()
        assert all(r.ok for r in pristine)

        faults.configure(os.environ.get(faults.ENV_VAR) or CHAOS_PROFILE)
        with warnings.catch_warnings():
            # Native demotion / degradation warnings are expected noise here.
            warnings.simplefilter("ignore")
            chaotic = run_batch(retry=RetryPolicy(max_attempts=3, base_delay_s=0.001))
        faults.configure("")

        # Every candidate came back as a structured MeasureResult — the
        # interpreter survived ~20% crash injection plus a native fault.
        assert len(chaotic) == 32
        known = {
            MeasureErrorNo.NO_ERROR,
            MeasureErrorNo.RUNTIME_ERROR,
            MeasureErrorNo.RUN_TIMEOUT,
            MeasureErrorNo.WORKER_CRASH,
        }
        assert all(isinstance(r, MeasureResult) for r in chaotic)
        assert all(r.error_no in known for r in chaotic)
        for result in chaotic:
            if result.error_no != MeasureErrorNo.NO_ERROR:
                assert result.error_msg  # per-candidate error record
        # With three attempts against p=0.2 most candidates recover.
        recovered = [r for r in chaotic if r.ok]
        assert len(recovered) >= 16
        # Recovered candidates report costs identical to the pristine run.
        for before, after in zip(pristine, chaotic):
            if after.ok:
                assert after.costs == before.costs

        # A fault-free re-run is bit-identical to the pristine baseline.
        _native._reset_for_tests()
        clean = run_batch()
        assert [r.costs for r in clean] == [r.costs for r in pristine]
        assert all(r.error_no == MeasureErrorNo.NO_ERROR for r in clean)
