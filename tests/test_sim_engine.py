"""Tests for the vectorized simulation engine and the memoization layer.

The central property: both engines produce *bit-identical* statistics at
every cache level for any trace, geometry and replacement policy.  The
vectorized engine's fast paths (run collapse, first-touch pre-resolution,
rank rounds, chain tails) are all exercised by the random traces below.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    Cache,
    CacheConfig,
    CacheHierarchy,
    CacheHierarchyConfig,
    CacheLevelConfig,
    MainMemory,
    ReplacementPolicy,
    RuntimeConfig,
    SimulationCache,
    Simulator,
    SimulatorPool,
    TraceOptions,
    hierarchy_with_replacement,
    resolve_engine,
    victim_rank,
)
import repro.sim.engine as engine_module


def make_pair(sets, assoc, policy=ReplacementPolicy.LRU, with_memory=True, rng_seed=0):
    """One reference and one vectorized cache with identical geometry."""
    config = CacheConfig.from_geometry(
        "test", sets=sets, associativity=assoc, replacement=policy, rng_seed=rng_seed
    )
    reference = Cache(
        config, next_level=MainMemory() if with_memory else None, engine=ENGINE_REFERENCE
    )
    vectorized = Cache(
        config, next_level=MainMemory() if with_memory else None, engine=ENGINE_VECTORIZED
    )
    return reference, vectorized


def assert_equivalent(reference: Cache, vectorized: Cache):
    assert reference.stats_dict() == vectorized.stats_dict()
    assert reference.resident_lines() == vectorized.resident_lines()
    if reference.next_level is not None:
        assert reference.next_level.stats_dict() == vectorized.next_level.stats_dict()


GEOMETRIES = [(4, 2), (8, 1), (2, 4), (16, 4), (64, 8)]


class TestEngineSelection:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_engine("quantum")

    def test_resolve_default(self):
        assert resolve_engine(None) in (ENGINE_REFERENCE, ENGINE_VECTORIZED)

    def test_random_policy_stays_on_requested_engine(self):
        # Until the replayable victim stream, random caches silently fell
        # back to the reference loop; they now honour the engine selection.
        config = CacheConfig.from_geometry(
            "rand", sets=4, associativity=2, replacement=ReplacementPolicy.RANDOM
        )
        assert Cache(config, engine=ENGINE_VECTORIZED).engine == ENGINE_VECTORIZED
        assert Cache(config, engine=ENGINE_REFERENCE).engine == ENGINE_REFERENCE

    def test_trace_options_engine_threaded_to_simulator(self):
        simulator = Simulator("arm", trace_options=TraceOptions(engine=ENGINE_REFERENCE))
        assert simulator.engine == ENGINE_REFERENCE
        explicit = Simulator(
            "arm",
            trace_options=TraceOptions(engine=ENGINE_REFERENCE),
            config=RuntimeConfig(engine=ENGINE_VECTORIZED),
        )
        assert explicit.engine == ENGINE_VECTORIZED

    def test_hierarchy_engine_threaded_to_caches(self):
        config = CacheHierarchyConfig(
            name="mini",
            l1d=CacheLevelConfig(size_bytes=2 * 64 * 2, sets=2, associativity=2),
            l1i=CacheLevelConfig(size_bytes=2 * 64 * 2, sets=2, associativity=2),
            l2=CacheLevelConfig(size_bytes=4 * 64 * 4, sets=4, associativity=4),
            line_bytes=64,
        )
        hierarchy = CacheHierarchy(config, engine=ENGINE_VECTORIZED)
        assert all(c.engine == ENGINE_VECTORIZED for c in hierarchy.all_caches().values())


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 300), st.booleans()), min_size=1, max_size=600),
        st.sampled_from(GEOMETRIES),
        st.sampled_from([ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM]),
        st.integers(1, 4),
    )
    def test_property_equivalence(self, accesses, geometry, policy, n_chunks):
        """Random traces through both engines give identical per-level stats."""
        sets, assoc = geometry
        reference, vectorized = make_pair(sets, assoc, policy=policy)
        lines = np.asarray([line for line, _ in accesses], dtype=np.int64)
        writes = np.asarray([write for _, write in accesses], dtype=bool)
        for chunk_lines, chunk_writes in zip(
            np.array_split(lines, n_chunks), np.array_split(writes, n_chunks)
        ):
            reference.access_lines(chunk_lines, chunk_writes)
            vectorized.access_lines(chunk_lines, chunk_writes)
        assert_equivalent(reference, vectorized)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_large_random_trace_equivalence(self, seed):
        """Bulk traces exercise the wide-round and chain-tail paths."""
        rng = np.random.default_rng(seed)
        reference, vectorized = make_pair(16, 4)
        for _ in range(3):
            size = int(rng.integers(200, 4000))
            lines = rng.integers(0, 400, size=size).astype(np.int64)
            writes = rng.random(size) < 0.3
            reference.access_lines(lines, writes)
            vectorized.access_lines(lines, writes)
        assert_equivalent(reference, vectorized)

    def test_skewed_trace_hits_chain_tail(self):
        """A single-set-dominated trace goes through the scalar chain tail."""
        rng = np.random.default_rng(0)
        for policy in (ReplacementPolicy.LRU, ReplacementPolicy.FIFO):
            reference, vectorized = make_pair(8, 2, policy=policy)
            hot = rng.integers(0, 64, size=3000) * 8  # always set 0
            cold = rng.integers(0, 512, size=1000)
            lines = np.concatenate([hot, cold])
            rng.shuffle(lines)
            writes = rng.random(lines.size) < 0.5
            reference.access_lines(lines, writes)
            vectorized.access_lines(lines, writes)
            assert_equivalent(reference, vectorized)

    def test_sequential_miss_equivalence_across_chunks(self):
        reference, vectorized = make_pair(64, 8)
        first = np.arange(100, dtype=np.int64)
        second = np.arange(100, 200, dtype=np.int64)  # continues the streak
        for cache in (reference, vectorized):
            cache.access_lines(first, np.zeros(100, dtype=bool))
            cache.access_lines(second, np.zeros(100, dtype=bool))
        assert_equivalent(reference, vectorized)
        assert vectorized.sequential_misses == 199

    def test_hierarchy_equivalence_with_and_without_l3(self):
        rng = np.random.default_rng(7)
        small = CacheLevelConfig(size_bytes=4 * 64 * 2, sets=4, associativity=2)
        mid = CacheLevelConfig(size_bytes=8 * 64 * 4, sets=8, associativity=4)
        big = CacheLevelConfig(size_bytes=16 * 64 * 4, sets=16, associativity=4)
        for l3 in (None, big):
            config = CacheHierarchyConfig(name="t", l1d=small, l1i=small, l2=mid, l3=l3)
            hier_ref = CacheHierarchy(config, engine=ENGINE_REFERENCE)
            hier_vec = CacheHierarchy(config, engine=ENGINE_VECTORIZED)
            for _ in range(4):
                addresses = rng.integers(0, 1 << 16, size=1500).astype(np.int64)
                writes = rng.random(1500) < 0.4
                hier_ref.access_data_batch(addresses, writes)
                hier_vec.access_data_batch(addresses, writes)
            assert hier_ref.stats_dict() == hier_vec.stats_dict()

    def test_simulator_engine_equivalence(self, conv_program_x86):
        options = TraceOptions(max_accesses=30_000)
        ref = Simulator(
            "x86",
            trace_options=options,
            config=RuntimeConfig(engine=ENGINE_REFERENCE, memoize=False),
        ).run(conv_program_x86)
        vec = Simulator(
            "x86",
            trace_options=options,
            config=RuntimeConfig(engine=ENGINE_VECTORIZED, memoize=False),
        ).run(conv_program_x86)
        left, right = ref.flat_stats(), vec.flat_stats()
        left.pop("sim.host_seconds")
        right.pop("sim.host_seconds")
        assert left == right


class TestRandomReplacement:
    """The replayable victim stream: bit-identity and seed semantics.

    Random replacement draws victims from a counter-based stream keyed on
    ``(rng_seed, set index, per-set eviction ordinal)``, so the reference
    loop, the NumPy rank rounds, the chain tails and the compiled kernel
    must all pick identical victims for the same seed.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 200), st.booleans()), min_size=1, max_size=600),
        st.sampled_from(GEOMETRIES + [(4, 3), (32, 16), (2, 1)]),
        st.integers(0, 2**63 - 1),
        st.integers(1, 4),
    )
    def test_property_equivalence_across_seeds(self, accesses, geometry, seed, n_chunks):
        """Reference and vectorized agree for any seed, geometry and chunking."""
        sets, assoc = geometry
        reference, vectorized = make_pair(
            sets, assoc, policy=ReplacementPolicy.RANDOM, rng_seed=seed
        )
        lines = np.asarray([line for line, _ in accesses], dtype=np.int64)
        writes = np.asarray([write for _, write in accesses], dtype=bool)
        for chunk_lines, chunk_writes in zip(
            np.array_split(lines, n_chunks), np.array_split(writes, n_chunks)
        ):
            reference.access_lines(chunk_lines, chunk_writes)
            vectorized.access_lines(chunk_lines, chunk_writes)
        assert_equivalent(reference, vectorized)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_large_random_trace_equivalence(self, seed):
        """Bulk random-policy traces exercise rounds, tails and the kernel."""
        rng = np.random.default_rng(seed)
        reference, vectorized = make_pair(
            16, 4, policy=ReplacementPolicy.RANDOM, rng_seed=seed
        )
        for _ in range(3):
            size = int(rng.integers(200, 4000))
            lines = rng.integers(0, 400, size=size).astype(np.int64)
            writes = rng.random(size) < 0.3
            reference.access_lines(lines, writes)
            vectorized.access_lines(lines, writes)
        assert_equivalent(reference, vectorized)

    def test_skewed_trace_hits_chain_tail(self):
        """A single-set-dominated random trace goes through the scalar chain."""
        rng = np.random.default_rng(0)
        reference, vectorized = make_pair(8, 2, policy=ReplacementPolicy.RANDOM, rng_seed=9)
        hot = rng.integers(0, 64, size=3000) * 8  # always set 0
        cold = rng.integers(0, 512, size=1000)
        lines = np.concatenate([hot, cold])
        rng.shuffle(lines)
        writes = rng.random(lines.size) < 0.5
        reference.access_lines(lines, writes)
        vectorized.access_lines(lines, writes)
        assert_equivalent(reference, vectorized)

    def test_numpy_rounds_match_compiled_kernel(self, monkeypatch):
        """The pure-NumPy event phase is bit-identical to the C kernel.

        With the kernel unavailable both runs take the NumPy path and the
        assertion is trivially true; CI also runs the whole suite under
        ``REPRO_SIM_NATIVE=0`` to pin the pure-NumPy path against the
        reference loop.
        """
        rng = np.random.default_rng(4)
        lines = rng.integers(0, 500, size=6000).astype(np.int64)
        writes = rng.random(lines.size) < 0.4

        def run(disable_kernel):
            config = CacheConfig.from_geometry(
                "k", sets=16, associativity=4,
                replacement=ReplacementPolicy.RANDOM, rng_seed=21,
            )
            cache = Cache(config, next_level=MainMemory(), engine=ENGINE_VECTORIZED)
            if disable_kernel:
                monkeypatch.setattr(engine_module, "event_kernel", lambda: None)
            try:
                cache.access_lines(lines, writes)
            finally:
                monkeypatch.undo()
            return cache.stats_dict(), cache.next_level.stats_dict()

        assert run(disable_kernel=True) == run(disable_kernel=False)

    def test_seed_changes_victims(self):
        """Two seeds must diverge on an eviction-heavy trace."""
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 64, size=5000).astype(np.int64)
        writes = np.zeros(lines.size, dtype=bool)
        stats = []
        for seed in (0, 1):
            _, vectorized = make_pair(4, 2, policy=ReplacementPolicy.RANDOM, rng_seed=seed)
            vectorized.access_lines(lines, writes)
            stats.append(vectorized.stats_dict())
        assert stats[0] != stats[1]

    def test_same_seed_is_replayable_after_reset(self):
        rng = np.random.default_rng(2)
        lines = rng.integers(0, 128, size=2000).astype(np.int64)
        writes = rng.random(lines.size) < 0.5
        _, cache = make_pair(8, 2, policy=ReplacementPolicy.RANDOM, rng_seed=5)
        cache.access_lines(lines, writes)
        first = cache.stats_dict()
        cache.reset_state()  # rewinds the per-set eviction ordinals too
        cache.access_lines(lines, writes)
        assert cache.stats_dict() == first

    def test_victim_rank_is_deterministic_and_bounded(self):
        seen = set()
        for ordinal in range(512):
            rank = victim_rank(7, 3, ordinal, 8)
            assert 0 <= rank < 8
            assert rank == victim_rank(7, 3, ordinal, 8)
            seen.add(rank)
        assert seen == set(range(8))  # the stream reaches every way

    def test_victim_ranks_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        sets = rng.integers(0, 1 << 15, size=200).astype(np.int64)
        ordinals = rng.integers(0, 1 << 20, size=200).astype(np.int64)
        for seed in (0, 1, 2**31, 2**63 - 1):
            got = engine_module._victim_ranks(seed, sets, ordinals, 16)
            expected = [
                victim_rank(seed, int(s), int(k), 16) for s, k in zip(sets, ordinals)
            ]
            assert got.tolist() == expected

    def test_random_hierarchy_simulator_equivalence(self, conv_program_x86):
        """Reference vs vectorized(+descriptor) through a full random hierarchy."""
        hierarchy = CacheHierarchyConfig(
            name="tiny-random",
            l1d=CacheLevelConfig(4 * 64 * 2, 4, 2, replacement=ReplacementPolicy.RANDOM),
            l1i=CacheLevelConfig(4 * 64 * 2, 4, 2, replacement=ReplacementPolicy.RANDOM),
            l2=CacheLevelConfig(8 * 64 * 2, 8, 2, replacement=ReplacementPolicy.RANDOM),
            l3=CacheLevelConfig(16 * 64 * 4, 16, 4, replacement=ReplacementPolicy.RANDOM),
        )
        options = TraceOptions(max_accesses=30_000, rng_seed=13)
        ref = Simulator(
            "x86",
            hierarchy,
            trace_options=options,
            config=RuntimeConfig(engine=ENGINE_REFERENCE, memoize=False),
        ).run(conv_program_x86)
        vec = Simulator(
            "x86",
            hierarchy,
            trace_options=options,
            config=RuntimeConfig(engine=ENGINE_VECTORIZED, memoize=False),
        ).run(conv_program_x86)
        left, right = ref.flat_stats(), vec.flat_stats()
        left.pop("sim.host_seconds")
        right.pop("sim.host_seconds")
        assert left == right
        # The tiny hierarchy must actually evict, or the test proves nothing.
        assert left["l1d.read_replacements"] + left["l1d.write_replacements"] > 0

    def test_hierarchy_with_replacement_variant(self):
        variant = hierarchy_with_replacement("x86", ReplacementPolicy.RANDOM)
        assert all(
            level.replacement == ReplacementPolicy.RANDOM
            for level in variant.levels().values()
        )
        base = Simulator("x86").hierarchy_config
        assert variant.l1d.sets == base.l1d.sets  # geometry untouched
        with pytest.raises(KeyError):
            hierarchy_with_replacement("sparc", ReplacementPolicy.RANDOM)

    def test_split_l1_streams_are_independent(self):
        """Same-geometry L1D/L1I levels must not share one victim tape."""
        hierarchy = CacheHierarchy(
            hierarchy_with_replacement("x86", ReplacementPolicy.RANDOM), rng_seed=3
        )
        assert hierarchy.l1d.rng_seed != hierarchy.l1i.rng_seed


class TestScalarFastPath:
    @pytest.mark.parametrize(
        "policy", [ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM]
    )
    def test_scalar_access_equals_batch(self, policy):
        rng = np.random.default_rng(3)
        addresses = rng.integers(0, 4096, size=400) * 4
        writes = rng.random(400) < 0.3
        for engine in (ENGINE_REFERENCE, ENGINE_VECTORIZED):
            config = CacheConfig.from_geometry("s", sets=8, associativity=2, replacement=policy)
            scalar = Cache(config, next_level=MainMemory(), engine=engine)
            batch = Cache(config, next_level=MainMemory(), engine=engine)
            for address, write in zip(addresses, writes):
                scalar.access(int(address), bool(write))
            batch.access_batch(addresses, writes)
            assert scalar.stats_dict() == batch.stats_dict()
            assert scalar.next_level.stats_dict() == batch.next_level.stats_dict()

    def test_scalar_forwarding_through_cache_levels(self):
        memory = MainMemory()
        l2 = Cache(CacheConfig.from_geometry("l2", sets=4, associativity=2), memory)
        l1 = Cache(CacheConfig.from_geometry("l1", sets=1, associativity=1), l2)
        l1.access(0 * 64, True)   # write miss -> fill
        l1.access(1 * 64, False)  # evicts dirty line -> writeback
        assert l1.writebacks == 1
        assert l2.accesses == 3  # two fills plus one writeback
        assert memory.read_accesses == 2

    def test_contains_and_resident_lines(self):
        for engine in (ENGINE_REFERENCE, ENGINE_VECTORIZED):
            cache = Cache(CacheConfig.from_geometry("c", sets=4, associativity=2), engine=engine)
            cache.access(0x1000, False)
            assert cache.contains(0x1000)
            assert cache.contains(0x103F)
            assert not cache.contains(0x2000)
            assert cache.resident_lines() == 1
            cache.reset_state()
            assert cache.resident_lines() == 0
            assert not cache.contains(0x1000)


class TestMemoization:
    def test_second_run_is_served_from_cache(self, conv_program_x86):
        memo = SimulationCache(maxsize=8)
        options = TraceOptions(max_accesses=10_000)
        simulator = Simulator("x86", trace_options=options, memo_cache=memo)
        first = simulator.run(conv_program_x86)
        assert not first.cached and memo.misses == 1 and memo.hits == 0
        second = simulator.run(conv_program_x86)
        assert second.cached and memo.hits == 1
        left, right = first.flat_stats(), second.flat_stats()
        left.pop("sim.host_seconds")
        right.pop("sim.host_seconds")
        assert left == right
        assert second.trace_accesses == first.trace_accesses

    def test_memoized_result_is_isolated_from_mutation(self, conv_program_x86):
        memo = SimulationCache(maxsize=8)
        options = TraceOptions(max_accesses=5_000)
        simulator = Simulator("x86", trace_options=options, memo_cache=memo)
        first = simulator.run(conv_program_x86)
        first.stats.group("l1d").set("read_hits", -1.0)
        second = simulator.run(conv_program_x86)
        assert second.flat_stats()["l1d.read_hits"] != -1.0

    def test_key_distinguishes_options_and_engine(self, conv_program_x86):
        memo = SimulationCache()
        base = TraceOptions(max_accesses=5_000)
        config = Simulator("x86").hierarchy_config
        key = memo.make_key(conv_program_x86, config, base, ENGINE_VECTORIZED)
        other_budget = memo.make_key(
            conv_program_x86, config, TraceOptions(max_accesses=6_000), ENGINE_VECTORIZED
        )
        other_engine = memo.make_key(conv_program_x86, config, base, ENGINE_REFERENCE)
        assert len({key, other_budget, other_engine}) == 3

    def test_key_incorporates_random_replacement_seed(self, conv_program_x86):
        """Two runs with different victim-stream seeds can never share a result."""
        memo = SimulationCache()
        random_config = hierarchy_with_replacement("x86", ReplacementPolicy.RANDOM)
        keys = {
            memo.make_key(
                conv_program_x86,
                random_config,
                TraceOptions(max_accesses=5_000, rng_seed=seed),
                ENGINE_VECTORIZED,
            )
            for seed in (0, 1, 2)
        }
        assert len(keys) == 3

    def test_key_is_seed_neutral_without_random_levels(self, conv_program_x86):
        """Deterministic hierarchies never consume the stream: one key per result."""
        memo = SimulationCache()
        lru_config = Simulator("x86").hierarchy_config
        keys = {
            memo.make_key(
                conv_program_x86,
                lru_config,
                TraceOptions(max_accesses=5_000, rng_seed=seed),
                ENGINE_VECTORIZED,
            )
            for seed in (0, 1, 2)
        }
        assert len(keys) == 1

    def test_key_distinguishes_replacement_policy(self, conv_program_x86):
        memo = SimulationCache()
        base = TraceOptions(max_accesses=5_000)
        lru_key = memo.make_key(
            conv_program_x86, Simulator("x86").hierarchy_config, base, ENGINE_VECTORIZED
        )
        random_key = memo.make_key(
            conv_program_x86,
            hierarchy_with_replacement("x86", ReplacementPolicy.RANDOM),
            base,
            ENGINE_VECTORIZED,
        )
        assert lru_key != random_key

    def test_lru_bound(self):
        from repro.sim.stats import SimulationStats

        memo = SimulationCache(maxsize=2)
        for index in range(3):
            stats = SimulationStats()
            stats.group("sim").set("trace_accesses", index)
            memo.put(f"key{index}", stats)
        assert len(memo) == 2
        assert memo.get("key0") is None  # evicted
        assert memo.get("key2") is not None

    def test_disk_cache_roundtrip(self, tmp_path, conv_program_x86):
        options = TraceOptions(max_accesses=5_000)
        first_memo = SimulationCache(maxsize=4, disk_dir=tmp_path)
        simulator = Simulator("x86", trace_options=options, memo_cache=first_memo)
        fresh = simulator.run(conv_program_x86)
        # A brand-new in-memory cache backed by the same directory hits disk.
        second_memo = SimulationCache(maxsize=4, disk_dir=tmp_path)
        reloaded = Simulator("x86", trace_options=options, memo_cache=second_memo).run(
            conv_program_x86
        )
        assert reloaded.cached
        left, right = fresh.flat_stats(), reloaded.flat_stats()
        left.pop("sim.host_seconds")
        right.pop("sim.host_seconds")
        assert left == right

    def test_disk_load_happens_outside_lock(self, tmp_path, monkeypatch):
        """``get`` must not hold the store lock across disk reads — the
        ``threads`` pool backend would otherwise serialize behind file I/O."""
        from repro.sim.stats import SimulationStats

        memo = SimulationCache(maxsize=4, disk_dir=tmp_path)
        stats = SimulationStats()
        stats.group("sim").set("trace_accesses", 1.0)
        memo.put("key", stats)
        memo.clear()  # force the next get through the disk layer
        original = SimulationCache._load_from_disk
        observed = {}

        def spying_load(self, key):
            observed["locked"] = self._lock.locked()
            return original(self, key)

        monkeypatch.setattr(SimulationCache, "_load_from_disk", spying_load)
        assert memo.get("key") is not None
        assert observed["locked"] is False

    def test_concurrent_get_put_and_len(self, tmp_path):
        """Hammer one disk-backed cache from many threads: every lookup sees
        a consistent snapshot and the LRU bound holds throughout."""
        import threading

        from repro.sim.stats import SimulationStats

        memo = SimulationCache(maxsize=6, disk_dir=tmp_path)
        seeder = SimulationCache(maxsize=6, disk_dir=tmp_path)
        for index in range(8):
            stats = SimulationStats()
            stats.group("sim").set("trace_accesses", float(index))
            seeder.put(f"key{index}", stats)
        errors = []

        def worker():
            try:
                for _ in range(40):
                    for index in range(8):
                        got = memo.get(f"key{index}")
                        if got is not None:
                            flat = dict(got.as_dict())
                            assert flat["sim.trace_accesses"] == float(index)
                        stats = SimulationStats()
                        stats.group("sim").set("trace_accesses", float(index))
                        memo.put(f"key{index}", stats)
                        assert 0 <= len(memo) <= 6
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(memo) <= 6

    def test_memoize_disabled(self, conv_program_x86):
        options = TraceOptions(max_accesses=5_000)
        simulator = Simulator(
            "x86", trace_options=options, config=RuntimeConfig(memoize=False)
        )
        assert simulator.memo_cache is None
        assert not simulator.run(conv_program_x86).cached
        assert not simulator.run(conv_program_x86).cached

    def test_pool_shares_memoization(self, conv_program_x86):
        memo = SimulationCache(maxsize=8)
        options = TraceOptions(max_accesses=5_000)
        simulator = Simulator("x86", trace_options=options, memo_cache=memo)
        simulator.run(conv_program_x86)
        runs = Simulator("x86", trace_options=options, memo_cache=memo).run(conv_program_x86)
        assert runs.cached

    def test_process_pool_shares_memo_through_disk(self, tmp_path, conv_program_x86):
        options = TraceOptions(max_accesses=5_000)
        pool = SimulatorPool(
            "x86",
            n_parallel=2,
            trace_options=options,
            backend="processes",
            memo_dir=str(tmp_path),
        )
        first = pool.run_many([conv_program_x86, conv_program_x86])
        assert list(tmp_path.glob("*.json")), "workers should persist results to disk"
        # A fresh pool (new processes, empty in-memory caches) is served
        # entirely from the shared disk layer.
        second = SimulatorPool(
            "x86",
            n_parallel=2,
            trace_options=options,
            backend="processes",
            memo_dir=str(tmp_path),
        ).run_many([conv_program_x86])
        assert second[0].cached
        left = first[0].flat_stats()
        right = second[0].flat_stats()
        left.pop("sim.host_seconds")
        right.pop("sim.host_seconds")
        assert left == right


class TestProgramDigest:
    def test_digest_stable_and_name_independent(self, conv_program_x86):
        digest = conv_program_x86.content_digest()
        assert digest == conv_program_x86.content_digest()
        original_name = conv_program_x86.name
        try:
            conv_program_x86.name = "renamed"
            assert conv_program_x86.content_digest() == digest
        finally:
            conv_program_x86.name = original_name

    def test_digest_differs_across_programs(self, conv_program_x86, conv_program_riscv):
        assert conv_program_x86.content_digest() != conv_program_riscv.content_digest()

    def test_code_bytes_public_api(self, conv_program_x86):
        total = sum(conv_program_x86.code_bytes(root) for root in conv_program_x86.roots)
        assert total > 0
        assert conv_program_x86.code_footprint_bytes() == pytest.approx(
            total + conv_program_x86.static_code_bytes
        )


class TestArenaBatching:
    """Cross-chunk arena batching is bit-identical to per-chunk dispatch.

    The native batch driver walks whole groups of descriptor chunks in one
    foreign call per cache level and forwards the combined miss stream to
    the next level in one batch; every statistic must match both the
    per-chunk descriptor path and the reference per-access loop, for every
    replacement policy, across the ``REPRO_SIM_ARENA`` toggle and the
    no-kernel fallback.
    """

    TINY = CacheHierarchyConfig(
        name="tiny-arena",
        l1d=CacheLevelConfig(4 * 64 * 2, 4, 2),
        l1i=CacheLevelConfig(4 * 64 * 2, 4, 2),
        l2=CacheLevelConfig(8 * 64 * 2, 8, 2),
    )

    def _flat(self, program, monkeypatch, arena, engine=ENGINE_VECTORIZED, rng_seed=0):
        monkeypatch.setenv("REPRO_SIM_ARENA", "1" if arena else "0")
        simulator = Simulator(
            "x86",
            trace_options=TraceOptions(max_accesses=30_000, rng_seed=rng_seed),
            config=RuntimeConfig(engine=engine, memoize=False),
        )
        stats = simulator.run(program).flat_stats()
        stats.pop("sim.host_seconds")
        return stats

    def test_simulator_toggle_bit_identical(self, conv_program_x86, monkeypatch):
        batched = self._flat(conv_program_x86, monkeypatch, arena=True)
        per_chunk = self._flat(conv_program_x86, monkeypatch, arena=False)
        reference = self._flat(
            conv_program_x86, monkeypatch, arena=True, engine=ENGINE_REFERENCE
        )
        assert batched == per_chunk == reference

    @pytest.mark.parametrize("policy", ReplacementPolicy.ALL)
    def test_policies_through_stream(self, conv_program_x86, policy):
        """All three policies agree between stream and per-chunk dispatch."""
        config = CacheHierarchyConfig(
            name=f"tiny-{policy}",
            l1d=CacheLevelConfig(4 * 64 * 2, 4, 2, replacement=policy),
            l1i=CacheLevelConfig(4 * 64 * 2, 4, 2, replacement=policy),
            l2=CacheLevelConfig(8 * 64 * 2, 8, 2, replacement=policy),
        )
        chunks = list(
            conv_program_x86.memory_trace_descriptors(
                chunk_iterations=512, max_accesses=20_000
            )
        )
        streamed = CacheHierarchy(config, engine=ENGINE_VECTORIZED, rng_seed=11)
        streamed.access_data_descriptor_stream(chunks)
        per_chunk = CacheHierarchy(config, engine=ENGINE_VECTORIZED, rng_seed=11)
        for chunk in chunks:
            per_chunk.access_data_descriptors(chunk)
        assert streamed.stats_dict() == per_chunk.stats_dict()

    def test_stream_groups_multiple_arenas(self, conv_program_x86, monkeypatch):
        """Tiny group bounds force several flushes; results cannot change."""
        import repro.sim.cache as cache_module

        chunks = list(
            conv_program_x86.memory_trace_descriptors(
                chunk_iterations=256, max_accesses=20_000
            )
        )
        assert len(chunks) > 4  # several flushes at batch size 2
        monkeypatch.setattr(cache_module, "ARENA_CHUNK_BATCH", 2)
        grouped = CacheHierarchy(self.TINY, engine=ENGINE_VECTORIZED)
        grouped.access_data_descriptor_stream(chunks)
        monkeypatch.undo()
        baseline = CacheHierarchy(self.TINY, engine=ENGINE_VECTORIZED)
        baseline.access_data_descriptor_stream(chunks)
        assert grouped.stats_dict() == baseline.stats_dict()

    def test_stream_falls_back_without_kernel(self, conv_program_x86, monkeypatch):
        import repro.sim.cache as cache_module

        chunks = list(
            conv_program_x86.memory_trace_descriptors(
                chunk_iterations=512, max_accesses=10_000
            )
        )
        monkeypatch.setattr(cache_module, "arena_batching_available", lambda: False)
        fallback = CacheHierarchy(self.TINY, engine=ENGINE_VECTORIZED)
        fallback.access_data_descriptor_stream(chunks)
        monkeypatch.undo()
        native = CacheHierarchy(self.TINY, engine=ENGINE_VECTORIZED)
        native.access_data_descriptor_stream(chunks)
        assert fallback.stats_dict() == native.stats_dict()

    def test_env_toggle_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ARENA", raising=False)
        assert engine_module.arena_batching_enabled()
        monkeypatch.setenv("REPRO_SIM_ARENA", "0")
        assert not engine_module.arena_batching_enabled()
        assert not engine_module.arena_batching_available()
        monkeypatch.setenv("REPRO_SIM_ARENA", "1")
        assert engine_module.arena_batching_enabled()

    def test_random_policy_arena_equivalence(self, conv_program_x86, monkeypatch):
        """The replayable victim stream survives arena batching, per seed."""
        for rng_seed in (0, 5):
            hierarchy = hierarchy_with_replacement("x86", ReplacementPolicy.RANDOM)
            monkeypatch.setenv("REPRO_SIM_ARENA", "1")
            simulator = Simulator(
                "x86",
                hierarchy_config=hierarchy,
                trace_options=TraceOptions(max_accesses=30_000, rng_seed=rng_seed),
                config=RuntimeConfig(memoize=False),
            )
            batched = simulator.run(conv_program_x86).flat_stats()
            batched.pop("sim.host_seconds")
            monkeypatch.setenv("REPRO_SIM_ARENA", "0")
            per_chunk_sim = Simulator(
                "x86",
                hierarchy_config=hierarchy,
                trace_options=TraceOptions(max_accesses=30_000, rng_seed=rng_seed),
                config=RuntimeConfig(memoize=False),
            )
            per_chunk = per_chunk_sim.run(conv_program_x86).flat_stats()
            per_chunk.pop("sim.host_seconds")
            assert batched == per_chunk

    def test_scratch_pool_reused_across_hierarchies(self, conv_program_x86):
        """Fresh hierarchies share the thread's kernel scratch safely.

        The pooled workspace keeps stateful tables (position scatter,
        hash stamps) across runs; three back-to-back cold runs must stay
        bit-identical to each other.
        """
        chunks = list(
            conv_program_x86.memory_trace_descriptors(
                chunk_iterations=512, max_accesses=20_000
            )
        )
        results = []
        for _ in range(3):
            hierarchy = CacheHierarchy(self.TINY, engine=ENGINE_VECTORIZED)
            hierarchy.access_data_descriptor_stream(chunks)
            results.append(hierarchy.stats_dict())
        assert results[0] == results[1] == results[2]
