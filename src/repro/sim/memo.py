"""Simulation-result memoization.

The autotuning loop re-simulates identical schedules across rounds — the
tuner proposes a configuration, measures it, and frequently proposes it (or a
behaviourally identical sibling) again later.  Because the simulator is a
pure function of ``(program content, hierarchy configuration, trace
options, engine)``, its results can be cached on that key.

:class:`SimulationCache` is an LRU-bounded in-memory store with an optional
on-disk layer (the ``processes`` pool backend points every worker at one
shared directory, see :func:`shared_disk_cache_dir`).  Keys hash the
program's cached content digest — computed once per program — together with
the hierarchy and trace options, normalising out the trace representation,
which does not affect results.  Values are stored as flat statistics snapshots and
reconstructed into fresh :class:`~repro.sim.stats.SimulationStats` objects on
every lookup, so callers can never mutate a cached entry through an alias.
The store is thread-safe: the ``threads`` backend of
:class:`~repro.sim.simulator.SimulatorPool` shares one cache across workers,
and :meth:`SimulationCache.get_or_compute` coalesces concurrent requests for
one key onto a single in-flight computation.

Memoized statistics match a fresh simulation bit-for-bit except for
``sim.host_seconds``, which is rewritten by the caller to the (much smaller)
lookup time — reporting the original walk time for a served-from-cache run
would misstate simulation cost, e.g. in the Eq. 4 speedup accounting.

The on-disk layer is shared by many processes that can die at any point, so
it is hardened against the resulting debris: entries are written as
schema-versioned, checksummed envelopes; a truncated, garbled or
wrong-schema entry is **quarantined** (renamed, never deleted — the bytes
stay available for post-mortems) and served as a miss, emitting a
:class:`~repro.reliability.MemoQuarantineWarning`; and stale ``.*.tmp``
scratch files left behind by workers killed mid-write are swept on cache
construction.  The chaos suite drives these paths through the
``memo_corrupt_read`` / ``memo_corrupt_write`` fault-injection sites.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.reliability import MemoQuarantineWarning, current_deadline
from repro.reliability import faults
from repro.sim.stats import SimulationStats


#: Version tag of the default shared cache directory.  Bump whenever a
#: change alters simulation *results* (not just speed) or the key payload
#: shape: the memoization key hashes only inputs, so cached statistics from
#: an older behaviour would otherwise be served silently across upgrades.
#: v3: replacement policy per hierarchy level and the random-replacement
#: ``rng_seed`` joined the key (the seed only when a random level is
#: present — it cannot affect deterministic-policy results).
#: v4: the unified policy registry added PLRU and RRIP (new aux state
#: planes join the simulated behaviour, and new policy names must never
#: alias a digest computed before they existed).
CACHE_SCHEMA_VERSION = 4

#: Orphaned write scratch (``.{key}.{pid}.tmp``) older than this is removed
#: when a cache attaches to a disk directory; younger files may belong to a
#: live writer mid-``os.replace``.  ``REPRO_MEMO_TMP_MAX_AGE_S`` overrides.
STALE_TMP_MAX_AGE_S = 600.0


def _has_victim_stream_level(hierarchy: dict) -> bool:
    """Whether any level of an ``asdict``-ed hierarchy config uses a policy
    that consumes the replayable victim stream
    (:attr:`repro.sim.policies.PolicySpec.uses_victim_stream`), making the
    ``rng_seed`` result-relevant.
    """
    from repro.sim.policies import POLICIES

    return any(
        isinstance(level, dict)
        and level.get("replacement") in POLICIES
        and POLICIES[level["replacement"]].uses_victim_stream
        for level in hierarchy.values()
    )


def shared_disk_cache_dir() -> Path:
    """The default on-disk cache directory shared across worker processes.

    ``REPRO_SIM_MEMO_DIR`` overrides; otherwise a per-user, per-schema
    directory under the system temp root is used (created ``0o700``).
    Entries are content-addressed by the memoization key, so sharing the
    directory across runs and processes of one schema version is safe — a
    stale entry is by construction bit-identical to a fresh simulation of
    the same key.
    """
    override = os.environ.get("REPRO_SIM_MEMO_DIR")
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    path = Path(tempfile.gettempdir()) / f"repro-sim-memo-v{CACHE_SCHEMA_VERSION}-{uid}"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        pass  # SimulationCache creates (or fails on) it with context
    return path


class SimulationCache:
    """LRU-bounded memoization store for simulation statistics."""

    def __init__(
        self,
        maxsize: int = 128,
        disk_dir: Optional[Union[str, Path]] = None,
        store=None,
    ):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        #: Optional shared backing store (duck-typed, e.g.
        #: :class:`repro.service.ResultStore`): ``get(key) -> flat dict | None``
        #: and ``put(key, flat)``.  Consulted after the in-memory LRU and the
        #: disk layer, written through on every :meth:`put`.  Store errors are
        #: contained as misses — a degraded backend never breaks a run.
        self.store = store
        self._entries: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
        self._lock = threading.Lock()
        #: In-flight computations keyed by memo key: concurrent
        #: :meth:`get_or_compute` callers for one key block on one event
        #: instead of racing to simulate the same candidate.
        self._inflight: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        #: Requests served by waiting on another thread's in-flight
        #: computation instead of simulating redundantly.
        self.coalesced = 0
        #: Corrupted disk entries renamed aside (never deleted) by this cache.
        self.quarantined = 0
        if self.disk_dir is not None:
            self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove orphaned ``.*.tmp`` write scratch left by killed workers.

        Only files older than :data:`STALE_TMP_MAX_AGE_S` go — a younger
        scratch file may belong to a live writer about to ``os.replace`` it.
        """
        max_age = float(os.environ.get("REPRO_MEMO_TMP_MAX_AGE_S", STALE_TMP_MAX_AGE_S))
        now = time.time()
        try:
            candidates = list(self.disk_dir.glob(".*.tmp"))
        except OSError:
            return
        for path in candidates:
            try:
                if now - path.stat().st_mtime > max_age:
                    path.unlink(missing_ok=True)
            except OSError:  # raced with another sweeper or the writer
                continue

    # -- keys ---------------------------------------------------------------
    @staticmethod
    def make_key(program, hierarchy_config, trace_options, engine: str) -> str:
        """The memoization key of one simulation request.

        ``program.content_digest()`` is cached on the program, so repeated
        lookups do not re-serialise the tree.  The trace *representation*
        (descriptor/expanded) is deliberately normalised out of the key —
        like the two engines, both representations produce bit-identical
        statistics, so results memoized under one serve the other.  The
        random-replacement ``rng_seed`` is part of the key whenever any
        hierarchy level uses a victim-stream policy — two runs with
        different seeds can never share a cached result — and is normalised
        out otherwise, where the replayable victim stream is never consumed
        and the seed provably cannot affect statistics.
        """
        hierarchy = asdict(hierarchy_config)
        trace = asdict(trace_options)
        trace.pop("engine", None)  # resolved and keyed separately
        trace.pop("trace", None)  # representation-neutral results
        if not _has_victim_stream_level(hierarchy):
            trace.pop("rng_seed", None)  # seed-neutral results
        payload = {
            "program": program.content_digest(),
            "hierarchy": hierarchy,
            "trace": trace,
            "engine": engine,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- store --------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationStats]:
        """Look up a cached result; returns a fresh stats object or ``None``."""
        with self._lock:
            flat = self._entries.get(key)
            if flat is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return stats_from_flat(flat)
        # The disk read happens outside the lock so concurrent workers are
        # not serialized behind file I/O (mirroring ``put``); the re-locked
        # insert is a double-checked write — entries are content-addressed,
        # so a racing inserter of the same key wrote identical data.
        flat = self._load_from_disk(key)
        if flat is None:
            flat = self._load_from_store(key)
        with self._lock:
            if flat is not None:
                self._insert(key, flat)
                self.hits += 1
                return stats_from_flat(flat)
            self.misses += 1
            return None

    def get_or_compute(self, key, compute):
        """Serve ``key`` from the cache, computing it at most once per process.

        Returns ``(stats, computed)`` where ``computed`` is True when *this*
        call ran ``compute``.  Concurrent callers for the same key (e.g. the
        threads backend of the simulator pool evaluating a batch containing
        duplicate candidates) coalesce onto one in-flight computation: the
        first caller becomes the **leader** and simulates; the rest block on
        the leader's event and are then served the freshly cached result.
        If the leader raises, waiters wake, observe the miss, and compete to
        become the next leader — a failed computation never wedges the key.

        Waiters poll the ambient cooperative deadline while blocked, so a
        candidate's ``timeout_s`` budget keeps its meaning even when the
        candidate spends it waiting on a twin.
        """
        while True:
            stats = self.get(key)
            if stats is not None:
                return stats, False
            with self._lock:
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = threading.Event()
            if not leader:
                deadline = current_deadline()
                while not flight.wait(timeout=0.05):
                    if deadline is not None:
                        deadline.check("coalesced memo wait")
                with self._lock:
                    self.coalesced += 1
                continue  # leader finished: a cache hit, or compete to lead
            try:
                stats = compute()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.set()
                raise
            self.put(key, stats)
            with self._lock:
                self._inflight.pop(key, None)
            flight.set()
            return stats, True

    def put(self, key: str, stats: SimulationStats) -> None:
        """Store one simulation result."""
        flat = dict(stats.as_dict())
        with self._lock:
            self._insert(key, flat)
        if self.disk_dir is not None:
            # File I/O happens outside the lock so concurrent workers are
            # not serialized behind a disk write; the write-then-rename makes
            # concurrent writers of the same key (which produce identical
            # payloads) safe for readers.
            path = self.disk_dir / f"{key}.json"
            scratch = self.disk_dir / f".{key}.{os.getpid()}.tmp"
            body = faults.corrupt_text("memo_corrupt_write", _encode_entry(flat))
            try:
                scratch.write_text(body, encoding="utf-8")
                os.replace(scratch, path)
            except OSError:  # a full or read-only disk never breaks the run
                scratch.unlink(missing_ok=True)
        if self.store is not None:
            try:
                self.store.put(key, flat)
            except Exception:  # noqa: BLE001 — a degraded store never breaks a run
                pass

    def _insert(self, key: str, flat: Dict[str, float]) -> None:
        self._entries[key] = flat
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _load_from_disk(self, key: str) -> Optional[Dict[str, float]]:
        if self.disk_dir is None:
            return None
        path = self.disk_dir / f"{key}.json"
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:  # unreadable but present: leave it for a post-mortem
            return None
        text = faults.corrupt_text("memo_corrupt_read", text)
        flat, reason = _decode_entry(text)
        if flat is None:
            self._quarantine(path, reason)
            return None
        return flat

    def _load_from_store(self, key: str) -> Optional[Dict[str, float]]:
        """Consult the shared backing store; errors are contained as misses."""
        if self.store is None:
            return None
        try:
            flat = self.store.get(key)
        except Exception:  # noqa: BLE001 — a degraded store never breaks a run
            return None
        if flat is None:
            return None
        try:
            return {str(k): float(v) for k, v in flat.items()}
        except (AttributeError, TypeError, ValueError):
            return None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupted entry aside (rename, never delete) and warn."""
        self.quarantined += 1
        target = path.with_name(path.name + ".quarantine")
        try:
            os.replace(path, target)
        except OSError:
            pass  # raced with another quarantiner or a fresh overwrite
        warnings.warn(MemoQuarantineWarning(str(path), reason), stacklevel=3)

    # -- management ---------------------------------------------------------
    def clear(self) -> None:
        """Drop all in-memory entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.coalesced = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SimulationCache({len(self)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


def _canonical_stats_json(flat: Dict[str, float]) -> str:
    return json.dumps(flat, sort_keys=True, separators=(",", ":"))


def _encode_entry(flat: Dict[str, float]) -> str:
    """Serialise one entry as a schema-versioned, checksummed envelope.

    Values are normalised to floats first so the checksum computed here
    matches the one recomputed after a JSON round trip (which turns every
    number into a float).
    """
    normalised = {str(k): float(v) for k, v in flat.items()}
    stats_json = _canonical_stats_json(normalised)
    checksum = hashlib.sha256(stats_json.encode("utf-8")).hexdigest()
    return json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "sha256": checksum, "stats": normalised},
        sort_keys=True,
    )


def _decode_entry(text: str):
    """Parse and validate one disk entry.

    Returns ``(flat_stats, "")`` on success or ``(None, reason)`` when the
    entry must be quarantined.  Legacy flat-dictionary entries (written
    before the envelope format, within the same schema directory) are still
    accepted; everything else must carry the schema tag and a matching
    checksum.
    """
    try:
        payload = json.loads(text)
    except ValueError:
        return None, "not valid JSON (truncated or garbled)"
    if not isinstance(payload, dict):
        return None, f"unexpected payload type {type(payload).__name__}"
    if "schema" in payload:
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None, (
                f"schema {payload.get('schema')!r} != expected {CACHE_SCHEMA_VERSION}"
            )
        stats = payload.get("stats")
        if not isinstance(stats, dict):
            return None, "missing stats object"
        try:
            flat = {str(k): float(v) for k, v in stats.items()}
        except (TypeError, ValueError):
            return None, "non-numeric statistics values"
        checksum = hashlib.sha256(
            _canonical_stats_json(flat).encode("utf-8")
        ).hexdigest()
        if payload.get("sha256") != checksum:
            return None, "checksum mismatch"
        return flat, ""
    try:  # legacy pre-envelope entry: a flat {"group.key": value} dict
        return {str(k): float(v) for k, v in payload.items()}, ""
    except (TypeError, ValueError):
        return None, "non-numeric statistics values"


def stats_from_flat(flat: Dict[str, float]) -> SimulationStats:
    """Rebuild a :class:`SimulationStats` from its flat snapshot.

    The inverse of ``SimulationStats.as_dict()``; used by the memo layer and
    by service clients reconstructing results from transported flat stats.
    """
    stats = SimulationStats()
    for flat_key, value in flat.items():
        group_name, _, key = flat_key.rpartition(".")
        stats.group(group_name).set(key, value)
    return stats


#: Process-wide default cache shared by all memoizing simulators.
_DEFAULT_CACHE = SimulationCache(maxsize=128)


def default_simulation_cache() -> SimulationCache:
    """The process-wide cache used when a simulator enables memoization."""
    return _DEFAULT_CACHE
