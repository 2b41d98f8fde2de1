"""Typed runtime configuration: one resolution point for the toggle surface.

The simulation stack grew one environment variable per PR — engine selection,
trace representation, the native-kernel switch, the batched measurement path,
retry policy, the shared memo directory.  Each used to be read ad hoc at its
point of use (``os.environ.get`` scattered through ``engine.py``,
``simulator.py``, ``runner.py``, ``memo.py``), which made the
effective configuration of a run impossible to inspect or to pin down for a
service process.

:class:`RuntimeConfig` consolidates that surface into a frozen dataclass with
**one documented env-resolution point**, :meth:`RuntimeConfig.from_env`:

========================  =======================  ==============================
``RuntimeConfig`` field   environment variable     meaning
========================  =======================  ==============================
``engine``                ``REPRO_SIM_ENGINE``     cache-simulation engine
                                                   (``reference``/``vectorized``;
                                                   default ``vectorized``)
``trace``                 ``REPRO_SIM_TRACE``      trace representation
                                                   (``expanded``/``descriptor``;
                                                   default by engine)
``replacement``           ``REPRO_SIM_REPLACEMENT``  uniform replacement policy
                                                   for every hierarchy level
                                                   (registry name; default:
                                                   per-level Table I policies)
``runner_batch``          ``REPRO_RUNNER_BATCH``   candidate-batch measurement
                                                   path (``0``/``false``/``off``
                                                   disables; default on)
``memo_dir``              ``REPRO_SIM_MEMO_DIR``   shared on-disk memo directory
                                                   (default: per-user temp dir)
``retry``                 ``REPRO_RETRY_*``        retry policy of the resilient
                                                   APIs (attempts/base delay/max
                                                   delay/seed; default disabled)
========================  =======================  ==============================

Every field defaults to *unset* (``None``), which defers to the environment at
use time — exactly the pre-config behaviour, so exporting a ``REPRO_*``
variable keeps working unchanged for code that never touches a config object.
An explicit field value overrides the environment.  ``from_env()`` snapshots
the current environment into explicit values, pinning them against later
environment changes; it is the one place the variables above are read into
structured form.

The compiled C kernels are not a config field: ``REPRO_SIM_NATIVE=0``
disables them process-wide, read once when the kernels first load
(:mod:`repro.sim._native`); a runtime demotion also turns them off for the
rest of the process.  :meth:`RuntimeConfig.describe` renders the resolved
surface for ``repro.cli serve --check``, with a ``native`` row reporting
whether the kernels actually loaded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import List, Mapping, Optional, Tuple

from repro.reliability import RetryPolicy
from repro.sim.engine import arena_batching_available, resolve_engine, resolve_trace_mode

#: ``(setting, env var, description)`` rows of the documented toggle surface:
#: every config field plus the env-only, process-wide ``native`` switch.
ENV_SURFACE: Tuple[Tuple[str, str, str], ...] = (
    ("engine", "REPRO_SIM_ENGINE", "cache-simulation engine (reference/vectorized)"),
    ("trace", "REPRO_SIM_TRACE", "trace representation (expanded/descriptor)"),
    ("replacement", "REPRO_SIM_REPLACEMENT",
     "replacement policy of every hierarchy level (registry name; default Table I)"),
    ("native", "REPRO_SIM_NATIVE", "compiled C kernels (0 disables; process-wide)"),
    ("runner_batch", "REPRO_RUNNER_BATCH", "candidate-batch measurement path"),
    ("memo_dir", "REPRO_SIM_MEMO_DIR", "shared on-disk memo directory"),
    ("retry", "REPRO_RETRY_ATTEMPTS (+_BASE_DELAY_S/_MAX_DELAY_S/_SEED)",
     "retry policy of the resilient APIs"),
)


def _batch_flag(value: Optional[str]) -> bool:
    """``REPRO_RUNNER_BATCH`` semantics: ``0``/``false``/``off`` disable."""
    if value is None:
        return True
    return value.strip().lower() not in ("0", "false", "off")


@dataclass(frozen=True)
class RuntimeConfig:
    """The consolidated toggle surface of one simulation stack instance.

    ``None`` fields defer to the environment at use time (the pre-config
    behaviour); explicit values override it.  Instances are frozen — derive
    variants with :func:`dataclasses.replace` or :meth:`with_overrides`.
    """

    #: Cache-simulation engine; ``None`` defers to ``REPRO_SIM_ENGINE``.
    engine: Optional[str] = None
    #: Trace representation; ``None`` defers to ``REPRO_SIM_TRACE`` / engine.
    trace: Optional[str] = None
    #: Replacement policy applied to every hierarchy level (a
    #: :data:`repro.sim.policies.POLICIES` name); ``None`` defers to
    #: ``REPRO_SIM_REPLACEMENT`` and then the Table I per-level defaults.
    replacement: Optional[str] = None
    #: Whether runners use the candidate-batch measurement path.
    runner_batch: Optional[bool] = None
    #: Whether simulators memoize results at all (no env var; default on).
    memoize: Optional[bool] = None
    #: Shared on-disk memo directory; ``None`` defers to ``REPRO_SIM_MEMO_DIR``
    #: (and then the per-user default of :func:`repro.sim.memo.shared_disk_cache_dir`).
    memo_dir: Optional[str] = None
    #: Per-candidate simulation budget in seconds (0 = unlimited).
    timeout_s: float = 0.0
    #: Retry policy of the resilient APIs; ``None`` defers to ``REPRO_RETRY_*``.
    retry: Optional[RetryPolicy] = field(default=None)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RuntimeConfig":
        """Snapshot the current environment into explicit field values.

        This is the one documented resolution point of every ``REPRO_*``
        toggle (see the module table); the returned config reproduces the
        pre-config env-var semantics exactly and pins them against later
        environment changes.
        """
        env = os.environ if environ is None else environ
        return cls(
            engine=env.get("REPRO_SIM_ENGINE") or None,
            trace=env.get("REPRO_SIM_TRACE") or None,
            replacement=env.get("REPRO_SIM_REPLACEMENT") or None,
            runner_batch=_batch_flag(env.get("REPRO_RUNNER_BATCH")),
            memoize=True,
            memo_dir=env.get("REPRO_SIM_MEMO_DIR") or None,
            retry=RetryPolicy(
                max_attempts=int(env.get("REPRO_RETRY_ATTEMPTS", "1")),
                base_delay_s=float(env.get("REPRO_RETRY_BASE_DELAY_S", "0.05")),
                max_delay_s=float(env.get("REPRO_RETRY_MAX_DELAY_S", "2.0")),
                seed=int(env.get("REPRO_RETRY_SEED", "0")),
            ),
        )

    # -- resolution ---------------------------------------------------------
    def resolved_engine(self, override: Optional[str] = None) -> str:
        """The effective engine: ``override`` > field > environment > default."""
        return resolve_engine(override or self.engine)

    def resolved_trace(self, engine: str, override: Optional[str] = None) -> str:
        """The effective trace mode for ``engine`` (same precedence chain)."""
        return resolve_trace_mode(override or self.trace, engine)

    def resolved_replacement(self) -> Optional[str]:
        """The effective uniform replacement override, validated against the
        policy registry; ``None`` keeps the hierarchy's per-level defaults."""
        value = self.replacement or os.environ.get("REPRO_SIM_REPLACEMENT") or None
        if value is not None:
            from repro.sim.policies import get_policy

            get_policy(value)  # raises ValueError on unknown names
        return value

    def resolved_runner_batch(self) -> bool:
        """The effective batched-measurement toggle (field, else env)."""
        if self.runner_batch is not None:
            return self.runner_batch
        return _batch_flag(os.environ.get("REPRO_RUNNER_BATCH"))

    def resolved_memoize(self) -> bool:
        """The effective memoization toggle (default on; no env var)."""
        return True if self.memoize is None else self.memoize

    def resolved_retry(self) -> RetryPolicy:
        """The effective retry policy (field, else ``REPRO_RETRY_*``)."""
        return self.retry if self.retry is not None else RetryPolicy.from_env()

    def resolved_memo_dir(self) -> str:
        """The effective shared memo directory (field, else env, else default)."""
        if self.memo_dir is not None:
            return str(self.memo_dir)
        from repro.sim.memo import shared_disk_cache_dir

        return str(shared_disk_cache_dir())

    def validate(self) -> "RuntimeConfig":
        """Resolve and type-check every field; raises ``ValueError`` on nonsense."""
        engine = self.resolved_engine()
        self.resolved_trace(engine)
        self.resolved_replacement()
        self.resolved_retry()
        if self.timeout_s < 0:
            raise ValueError(f"timeout_s must be >= 0, got {self.timeout_s}")
        return self

    def describe(self) -> List[Tuple[str, str, str]]:
        """``(field, env var, resolved value)`` rows for ``serve --check``."""
        engine = self.resolved_engine()
        resolved = {
            "engine": engine,
            "trace": self.resolved_trace(engine),
            "replacement": self.resolved_replacement() or "per-level default",
            # The batch driver binds together with every other kernel.
            "native": "on" if arena_batching_available() else "off",
            "runner_batch": "on" if self.resolved_runner_batch() else "off",
            "memo_dir": self.resolved_memo_dir(),
            "retry": repr(self.resolved_retry()),
        }
        return [(name, env_var, resolved[name]) for name, env_var, _ in ENV_SURFACE]

    def with_overrides(self, **overrides) -> "RuntimeConfig":
        """A copy with ``overrides`` applied; unknown keys raise ``TypeError``."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(f"unknown RuntimeConfig fields: {sorted(unknown)}")
        return replace(self, **overrides)
