"""The repo benchmark: one command per workload, seed and mode.

    python3 perfbench/run.py --workload sim-table2 --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The command generates the workload's
inputs from ``--seed``, runs timed passes until ``--seconds`` of measured
time have passed, checks the outputs, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
the share of the traced wall time its spans cover and the tracing overhead.
The line before it is the host fingerprint.  Full results (and the spans of
a traced run) are written under ``.bench_run/`` in the checkout.

The exit code is non-zero, with no result line, when the checkout has no
``src/repro`` to measure or a ``REPRO_*`` variable is set (each of those
swaps the measured path: fault injection, engine and trace toggles, runner
batching, retry and service knobs); it is also non-zero when an output
check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch for stores, temporary files and results (ignored by git).
WORK = os.path.join(ROOT, ".bench_run")
#: The native kernel's on-disk compile cache, kept inside the checkout.
BUILD = os.path.join(ROOT, ".bench_build", "cache")
WORKLOAD_NAMES = ("sim-table2", "paper-pipeline", "service-mix")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment() -> dict:
    env = dict(os.environ)
    env["XDG_CACHE_HOME"] = BUILD
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["PYTHONPATH"] = SRC
    return env


def _warm_build(env: dict) -> None:
    """Compile the native kernel (and byte-code) before anything is timed.

    Every run then finds the compile cache in the same state, so ``setup_s``
    never swings between a first compile and later cache hits.
    """
    code = (
        "import repro.pipeline, repro.service, repro.autotune\n"
        "from repro.sim import arena_batching_available\n"
        "arena_batching_available()\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=600)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    swapped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if swapped:
        _fail(f"unset {', '.join(swapped)}: it swaps the measured path")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no repro package under {SRC}")
    env = _environment()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    _warm_build(env)
    os.environ.update(XDG_CACHE_HOME=env["XDG_CACHE_HOME"], TMPDIR=env["TMPDIR"])

    # Process set-up: imports and loading the (already compiled) kernel.
    start = time.perf_counter()
    sys.path[:0] = [SRC, ROOT]
    import numpy
    import repro
    from repro.sim import arena_batching_available

    from perfbench import metrics, tracing, workloads

    native = arena_batching_available()
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Sizes(), WORK)
    process_setup_s = time.perf_counter() - start

    for _ in range(workload.warmup_passes):
        workload.run_pass(None)
    # Passes until the measured time is spent, and at least two: the repeat
    # check compares them.  A traced run alternates untraced and traced
    # passes, so its overhead compares passes that saw the same host
    # conditions.
    untraced, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    measured = 0.0
    while len(untraced) + len(traced) < 2 or measured < args.seconds:
        if tracer is not None and len(traced) < len(untraced):
            tracing.install_layer_wrappers(tracer)
            try:
                result = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
        else:
            result = workload.run_pass(None)
            untraced.append(result)
        measured += result.wall_s

    passes = untraced + traced
    errors = workloads.check_repeats(passes) + workload.check(passes)
    if tracer is not None:
        missing = set(metrics.REQUIRED_SPANS[args.workload]) - tracer.fired()
        errors += [f"span {name} never fired" for name in sorted(missing)]
        values = metrics.per_layer(tracer, traced, untraced)
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(untraced, process_setup_s)
        units = metrics.END_TO_END

    fingerprint = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_kernel": native,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops": sum(len(result.latencies) for result in passes),
    }
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.dump(stem + ".spans.json")
    summary = {
        "correct": not errors,
        "attempted": sum(result.attempted for result in passes),
        "failed": sum(result.failed for result in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": fingerprint, "errors": errors, **summary}, handle, indent=1)
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(summary))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
