"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5_warm --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --regenerate-oracle       # rewrite oracle/*.json

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` adds a traced phase and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output matched the oracle; a guard failure
(wrong backend, warm-store miss, native kernel decline, spans that
double-count) exits 3 without printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Host-probe CPU seconds before each set-up (see :mod:`perfbench.host`).
SETUP_PROBE_S = 0.5
#: Host-probe CPU seconds after each iteration, per CPU second it took.
PROBE_SHARE = 0.15
#: What a fresh process imports before its first sweep.
IMPORTS = "import repro.experiment, repro.fabric, repro.analysis"

EXIT_GUARD = 3
EXIT_MISSING_SOURCE = 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


def ensure_backend(declared: str) -> None:
    """Build the native extension if declared, then select ``declared``.

    A native workload always rebuilds the extension from the current
    ``_native.c``, so an extension left by another checkout is never
    timed.  The build runs before any timing and is not part of
    ``setup_s``.  A failed build, or selecting an unavailable backend,
    raises instead of falling back.
    """
    from repro.common import backend

    from perfbench.workloads import GuardError

    if declared == "native":
        built = subprocess.run(
            [sys.executable, "-m", "repro.kernels.build"],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if built.returncode != 0:
            raise GuardError(
                f"native extension build failed: {built.stderr.strip()}"
            )
    os.environ["REPRO_BACKEND"] = declared
    try:
        backend.set_backend(declared)
    except RuntimeError as exc:
        raise GuardError(str(exc)) from exc


def set_up(cls, seed: int, workdir: pathlib.Path):
    """``SETUP_REPEATS`` fresh set-ups; returns the last and the median.

    A set-up's duration is the CPU time it takes, the importing child
    included (see :func:`perfbench.workloads.cpu_seconds`), scaled by
    the host probe run before each set-up (see :mod:`perfbench.host`).
    """
    from perfbench import host, stats
    from perfbench.workloads import cpu_seconds

    durations = []
    probes = []
    workload = None
    for repeat in range(SETUP_REPEATS):
        if workload is not None:
            shutil.rmtree(workload.workdir)
        target = workdir / f"setup-{repeat}"
        target.mkdir(parents=True)
        probes += host.probe(SETUP_PROBE_S)
        start = cpu_seconds()
        subprocess.run(
            [sys.executable, "-c", IMPORTS], env=_child_env(), check=True
        )
        workload = cls(seed, target)
        workload.setup()
        durations.append(cpu_seconds() - start)
    return workload, stats.median(durations) * host.scale(probes)


def measure(workload, seconds: float, tracer) -> tuple:
    """Closed loop of iterations for ``seconds`` (and enough samples).

    Returns the outcomes and the host probe samples taken after each
    iteration, ``PROBE_SHARE`` of its CPU time.  Only the last outcome
    keeps its ``ResultSet``, so the benchmark's own bookkeeping does not
    grow with the number of iterations.
    """
    from perfbench import host

    outcomes = []
    probes = []
    start = time.perf_counter()
    while (
        not outcomes
        or time.perf_counter() - start < seconds
        or not workload.enough(outcomes)
    ):
        if outcomes:
            outcomes[-1].results = None
        outcomes.append(workload.iterate(len(outcomes), tracer))
        probes += host.probe(PROBE_SHARE * outcomes[-1].cpu_s)
    return outcomes, probes


def end_to_end(outcomes, probes, setup_s: float) -> Dict[str, tuple]:
    """Iteration CPU times scaled by the run's host probe."""
    from perfbench import host, stats

    scale = host.scale(probes)
    return {
        "sweep_norm_s": (
            stats.median([o.cpu_s for o in outcomes]) * scale, "s"
        ),
        "records_per_norm_s": (
            stats.median([o.records / o.cpu_s for o in outcomes]) / scale,
            "1/s",
        ),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def query_latencies(outcomes) -> Dict[str, tuple]:
    """p50 and p99 of every query, in ms (p99 only with 1,000+ samples)."""
    from perfbench import stats

    latencies = [x for o in outcomes for x in o.query_latencies_s]
    if not latencies:
        return {}
    p99 = stats.percentile(latencies, 99)
    return {
        "query_p50_ms": (stats.median(latencies) * 1e3, "ms"),
        "query_p99_ms": (p99 * 1e3 if p99 is not None else 0.0, "ms"),
    }


def model_metrics(results) -> Dict[str, float]:
    """Simulated quality figures; exact, so speed-only changes keep them."""
    from repro.workloads.registry import create_workload

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    records = results.records
    group = [r for r in records if r.label == "group"]
    return {
        "model.directory_indirection_err_pct": mean([
            abs(
                r["indirection_pct"]
                - create_workload(r.workload).paper.directory_indirection_pct
            )
            for r in records if r.label == "directory"
        ]),
        "model.group.indirection_pct": mean(
            [r["indirection_pct"] for r in group]
        ),
        "model.group.request_messages_per_miss": mean([
            r["request_messages_per_miss"] for r in group
            if "request_messages_per_miss" in r.metrics
        ]),
        "model.group.normalized_runtime": mean([
            r["normalized_runtime"] for r in group
            if "normalized_runtime" in r.metrics
        ]),
    }


def per_layer(workload, seconds: float) -> Dict[str, tuple]:
    """Untraced then traced iterations; the per-layer metrics."""
    from repro import kernels

    from perfbench import spans, stats
    from perfbench.workloads import NullTracer

    plain, _ = measure(workload, seconds / 2, NullTracer())
    tracer = spans.Tracer()
    tracer.instrument()
    declines = 0
    fabric_retries = fabric_failed = 0
    traced = []
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds / 2:
            traced.append(workload.iterate(len(plain) + len(traced), tracer))
            declines += sum(kernels.decline_counts().values())
            status = getattr(workload, "last_status", None)
            if status is not None:
                fabric_retries += len(status["retries"])
                fabric_failed += status["failed"]
        serial_s = (
            workload.serial_cells_s()
            if hasattr(workload, "serial_cells_s") else 0.0
        )
    finally:
        tracer.restore()
    breakdowns = spans.reconcile(tracer.spans)
    for index, breakdown in enumerate(breakdowns):
        print(
            f"{workload.name} traced iteration {index}: "
            f"{breakdown.wall_s:.4f}s wall"
        )
        print(spans.layer_table(breakdown))

    def busy(name):
        return stats.median(
            [b.busy_layers.get(name, 0.0) for b in breakdowns]
        )

    def total(field, name):
        return sum(getattr(b, field).get(name, 0) for b in breakdowns)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    protocol_layers = [
        f"protocols.{p}" for p in ("directory", "snooping", "multicast")
    ]
    assemble = [
        d for b in breakdowns for d in b.durations.get("fabric.assemble", [])
    ]
    workers_s = busy("fabric.workers")
    plain_latency = query_latencies(plain)
    traced_latency = query_latencies(traced)
    metrics = {
        "workloads.collect_s": (busy("workloads.collect"), "s"),
        "workloads.refs_per_s": (
            ratio(
                total("counts", "workloads.collect"),
                total("inclusive", "workloads.collect"),
            ),
            "1/s",
        ),
        "experiment.cache.store_s": (busy("experiment.cache.store"), "s"),
        "experiment.cache.load_s": (busy("experiment.cache.load"), "s"),
        "experiment.cache.hit_ratio": (
            ratio(
                total("counts", "experiment.cache.load"),
                sum(
                    len(b.durations.get("experiment.cache.load", []))
                    for b in breakdowns
                ),
            ),
            "ratio",
        ),
        "trace.derive_s": (busy("trace.derive"), "s"),
        "trace.box_s": (busy("trace.box"), "s"),
        "trace.split_warmup_s": (busy("trace.split_warmup"), "s"),
        "protocols.directory_s": (busy("protocols.directory"), "s"),
        "protocols.snooping_s": (busy("protocols.snooping"), "s"),
        "protocols.multicast_s": (busy("protocols.multicast"), "s"),
        "protocols.records_per_s": (
            ratio(
                sum(total("counts", name) for name in protocol_layers),
                sum(total("busy_layers", name) for name in protocol_layers),
            ),
            "1/s",
        ),
        "kernels.declines": (declines, "count"),
        "timing.run_s": (
            stats.median(
                [b.inclusive.get("timing.run", 0.0) for b in breakdowns]
            ),
            "s",
        ),
        "timing.self_s": (busy("timing.run"), "s"),
        "analysis.section2_s": (busy("analysis.section2"), "s"),
        "experiment.runner.normalize_s": (
            busy("experiment.runner.normalize"), "s"
        ),
        "experiment.results.to_json_s": (
            busy("experiment.results.to_json"), "s"
        ),
        "experiment.runner.unattributed_s": (
            busy(spans.UNATTRIBUTED), "s"
        ),
        "fabric.enqueue_s": (busy("fabric.enqueue"), "s"),
        "fabric.workers_s": (workers_s, "s"),
        "fabric.assemble_s": (
            stats.median(assemble) if assemble else 0.0, "s"
        ),
        "fabric.retries": (fabric_retries, "count"),
        "fabric.failed": (fabric_failed, "count"),
        "fabric.cells_serial_s": (serial_s, "s"),
        "fabric.parallel_efficiency": (
            ratio(serial_s, getattr(workload, "workers", 1) * workers_s),
            "ratio",
        ),
        "serve.client_s": (busy("serve.client"), "s"),
        "serve.query_p50_ms": (
            plain_latency.get("query_p50_ms", (0.0,))[0], "ms"
        ),
        "serve.query_p99_ms": (
            plain_latency.get("query_p99_ms", (0.0,))[0], "ms"
        ),
        "serve.http_overhead_ms": (
            traced_latency["query_p50_ms"][0] - stats.median(assemble) * 1e3
            if assemble and traced_latency else 0.0,
            "ms",
        ),
    }
    units = {
        "model.directory_indirection_err_pct": "%",
        "model.group.indirection_pct": "%",
        "model.group.request_messages_per_miss": "msg/miss",
        "model.group.normalized_runtime": "%",
    }
    for name, value in model_metrics(traced[-1].results).items():
        metrics[name] = (value, units[name])
    metrics["tracing.overhead_s"] = (
        stats.median([o.wall_s for o in traced])
        - stats.median([o.wall_s for o in plain]),
        "s",
    )
    return metrics, plain + traced


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, held_out: bool
) -> int:
    from perfbench import host, spans, stats, workloads

    cls = workloads.WORKLOADS[name]
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        ensure_backend(cls.backend)
        workload, setup_s = set_up(
            cls, workloads.trace_seed(seed, held_out), workdir
        )
        if trace:
            metrics, outcomes = per_layer(workload, seconds)
        else:
            outcomes, probes = measure(
                workload, seconds, workloads.NullTracer()
            )
            metrics = end_to_end(outcomes, probes, setup_s)
            print(
                f"{name} host probe median {stats.median(probes):.5f} s "
                f"over {len(probes)} chunks (reference "
                f"{host.REFERENCE_S} s), raw median iteration CPU "
                f"{stats.median([o.cpu_s for o in outcomes]):.4f} s"
            )
            for metric, value in query_latencies(outcomes).items():
                print(f"{name} {metric} {value[0]:.4f} {value[1]}")
    except (workloads.GuardError, spans.DoubleCount) as exc:
        print(f"{name}: guard failed: {exc}", file=sys.stderr)
        return EXIT_GUARD
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(
        f"{name} trace seed {workload.seed}, backend {cls.backend}, "
        f"{len(outcomes)} iterations, wall/CPU: "
        + " ".join(f"{o.wall_s:.3f}/{o.cpu_s:.3f}" for o in outcomes)
        + " s"
    )
    print(
        f"{name} failed_ratio {stats.failed_ratio(failed, attempted):.6f} "
        f"({failed} of {attempted} cells and queries)"
    )
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from perfbench import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        completed = subprocess.run([
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--held-out"] if args.held_out else []))
        worst = max(worst, completed.returncode)
    return worst


def regenerate_oracle() -> int:
    from perfbench import oracle, workloads

    ensure_backend(oracle.ORACLE_BACKEND)
    workdir = WORK_ROOT / f"oracle-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        for name in workloads.WORKLOADS:
            entries = {
                seed: workloads.expected_outputs(name, seed, workdir)
                for seed in workloads.TRACE_SEEDS
            }
            oracle.write(name, entries)
            print(f"wrote {oracle.path(name)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=BENCHMARK["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="run the held-out trace seed instead of the one --seed picks",
    )
    parser.add_argument("--regenerate-oracle", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {SRC}", file=sys.stderr)
        return EXIT_MISSING_SOURCE
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.regenerate_oracle:
        return regenerate_oracle()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.held_out,
    )


if __name__ == "__main__":
    sys.exit(main())
