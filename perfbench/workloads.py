"""The benchmark's three workloads: set-up, one timed iteration, checks.

Every workload is a closed loop driven from one process: an iteration
starts only after the previous one has finished.  All of them use the
paper's Table 4 system configuration (``SystemConfig()``) and a
warm-up fraction of 0.25.  The benchmark seed picks the trace seed
(:func:`trace_seed`); the simulator only ever sees the generated
traces.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import http.client
import json
import os
import pathlib
import resource
import shutil
import sys
import threading
import time
from typing import Dict, List

from perfbench import oracle

#: Trace seeds the oracle covers.  ``--seed n`` runs
#: ``TUNING_SEEDS[n % 7]``; 42 (``--seed 0``) is the repository's default
#: seed.  49 is held out for checking performance claims: only
#: ``--held-out`` runs it, so no ordinary set of seeds includes it.
TRACE_SEEDS = (42, 43, 44, 45, 46, 47, 48, 49)
TUNING_SEEDS = TRACE_SEEDS[:-1]
DEFAULT_SEED = 42
HELD_OUT_SEED = 49

WARMUP_FRACTION = 0.25
#: Offset of the second trace seed of ``fabric_serve``'s two-seed spec.
SECOND_SEED_OFFSET = 1000
#: ``GET /result`` requests per ``fabric_serve`` iteration.
QUERIES_PER_ITERATION = 125
#: Queries a run issues at least, so that p99 has ten samples beyond it.
MIN_QUERIES = 1000


def trace_seed(seed: int, held_out: bool = False) -> int:
    """The trace seed a run with benchmark seed ``seed`` uses."""
    if held_out:
        return HELD_OUT_SEED
    return TUNING_SEEDS[seed % len(TUNING_SEEDS)]


class NullTracer:
    """Stands in for :class:`perfbench.spans.Tracer` when not tracing."""

    @contextlib.contextmanager
    def span(self, name):
        yield None

    @contextlib.contextmanager
    def iteration_span(self, iteration):
        yield None


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for children.

    The end-to-end times are CPU times: on a shared host, wall time also
    counts the time the scheduler gives to other processes and, through
    the steal clock, to other guests, which this leaves out.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class GuardError(RuntimeError):
    """The run would measure a different program than it declares."""


@dataclasses.dataclass
class Outcome:
    """One timed iteration, checked after the clock stopped."""

    wall_s: float
    cpu_s: float  # see :func:`cpu_seconds`
    records: int  # trace records replayed
    attempted: int
    failed: int
    query_latencies_s: List[float] = dataclasses.field(default_factory=list)
    results: object = None  # the iteration's ResultSet


def _store_snapshot(root: pathlib.Path) -> Dict[str, tuple]:
    snapshot = {}
    for path in sorted(root.iterdir()):
        stat = path.stat()
        snapshot[path.name] = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
    return snapshot


def _check_backend(declared: str, results) -> None:
    from repro.common import backend

    if backend.backend_name() != declared or results.perf.backend != declared:
        raise GuardError(
            f"backend mismatch: declared {declared}, ran "
            f"{results.perf.backend or backend.backend_name()}"
        )


def _check_no_declines() -> None:
    from repro import kernels

    declines = kernels.decline_counts()
    if declines:
        raise GuardError(f"native kernel declined: {declines}")


def _warm_store(spec, store: pathlib.Path) -> None:
    from repro.experiment import make_corpus

    corpus = make_corpus(spec.system_config, store)
    for workload in spec.workloads:
        for seed in spec.seeds:
            corpus.trace(workload, spec.n_references, seed)


def analysis_digest(trace) -> str:
    """Digest of the Section-2 analyses of one trace (Figures 2-4, Table 2)."""
    from repro.analysis import degree_of_sharing, locality_cdf, sharing_histogram
    from repro.trace.stats import compute_trace_stats

    outputs = [
        sharing_histogram(trace, WARMUP_FRACTION),
        degree_of_sharing(trace),
        *(
            locality_cdf(trace, kind, warmup_fraction=WARMUP_FRACTION)
            for kind in ("block", "macroblock", "pc")
        ),
        compute_trace_stats(trace),
    ]
    text = json.dumps(
        [dataclasses.asdict(output) for output in outputs], sort_keys=True
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class Workload:
    """Base: ``setup`` once per run, ``iterate`` once per timed loop."""

    name = ""
    backend = ""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed  # a trace seed, see :func:`trace_seed`
        self.workdir = workdir
        self.spec = self.make_spec(self.seed)
        self.expected = oracle.load(self.name, self.seed)

    @staticmethod
    def make_spec(seed: int):
        raise NotImplementedError

    def setup(self) -> None:
        """Build the inputs every iteration reuses."""

    def iterate(self, index: int, tracer) -> Outcome:
        raise NotImplementedError

    def enough(self, outcomes: List[Outcome]) -> bool:
        """Whether the run has the samples its metrics need."""
        return True

    def _count_failures(self, results) -> int:
        mismatched = oracle.mismatched_cells(
            self.expected["records"],
            [record.to_dict() for record in results.records],
        )
        return len(results.failures) + mismatched


class WarmStoreWorkload(Workload):
    """A workload whose iterations load every trace from a warm store."""

    def setup(self) -> None:
        self.store = self.workdir / "traces"
        _warm_store(self.spec, self.store)
        self.snapshot = _store_snapshot(self.store)

    def _check_store(self, misses: int = 0) -> None:
        """A lookup miss, or any store file (re)written, fails the run."""
        if misses or _store_snapshot(self.store) != self.snapshot:
            raise GuardError(f"warm trace store missed ({misses} misses)")


class Fig5Warm(WarmStoreWorkload):
    """Figure 5 tradeoff sweep replayed from a warm on-disk trace store."""

    name = "fig5_warm"
    backend = "native"

    @staticmethod
    def make_spec(seed: int):
        from repro.experiment import ExperimentSpec
        from repro.workloads.registry import WORKLOAD_NAMES

        return ExperimentSpec(
            workloads=WORKLOAD_NAMES, kind="tradeoff",
            n_references=60_000, seeds=(seed,),
            warmup_fraction=WARMUP_FRACTION,
        )

    def iterate(self, index: int, tracer) -> Outcome:
        from repro import kernels
        from repro.experiment import Runner

        out = self.workdir / f"results-{index}.json"
        kernels.reset_decline_counts()
        with tracer.iteration_span(index):
            start = time.perf_counter()
            cpu_start = cpu_seconds()
            results = Runner(jobs=1, cache_dir=self.store).run(self.spec)
            results.to_json(out)
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
        out.unlink()
        _check_backend(self.backend, results)
        _check_no_declines()
        self._check_store(results.cache_stats.misses)
        return Outcome(
            wall, cpu, results.perf.records_processed, self.spec.n_jobs,
            self._count_failures(results), results=results,
        )


class Fig8Cold(Workload):
    """Figure 8 runtime sweep plus Section-2 analyses from an empty cache."""

    name = "fig8_cold"
    backend = "numpy"

    @staticmethod
    def make_spec(seed: int):
        from repro.experiment import ExperimentSpec
        from repro.workloads.registry import WORKLOAD_NAMES

        return ExperimentSpec(
            workloads=WORKLOAD_NAMES, kind="runtime",
            n_references=15_000, seeds=(seed,),
            processor_model="detailed", link_bandwidths=(10.0, 1.0),
            warmup_fraction=WARMUP_FRACTION,
        )

    def iterate(self, index: int, tracer) -> Outcome:
        from repro.experiment import Runner, TraceCache
        from repro.experiment.cache import derived_config

        spec = self.spec
        cache_dir = self.workdir / f"cold-{index}"
        out = self.workdir / f"results-{index}.json"
        digests = {}
        with tracer.iteration_span(index):
            start = time.perf_counter()
            cpu_start = cpu_seconds()
            results = Runner(jobs=1, cache_dir=cache_dir).run(spec)
            results.to_json(out)
            # Fresh loads from the store: no analysis memo survives.
            cache = TraceCache(
                cache_dir, derived=derived_config(spec.system_config)
            )
            for workload in spec.workloads:
                with tracer.span("analysis.section2"):
                    loaded = cache.load(
                        cache.key(
                            workload, spec.n_references, self.seed,
                            spec.system_config,
                        )
                    )
                    digests[workload] = (
                        analysis_digest(loaded.trace) if loaded else None
                    )
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
        shutil.rmtree(cache_dir)
        out.unlink()
        _check_backend(self.backend, results)
        if results.cache_stats.hits or cache.stats.misses:
            raise GuardError(
                f"cold sweep found a warm cache ({results.cache_stats}) "
                f"or lost a stored trace ({cache.stats})"
            )
        failed = self._count_failures(results) + sum(
            digests[workload] != self.expected["analyses"][workload]
            for workload in spec.workloads
        )
        return Outcome(
            wall, cpu, results.perf.records_processed,
            spec.n_jobs + len(spec.workloads), failed, results=results,
        )


class FabricServe(WarmStoreWorkload):
    """Fabric sweep (thread workers) then closed-loop ``GET /result``."""

    name = "fabric_serve"
    backend = "native"
    workers = 2

    @staticmethod
    def make_spec(seed: int):
        from repro.experiment import ExperimentSpec
        from repro.workloads.registry import WORKLOAD_NAMES

        return ExperimentSpec(
            workloads=WORKLOAD_NAMES, kind="tradeoff",
            n_references=60_000,
            seeds=(seed, seed + SECOND_SEED_OFFSET),
            include_baselines=False, warmup_fraction=WARMUP_FRACTION,
        )

    def enough(self, outcomes: List[Outcome]) -> bool:
        return sum(len(o.query_latencies_s) for o in outcomes) >= MIN_QUERIES

    def iterate(self, index: int, tracer) -> Outcome:
        from repro import kernels
        from repro.experiment import ResultSet
        from repro.fabric import FabricCoordinator, make_server, run_worker_pool

        fabric_dir = self.workdir / f"fabric-{index}"
        fabric_dir.mkdir()
        # A fresh result store and queue, over the warm trace store.
        os.symlink(self.store.resolve(), fabric_dir / "traces")
        server = make_server(fabric_dir, "127.0.0.1", 0)
        serving = threading.Thread(target=server.serve_forever)
        serving.start()
        port = server.server_address[1]
        path = f"/result/{self.spec.digest()}"
        latencies: List[float] = []
        statuses: List[int] = []
        bodies: List[bytes] = []
        kernels.reset_decline_counts()
        try:
            with tracer.iteration_span(index):
                start = time.perf_counter()
                cpu_start = cpu_seconds()
                coordinator = FabricCoordinator(fabric_dir)
                coordinator.enqueue_missing(self.spec)
                with tracer.span("fabric.workers"):
                    run_worker_pool(fabric_dir, self.workers, threads=True)
                results = coordinator.try_assemble(
                    self.spec, elapsed=time.perf_counter() - start
                )
                with tracer.span("serve.client"):
                    for _ in range(QUERIES_PER_ITERATION):
                        sent = time.perf_counter()
                        connection = http.client.HTTPConnection(
                            "127.0.0.1", port
                        )
                        connection.request("GET", path)
                        response = connection.getresponse()
                        body = response.read()
                        connection.close()
                        latencies.append(time.perf_counter() - sent)
                        statuses.append(response.status)
                        bodies.append(body)
                wall = time.perf_counter() - start
                cpu = cpu_seconds() - cpu_start
        finally:
            server.shutdown()
            server.server_close()
            serving.join()
        status = coordinator.status()
        _check_backend(self.backend, results)
        _check_no_declines()
        self._check_store()
        failed = self._count_failures(results)
        failed += status["failed"] + len(status["retries"])
        served = (
            ResultSet.from_json(bodies[0].decode("ascii"))
            if statuses[0] == 200 else None
        )
        if served is None or self._count_failures(served):
            failed += 1
        failed += sum(
            code != 200 or body != bodies[0]
            for code, body in zip(statuses[1:], bodies[1:])
        )
        shutil.rmtree(fabric_dir)
        if status["retries"] or status["failed"]:
            print(
                f"{self.name} iteration {index}: fabric retries "
                f"{status['retries']}, {status['failed']} quarantined",
                file=sys.stderr,
            )
        self.last_status = status
        return Outcome(
            wall, cpu, results.perf.records_processed,
            self.spec.n_jobs + len(latencies), failed, latencies, results,
        )

    def serial_cells_s(self) -> float:
        """The same cells through ``execute_job``, one after another."""
        from repro.experiment import execute_job, make_corpus

        corpus = make_corpus(self.spec.system_config, self.store)
        start = time.perf_counter()
        for job in self.spec.expand():
            execute_job(self.spec, job, corpus)
        return time.perf_counter() - start


WORKLOADS = {w.name: w for w in (Fig5Warm, Fig8Cold, FabricServe)}


def expected_outputs(name: str, seed: int, workdir: pathlib.Path) -> dict:
    """Compute one workload's oracle entry under the active backend."""
    from repro.experiment import Runner, TraceCache
    from repro.experiment.cache import derived_config

    spec = WORKLOADS[name].make_spec(seed)
    cache_dir = workdir / f"{name}-{seed}"
    results = Runner(jobs=1, cache_dir=cache_dir).run(spec)
    if results.failures:
        raise RuntimeError(f"{name}: {results.failures[0]}")
    entry = {"records": [record.to_dict() for record in results.records]}
    if name == Fig8Cold.name:
        cache = TraceCache(cache_dir, derived=derived_config(spec.system_config))
        entry["analyses"] = {
            workload: analysis_digest(
                cache.load(
                    cache.key(workload, spec.n_references, seed,
                              spec.system_config)
                ).trace
            )
            for workload in spec.workloads
        }
    shutil.rmtree(cache_dir)
    return entry
