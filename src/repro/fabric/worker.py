"""Fabric worker: claim cells, execute them, publish results.

``repro work <fabric-dir>`` runs one or more of these per host; any
number of hosts may point at the same fabric directory.  A worker

1. claims a pending cell (atomic ``O_EXCL`` claim file),
2. heartbeats the claim from a daemon thread while executing, so a
   SIGKILL'd / OOM'd / power-cut worker simply stops heartbeating and
   its lease expires for another worker to reclaim,
3. executes the cell through the *same* :func:`execute_job` the
   in-process runner uses, against the fabric's co-located trace
   cache (one worker's generated trace is everyone's cache hit),
4. atomically publishes the raw records into the result store, then
   retires the cell from the queue.

An execution error releases the cell back to the queue (bounded
retries with backoff; quarantine after ``max_attempts``) — one poison
cell cannot take the fleet down.

Drain semantics: without ``follow``, a worker exits once no cell is
pending (everything stored or quarantined); with ``follow`` it keeps
polling — the mode ``repro serve`` pairs with, where cold queries
enqueue work continuously.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import socket
import threading
import time
import traceback
from typing import Dict, Optional

from repro.common import backend as _backend
from repro.evaluation.corpus import TraceCorpus
from repro.experiment.cache import make_corpus
from repro.experiment.runner import execute_job
from repro.experiment.spec import ExperimentSpec
from repro.common.atomicio import read_json
from repro.fabric.layout import FabricLayout, PathLike
from repro.fabric.queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    Lease,
    WorkQueue,
)
from repro.fabric.store import ResultStore

#: Chaos/test hook: seconds to sleep between claiming a cell and
#: executing it.  Lets crash-recovery tests (and manual fault drills)
#: SIGKILL a worker that is reliably *mid-cell*, with its lease held.
HOLD_ENV = "REPRO_FABRIC_HOLD_SECONDS"


def default_worker_id() -> str:
    """``host-pid``: unique per worker process across a shared mount."""
    return f"{socket.gethostname()}-{os.getpid()}"


class CorpusRegistry:
    """System-config → corpus map, shareable across worker threads.

    A thread pool of workers passes one registry to every
    :class:`FabricWorker` so all threads replay out of a single
    in-memory memoized corpus (the corpus itself generates each trace
    exactly once under its per-key locks); process pools let each
    worker default to a private registry.

    Corpora are keyed by the *system configuration*, not the full
    spec digest: a trace's content depends only on the system config
    (plus workload/size/seed, handled per-trace inside the corpus),
    so overlapping specs — the common serve-mode shape, where many
    enqueued queries vary only policies or bandwidth — share one
    in-memory corpus instead of reloading per spec.  Across worker
    *processes* the sharing continues one level down: each corpus
    serves ``.bin2`` store entries as ``mmap`` views, so every worker
    on a host references the same physical page-cache copy of the
    trace bytes.
    """

    def __init__(self, traces_dir: PathLike):
        self.traces_dir = traces_dir
        self._corpora: Dict[str, TraceCorpus] = {}
        self._lock = threading.Lock()

    def corpus(self, spec: ExperimentSpec) -> TraceCorpus:
        """The (persistent) corpus for ``spec``'s system config."""
        digest = json.dumps(
            dataclasses.asdict(spec.system_config), sort_keys=True
        )
        with self._lock:
            corpus = self._corpora.get(digest)
            if corpus is None:
                corpus = make_corpus(spec.system_config, self.traces_dir)
                self._corpora[digest] = corpus
            return corpus


class FabricWorker:
    """One claim-execute-store loop over a fabric directory."""

    def __init__(
        self,
        fabric_dir: PathLike,
        worker_id: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        max_cells: Optional[int] = None,
        follow: bool = False,
        poll_interval: float = 0.2,
        corpora: Optional[CorpusRegistry] = None,
    ):
        self.layout = FabricLayout(fabric_dir).ensure()
        self.queue = WorkQueue(
            fabric_dir, lease_ttl=lease_ttl, max_attempts=max_attempts
        )
        self.store = ResultStore(self.layout.store)
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = lease_ttl
        self.max_cells = max_cells
        self.follow = follow
        self.poll_interval = poll_interval
        self._specs: Dict[str, ExperimentSpec] = {}
        self._corpora = (
            corpora
            if corpora is not None
            else CorpusRegistry(self.layout.traces)
        )

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Work until drained (or ``max_cells``); cells executed."""
        executed = 0
        while self.max_cells is None or executed < self.max_cells:
            lease = self.queue.claim(self.worker_id)
            if lease is None:
                if self.follow or self.queue.has_work():
                    # Idle but not drained: other workers hold leases,
                    # cells are backing off, or (follow mode) new work
                    # may arrive.  An expired lease is reclaimed by
                    # the claim scan on a later pass.
                    time.sleep(self.poll_interval)
                    continue
                break
            executed += self._execute(lease)
        return executed

    # ------------------------------------------------------------------
    def _execute(self, lease: Lease) -> int:
        """Run one leased cell; returns 1 on success, 0 on release."""
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(lease, stop), daemon=True
        )
        beat.start()
        try:
            hold = float(os.environ.get(HOLD_ENV, "0") or "0")
            if hold > 0:
                time.sleep(hold)
            cell = lease.cell
            if self.store.has(cell.key):
                # Another fleet finished it between enqueue and claim.
                self.queue.complete(lease)
                return 1
            spec = self._spec(cell.spec_digest)
            job = spec.expand()[cell.index]
            if spec.cell_key(job) != cell.key:
                raise RuntimeError(
                    f"cell {cell.key} does not match job {cell.index} "
                    f"of spec {cell.spec_digest} (stale queue entry?)"
                )
            records, processed = execute_job(
                spec, job, self._corpus(spec)
            )
            self.store.put(
                cell.key,
                [record.to_dict() for record in records],
                processed,
                cell.to_dict(),
            )
            self.queue.complete(lease)
            return 1
        except Exception as exc:  # noqa: BLE001 - queue-level retry
            self.queue.release(
                lease,
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc()}",
            )
            return 0
        finally:
            stop.set()
            beat.join(timeout=1.0)

    def _heartbeat_loop(
        self, lease: Lease, stop: threading.Event
    ) -> None:
        interval = max(0.05, self.lease_ttl / 4.0)
        while not stop.wait(interval):
            try:
                self.queue.heartbeat(lease)
            except OSError:  # pragma: no cover - transient mount issue
                pass

    # ------------------------------------------------------------------
    def _spec(self, digest: str) -> ExperimentSpec:
        spec = self._specs.get(digest)
        if spec is None:
            data = read_json(self.layout.spec_path(digest))
            if data is None:
                raise RuntimeError(
                    f"spec {digest} is not registered in "
                    f"{self.layout.specs}"
                )
            spec = ExperimentSpec.from_dict(data)
            self._specs[digest] = spec
        return spec

    def _corpus(self, spec: ExperimentSpec) -> TraceCorpus:
        # One persistent corpus per system config: in-memory
        # memoization within this worker (shared across a thread pool
        # via the registry), the fabric's shared traces/ dir across
        # workers and hosts — mapped zero-copy, so same-host workers
        # share one physical copy of the trace bytes.
        return self._corpora.corpus(spec)


@dataclasses.dataclass(frozen=True)
class WorkerOptions:
    """Picklable knobs for a pool of worker processes."""

    lease_ttl: float = DEFAULT_LEASE_TTL
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    max_cells: Optional[int] = None
    follow: bool = False
    poll_interval: float = 0.2


def _worker_entry(
    fabric_dir: str, options: WorkerOptions, backend: str
) -> None:
    """Child-process entry point (module-level, hence picklable).

    ``backend`` is the launching process's backend: a spawned child
    would otherwise re-resolve it from its own environment.
    """
    _backend.set_backend(backend)
    FabricWorker(
        fabric_dir,
        lease_ttl=options.lease_ttl,
        max_attempts=options.max_attempts,
        max_cells=options.max_cells,
        follow=options.follow,
        poll_interval=options.poll_interval,
    ).run()


def run_worker_pool(
    fabric_dir: PathLike,
    n_workers: int,
    options: Optional[WorkerOptions] = None,
    threads: bool = False,
) -> None:
    """Run ``n_workers`` local workers; blocks until all exit.

    ``n_workers=1`` runs in-process (no fork cost, easier debugging);
    larger pools use one OS process per worker so cells execute with
    true parallelism, mirroring the in-process runner's pool.

    ``threads=True`` instead runs every worker as a thread of *this*
    process, all sharing one in-memory trace corpus through a
    :class:`CorpusRegistry` — no fork, no per-worker trace loads.
    Thread workers scale when the native kernels (which release the
    GIL around their compute phases) carry the replay; under the pure
    Python tier they serialize on the GIL and only overlap I/O.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    options = options or WorkerOptions()
    fabric_dir = os.fspath(fabric_dir)
    if threads and n_workers > 1:
        registry = CorpusRegistry(FabricLayout(fabric_dir).ensure().traces)
        base_id = default_worker_id()
        workers = [
            FabricWorker(
                fabric_dir,
                worker_id=f"{base_id}-t{index}",
                lease_ttl=options.lease_ttl,
                max_attempts=options.max_attempts,
                max_cells=options.max_cells,
                follow=options.follow,
                poll_interval=options.poll_interval,
                corpora=registry,
            )
            for index in range(n_workers)
        ]
        pool = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in workers
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        return
    backend = _backend.backend_name()
    if n_workers == 1:
        _worker_entry(fabric_dir, options, backend)
        return
    processes = [
        multiprocessing.Process(
            target=_worker_entry, args=(fabric_dir, options, backend)
        )
        for _ in range(n_workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
