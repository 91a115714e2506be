"""Unit tests for the distributed sweep fabric."""

import json
import os
import sys
import threading
import time

import pytest

from repro.common.atomicio import (
    publish_json_exclusive,
    read_json,
    tmp_sibling,
    write_json_atomic,
)
from repro.experiment import ExperimentSpec, TraceCache
from repro.fabric import (
    Cell,
    FabricCoordinator,
    FabricLayout,
    FabricWorker,
    ResultStore,
    WorkQueue,
)

#: A tiny spec shared by queue/coordinator tests (nothing executes
#: unless a worker runs, so size only matters for worker tests).
SPEC = ExperimentSpec(
    workloads=("barnes-hut",),
    kind="tradeoff",
    n_references=1500,
    policies=("owner",),
)


def make_cell(key="cell-a", index=0, **overrides):
    fields = dict(
        key=key,
        spec_digest="0" * 16,
        index=index,
        workload="barnes-hut",
        seed=42,
        label="owner",
    )
    fields.update(overrides)
    return Cell(**fields)


class TestAtomicIO:
    def test_write_json_atomic_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_json_atomic(path, {"value": 1})
        assert read_json(path) == {"value": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_publish_json_exclusive_first_writer_wins(self, tmp_path):
        path = tmp_path / "claim.json"
        assert publish_json_exclusive(path, {"worker": "a"})
        assert not publish_json_exclusive(path, {"worker": "b"})
        assert read_json(path) == {"worker": "a"}
        assert list(tmp_path.iterdir()) == [path]

    def test_tmp_siblings_are_unique(self, tmp_path):
        path = tmp_path / "artifact.json"
        assert tmp_sibling(path) != tmp_sibling(path)
        assert tmp_sibling(path).parent == tmp_path

    def test_read_json_torn_file_is_none(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"value": 1')  # truncated
        assert read_json(path) is None
        assert read_json(tmp_path / "absent.json") is None


class TestCellKey:
    def test_stable_across_equal_specs(self):
        a, b = SPEC, ExperimentSpec(**{
            f: getattr(SPEC, f)
            for f in ("workloads", "kind", "n_references", "policies")
        })
        for job_a, job_b in zip(a.expand(), b.expand()):
            assert a.cell_key(job_a) == b.cell_key(job_b)

    def test_differs_per_cell_coordinate(self):
        jobs = SPEC.expand()
        keys = {SPEC.cell_key(job) for job in jobs}
        assert len(keys) == len(jobs)

    def test_independent_of_sibling_workloads(self):
        wider = ExperimentSpec(
            workloads=("barnes-hut", "ocean"),
            kind="tradeoff",
            n_references=1500,
            policies=("owner",),
        )
        narrow_keys = {
            (j.workload, j.seed, j.label): SPEC.cell_key(j)
            for j in SPEC.expand()
        }
        wide_keys = {
            (j.workload, j.seed, j.label): wider.cell_key(j)
            for j in wider.expand()
        }
        for coord, key in narrow_keys.items():
            assert wide_keys[coord] == key

    def test_sensitive_to_result_shaping_fields(self):
        job = SPEC.expand()[0]
        assert SPEC.cell_key(job) != ExperimentSpec(
            workloads=("barnes-hut",),
            kind="tradeoff",
            n_references=3000,
            policies=("owner",),
        ).cell_key(job)

    def test_bandwidth_point_enters_key(self):
        spec = ExperimentSpec(
            workloads=("barnes-hut",),
            kind="runtime",
            n_references=1500,
            policies=("owner",),
            link_bandwidths=(10.0, 2.5),
        )
        by_bandwidth = {}
        for job in spec.expand():
            if job.label == "owner":
                by_bandwidth[job.bandwidth] = spec.cell_key(job)
        assert by_bandwidth[10.0] != by_bandwidth[2.5]


class TestWorkQueue:
    def test_enqueue_claim_complete_lifecycle(self, tmp_path):
        queue = WorkQueue(tmp_path)
        cell = make_cell()
        assert queue.enqueue(cell)
        assert not queue.enqueue(cell)  # idempotent
        assert queue.has_work()

        lease = queue.claim("w1")
        assert lease is not None and lease.cell == cell
        assert queue.claim("w2") is None  # leased elsewhere

        queue.complete(lease)
        assert not queue.has_work()
        assert queue.claim("w1") is None
        assert queue.status()["done"] == 1

    def test_claim_scans_in_key_order(self, tmp_path):
        queue = WorkQueue(tmp_path)
        for key in ("b-cell", "a-cell", "c-cell"):
            queue.enqueue(make_cell(key=key))
        assert queue.claim("w").cell.key == "a-cell"
        assert queue.claim("w").cell.key == "b-cell"

    def test_release_backs_off_then_retries(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(make_cell())
        lease = queue.claim("w1")
        queue.release(lease, "boom")
        # Inside the backoff window the cell is not claimable...
        assert queue.claim("w1") is None
        assert queue.has_work()
        status = queue.status()
        assert status["retries"][0]["attempts"] == 1
        # ...and becomes claimable once it elapses.
        deadline = time.time() + 5.0
        lease = None
        while lease is None and time.time() < deadline:
            lease = queue.claim("w1")
            if lease is None:
                time.sleep(0.05)
        assert lease is not None

    def test_quarantine_after_max_attempts(self, tmp_path):
        queue = WorkQueue(tmp_path, max_attempts=2)
        queue.enqueue(make_cell())
        lease = queue.claim("w1")
        queue.release(lease, "first failure")
        time.sleep(0.6)  # first backoff window
        lease = queue.claim("w1")
        assert lease is not None
        queue.release(lease, "second failure")
        # Two attempts = max: quarantined, never claimable again.
        assert not queue.has_work()
        assert queue.claim("w1") is None
        failed = queue.failed_cells()
        assert len(failed) == 1
        assert failed[0]["attempts"] == 2
        assert "second failure" in failed[0]["errors"][-1]
        # Quarantine blocks re-enqueueing until cleared.
        assert not queue.enqueue(make_cell())
        assert queue.clear_failed() == 1
        assert queue.enqueue(make_cell())

    def test_expired_lease_is_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.2)
        queue.enqueue(make_cell())
        lease = queue.claim("dead-worker")
        assert queue.claim("other") is None  # live lease blocks
        time.sleep(0.3)
        # First scan steals the expired claim (attempt bump), a
        # following scan (after the backoff) re-leases the cell.
        deadline = time.time() + 5.0
        reclaimed = None
        while reclaimed is None and time.time() < deadline:
            reclaimed = queue.claim("other")
            if reclaimed is None:
                time.sleep(0.05)
        assert reclaimed is not None
        assert reclaimed.cell == lease.cell
        assert reclaimed.worker_id == "other"

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=0.4)
        queue.enqueue(make_cell())
        lease = queue.claim("w1")
        for _ in range(4):
            time.sleep(0.15)
            queue.heartbeat(lease)
        # Well past the TTL in wall time, but heartbeats kept it live.
        assert queue.claim("w2") is None

    def test_torn_claim_counts_as_expired(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=30.0)
        queue.enqueue(make_cell())
        queue.claim("w1")
        claim_path = queue.layout.claim_path("cell-a")
        claim_path.write_text("{torn")
        lease = queue.claim("w2")  # reclaim happens despite long TTL
        if lease is None:  # backoff from the reclaim attempt-bump
            time.sleep(0.6)
            lease = queue.claim("w2")
        assert lease is not None

    def test_concurrent_claims_never_steal_live_leases(self, tmp_path):
        """Two threads draining no-op cells record no reclaim at all.

        A claim file must carry its lease from the moment it appears;
        a claimer that could observe it empty would take it for torn
        and steal a live lease, leaving a spurious retry behind.
        """
        n_cells = 2000
        steals = []

        class CountingQueue(WorkQueue):
            def _reclaim_if_expired(self, key, now):
                stolen = super()._reclaim_if_expired(key, now)
                if stolen:
                    steals.append(key)
                return stolen

        queue = CountingQueue(tmp_path)
        for index in range(n_cells):
            queue.enqueue(make_cell(key=f"cell-{index:05d}", index=index))
        completed = []

        def drain(worker_id):
            while True:
                lease = queue.claim(worker_id)
                if lease is None:
                    if not queue.has_work():
                        return
                    continue
                queue.complete(lease)
                completed.append(lease.cell.key)

        workers = [
            threading.Thread(target=drain, args=(f"w{i}",))
            for i in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the claimers finely
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert steals == []
        assert list(queue.layout.retries.glob("*.json")) == []
        assert sorted(completed) == sorted(
            f"cell-{index:05d}" for index in range(n_cells)
        )
        assert queue.status()["done"] == n_cells

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(tmp_path, lease_ttl=0.0)
        with pytest.raises(ValueError):
            WorkQueue(tmp_path, max_attempts=0)


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        records = [{"workload": "w", "metrics": {"m": 1.5}}]
        store.put("k1", records, 123, {"key": "k1"})
        artifact = store.get("k1")
        assert artifact["records"] == records
        assert artifact["processed"] == 123
        assert store.has("k1")
        assert store.keys() == ["k1"]
        assert len(store) == 1

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get("nope") is None

    def test_torn_artifact_heals_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", [], 0)
        store.path("k1").write_text('{"format": 1, "records": [')
        assert store.get("k1") is None
        assert not store.path("k1").exists()  # healed (unlinked)

    def test_wrong_key_artifact_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", [], 0)
        os.rename(store.path("k1"), store.path("k2"))
        assert store.get("k2") is None

    def test_format_bump_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", [], 0)
        data = json.loads(store.path("k1").read_text())
        data["format"] = 999
        store.path("k1").write_text(json.dumps(data))
        assert not store.has("k1")


class TestTraceCacheHealing:
    """Concurrent-writer/torn-artifact audit of the trace cache."""

    def _store_one(self, tmp_path):
        from repro.experiment import make_corpus

        corpus = make_corpus(cache_dir=tmp_path)
        corpus.trace("barnes-hut", 1000, 42)
        key = TraceCache.key(
            "barnes-hut", 1000, 42, corpus.config
        )
        return corpus, key

    def test_torn_binary_sidecar_heals_from_text(self, tmp_path):
        _, key = self._store_one(tmp_path)
        binary = tmp_path / f"{key}.bin"
        original = binary.read_bytes()
        binary.write_bytes(original[: len(original) // 2])
        # Tear the v2 sidecar too, or the load never reaches .bin.
        (tmp_path / f"{key}.bin2").write_bytes(b"#repro-trace-bin v2\n")

        cache = TraceCache(tmp_path)
        result = cache.load(key)
        assert result is not None  # text fallback
        assert cache.stats.hits == 1
        assert binary.read_bytes() == original  # healed

    def test_torn_v2_sidecar_heals_from_binary(self, tmp_path):
        _, key = self._store_one(tmp_path)
        v2 = tmp_path / f"{key}.bin2"
        original = v2.read_bytes()
        v2.write_bytes(original[: len(original) // 2])

        from repro.experiment.cache import derived_config
        from repro.common.params import SystemConfig

        cache = TraceCache(
            tmp_path, derived=derived_config(SystemConfig())
        )
        result = cache.load(key)
        assert result is not None  # .bin fallback
        assert cache.stats.hits == 1
        assert v2.read_bytes() == original  # healed byte-identically

    def test_torn_meta_is_a_miss(self, tmp_path):
        _, key = self._store_one(tmp_path)
        (tmp_path / f"{key}.json").write_text('{"instructions"')
        cache = TraceCache(tmp_path)
        assert cache.load(key) is None
        assert cache.stats.misses == 1

    def test_concurrent_store_same_key_benign(self, tmp_path):
        # Two corpora racing to store the same key: both succeed, the
        # entry stays loadable, and no tmp files are left behind.
        corpus, key = self._store_one(tmp_path)
        other, _ = self._store_one(tmp_path)
        assert TraceCache(tmp_path).load(key) is not None
        leftovers = [
            p for p in tmp_path.iterdir() if ".tmp" in p.name
        ]
        assert leftovers == []


class TestCoordinator:
    def test_enqueue_missing_counts(self, tmp_path):
        coordinator = FabricCoordinator(tmp_path)
        counts = coordinator.enqueue_missing(SPEC)
        assert counts == {
            "stored": 0, "enqueued": SPEC.n_jobs, "queued": 0
        }
        # Idempotent: second call finds everything already queued.
        counts = coordinator.enqueue_missing(SPEC)
        assert counts == {
            "stored": 0, "enqueued": 0, "queued": SPEC.n_jobs
        }

    def test_spec_registry_round_trip(self, tmp_path):
        coordinator = FabricCoordinator(tmp_path)
        digest = coordinator.register(SPEC)
        assert coordinator.load_spec(digest) == SPEC
        assert coordinator.registered_specs() == [digest]
        assert coordinator.load_spec("f" * 16) is None

    def test_try_assemble_incomplete_is_none(self, tmp_path):
        coordinator = FabricCoordinator(tmp_path)
        coordinator.enqueue_missing(SPEC)
        assert coordinator.try_assemble(SPEC) is None

    def test_run_timeout_without_workers(self, tmp_path):
        coordinator = FabricCoordinator(tmp_path)
        with pytest.raises(TimeoutError):
            coordinator.run(
                SPEC, workers=0, timeout=0.2, poll_interval=0.05
            )

    def test_worker_drains_and_assembly_matches_serial(self, tmp_path):
        from repro.experiment import Runner

        coordinator = FabricCoordinator(tmp_path)
        coordinator.enqueue_missing(SPEC)
        executed = FabricWorker(tmp_path).run()
        assert executed == SPEC.n_jobs
        results = coordinator.try_assemble(SPEC)
        serial = Runner(jobs=1).run(SPEC)
        assert results == serial
        assert results.to_json() == serial.to_json()

    def test_resume_skips_stored_cells(self, tmp_path):
        coordinator = FabricCoordinator(tmp_path)
        coordinator.enqueue_missing(SPEC)
        FabricWorker(tmp_path, max_cells=1).run()
        counts = coordinator.enqueue_missing(SPEC)
        assert counts["stored"] == 1
        assert counts["queued"] == SPEC.n_jobs - 1
        # Drain the rest with a fresh worker; nothing recomputes.
        executed = FabricWorker(tmp_path).run()
        assert executed == SPEC.n_jobs - 1
        assert coordinator.try_assemble(SPEC) is not None

    def test_quarantined_cell_reported_as_failure(self, tmp_path):
        coordinator = FabricCoordinator(tmp_path, max_attempts=1)
        digest = coordinator.register(SPEC)
        coordinator.enqueue_missing(SPEC)
        # Poison one queue entry: point it at a job index whose cell
        # key can't match, so execution always errors.
        job = SPEC.expand()[0]
        key = SPEC.cell_key(job)
        bad = Cell(
            key=key, spec_digest=digest, index=1,
            workload=job.workload, seed=job.seed, label=job.label,
        )
        from repro.common.atomicio import write_json_atomic

        write_json_atomic(
            coordinator.layout.pending_path(key), bad.to_dict()
        )
        FabricWorker(tmp_path, max_attempts=1).run()
        results = coordinator.try_assemble(SPEC)
        assert results is not None
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.label == job.label
        assert "RuntimeError" in failure.error
        # The other cells' records are all present.
        assert len(results.records) == SPEC.n_jobs - 1


class TestLayout:
    def test_ensure_creates_everything(self, tmp_path):
        layout = FabricLayout(tmp_path / "fab").ensure()
        for directory in (
            layout.specs, layout.pending, layout.claims,
            layout.retries, layout.failed, layout.done,
            layout.store, layout.traces,
        ):
            assert directory.is_dir()
        assert layout.pending_path("k").name == "k.json"
