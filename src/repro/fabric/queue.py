"""Durable, multi-host-safe work queue of sweep cells.

State machine of one cell (identified by its content key)::

    pending ──claim──▶ leased ──complete──▶ done (result in store)
       ▲                 │
       │   release/expiry│  (attempts < max: backoff, re-pending)
       └─────────────────┘
                         │  (attempts ≥ max)
                         ▼
                     quarantined (queue/failed/, with error log)

Claims are published with an exclusive hard link
(:func:`~repro.common.atomicio.publish_json_exclusive`): the lease is
written to a temporary sibling and linked onto the claim name, which
fails when the name exists — an atomic primitive every POSIX
filesystem (NFS included) provides — so exactly one worker wins a
cell, and no worker ever sees a claim file before its content.
A claim carries its worker's identity and a heartbeat timestamp the
worker refreshes while executing; a claim whose heartbeat is older
than the lease TTL is presumed dead and *reclaimed*: stolen via an
atomic rename (one winner), its attempt count bumped, and the cell
made claimable again.  Cells whose attempts exhaust ``max_attempts``
are quarantined with their error history instead of poisoning the
queue forever.

Timestamps are wall-clock seconds shared through the filesystem; the
TTL only needs to be generous relative to clock skew between hosts,
not precise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.common.atomicio import (
    publish_json_exclusive,
    read_json,
    write_json_atomic,
)
from repro.fabric.layout import FabricLayout, PathLike

#: Heartbeats older than this many seconds mark a lease expired.
DEFAULT_LEASE_TTL = 30.0

#: Execution attempts (initial + retries) before quarantine.
DEFAULT_MAX_ATTEMPTS = 3

#: Base of the exponential retry backoff, in seconds: attempt ``n``
#: becomes claimable again after ``BACKOFF_BASE * 2**(n-1)``.
BACKOFF_BASE = 0.5


@dataclasses.dataclass(frozen=True)
class Cell:
    """One enqueued sweep cell.

    ``key`` is the content hash (:meth:`ExperimentSpec.cell_key`) that
    names the cell everywhere — queue files and result artifact.
    ``spec_digest``/``index`` tell a worker *how* to execute it: load
    the registered spec, take job ``index`` of its expansion.  The
    remaining fields are denormalized coordinates for humans and
    status tooling.
    """

    key: str
    spec_digest: str
    index: int
    workload: str
    seed: int
    label: str
    bandwidth: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if self.bandwidth is None:
            del data["bandwidth"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Cell":
        return cls(
            key=data["key"],
            spec_digest=data["spec_digest"],
            index=data["index"],
            workload=data["workload"],
            seed=data["seed"],
            label=data["label"],
            bandwidth=data.get("bandwidth"),
        )


@dataclasses.dataclass
class Lease:
    """A claimed cell, held by one worker until complete/release."""

    cell: Cell
    worker_id: str
    claimed_at: float


def _lease_payload(worker_id: str, claimed_at: float) -> Dict[str, Any]:
    """The claim file's content: holder identity plus a fresh heartbeat."""
    return {
        "worker": worker_id,
        "pid": os.getpid(),
        "claimed_at": claimed_at,
        "heartbeat": time.time(),
    }


class WorkQueue:
    """Filesystem-backed queue over one fabric directory."""

    def __init__(
        self,
        root: PathLike,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.layout = FabricLayout(root).ensure()
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts

    # -- enqueue -------------------------------------------------------
    def enqueue(self, cell: Cell) -> bool:
        """Make ``cell`` pending; False if it already is (or failed).

        Idempotent by content key: re-enqueueing a pending, leased, or
        quarantined cell is a no-op, so coordinators can blindly
        submit a spec's full expansion and only missing cells land.
        """
        if self.layout.failed_path(cell.key).exists():
            return False
        path = self.layout.pending_path(cell.key)
        if path.exists():
            return False
        write_json_atomic(path, cell.to_dict())
        return True

    # -- claim ---------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Lease]:
        """Try to lease one pending cell; None when nothing claimable.

        Scans pending cells in name order (deterministic across
        workers), skipping cells inside their retry backoff window and
        cells under a live lease; expired leases encountered on the
        way are reclaimed.  None does *not* mean the queue is drained
        — cells may be leased to other workers or backing off; use
        :meth:`has_work` to distinguish.
        """
        now = time.time()
        # Sort plain names: ordering Path objects costs more than the
        # rest of a claim once thousands of cells are pending.
        for name in sorted(os.listdir(self.layout.pending)):
            if not name.endswith(".json"):
                continue
            pending = self.layout.pending / name
            key = pending.stem
            retry = read_json(self.layout.retry_path(key))
            if retry and retry.get("not_before", 0.0) > now:
                continue
            claim_path = self.layout.claim_path(key)
            if claim_path.exists():
                self._reclaim_if_expired(key, now)
                continue
            if not publish_json_exclusive(
                claim_path, _lease_payload(worker_id, now)
            ):
                continue  # lost the race
            data = read_json(pending)
            if data is None:
                # Completed (or torn) under us: drop the claim.
                os.unlink(claim_path)
                continue
            return Lease(Cell.from_dict(data), worker_id, now)
        return None

    def heartbeat(self, lease: Lease) -> None:
        """Refresh the lease so reclamation knows the worker is alive."""
        write_json_atomic(
            self.layout.claim_path(lease.cell.key),
            _lease_payload(lease.worker_id, lease.claimed_at),
        )

    def _reclaim_if_expired(self, key: str, now: float) -> bool:
        """Steal an expired claim; True when this caller won the steal."""
        claim_path = self.layout.claim_path(key)
        try:
            with open(claim_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return False  # completed or released under us
        except OSError:
            raw = b""
        try:
            claim = json.loads(raw)
        except ValueError:
            claim = None
        if not isinstance(claim, dict):
            # Claims are published whole, so an unparsable one was
            # damaged from outside and can never heartbeat again:
            # treat it as expired immediately.
            age = self.lease_ttl + 1.0
            holder = "unknown"
        else:
            age = now - claim.get("heartbeat", 0.0)
            holder = claim.get("worker", "unknown")
        if age <= self.lease_ttl:
            return False
        grave = claim_path.with_name(
            claim_path.name + f".reclaim.{os.getpid()}"
        )
        try:
            os.rename(claim_path, grave)  # atomic: one winner
        except OSError:
            return False
        os.unlink(grave)
        self._record_attempt(
            key,
            f"lease expired (held by {holder}, "
            f"heartbeat {age:.1f}s old)",
        )
        return True

    # -- completion / failure ------------------------------------------
    def complete(self, lease: Lease) -> None:
        """Mark the leased cell done and retire its queue state.

        The *result* must already be in the store — the done marker is
        advisory bookkeeping; completion truth is store membership.
        """
        key = lease.cell.key
        write_json_atomic(
            self.layout.done_path(key),
            {
                "worker": lease.worker_id,
                "completed_at": time.time(),
                "cell": lease.cell.to_dict(),
            },
        )
        for path in (
            self.layout.pending_path(key),
            self.layout.claim_path(key),
            self.layout.retry_path(key),
        ):
            try:
                os.unlink(path)
            except OSError:
                pass

    def release(self, lease: Lease, error: str) -> None:
        """Return a failed cell to the queue (or quarantine it)."""
        try:
            os.unlink(self.layout.claim_path(lease.cell.key))
        except OSError:
            pass
        self._record_attempt(lease.cell.key, error)

    def _record_attempt(self, key: str, error: str) -> None:
        """Bump the attempt counter; backoff or quarantine."""
        retry_path = self.layout.retry_path(key)
        retry = read_json(retry_path) or {"attempts": 0, "errors": []}
        attempts = retry.get("attempts", 0) + 1
        errors = list(retry.get("errors", []))[-9:] + [error]
        if attempts >= self.max_attempts:
            cell = read_json(self.layout.pending_path(key)) or {
                "key": key
            }
            write_json_atomic(
                self.layout.failed_path(key),
                {
                    "cell": cell,
                    "attempts": attempts,
                    "errors": errors,
                    "quarantined_at": time.time(),
                },
            )
            for path in (self.layout.pending_path(key), retry_path):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return
        write_json_atomic(
            retry_path,
            {
                "attempts": attempts,
                "errors": errors,
                "not_before": time.time()
                + BACKOFF_BASE * (2 ** (attempts - 1)),
            },
        )

    # -- introspection -------------------------------------------------
    def has_work(self) -> bool:
        """True while any cell is pending (leased or not)."""
        return any(self.layout.pending.glob("*.json"))

    def pending_keys(self) -> List[str]:
        return sorted(
            path.stem for path in self.layout.pending.glob("*.json")
        )

    def failed_cells(self) -> List[Dict[str, Any]]:
        """Quarantined cells with their attempt/error history."""
        cells = []
        for path in sorted(self.layout.failed.glob("*.json")):
            data = read_json(path)
            if data is not None:
                cells.append(data)
        return cells

    def clear_failed(self) -> int:
        """Lift quarantine (e.g. after a fix) so cells can re-enqueue."""
        removed = 0
        for path in self.layout.failed.glob("*.json"):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def status(self) -> Dict[str, Any]:
        """Counts plus per-lease detail for ``repro fabric status``."""
        now = time.time()
        leases = []
        for path in sorted(self.layout.claims.glob("*.json")):
            claim = read_json(path) or {}
            heartbeat = claim.get("heartbeat", 0.0)
            leases.append(
                {
                    "key": path.stem,
                    "worker": claim.get("worker", "unknown"),
                    "heartbeat_age": round(now - heartbeat, 1),
                    "expired": (now - heartbeat) > self.lease_ttl,
                }
            )
        retries = []
        for path in sorted(self.layout.retries.glob("*.json")):
            retry = read_json(path) or {}
            retries.append(
                {
                    "key": path.stem,
                    "attempts": retry.get("attempts", 0),
                    "backoff_remaining": round(
                        max(0.0, retry.get("not_before", 0.0) - now), 2
                    ),
                }
            )
        return {
            "pending": len(self.pending_keys()),
            "leased": len(leases),
            "failed": len(self.failed_cells()),
            "done": sum(1 for _ in self.layout.done.glob("*.json")),
            "lease_ttl": self.lease_ttl,
            "max_attempts": self.max_attempts,
            "leases": leases,
            "retries": retries,
        }

