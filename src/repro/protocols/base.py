"""Protocol interface and shared accounting types.

Protocols expose two execution paths over one transaction model:

- :meth:`CoherenceProtocol.handle` processes a single
  :class:`TraceRecord` and returns a full :class:`RequestOutcome` —
  the record-oriented API for analyses, tests, and custom consumers.
- :meth:`CoherenceProtocol.run` over a columnar :class:`Trace`
  dispatches to an allocation-free loop that indexes the trace's
  columns directly and calls the protocol's ``_handle_fast`` scalar
  kernel per request, folding accounting into local variables.

The fast loop is only taken when the concrete class pairs its
``_handle`` with a ``_handle_fast`` implementation; subclasses that
override ``_handle`` alone (e.g. instrumentation wrappers) fall back
to the record-oriented path automatically, so behaviour never
silently diverges.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
from array import array
from typing import Optional

from repro import kernels
from repro.common.params import LatencyModel, SystemConfig, TrafficModel
from repro.coherence.state import CoherenceOutcome, GlobalCoherenceState
from repro.trace.record import TraceRecord
from repro.trace.trace import Trace


class OutcomeColumns:
    """Per-record outcome columns produced by a batch protocol replay.

    When a consumer needs per-transaction results (the timing
    simulator's processor/link bookkeeping), the protocol's columnar
    loop fills these flat arrays — one entry per replayed record —
    instead of materializing :class:`RequestOutcome` objects:

    - ``latency_ns`` — the transaction's base latency,
    - ``transfer_bytes`` — bytes crossing the requester's link
      (request/forward/retry control messages plus the data response).

    The timing simulator's second pass feeds ``transfer_bytes`` to
    whichever pluggable :class:`~repro.timing.interconnect.Interconnect`
    model the configuration selects; the columns themselves are
    interconnect-agnostic, so one protocol batch loop serves every
    timing model.
    """

    __slots__ = ("latency_ns", "transfer_bytes")

    def __init__(self) -> None:
        self.latency_ns = array("d")
        self.transfer_bytes = array("q")

    def __len__(self) -> int:
        return len(self.latency_ns)


class LatencyClass(enum.Enum):
    """End-to-end latency class of one coherence transaction.

    Matches the paper's Section 5.1 numbers: 112 ns for a direct
    cache-to-cache transfer, 180 ns for a fetch from memory, 242 ns for
    an indirected (3-hop or retried) transfer.
    """

    CACHE_TO_CACHE_DIRECT = "c2c-direct"
    MEMORY = "memory"
    INDIRECT = "indirect"

    def latency_ns(self, model: LatencyModel) -> float:
        """Resolve this class against a :class:`LatencyModel`."""
        if self is LatencyClass.CACHE_TO_CACHE_DIRECT:
            return model.cache_to_cache_direct_ns
        if self is LatencyClass.MEMORY:
            return model.memory_ns
        return model.cache_to_cache_indirect_ns


@dataclasses.dataclass(frozen=True)
class RequestOutcome:
    """Accounting record for one coherence transaction.

    ``request_messages`` counts deliveries of the initial request;
    ``forward_messages`` counts directory forwards/invalidations;
    ``retry_messages`` counts re-issued multicast deliveries.  The
    paper's "request messages per miss" metric is the sum of all
    three (Section 4.2: "requests, forwards, and retries").
    """

    coherence: CoherenceOutcome
    request_messages: int
    forward_messages: int
    retry_messages: int
    data_messages: int
    indirection: bool
    latency_class: LatencyClass
    retries: int = 0

    @property
    def total_request_messages(self) -> int:
        """Requests + forwards + retries (the Figure 5 x-axis unit)."""
        return (
            self.request_messages
            + self.forward_messages
            + self.retry_messages
        )

    def traffic_bytes(self, traffic: TrafficModel) -> int:
        """Total interconnect bytes for this transaction."""
        return (
            self.total_request_messages * traffic.control_bytes
            + self.data_messages * traffic.data_bytes
        )


@dataclasses.dataclass
class TrafficTotals:
    """Running totals over a stream of transactions."""

    misses: int = 0
    indirections: int = 0
    request_messages: int = 0
    forward_messages: int = 0
    retry_messages: int = 0
    data_messages: int = 0
    traffic_bytes: int = 0
    latency_ns_sum: float = 0.0
    retries: int = 0

    def add(
        self,
        outcome: RequestOutcome,
        traffic: TrafficModel,
        latency: LatencyModel,
    ) -> None:
        """Fold one transaction into the totals."""
        self.misses += 1
        self.indirections += int(outcome.indirection)
        self.request_messages += outcome.request_messages
        self.forward_messages += outcome.forward_messages
        self.retry_messages += outcome.retry_messages
        self.data_messages += outcome.data_messages
        self.traffic_bytes += outcome.traffic_bytes(traffic)
        self.latency_ns_sum += outcome.latency_class.latency_ns(latency)
        self.retries += outcome.retries

    def add_batch(
        self,
        misses: int,
        indirections: int,
        request_messages: int,
        forward_messages: int,
        retry_messages: int,
        data_messages: int,
        traffic_bytes: int,
        latency_ns_sum: float,
        retries: int,
    ) -> None:
        """Fold a columnar batch into the totals.

        All arguments are deltas except ``latency_ns_sum``, which is
        the batch accumulator *seeded from the current value* and
        assigned back — this preserves the exact sequential float
        summation order of per-record :meth:`add` calls.
        """
        self.misses += misses
        self.indirections += indirections
        self.request_messages += request_messages
        self.forward_messages += forward_messages
        self.retry_messages += retry_messages
        self.data_messages += data_messages
        self.traffic_bytes += traffic_bytes
        self.latency_ns_sum = latency_ns_sum
        self.retries += retries

    # ------------------------------------------------------------------
    @property
    def indirection_pct(self) -> float:
        """Percent of misses that required indirection (Fig 5 y-axis)."""
        return 100.0 * self.indirections / self.misses if self.misses else 0.0

    @property
    def request_messages_per_miss(self) -> float:
        """Requests + forwards + retries per miss (Fig 5 x-axis)."""
        total = (
            self.request_messages
            + self.forward_messages
            + self.retry_messages
        )
        return total / self.misses if self.misses else 0.0

    @property
    def traffic_bytes_per_miss(self) -> float:
        """Interconnect bytes per miss (Fig 7/8 x-axis, unnormalized)."""
        return self.traffic_bytes / self.misses if self.misses else 0.0

    @property
    def average_latency_ns(self) -> float:
        """Mean transaction latency under the Table 4 latency model."""
        return self.latency_ns_sum / self.misses if self.misses else 0.0


class CoherenceProtocol(abc.ABC):
    """A message-level protocol model consuming trace records."""

    #: Protocol name for reports.
    name: str = ""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.latency = LatencyModel.from_config(config)
        self.traffic = TrafficModel.from_config(config)
        self.state = GlobalCoherenceState(
            config.n_processors, config.block_size
        )
        self.totals = TrafficTotals()
        # Resolved latency constants for the scalar kernels.
        self._lat_memory = self.latency.memory_ns
        self._lat_direct = self.latency.cache_to_cache_direct_ns
        self._lat_indirect = self.latency.cache_to_cache_indirect_ns
        self._block_shift = config.block_size.bit_length() - 1
        self._fast_ok = self._probe_fast_path()

    def _probe_fast_path(self) -> bool:
        """True if this instance's ``_handle`` has a paired fast kernel.

        Walks the MRO: the fast path is sound only if no subclass
        overrides ``_handle`` below the class that provides
        ``_handle_fast`` (otherwise the override's behaviour would be
        skipped by the columnar loop).
        """
        for klass in type(self).__mro__:
            if "_handle_fast" in klass.__dict__:
                return True
            if "_handle" in klass.__dict__:
                return False
        return False

    # ------------------------------------------------------------------
    def handle(self, record: TraceRecord) -> RequestOutcome:
        """Process one coherence request and update the totals."""
        outcome = self._handle(record)
        self.totals.add(outcome, self.traffic, self.latency)
        return outcome

    def run(self, records) -> TrafficTotals:
        """Process a whole trace; returns the accumulated totals.

        A columnar :class:`Trace` is replayed through the
        allocation-free scalar kernel when available; any other
        iterable of records takes the object path.
        """
        if self._fast_ok and isinstance(records, Trace):
            self._run_columns(records)
            return self.totals
        for record in records:
            self.handle(record)
        return self.totals

    def _prepare_fast_run(self) -> None:
        """Hook run before each columnar replay.

        Protocols that cache derived hot-path state (e.g. bound
        training methods per predictor) refresh it here, so swapping
        components between runs stays safe.
        """

    def _run_columns(
        self, trace: Trace, out: "Optional[OutcomeColumns]" = None
    ) -> None:
        """Replay ``trace`` via ``_handle_fast``, accumulating locally.

        With ``out``, per-record latency and link-transfer bytes are
        appended to its columns for downstream batch consumers (the
        timing simulator's second pass).  The stock directory and
        snooping kernels replay natively when the native tier is
        active (:func:`repro.kernels.try_baseline_replay`); everything
        else, and every native decline, runs the loop below.
        """
        self._prepare_fast_run()
        if kernels.try_baseline_replay(self, trace, out):
            return
        handle_fast = self._handle_fast
        control = self.traffic.control_bytes
        data_size = self.traffic.data_bytes
        totals = self.totals
        misses = indirections = 0
        request_messages = forward_messages = retry_messages = 0
        data_messages = traffic_bytes = retries = 0
        latency_sum = totals.latency_ns_sum
        addresses, pcs, requesters, accesses, _ = trace.boxed_columns()
        blocks = trace.block_keys_list(self.config.block_size)
        lat_append = byte_append = None
        if out is not None:
            lat_append = out.latency_ns.append
            byte_append = out.transfer_bytes.append
        for address, pc, requester, code, block in zip(
            addresses, pcs, requesters, accesses, blocks,
        ):
            req, fwd, ret, data, indirect, latency_ns, n_retries = (
                handle_fast(address, pc, requester, code, block)
            )
            misses += 1
            indirections += indirect
            request_messages += req
            forward_messages += fwd
            retry_messages += ret
            data_messages += data
            transfer = (req + fwd + ret) * control + data * data_size
            traffic_bytes += transfer
            latency_sum += latency_ns
            retries += n_retries
            if lat_append is not None:
                lat_append(latency_ns)
                byte_append(transfer)
        totals.add_batch(
            misses, indirections, request_messages, forward_messages,
            retry_messages, data_messages, traffic_bytes, latency_sum,
            retries,
        )

    def reset_totals(self) -> None:
        """Clear accounting (e.g. after predictor/cache warmup)."""
        self.totals = TrafficTotals()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _handle(self, record: TraceRecord) -> RequestOutcome:
        """Protocol-specific transaction handling."""

    # Concrete protocols pair ``_handle`` with a ``_handle_fast(address,
    # pc, requester, access_code, block)`` scalar kernel returning
    # ``(request_messages, forward_messages, retry_messages,
    # data_messages, indirection, latency_ns, retries)``.  The kernel
    # must update coherence/predictor state exactly as ``_handle`` does;
    # accounting is folded in by the caller.
