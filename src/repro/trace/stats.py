"""Aggregate trace statistics."""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict

from repro.common import backend as _backend
from repro.trace.trace import Trace


@dataclasses.dataclass(frozen=True)
class TraceStats:
    """Summary statistics for a coherence-request trace."""

    n_records: int
    n_reads: int
    n_writes: int
    unique_blocks: int
    unique_macroblocks: int
    unique_pcs: int
    per_processor: Dict[int, int]

    @property
    def read_fraction(self) -> float:
        """Fraction of records that are GETS requests."""
        return self.n_reads / self.n_records if self.n_records else 0.0

    @property
    def write_fraction(self) -> float:
        """Fraction of records that are GETX requests."""
        return self.n_writes / self.n_records if self.n_records else 0.0

    @property
    def footprint_bytes(self) -> int:
        """Memory touched, in bytes of 64-byte blocks (Table 2 col 2)."""
        return self.unique_blocks * 64

    @property
    def macroblock_footprint_bytes(self) -> int:
        """Memory touched in 1024-byte macroblocks (Table 2 col 3)."""
        return self.unique_macroblocks * 1024


def compute_trace_stats_records(
    trace: Trace, block_size: int = 64, macroblock_size: int = 1024
) -> TraceStats:
    """:class:`TraceStats` via scalar column walks (oracle path)."""
    n_records = len(trace)
    n_reads = n_records - sum(trace.accesses)
    per_processor: Dict[int, int] = collections.Counter(trace.requesters)
    return TraceStats(
        n_records=n_records,
        n_reads=n_reads,
        n_writes=n_records - n_reads,
        unique_blocks=trace.unique_blocks(block_size),
        unique_macroblocks=trace.unique_blocks(macroblock_size),
        unique_pcs=trace.unique_pcs(),
        per_processor=dict(per_processor),
    )


def compute_trace_stats(
    trace: Trace, block_size: int = 64, macroblock_size: int = 1024
) -> TraceStats:
    """Compute :class:`TraceStats` from the trace's columns.

    Vectorized (``bincount``/``unique`` over the flat columns) when
    numpy is available; identical to
    :func:`compute_trace_stats_records` either way.
    """
    np_ = _backend.numpy_module()
    n_records = len(trace)
    if np_ is None or n_records == 0:
        return compute_trace_stats_records(
            trace, block_size, macroblock_size
        )
    n_writes = int(
        np_.frombuffer(trace.accesses, dtype=np_.int8).sum()
    )
    requesters = np_.frombuffer(trace.requesters, dtype=np_.int32)
    per_processor = {
        int(node): int(count)
        for node, count in enumerate(np_.bincount(requesters))
        if count
    }
    unique_blocks = len(
        np_.unique(
            np_.frombuffer(
                trace.block_keys(block_size), dtype=np_.int64
            )
        )
    )
    unique_macroblocks = len(
        np_.unique(
            np_.frombuffer(
                trace.block_keys(macroblock_size), dtype=np_.int64
            )
        )
    )
    unique_pcs = len(
        np_.unique(np_.frombuffer(trace.pcs, dtype=np_.int64))
    )
    return TraceStats(
        n_records=n_records,
        n_reads=n_records - n_writes,
        n_writes=n_writes,
        unique_blocks=unique_blocks,
        unique_macroblocks=unique_macroblocks,
        unique_pcs=unique_pcs,
        per_processor=per_processor,
    )
