"""Figure 4 — temporal and spatial locality of cache-to-cache misses.

Cumulative distributions of cache-to-cache misses over the hottest 64 B
blocks (4a), 1024 B macroblocks (4b), and static instructions (4c).
The paper's observation — a few thousand hot entities capture most
cache-to-cache misses — is what makes finite predictors work.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, Tuple

from repro.analysis.sharing import (
    DEFAULT_BLOCK_SIZE,
    _required_counts_cached,
)
from repro.common import backend as _backend
from repro.coherence.state import GlobalCoherenceState
from repro.trace.trace import Trace


@dataclasses.dataclass(frozen=True)
class LocalityCdf:
    """A cumulative distribution of cache-to-cache misses.

    ``counts`` holds per-entity miss counts sorted descending;
    :meth:`coverage` answers "what percent of cache-to-cache misses do
    the hottest ``k`` entities account for?" — the Figure 4 y-axis.
    """

    workload: str
    kind: str
    counts: Tuple[int, ...]
    total: int

    def coverage(self, k: int) -> float:
        """Percent of c2c misses covered by the hottest ``k`` entities."""
        if self.total == 0 or k <= 0:
            return 0.0
        return 100.0 * sum(self.counts[:k]) / self.total

    def entities_for_coverage(self, pct: float) -> int:
        """Smallest number of hot entities covering ``pct`` percent."""
        if self.total == 0:
            return 0
        target = self.total * pct / 100.0
        running = 0
        for index, count in enumerate(self.counts, start=1):
            running += count
            if running >= target:
                return index
        return len(self.counts)

    @property
    def n_entities(self) -> int:
        """Number of distinct entities with at least one c2c miss."""
        return len(self.counts)


def _entity_keys(
    trace: Trace, kind: str, block_size: int, macroblock_size: int
):
    if kind == "block":
        return trace.block_keys(block_size)
    if kind == "macroblock":
        return trace.block_keys(macroblock_size)
    if kind == "pc":
        return trace.pcs
    raise ValueError(
        "kind must be one of ['block', 'macroblock', 'pc'], "
        f"got {kind!r}"
    )


def locality_cdf_records(
    trace: Trace,
    kind: str = "block",
    block_size: int = DEFAULT_BLOCK_SIZE,
    macroblock_size: int = 1024,
    warmup_fraction: float = 0.25,
) -> LocalityCdf:
    """One Figure 4 panel via the record-at-a-time replay (oracle)."""
    keys = _entity_keys(trace, kind, block_size, macroblock_size)
    # Replay the global MOSI state to find the post-warmup misses
    # another cache must service or observe, counting per hot entity.
    # The replay runs at ``block_size`` granularity — the same
    # convention as :func:`repro.analysis.sharing.sharing_histogram`,
    # so Figures 2 and 4 count the same miss population.
    state = GlobalCoherenceState(trace.n_processors, block_size)
    apply_fast = state.apply_fast
    n_warmup = int(len(trace) * warmup_fraction)
    counter: Dict[int, int] = collections.Counter()
    index = 0
    for block, requester, code, key in zip(
        trace.block_keys(state.block_size),
        trace.requesters,
        trace.accesses,
        keys,
    ):
        required = apply_fast(block, requester, code)[3]
        index += 1
        if index > n_warmup and required:
            counter[key] += 1
    counts = tuple(sorted(counter.values(), reverse=True))
    return LocalityCdf(
        workload=trace.name,
        kind=kind,
        counts=counts,
        total=sum(counts),
    )


def locality_cdf(
    trace: Trace,
    kind: str = "block",
    block_size: int = DEFAULT_BLOCK_SIZE,
    macroblock_size: int = 1024,
    warmup_fraction: float = 0.25,
) -> LocalityCdf:
    """Compute one panel of Figure 4.

    ``kind`` selects the entity: ``"block"`` (4a), ``"macroblock"``
    (4b), or ``"pc"`` (4c).  Under numpy the cache-to-cache mask comes
    from the shared vectorized MOSI replay and the per-entity counts
    from ``unique``; identical to :func:`locality_cdf_records`.
    """
    np_ = _backend.numpy_module()
    if np_ is None or len(trace) == 0:
        return locality_cdf_records(
            trace, kind, block_size, macroblock_size, warmup_fraction
        )
    keys = _entity_keys(trace, kind, block_size, macroblock_size)
    required, _ = _required_counts_cached(np_, trace, block_size)
    n_warmup = int(len(trace) * warmup_fraction)
    mask = required[n_warmup:] > 0
    key_column = np_.frombuffer(keys, dtype=np_.int64)[n_warmup:]
    entity_counts = np_.unique(key_column[mask], return_counts=True)[1]
    counts = tuple(
        int(c) for c in np_.sort(entity_counts)[::-1]
    )
    return LocalityCdf(
        workload=trace.name,
        kind=kind,
        counts=counts,
        total=int(entity_counts.sum()),
    )
