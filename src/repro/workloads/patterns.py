"""Sharing-pattern primitives used to compose workload models.

Each :class:`Region` models one kind of data structure identified by
the paper's sharing analysis (Section 2) and the coherence-prediction
literature it cites:

- :class:`PrivateRegion` — data touched by a single processor; tunable
  between reuse-heavy (cache resident, few misses) and streaming
  (capacity misses that memory, not a remote cache, satisfies).
- :class:`MigratoryRegion` — lock-protected data that migrates between
  processors with read-modify-write sequences (Gupta/Weber migratory
  sharing; the dominant pattern behind "1 other processor" misses).
- :class:`ProducerConsumerRegion` — one writer streaming a buffer that
  one or more readers then consume (the paper's Section 3.4 motivating
  example for macroblock indexing).
- :class:`ReadMostlyRegion` — widely shared, rarely written data whose
  occasional writes trigger wide invalidations ("3+" write misses in
  Figure 2).

A region is a description, not a generator: it carries its geometry,
membership and sampling constants, and :meth:`Region.batch_spec` hands
the constants to the column sampler in :mod:`repro.workloads.genchunks`
whose per-record ``sample_py`` loop is the pattern's specification.
"""

from __future__ import annotations

import abc
import itertools
from typing import Sequence, Tuple

from repro.common.types import Address, NodeId

#: Byte distance between synthetic static instructions (SPARC-like).
_PC_STRIDE = 4


class Region(abc.ABC):
    """A contiguous address range with a characteristic sharing pattern.

    Attributes:
        base: first byte of the region (block aligned by construction).
        n_blocks: region length in cache blocks.
        members: processors that access the region.
    """

    def __init__(
        self,
        base: Address,
        n_blocks: int,
        block_size: int,
        members: Sequence[NodeId],
        pc_base: Address,
        n_pc_sites: int = 8,
    ):
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if not members:
            raise ValueError("a region needs at least one member")
        self.base = base
        self.n_blocks = n_blocks
        self.block_size = block_size
        self.members: Tuple[NodeId, ...] = tuple(sorted(set(members)))
        self._pc_base = pc_base
        self._n_pc_sites = max(1, n_pc_sites)

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Region length in bytes."""
        return self.n_blocks * self.block_size

    @property
    def end(self) -> Address:
        """One past the last byte of the region."""
        return self.base + self.size_bytes

    @property
    def pc_base(self) -> Address:
        """First PC of the region's static-instruction range."""
        return self._pc_base

    @property
    def n_pc_sites(self) -> int:
        """Number of distinct static instructions in the region."""
        return self._n_pc_sites

    @abc.abstractmethod
    def batch_spec(self) -> Tuple[str, dict]:
        """``(kind, params)`` for the batched generation layer.

        ``kind`` selects the column sampler in
        :mod:`repro.workloads.genchunks`; ``params`` carries the
        region's sampling constants.  The sampler owns all generation
        state (cursors, run parity), so a region is never mutated by
        generating from it and one model can feed any number of
        streams.
        """


class PrivateRegion(Region):
    """Data accessed by exactly one processor.

    ``streaming_fraction`` controls the access pattern mixture:
    sequential sweeps (which defeat LRU once the region exceeds the
    cache, producing memory-sourced capacity misses) versus Zipf reuse
    of hot blocks (which stay cache resident).  ``write_fraction`` sets
    the store ratio.
    """

    #: Hot-block skew of the non-streaming draws.
    zipf_exponent = 1.0

    def __init__(
        self,
        base: Address,
        n_blocks: int,
        block_size: int,
        owner: NodeId,
        pc_base: Address,
        write_fraction: float = 0.3,
        streaming_fraction: float = 0.3,
        n_pc_sites: int = 8,
    ):
        super().__init__(
            base, n_blocks, block_size, (owner,), pc_base, n_pc_sites
        )
        self.owner = owner
        self.write_fraction = write_fraction
        self.streaming_fraction = streaming_fraction

    def batch_spec(self) -> Tuple[str, dict]:
        return (
            "private",
            {
                "streaming_fraction": self.streaming_fraction,
                "write_fraction": self.write_fraction,
                "exponent": self.zipf_exponent,
            },
        )


class MigratoryRegion(Region):
    """Lock-protected data migrating among a pool of processors.

    Each visit is a read-modify-write: a load of a Zipf-drawn block
    (finding the previous holder's dirty copy) and, when the region's
    next access comes from the same node, a store to that block
    (upgrading and invalidating it).  This is the canonical
    migratory/pairwise pattern: both the read and the write need
    exactly one other processor.
    """

    #: Skew of the per-visit block draw (milder than private reuse).
    zipf_exponent = 0.8

    def __init__(
        self,
        base: Address,
        n_blocks: int,
        block_size: int,
        pool: Sequence[NodeId],
        pc_base: Address,
        n_pc_sites: int = 8,
    ):
        super().__init__(base, n_blocks, block_size, pool, pc_base, n_pc_sites)

    def batch_spec(self) -> Tuple[str, dict]:
        return ("migratory", {"exponent": self.zipf_exponent})


class ProducerConsumerRegion(Region):
    """A buffer written sequentially by a producer, read by consumers.

    The producer's writes invalidate the consumers' copies; consumer
    reads then find the producer's dirty blocks (cache-to-cache
    misses).  Sequential cursors give the pattern strong spatial
    locality — a macroblock predictor that sees one block supplied by
    the producer can predict the rest of the buffer.
    """

    def __init__(
        self,
        base: Address,
        n_blocks: int,
        block_size: int,
        producer: NodeId,
        consumers: Sequence[NodeId],
        pc_base: Address,
        n_pc_sites: int = 6,
    ):
        members = [producer, *consumers]
        super().__init__(
            base, n_blocks, block_size, members, pc_base, n_pc_sites
        )
        self.producer = producer
        self.consumers = tuple(consumers)

    def batch_spec(self) -> Tuple[str, dict]:
        return (
            "producer-consumer",
            {"producer": self.producer, "consumers": self.consumers},
        )


class ReadMostlyRegion(Region):
    """Widely shared data with rare writes.

    Reads hit once a node has a copy, so steady-state misses cluster
    just after each write: the writer's GETX invalidates every sharer
    (a wide destination set) and the sharers' re-reads each find the
    writer's copy.
    """

    def __init__(
        self,
        base: Address,
        n_blocks: int,
        block_size: int,
        members: Sequence[NodeId],
        pc_base: Address,
        write_fraction: float = 0.02,
        hot_exponent: float = 1.0,
        n_pc_sites: int = 8,
    ):
        super().__init__(
            base, n_blocks, block_size, members, pc_base, n_pc_sites
        )
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.write_fraction = write_fraction
        self.hot_exponent = hot_exponent

    def batch_spec(self) -> Tuple[str, dict]:
        return (
            "read-mostly",
            {
                "exponent": self.hot_exponent,
                "write_fraction": self.write_fraction,
            },
        )


class AddressSpaceAllocator:
    """Hands out non-overlapping, macroblock-aligned address ranges.

    Keeps region placement deterministic and collision free; regions
    are aligned to 1024-byte macroblocks so that macroblock-indexed
    predictors never see two regions aliasing into one entry.
    """

    def __init__(self, alignment: int = 1024, start: Address = 0x1000_0000):
        self._alignment = alignment
        self._next = self._align_up(start)
        self._pc_counter = itertools.count()
        self._pc_base = 0x40_0000

    def allocate(self, size_bytes: int) -> Address:
        """Reserve ``size_bytes`` and return the base address."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        base = self._next
        self._next = self._align_up(base + size_bytes)
        return base

    def allocate_pc_range(self, n_sites: int = 16) -> Address:
        """Reserve a PC range for a region's static instructions."""
        index = next(self._pc_counter)
        return self._pc_base + index * n_sites * _PC_STRIDE * 16

    def _align_up(self, address: Address) -> Address:
        mask = self._alignment - 1
        return (address + mask) & ~mask
