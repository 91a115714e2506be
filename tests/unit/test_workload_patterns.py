"""Unit tests for the sharing-pattern regions and their samplers.

Regions carry geometry, membership and constructor validation; the
behaviour of each pattern lives in its column sampler
(:mod:`repro.workloads.genchunks`), which is driven here with chosen
node sequences.  Every case runs the per-record ``sample_py`` loop
and, when numpy is installed, checks that ``sample_np`` returns the
same integers.
"""

import pytest

from repro.common import backend as _backend
from repro.common.rng import derive_seed
from repro.workloads.genchunks import _SAMPLERS
from repro.workloads.patterns import (
    AddressSpaceAllocator,
    MigratoryRegion,
    PrivateRegion,
    ProducerConsumerRegion,
    ReadMostlyRegion,
)

HAS_NUMPY = "numpy" in _backend.available_backends()
KEYS = tuple(derive_seed(7, "patterns", lane) for lane in range(4))


def sample(region, *batches):
    """``(addresses, writes, pcs)`` of ``region``'s sampler over the
    node ``batches``, sampled in order as consecutive chunks.

    Runs ``sample_py``; with numpy installed, a second sampler runs
    ``sample_np`` over the same batches and must agree exactly.
    """
    kind, params = region.batch_spec()
    sampler = _SAMPLERS[kind](region, KEYS, params)
    out = ([], [], [])
    for batch in batches:
        for column, values in zip(
            out, sampler.sample_py(list(batch), len(batch))
        ):
            column.extend(values)
    if HAS_NUMPY:
        import numpy

        sampler = _SAMPLERS[kind](region, KEYS, params)
        vectorized = ([], [], [])
        for batch in batches:
            produced = sampler.sample_np(
                numpy, numpy.asarray(batch, dtype=numpy.int64), len(batch)
            )
            for column, values in zip(vectorized, produced):
                column.extend(numpy.asarray(values).tolist())
        assert vectorized == out
    return out


class TestAllocator:
    def test_non_overlapping_macroblock_aligned(self):
        alloc = AddressSpaceAllocator(alignment=1024)
        a = alloc.allocate(100)
        b = alloc.allocate(5000)
        c = alloc.allocate(64)
        assert a % 1024 == 0 and b % 1024 == 0 and c % 1024 == 0
        assert a + 100 <= b and b + 5000 <= c

    def test_pc_ranges_distinct(self):
        alloc = AddressSpaceAllocator()
        assert alloc.allocate_pc_range() != alloc.allocate_pc_range()

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            AddressSpaceAllocator().allocate(0)


class TestRegionBase:
    def test_rejects_empty_members(self):
        with pytest.raises(ValueError):
            ReadMostlyRegion(0x1000, 4, 64, members=[], pc_base=0x100)

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            ReadMostlyRegion(0x1000, 0, 64, members=[0], pc_base=0x100)

    def test_geometry(self):
        region = ReadMostlyRegion(0x1000, 4, 64, members=[0, 1],
                                  pc_base=0x100)
        assert region.size_bytes == 256
        assert region.end == 0x1100
        assert region.members == (0, 1)


class TestPrivateRegion:
    def test_addresses_in_range(self):
        region = PrivateRegion(0x1000, 8, 64, owner=2, pc_base=0x100)
        addresses, _, _ = sample(region, [2] * 100)
        assert all(region.base <= a < region.end for a in addresses)
        assert all(a % 64 == 0 for a in addresses)

    def test_streaming_sweeps_sequentially(self):
        region = PrivateRegion(
            0x1000, 8, 64, owner=0, pc_base=0x100,
            streaming_fraction=1.0,
        )
        addresses, _, _ = sample(region, [0] * 5, [0] * 6)
        # The sweep continues across chunks and wraps at the end.
        assert addresses == [0x1000 + 64 * (i % 8) for i in range(11)]

    def test_write_fraction_extremes(self):
        all_writes = PrivateRegion(
            0x1000, 8, 64, owner=0, pc_base=0x100, write_fraction=1.0
        )
        assert all(sample(all_writes, [0] * 20)[1])
        all_reads = PrivateRegion(
            0x2000, 8, 64, owner=0, pc_base=0x100, write_fraction=0.0
        )
        assert not any(sample(all_reads, [0] * 20)[1])


class TestMigratoryRegion:
    def test_read_then_write_pairs(self):
        region = MigratoryRegion(0x1000, 4, 64, pool=[0, 1],
                                 pc_base=0x100)
        addresses, writes, pcs = sample(region, [0, 0])
        assert writes == [0, 1]
        assert addresses[0] == addresses[1]
        assert pcs == [0x100, 0x104]

    def test_migration_between_members(self):
        region = MigratoryRegion(0x1000, 4, 64, pool=[0, 1], pc_base=0x100)
        _, writes, _ = sample(region, [0, 1])
        assert writes == [0, 0]  # the handoff is a read by the new node

    @pytest.mark.parametrize(
        "batches",
        (
            ([0, 0, 0, 1, 1, 0, 1, 1, 1, 1],),
            ([0], [0, 0], [0, 1, 1], [1, 0]),
            ([2, 2, 2], [2, 2, 3], [3, 3, 3, 2]),
        ),
        ids=("one-chunk", "runs-span-chunks", "odd-runs-span-chunks"),
    )
    def test_same_node_runs_alternate_read_and_write(self, batches):
        region = MigratoryRegion(
            0x1000, 16, 64, pool=[0, 1, 2, 3], pc_base=0x100
        )
        addresses, writes, _ = sample(region, *batches)
        nodes = [node for batch in batches for node in batch]
        offset = 0
        for i, node in enumerate(nodes):
            offset = offset + 1 if i and node == nodes[i - 1] else 0
            # Read at even run offsets, write at odd ones ...
            assert writes[i] == offset % 2
            if writes[i]:
                # ... and each write stores to the block just read.
                assert addresses[i] == addresses[i - 1]


class TestProducerConsumerRegion:
    def test_producer_writes_sequentially(self):
        region = ProducerConsumerRegion(
            0x1000, 4, 64, producer=0, consumers=[1], pc_base=0x100
        )
        addresses, writes, _ = sample(region, [0] * 3, [0] * 3)
        assert all(writes)
        assert addresses == [0x1000 + 64 * (i % 4) for i in range(6)]

    def test_consumer_reads_behind_producer(self):
        region = ProducerConsumerRegion(
            0x1000, 4, 64, producer=0, consumers=[1], pc_base=0x100
        )
        # The producer writes blocks 0 and 1; the consumer then reads
        # block 0 and block 1, and is held behind the write cursor.
        addresses, writes, _ = sample(region, [0, 0, 1, 1, 1])
        assert writes == [1, 1, 0, 0, 0]
        assert addresses[2:] == [0x1000, 0x1040, 0x1040]

    def test_consumer_never_reads_at_write_cursor(self):
        region = ProducerConsumerRegion(
            0x1000, 4, 64, producer=0, consumers=[1, 2], pc_base=0x100
        )
        batches = ([1, 0, 2, 1], [2, 2, 0, 1, 1, 1], [0, 2, 1, 0] * 5)
        addresses, writes, _ = sample(region, *batches)
        nodes = [node for batch in batches for node in batch]
        write_cursor = 0
        for node, address, write in zip(nodes, addresses, writes):
            block = (address - 0x1000) // 64
            if node == 0:
                assert write and block == write_cursor
                write_cursor = (write_cursor + 1) % 4
            else:
                assert not write
                assert block != write_cursor


class TestReadMostlyRegion:
    def test_write_fraction_validated(self):
        with pytest.raises(ValueError):
            ReadMostlyRegion(
                0x1000, 4, 64, members=[0], pc_base=0x100,
                write_fraction=1.5,
            )

    def test_mostly_reads(self):
        region = ReadMostlyRegion(
            0x1000, 16, 64, members=[0, 1], pc_base=0x100,
            write_fraction=0.05,
        )
        _, writes, pcs = sample(region, [i % 2 for i in range(400)])
        assert sum(writes) < 60
        # Writes come from their own static instruction.
        assert all((pc == 0x100) == bool(w) for pc, w in zip(pcs, writes))

    def test_hot_blocks_dominate(self):
        region = ReadMostlyRegion(
            0x1000, 1024, 64, members=[0], pc_base=0x100,
            write_fraction=0.0,
        )
        addresses, _, _ = sample(region, [0] * 2000)
        hottest = max(set(addresses), key=addresses.count)
        assert addresses.count(hottest) > 2000 // 64
