"""Unit tests for the batched generation engine."""

import gc
import weakref

import pytest

from repro.cache.pipeline import TraceCollector
from repro.common import backend as _backend
from repro.workloads import create_workload
from repro.workloads.genchunks import (
    ReferenceChunk,
    _ZipfThresholds,
    _draws53_py,
)

HAS_NUMPY = "numpy" in _backend.available_backends()


class TestCounterRng:
    def test_draws_are_53_bit_and_deterministic(self):
        draws = _draws53_py(12345, 0, 100)
        assert draws == _draws53_py(12345, 0, 100)
        assert all(0 <= d < 1 << 53 for d in draws)

    def test_draws_are_position_addressable(self):
        whole = _draws53_py(999, 0, 50)
        assert whole[20:30] == _draws53_py(999, 20, 10)

    def test_keys_decorrelate_streams(self):
        assert _draws53_py(1, 0, 20) != _draws53_py(2, 0, 20)

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
    def test_numpy_draws_match_pure_python(self):
        import numpy

        from repro.workloads.genchunks import _draws53_np

        key = (1 << 63) + 12345  # exercises uint64 wraparound
        assert _draws53_np(numpy, key, 7, 64).tolist() == _draws53_py(
            key, 7, 64
        )


class TestZipfThresholds:
    def test_ranks_cover_the_range(self):
        table = _ZipfThresholds(8, 1.0)
        ranks = {
            table.sample_py(d) for d in _draws53_py(5, 0, 2_000)
        }
        assert ranks == set(range(8))

    def test_low_ranks_are_hotter(self):
        table = _ZipfThresholds(64, 1.0)
        draws = _draws53_py(9, 0, 5_000)
        ranks = [table.sample_py(d) for d in draws]
        assert ranks.count(0) > ranks.count(32) > 0

    def test_uniform_when_exponent_nonpositive(self):
        table = _ZipfThresholds(10, 0.0)
        assert table.uniform
        assert table.sample_py(23) == 3

    def test_single_block_always_rank_zero(self):
        table = _ZipfThresholds(1, 1.0)
        assert table.sample_py(1 << 52) == 0

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
    def test_numpy_samples_match_pure_python(self):
        import numpy

        draws = _draws53_py(11, 0, 1_000)
        for exponent in (1.0, 0.8, 0.0):
            table = _ZipfThresholds(37, exponent)
            expected = [table.sample_py(d) for d in draws]
            produced = table.sample_np(
                numpy, numpy.asarray(draws, dtype=numpy.int64)
            )
            assert produced.tolist() == expected


class TestReferenceChunks:
    def test_chunks_cover_the_stream_in_order(self):
        model = create_workload("oltp")
        chunks = list(model.reference_chunks(1_000, chunk_size=300))
        assert [len(c) for c in chunks] == [300, 300, 300, 100]
        nodes = [n for c in chunks for n in c.nodes]
        assert nodes == [i % 16 for i in range(1_000)]

    def test_columns_are_python_ints(self):
        chunk = next(create_workload("apache").reference_chunks(64))
        for column in (
            chunk.addresses, chunk.pcs, chunk.writes,
            chunk.instructions,
        ):
            assert len(column) == 64
            assert all(type(value) is int for value in column)
        assert set(chunk.writes) <= {0, 1}

    def test_instruction_gaps_match_scalar_bounds(self):
        model = create_workload("oltp")
        low = max(1, model.instructions_per_reference // 2)
        high = max(
            1,
            model.instructions_per_reference
            + model.instructions_per_reference // 2,
        )
        chunk = next(model.reference_chunks(2_000))
        assert all(low <= g <= high for g in chunk.instructions)

    def test_rejects_bad_chunk_size(self):
        model = create_workload("ocean")
        with pytest.raises(ValueError, match="chunk_size"):
            list(model.reference_chunks(100, chunk_size=0))


class TestProcessChunk:
    def test_empty_chunk_is_a_no_op(self):
        model = create_workload("oltp")
        collector = TraceCollector(model.scaled_config())
        result = collector.run_chunks(iter(()))
        assert len(result.trace) == 0
        assert result.references == 0

    def test_rejects_out_of_range_nodes(self):
        model = create_workload("oltp")
        collector = TraceCollector(model.scaled_config())
        bad = ReferenceChunk([17], [0x40], [0x100], [0], [5])
        with pytest.raises(ValueError, match="nodes outside"):
            collector.run_chunks([bad])

    def test_miss_count_is_returned(self):
        model = create_workload("oltp")
        collector = TraceCollector(model.scaled_config())
        chunk = next(model.reference_chunks(500))
        misses = collector.process_chunk(chunk)
        assert misses == len(collector.result().trace)
        assert collector.result().references == 500

    def test_native_session_leaves_no_reference_cycle(self):
        """A collector that ran native chunks is freed as soon as its
        last reference goes, not at the next cyclic collection."""
        if not _backend.native_available():
            pytest.skip("native kernel extension not built")
        model = create_workload("oltp")
        collector = TraceCollector(model.scaled_config())
        with _backend.use("native"):
            collector.run_chunks(model.reference_chunks(500))
        assert collector._kernel_session
        alive = weakref.ref(collector)
        gc.disable()
        try:
            del collector
            assert alive() is None
        finally:
            gc.enable()
