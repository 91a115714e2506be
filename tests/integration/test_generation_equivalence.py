"""Cold-path equivalence: chunked generation and columnar analyses.

Four contracts, each enforced byte-for-byte:

1. **Backend equivalence** — the chunked generation engine produces
   bit-identical traces under the numpy and pure-Python backends for
   every workload in the registry (two seeds each), and is invariant
   to the chunk size.
2. **Collector equivalence** — the chunk-consuming collector fast
   path matches the record-at-a-time collector (the oracle) fed the
   same generated references one :class:`MemoryReference` at a time
   (trace bytes and counters).
3. **Pinned content** — each workload's generated trace matches a
   golden digest tied to the trace-cache format, so content cannot
   change without a ``CACHE_FORMAT`` bump.
4. **Analysis equivalence** — the columnar analysis kernels equal the
   retained record-loop oracles on real traces.
"""

import hashlib

import pytest

from repro.cache.pipeline import TraceCollector
from repro.cache.reference import MemoryReference
from repro.analysis.locality import locality_cdf, locality_cdf_records
from repro.analysis.sharing import (
    degree_of_sharing,
    degree_of_sharing_records,
    sharing_histogram,
    sharing_histogram_records,
)
from repro.common import backend as _backend
from repro.experiment.cache import CACHE_FORMAT
from repro.trace.stats import (
    compute_trace_stats,
    compute_trace_stats_records,
)
from repro.workloads import WORKLOAD_NAMES, create_workload

N_REFERENCES = 6_000
SEEDS = (42, 7)

needs_numpy = pytest.mark.skipif(
    "numpy" not in _backend.available_backends(),
    reason="numpy backend not installed",
)


def trace_bytes(trace):
    """The five raw columns, concatenated — the byte-identity probe."""
    return (
        trace.addresses.tobytes()
        + trace.pcs.tobytes()
        + trace.requesters.tobytes()
        + trace.accesses.tobytes()
        + trace.instructions.tobytes()
    )


def unpack(chunks):
    """The references of ``chunks``, one record at a time."""
    for chunk in chunks:
        for node, address, pc, write, gap in zip(
            chunk.nodes, chunk.addresses, chunk.pcs, chunk.writes,
            chunk.instructions,
        ):
            yield MemoryReference(node, address, pc, bool(write), gap)


@pytest.fixture
def restore_backend():
    yield
    _backend.set_backend("auto")


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestBackendEquivalence:
    def test_numpy_and_pure_python_traces_identical(
        self, name, seed, restore_backend
    ):
        _backend.set_backend("numpy")
        vectorized = create_workload(name, seed=seed).collect(
            N_REFERENCES
        )
        _backend.set_backend("pure")
        fallback = create_workload(name, seed=seed).collect(
            N_REFERENCES
        )
        assert trace_bytes(vectorized.trace) == trace_bytes(
            fallback.trace
        )
        assert vectorized.instructions == fallback.instructions
        assert vectorized.references == fallback.references


class TestChunkInvariance:
    @pytest.mark.parametrize("name", ("oltp", "ocean"))
    def test_chunk_size_does_not_change_the_stream(self, name):
        results = []
        for chunk_size in (512, 4_096):
            model = create_workload(name)
            collector = TraceCollector(
                model.scaled_config(), name=model.name
            )
            collector.run_chunks(
                model.reference_chunks(5_000, chunk_size)
            )
            results.append(trace_bytes(collector.result().trace))
        assert results[0] == results[1]

    def test_generation_is_deterministic_and_seed_sensitive(self):
        same_a = create_workload("apache", seed=3).collect(2_000)
        same_b = create_workload("apache", seed=3).collect(2_000)
        other = create_workload("apache", seed=4).collect(2_000)
        assert trace_bytes(same_a.trace) == trace_bytes(same_b.trace)
        assert trace_bytes(same_a.trace) != trace_bytes(other.trace)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestCollectorEquivalence:
    def test_chunk_collector_matches_per_record_collector(self, name):
        model = create_workload(name)
        oracle = TraceCollector(model.scaled_config(), name=model.name).run(
            unpack(model.reference_chunks(N_REFERENCES))
        )

        replay = create_workload(name)
        collector = TraceCollector(
            replay.scaled_config(), name=replay.name
        )
        result = collector.run_chunks(
            replay.reference_chunks(N_REFERENCES, 1_024)
        )
        assert trace_bytes(oracle.trace) == trace_bytes(result.trace)
        assert oracle.instructions == result.instructions
        assert oracle.references == result.references


#: The trace-cache format the digests below were generated under.
GOLDEN_FORMAT = 2
#: sha256 of each workload's trace columns, per-node instruction
#: counters and reference count (2,000 references, seed 42).
GOLDEN_DIGESTS = {
    "apache":
        "d7a24ce2023c312d65e45cd623728e23891e30e90672d32ecdbede5a3bd41be0",
    "barnes-hut":
        "a809a56e91122d306b8a54e0eb8e7386b6d6087e0ec7a91417c2af2fed6584fa",
    "ocean":
        "e4a0b6565381624d14b7ecb69a64e645d070c86c7b6ebd81d752dcde79fca661",
    "oltp":
        "d1c34b43980fee3a9006e6428649ac8eadd8aadadfb643a5ad124ca690833d47",
    "slashcode":
        "4afbfd8352e7aa872256380b7d5bb721739f58ee79fc605b210f02a9108ef845",
    "specjbb":
        "24475cbb7a9aa616034947972f2529ceaf3a429ddecfeb1b87635b22ac248f95",
}


@pytest.mark.parametrize("backend_name", _backend.available_backends())
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_generated_content_is_pinned(name, backend_name):
    """Generated traces change only together with ``CACHE_FORMAT``.

    A change that moves a digest must bump ``CACHE_FORMAT`` (so no
    cache serves a trace of the old content under the new code) and
    re-pin ``GOLDEN_FORMAT`` and ``GOLDEN_DIGESTS`` together.
    """
    assert CACHE_FORMAT == GOLDEN_FORMAT, (
        "CACHE_FORMAT moved: re-pin GOLDEN_DIGESTS for the new content"
    )
    with _backend.use(backend_name):
        result = create_workload(name, seed=42).collect(2_000)
    digest = hashlib.sha256(
        trace_bytes(result.trace)
        + repr(sorted(result.instructions.items())).encode()
        + repr(result.references).encode()
    ).hexdigest()
    assert digest == GOLDEN_DIGESTS[name], (
        f"{name}: generated trace content changed; bump CACHE_FORMAT"
    )


class TestAnalysisKernelsMatchOracles:
    @pytest.fixture(scope="class")
    def trace(self):
        return create_workload("oltp").collect(20_000).trace

    def test_sharing_histogram(self, trace):
        assert sharing_histogram(trace) == sharing_histogram_records(
            trace
        )

    def test_degree_of_sharing(self, trace):
        for block_size in (None, 1024):
            assert degree_of_sharing(
                trace, block_size
            ) == degree_of_sharing_records(trace, block_size)

    def test_locality_cdf(self, trace):
        for kind in ("block", "macroblock", "pc"):
            assert locality_cdf(trace, kind) == locality_cdf_records(
                trace, kind
            )

    def test_trace_stats(self, trace):
        assert compute_trace_stats(trace) == compute_trace_stats_records(
            trace
        )
