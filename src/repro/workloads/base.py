"""Workload-model framework.

A :class:`WorkloadModel` composes weighted sharing-pattern regions
(:mod:`repro.workloads.patterns`) into per-processor memory-reference
streams.  Each model carries the paper's published properties
(Table 2) for its workload, so analyses can report
"paper vs. reproduced" side by side.

Scaling: the paper simulates 4 MB L2s and hundreds of megabytes of
footprint with a C simulator; a pure-Python pipeline reproduces the
same *ratios* at ``scale`` (default 1/32) — footprints and cache sizes
shrink together, preserving the capacity-miss/sharing-miss balance
that determines every result shape in the paper.  Weights are
calibrated at the default scale; other scales keep the qualitative
shapes but drift a few points.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.cache.pipeline import CollectionResult, TraceCollector
from repro.common.params import SystemConfig
from repro.common.rng import make_rng
from repro.common.types import NodeId
from repro.workloads.patterns import AddressSpaceAllocator, Region

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.genchunks import ReferenceChunk


@dataclasses.dataclass(frozen=True)
class PaperProperties:
    """Published Table 2 row for a workload (the reproduction target)."""

    footprint_mb: float
    macroblock_footprint_mb: float
    static_miss_pcs: int
    total_misses_millions: float
    misses_per_kilo_instr: float
    directory_indirection_pct: float


#: A region together with its selection weight.  Weights are relative
#: per-member propensities: a node picks among its eligible regions
#: with probability proportional to weight.
WeightedRegion = Tuple[Region, float]


class WorkloadModel(abc.ABC):
    """Base class for the six synthetic workload models."""

    #: Workload name, e.g. ``"apache"``.
    name: str = ""
    #: One-line description of what is being modelled.
    description: str = ""
    #: The paper's Table 2 row for this workload.
    paper: PaperProperties
    #: Instructions between successive memory references (calibrated
    #: per workload so misses-per-1,000-instructions lands near the
    #: paper's value).
    instructions_per_reference: int = 10

    def __init__(
        self,
        config: SystemConfig | None = None,
        seed: int = 42,
        scale: float = 1.0 / 32.0,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.config = config if config is not None else SystemConfig()
        self.seed = seed
        self.scale = scale
        allocator = AddressSpaceAllocator(
            alignment=self.config.macroblock_size
        )
        self._regions: List[WeightedRegion] = list(self._build(allocator))
        if not self._regions:
            raise ValueError(f"workload {self.name!r} built no regions")
        # Fail at construction, not at generation, when some node has
        # no eligible region.
        self.node_region_tables()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build(
        self, alloc: AddressSpaceAllocator
    ) -> Sequence[WeightedRegion]:
        """Construct the workload's weighted regions."""

    # ------------------------------------------------------------------
    @property
    def regions(self) -> List[WeightedRegion]:
        """The weighted regions composing this workload."""
        return list(self._regions)

    def scaled_blocks(self, paper_bytes: float) -> int:
        """Scale a paper-sized byte count to blocks at ``self.scale``."""
        blocks = int(paper_bytes * self.scale) // self.config.block_size
        return max(1, blocks)

    def scaled_config(self) -> SystemConfig:
        """A :class:`SystemConfig` with caches shrunk by ``scale``.

        Cache sizes are rounded to the nearest power of two at least
        ``associativity`` blocks so the set math stays valid.
        """
        return dataclasses.replace(
            self.config,
            l1d_size=self._scale_pow2(self.config.l1d_size),
            l1i_size=self._scale_pow2(self.config.l1i_size),
            l2_size=self._scale_pow2(self.config.l2_size),
        )

    def reference_chunks(
        self, n_references: int, chunk_size: Optional[int] = None
    ) -> "Iterator[ReferenceChunk]":
        """Generate the reference stream as column chunks.

        The model's one reference generator.  Processors issue
        round-robin (reference ``i`` comes from node
        ``i % n_processors``), modelling the paper's totally-ordered
        interconnect arbitrating among concurrently issuing
        processors.  The chunked engine
        (:mod:`repro.workloads.genchunks`) synthesizes the columns:
        vectorized under numpy, with a byte-identical pure-Python
        fallback (``REPRO_BACKEND=pure``) whose per-record sampler
        loops are the readable specification.  Every draw is a pure
        function of seed, workload name, stream label and counter, so
        the stream does not depend on ``chunk_size``.
        """
        from repro.workloads.genchunks import (
            DEFAULT_CHUNK_SIZE,
            ChunkedReferenceSource,
        )

        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        source = ChunkedReferenceSource(self)
        return source.chunks(n_references, chunk_size)

    def collect(self, n_references: int) -> CollectionResult:
        """Run the reference stream through the scaled cache pipeline.

        Returns the L2-miss coherence trace plus instruction counters —
        the direct analogue of the paper's Simics trace collection.
        The stream of :meth:`reference_chunks` is filtered chunk by
        chunk (:meth:`TraceCollector.run_chunks`).
        """
        collector = TraceCollector(self.scaled_config(), name=self.name)
        return collector.run_chunks(self.reference_chunks(n_references))

    # ------------------------------------------------------------------
    def node_region_tables(
        self,
    ) -> List[Tuple[List[int], List[float]]]:
        """Per-node eligible region indices and cumulative weights.

        The single source of truth for region eligibility (membership
        and positive weight), from which the chunked engine builds its
        region-selection threshold tables.  Indices refer to
        :attr:`regions` order.
        """
        tables: List[Tuple[List[int], List[float]]] = []
        for node in range(self.config.n_processors):
            indices: List[int] = []
            cumulative: List[float] = []
            total = 0.0
            for index, (region, weight) in enumerate(self._regions):
                if node in region.members and weight > 0:
                    indices.append(index)
                    total += weight
                    cumulative.append(total)
            if not indices:
                raise ValueError(
                    f"workload {self.name!r}: node {node} has no regions"
                )
            tables.append((indices, cumulative))
        return tables

    def _scale_pow2(self, size: int) -> int:
        scaled = max(4096, int(size * self.scale))
        power = 1
        while power < scaled:
            power <<= 1
        return power

    # ------------------------------------------------------------------
    def node_pool(
        self, rng_label: str, pool_size: int, index: int
    ) -> List[NodeId]:
        """A deterministic pseudo-random pool of ``pool_size`` nodes."""
        rng = make_rng(self.seed, self.name, rng_label, index)
        nodes = list(range(self.config.n_processors))
        rng.shuffle(nodes)
        return sorted(nodes[:pool_size])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(seed={self.seed}, scale={self.scale}, "
            f"regions={len(self._regions)})"
        )
