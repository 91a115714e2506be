"""Synthetic workload models.

The paper traces six workloads (Apache, Barnes-Hut, Ocean, OLTP,
Slashcode, SPECjbb) under Simics/Solaris — software stacks we cannot
run.  This subpackage substitutes *synthetic workload models*: each
model composes the sharing-pattern primitives that the paper's own
Section 2 identifies (private data, migratory locks, producer-consumer
buffers, widely shared read-mostly structures), with mixture weights
and footprints calibrated so the model reproduces the published
workload properties (Table 2) and sharing behaviour (Figures 2-4).

Destination-set predictors observe only the coherence-request stream,
so a stream with matched sharing statistics exercises the same
predictor/protocol behaviour as the original traces.
"""

from repro.workloads.base import PaperProperties, WorkloadModel
from repro.workloads.patterns import (
    MigratoryRegion,
    PrivateRegion,
    ProducerConsumerRegion,
    ReadMostlyRegion,
    Region,
)
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    create_workload,
    iter_workloads,
)

__all__ = [
    "MigratoryRegion",
    "PaperProperties",
    "PrivateRegion",
    "ProducerConsumerRegion",
    "ReadMostlyRegion",
    "Region",
    "WORKLOAD_NAMES",
    "WorkloadModel",
    "create_workload",
    "iter_workloads",
]
