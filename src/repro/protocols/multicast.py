"""Multicast snooping with destination-set prediction (Section 4.1).

Processors multicast coherence requests to a predicted destination set
on a totally-ordered interconnect.  The minimal destination set always
includes the requester and the home node.  The home node's directory
checks sufficiency:

- **Sufficient** — the owner responds directly (like snooping); the
  directory updates its state and, for GETX, sharers invalidate.
- **Insufficient** — the directory re-issues the request with a
  corrected destination set (the Sorin et al. optimization), costing a
  latency similar to a directory 3-hop.  A window of vulnerability can
  make the retry insufficient again (modelled by an optional race
  probability); the third retry falls back to broadcast, which is
  guaranteed sufficient.

Training: the requester's predictor trains on the data response (which
carries the responder's identity); every processor that received the
request trains on it as an external request; StickySpatial additionally
receives the directory's corrected set.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.common.destset import DestinationSet, full_mask
from repro.common.params import PredictorConfig, SystemConfig
from repro.common.types import MEMORY_NODE, home_node
from repro.coherence.sufficiency import is_sufficient, minimal_set
from repro.predictors.base import DestinationSetPredictor
from repro.predictors.registry import create_predictor
from repro.predictors.static import OraclePredictor
from repro import kernels
from repro.protocols import fused
from repro.protocols.base import (
    CoherenceProtocol,
    LatencyClass,
    OutcomeColumns,
    RequestOutcome,
)
from repro.trace.record import TraceRecord
from repro.trace.trace import Trace

_MAX_RETRIES = 3  # third retry resorts to broadcast (Section 4.1)


class MulticastSnoopingProtocol(CoherenceProtocol):
    """Multicast snooping driven by per-node destination-set predictors."""

    name = "multicast-snooping"

    def __init__(
        self,
        config: SystemConfig,
        predictor: str = "group",
        predictor_config: Optional[PredictorConfig] = None,
        race_probability: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(config)
        if not 0.0 <= race_probability < 1.0:
            raise ValueError("race_probability must be in [0, 1)")
        self.predictor_name = predictor
        self.predictor_config = (
            predictor_config if predictor_config is not None
            else PredictorConfig()
        )
        self.race_probability = race_probability
        self._race_rng = random.Random(seed)
        instances: List[DestinationSetPredictor] = []
        for node in range(config.n_processors):
            instance = create_predictor(
                predictor, config.n_processors, self.predictor_config
            )
            if isinstance(instance, OraclePredictor):
                instance.bind(self.state, node)
            instances.append(instance)
        self._full_mask = full_mask(config.n_processors)
        #: The per-node predictors (index = node id).  A plain list:
        #: every replay reads it afresh, so ablation harnesses may
        #: swap instances in between (or before) runs at will.
        self.predictors = instances

    # ------------------------------------------------------------------
    def _run_columns(
        self, trace: Trace, out: Optional[OutcomeColumns] = None
    ) -> None:
        """Batched columnar replay (see :mod:`repro.protocols.fused`).

        Picks the fastest applicable tier: the fully-inlined Group
        loop for stock, uniformly tuned Group lists; a policy's own
        :class:`~repro.predictors.base.FusedKernel` when every
        predictor is exactly the class that defines ``fused_kernel``;
        otherwise the generic kernel over the record methods.  The
        first two try their native twin first, and both need every
        predictor to index by the protocol's ``predictor_config``
        (:func:`fused.keys_match`).
        """
        predictors = self.predictors
        kernel = None
        if fused.keys_match(self):
            if fused.group_uniform(predictors):
                if not kernels.try_group_replay(self, trace, out):
                    fused.run_group(self, trace, out)
                return
            first_type = type(predictors[0])
            if "fused_kernel" in vars(first_type) and all(
                type(p) is first_type for p in predictors
            ):
                kernel = first_type.fused_kernel(predictors)
        if kernel is not None:
            if not kernels.try_policy_replay(self, trace, out):
                fused.run_kernel(self, trace, kernel, out)
            return
        fused.run_kernel(self, trace, fused.generic_kernel(self), out)

    # ------------------------------------------------------------------
    def _handle(self, record: TraceRecord) -> RequestOutcome:
        n = self.config.n_processors
        requester = record.requester
        home = home_node(record.address, n, self.config.block_size)
        minimal = minimal_set(
            requester, record.address, n, self.config.block_size
        )

        predictor = self.predictors[requester]
        predicted = predictor.predict(record.address, record.pc, record.access)
        destination = predicted | minimal

        pre_state = self.state.lookup(record.address)
        sufficient = is_sufficient(
            destination,
            pre_state,
            requester,
            record.access,
            record.address,
            self.config.block_size,
        )
        coherence = self.state.apply(record)

        # Initial multicast: delivered to every member but the requester.
        request_messages = destination.count() - 1
        delivered = destination

        retries = 0
        retry_messages = 0
        if not sufficient:
            corrected = coherence.required | minimal
            while True:
                retries += 1
                if retries >= _MAX_RETRIES:
                    corrected = DestinationSet.broadcast(n)
                retry_messages += corrected.count() - 1
                delivered = delivered | corrected
                raced = (
                    retries < _MAX_RETRIES
                    and self._race_rng.random() < self.race_probability
                )
                if not raced:
                    break

        if not sufficient:
            latency_class = LatencyClass.INDIRECT
        elif coherence.responder == MEMORY_NODE:
            latency_class = LatencyClass.MEMORY
        else:
            latency_class = LatencyClass.CACHE_TO_CACHE_DIRECT

        self._train(record, coherence, delivered, home)
        return RequestOutcome(
            coherence=coherence,
            request_messages=request_messages,
            forward_messages=0,
            retry_messages=retry_messages,
            data_messages=1,
            indirection=not sufficient,
            latency_class=latency_class,
            retries=retries,
        )

    # ------------------------------------------------------------------
    def _train(self, record, coherence, delivered, home) -> None:
        requester = record.requester
        # Data-response training at the requester; entries allocate only
        # when the minimal set proved insufficient (Section 3.1).
        allocate = not coherence.required.is_empty()
        self.predictors[requester].train_response(
            record.address,
            record.pc,
            coherence.responder,
            record.access,
            allocate,
        )
        # External-request training at every node that saw the request.
        for node in delivered:
            if node != requester:
                self.predictors[node].train_external(
                    record.address, record.pc, requester, record.access
                )
        # Directory feedback (StickySpatial's training signal).
        truth = coherence.required.add(home)
        self.predictors[requester].train_truth(
            record.address, record.pc, truth
        )
