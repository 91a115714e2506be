"""Unit tests for multicast snooping with destination-set prediction."""

import pytest

from repro.common.params import PredictorConfig, SystemConfig
from repro.protocols.base import LatencyClass
from repro.protocols.multicast import MulticastSnoopingProtocol

from tests.conftest import gets, getx, make_trace

UNBOUNDED = PredictorConfig(n_entries=None, index_granularity=64)


def make(config4, predictor="minimal", **kwargs):
    return MulticastSnoopingProtocol(
        config4, predictor=predictor, predictor_config=UNBOUNDED, **kwargs
    )


class TestSufficiencyPath:
    def test_memory_read_with_minimal_set_succeeds(self, config4):
        protocol = make(config4)
        outcome = protocol.handle(gets(0x40, 0))
        assert not outcome.indirection
        assert outcome.retries == 0
        assert outcome.latency_class is LatencyClass.MEMORY

    def test_insufficient_set_retries_once(self, config4):
        protocol = make(config4)  # minimal predictor never finds owners
        protocol.handle(getx(0x00, 1))  # home of 0x00 is node 0
        outcome = protocol.handle(gets(0x00, 2))
        assert outcome.indirection
        assert outcome.retries == 1
        assert outcome.latency_class is LatencyClass.INDIRECT
        assert outcome.retry_messages > 0

    def test_broadcast_predictor_never_retries(self, config4):
        protocol = make(config4, predictor="broadcast")
        trace = make_trace(
            [getx(0x40, 0), gets(0x40, 1), getx(0x40, 2), gets(0x40, 3)]
        )
        totals = protocol.run(trace)
        assert totals.indirections == 0
        assert totals.retries == 0

    def test_oracle_predictor_never_retries(self, config4):
        protocol = make(config4, predictor="oracle")
        trace = make_trace(
            [getx(0x40, i % 4) for i in range(20)]
            + [gets(0x40, (i + 1) % 4) for i in range(20)]
        )
        totals = protocol.run(trace)
        assert totals.indirections == 0

    def test_oracle_uses_minimal_bandwidth(self, config4):
        oracle = make(config4, predictor="oracle")
        minimal = make(config4, predictor="minimal")
        trace = make_trace([getx(0x40 + 64 * i, i % 4) for i in range(20)])
        oracle_totals = oracle.run(trace)
        minimal_totals = minimal.run(trace)
        assert (
            oracle_totals.request_messages_per_miss
            <= minimal_totals.request_messages_per_miss + 1e-9
        )


class TestRetryCosts:
    def test_retry_messages_cover_corrected_set(self, config4):
        protocol = make(config4)
        protocol.handle(getx(0x00, 1))
        outcome = protocol.handle(gets(0x00, 2))
        # Corrected set: requester, home, owner -> at least owner gets
        # a retry delivery beyond the requester.
        assert outcome.retry_messages >= 1

    def test_total_includes_requests_and_retries(self, config4):
        protocol = make(config4)
        protocol.handle(getx(0x00, 1))
        outcome = protocol.handle(gets(0x00, 2))
        assert (
            outcome.total_request_messages
            == outcome.request_messages + outcome.retry_messages
        )


class TestRaceWindow:
    def test_races_force_extra_retries(self, config4):
        protocol = make(config4, race_probability=0.99, seed=1)
        protocol.handle(getx(0x00, 1))
        outcome = protocol.handle(gets(0x00, 2))
        # With near-certain races, the retry loop runs to the broadcast
        # fallback on the third attempt.
        assert outcome.retries == 3

    def test_third_retry_broadcast_bounds_retries(self, config4):
        protocol = make(config4, race_probability=0.99, seed=2)
        protocol.handle(getx(0x00, 1))
        for i in range(5):
            outcome = protocol.handle(gets(0x00, 2, pc=0x10 + i))
            assert outcome.retries <= 3

    def test_rejects_bad_probability(self, config4):
        with pytest.raises(ValueError):
            make(config4, race_probability=1.5)


class TestTraining:
    def test_owner_predictor_learns_and_stops_retrying(self, config4):
        protocol = make(config4, predictor="owner")
        protocol.handle(getx(0x00, 1))
        first = protocol.handle(gets(0x00, 2))
        assert first.indirection  # cold predictor
        protocol.handle(getx(0x00, 1, pc=0x30))
        second = protocol.handle(gets(0x00, 2, pc=0x34))
        # Node 2 saw node 1's GETX (it was a sharer in the corrected
        # set) and its response training: predicts owner correctly now.
        assert not second.indirection

    def test_predictors_are_per_node(self, config4):
        protocol = make(config4, predictor="owner")
        assert len(protocol.predictors) == config4.n_processors
        assert all(
            p is not q
            for p, q in zip(protocol.predictors, protocol.predictors[1:])
        )

    def test_sticky_spatial_trains_from_truth(self, config4):
        protocol = make(config4, predictor="sticky-spatial")
        protocol.handle(getx(0x00, 1))
        first = protocol.handle(gets(0x00, 2))
        assert first.indirection
        second = protocol.handle(gets(0x00, 2, pc=0x44))
        # Requester 2's sticky entry now holds {owner, home}.
        assert not second.indirection


class TestSixteenNodes:
    def test_group_beats_minimal_on_migratory(self):
        config = SystemConfig()
        group = MulticastSnoopingProtocol(
            config, "group", predictor_config=UNBOUNDED
        )
        minimal = MulticastSnoopingProtocol(
            config, "minimal", predictor_config=UNBOUNDED
        )
        records = []
        for round_index in range(40):
            node = round_index % 2  # pairwise migration on block 0x40
            records.append(gets(0x40, node, pc=0x50))
            records.append(getx(0x40, node, pc=0x54))
        trace = make_trace(records, n_processors=16)
        group_totals = group.run(trace)
        minimal_totals = minimal.run(trace)
        assert group_totals.indirections < minimal_totals.indirections


class _RecordingPredictor:
    """Minimal predictor stub that records its training calls."""

    def __init__(self, n_nodes=4):
        from repro.common.destset import DestinationSet
        from repro.predictors.base import DestinationSetPredictor

        class _Stub(DestinationSetPredictor):
            policy_name = "recording-stub"

            def __init__(stub):
                super().__init__(n_nodes, UNBOUNDED)
                stub.external = []
                stub.responses = []

            def predict(stub, address, pc, access):
                return DestinationSet.empty(stub.n_nodes)

            def train_response(stub, address, pc, responder, access,
                               allocate):
                stub.responses.append((address, responder))

            def train_external(stub, address, pc, requester, access):
                stub.external.append((address, requester))

        self.instance = _Stub()


class TestPredictorSwapRefreshesHotCaches:
    """Swapping a predictor in-place must retrain the *new* instance.

    ``proto.predictors`` is a plain list that every replay reads
    afresh, so ``proto.predictors[i] = p`` takes effect from the very
    next request on the record path and the columnar path alike.
    """

    def test_item_assignment_refreshes_needs_truth(self, config4):
        from repro.predictors.registry import create_predictor

        def swapped():
            protocol = make(config4, predictor="owner")
            protocol.predictors[1] = create_predictor(
                "sticky-spatial", 4, UNBOUNDED
            )
            return protocol

        records = [
            (getx if i % 3 == 0 else gets)(0x40 * (i % 5), i % 4)
            for i in range(40)
        ]
        columnar = swapped()
        columnar.run(make_trace(records))
        objects = swapped()
        objects.run(records)

        assert columnar.totals == objects.totals
        # The swapped-in sticky-spatial learns only from directory
        # feedback, so a populated table proves train_truth ran.
        sticky = columnar.predictors[1]
        assert sticky._entries
        assert sticky._entries == objects.predictors[1]._entries

        def owners(protocol, node):
            entries = protocol.predictors[node]._table._entries
            return {
                key: (entry.owner, entry.valid)
                for key, entry in entries.items()
            }

        for node in (0, 2, 3):
            assert owners(columnar, node) == owners(objects, node)

    def test_swapped_predictor_trains_on_columnar_replay(self, config4):
        protocol = make(config4, predictor="broadcast")
        replacement = _RecordingPredictor().instance
        protocol.predictors[2] = replacement
        trace = make_trace([getx(0x40, 0), gets(0x80, 1)])
        protocol.run(trace)
        assert replacement.external == [(0x40, 0), (0x80, 1)]
        # Its own miss trains via train_response, not train_external.
        protocol.run(make_trace([gets(0xC0, 2)]))
        assert replacement.responses
