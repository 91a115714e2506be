"""Columnar engine vs. record-object engine equivalence.

The columnar trace engine replays traces through fused batch loops
(and allocation-free scalar kernels); the record-oriented path builds
:class:`TraceRecord`/:class:`RequestOutcome` objects per request.
Both must produce *identical* results — totals, runtime results,
accuracy numbers, and predictor table state — for every protocol and
predictor on every registered workload, on both column backends
(numpy-vectorized and pure Python).  This is the correctness contract
that lets the fast paths exist at all.

The backend is parametrized in-process via
:func:`repro.common.backend.set_backend` over the Python tiers (the
native tier has its own conformance suite, ``test_kernel_abi.py``);
CI additionally runs the whole suite on an interpreter without numpy
installed.
"""

import pytest

from repro import kernels
from repro.common import backend as _backend
from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.predictors.broadcast_if_shared import BroadcastIfSharedPredictor
from repro.predictors.group import GroupPredictor
from repro.predictors.owner import OwnerPredictor
from repro.predictors.owner_group import OwnerGroupPredictor
from repro.predictors.registry import (
    PAPER_POLICIES,
    PREDICTOR_NAMES,
    create_predictor,
)
from repro.predictors.sticky_spatial import StickySpatialPredictor
from repro.protocols.multicast import MulticastSnoopingProtocol
from repro.timing.system import TimingSimulator
from repro.trace.trace import Trace
from repro.workloads import WORKLOAD_NAMES, create_workload

N_REFERENCES = 4_000

PROTOCOL_LABELS = ("directory", "broadcast-snooping", *PREDICTOR_NAMES)


BACKENDS = tuple(
    name for name in _backend.available_backends() if name != "native"
)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Run the test under one Python tier, then restore detection."""
    _backend.set_backend(request.param)
    yield request.param
    _backend.set_backend("auto")


@pytest.fixture(scope="module")
def base_traces():
    """One small trace per registered workload (records + columns)."""
    collected = {}
    for name in WORKLOAD_NAMES:
        model = create_workload(name, seed=7)
        collected[name] = model.collect(N_REFERENCES).trace
    return collected


@pytest.fixture
def traces(base_traces, backend):
    """Fresh trace objects so derived columns build under ``backend``."""
    return {
        name: trace[:] for name, trace in base_traces.items()
    }


def _object_trace(trace: Trace):
    """The same requests as a plain list of records (object path)."""
    return list(trace)


def _predictor_table_state(protocol):
    """A deep, comparable snapshot of every predictor's mutable state.

    Walks ``__dict__``/slots recursively so any policy's counters,
    owner fields, bitmasks, and direct-mapped entries are captured;
    LRU access stamps and clocks are deliberately excluded (fused
    batches collapse repeated same-key touches, which preserves
    recency *order* but not absolute tick values).
    """

    def snapshot(value, depth=0):
        assert depth < 10, "unexpectedly deep predictor state"
        if isinstance(value, (int, float, str, bool, type(None))):
            return value
        if isinstance(value, (list, tuple)):
            return [snapshot(v, depth + 1) for v in value]
        if isinstance(value, dict):
            return {
                k: snapshot(v, depth + 1)
                for k, v in sorted(value.items())
            }
        # Entry/table/predictor objects: slots or __dict__.
        state = {}
        for slot in getattr(type(value), "__slots__", ()):
            if slot in ("_stamps", "_tick", "_config", "_entry_factory"):
                continue
            state[slot] = snapshot(getattr(value, slot), depth + 1)
        for name, attr in vars(value).items() if hasattr(
            value, "__dict__"
        ) else ():
            if name.startswith("__") or callable(attr):
                continue
            if name in ("config", "_state"):
                continue
            state[name] = snapshot(attr, depth + 1)
        return {"type": type(value).__name__, "state": state}

    return [snapshot(p) for p in protocol.predictors]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_protocol_totals_identical(traces, workload, label):
    trace = traces[workload]
    config = SystemConfig()
    predictor_config = PredictorConfig()

    columnar = make_protocol(label, config, predictor_config)
    assert columnar._fast_ok, f"{label} lost its fast path"
    columnar.run(trace)

    objects = make_protocol(label, config, predictor_config)
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_runtime_result_identical(traces, workload, label):
    trace = traces[workload]
    config = SystemConfig()
    predictor_config = PredictorConfig()

    fast = TimingSimulator(
        config, make_protocol(label, config, predictor_config)
    )
    fast_result = fast.run(trace)

    slow = TimingSimulator(
        config, make_protocol(label, config, predictor_config)
    )
    slow_result = slow.run(trace, columnar=False)

    assert fast_result == slow_result


@pytest.mark.parametrize("policy", PREDICTOR_NAMES)
def test_predictor_tables_identical(traces, policy):
    """Fused batch training leaves tables exactly as per-event calls.

    Replays the same trace through the batched columnar engine and
    the record-object engine, then compares every predictor's full
    mutable state (counters, owners, predicted bitmasks, allocation
    and eviction counts) — not just the aggregate totals.
    """
    trace = traces["oltp"]
    config = SystemConfig()
    predictor_config = PredictorConfig()

    columnar = make_protocol(policy, config, predictor_config)
    columnar.run(trace)
    objects = make_protocol(policy, config, predictor_config)
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals
    assert _predictor_table_state(columnar) == _predictor_table_state(
        objects
    )
    assert columnar.state._blocks == objects.state._blocks


def _mixed_list(n_nodes, config):
    """Owner / Group / StickySpatial round-robin over the nodes."""
    cycle = ("owner", "group", "sticky-spatial")
    return [
        create_predictor(cycle[node % 3], n_nodes, config)
        for node in range(n_nodes)
    ]


def _non_uniform_group_list(n_nodes, config):
    """Stock Groups, one with a wider counter (a different threshold)."""
    predictors = [GroupPredictor(n_nodes, config) for _ in range(n_nodes)]
    predictors[3] = GroupPredictor(n_nodes, config, counter_bits=3)
    return predictors


@pytest.mark.parametrize(
    "build", (_mixed_list, _non_uniform_group_list),
    ids=("mixed", "non-uniform-group"),
)
def test_predictor_list_tables_identical(traces, build):
    """Predictor lists no policy kernel covers replay through the
    generic kernel (including directory feedback for the mixed list's
    sticky-spatial nodes) exactly as through the record methods."""
    trace = traces["oltp"]
    config = SystemConfig()
    predictor_config = PredictorConfig()

    def protocol():
        proto = MulticastSnoopingProtocol(config, "group", predictor_config)
        proto.predictors = build(config.n_processors, predictor_config)
        return proto

    columnar = protocol()
    columnar.run(trace)
    objects = protocol()
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals
    assert _predictor_table_state(columnar) == _predictor_table_state(
        objects
    )
    assert columnar.state._blocks == objects.state._blocks


def _always_broadcast(base):
    """A subclass of ``base`` overriding only the record ``predict``."""

    def predict(self, address, pc, access):
        return DestinationSet.broadcast(self.n_nodes)

    return type(f"AlwaysBroadcast{base.__name__}", (base,), {
        "predict": predict,
    })


ALWAYS_BROADCAST = {
    base.policy_name: _always_broadcast(base)
    for base in (
        OwnerPredictor,
        BroadcastIfSharedPredictor,
        OwnerGroupPredictor,
        StickySpatialPredictor,
    )
}


@pytest.mark.parametrize("backend_name", _backend.available_backends())
@pytest.mark.parametrize("mix", ("homogeneous", "with-group"))
@pytest.mark.parametrize("policy", tuple(ALWAYS_BROADCAST))
def test_subclass_record_override_is_honoured(
    base_traces, backend_name, mix, policy
):
    """A subclass overriding only the record ``predict`` replays the
    same on the columnar path as on the record path: an inherited
    ``fused_kernel`` must not bypass the override, alone or mixed with
    stock Group nodes, and falling back is not a native decline."""
    config = SystemConfig()
    predictor_config = PredictorConfig()
    subclass = ALWAYS_BROADCAST[policy]

    def protocol():
        proto = MulticastSnoopingProtocol(config, "group", predictor_config)
        for node in range(config.n_processors):
            if mix == "homogeneous" or node % 2 == 0:
                proto.predictors[node] = subclass(
                    config.n_processors, predictor_config
                )
        return proto

    with _backend.use(backend_name):
        trace = base_traces["oltp"][:]
        kernels.reset_decline_counts()
        columnar = protocol()
        columnar.run(trace)
        declines = kernels.decline_counts()
    objects = protocol()
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals
    assert _predictor_table_state(columnar) == _predictor_table_state(
        objects
    )
    assert columnar.state._blocks == objects.state._blocks
    assert declines == {}


@pytest.mark.parametrize("backend_name", _backend.available_backends())
@pytest.mark.parametrize(
    "own_config",
    (PredictorConfig(index_granularity=64), PredictorConfig(use_pc_index=True)),
    ids=("block-indexed", "pc-indexed"),
)
@pytest.mark.parametrize(
    "policy",
    ("owner", "broadcast-if-shared", "group", "owner-group",
     "sticky-spatial"),
)
def test_predictors_keep_their_own_index_config(
    base_traces, backend_name, own_config, policy
):
    """Stock predictors built with an index config other than the
    protocol's key their tables by their own config on the columnar
    path too: the policy kernels and the inlined Group loop (which
    read the protocol's key column) must stand aside, and standing
    aside is not a native decline."""
    config = SystemConfig()

    def protocol():
        proto = MulticastSnoopingProtocol(config, "group")
        proto.predictors = [
            create_predictor(policy, config.n_processors, own_config)
            for _ in range(config.n_processors)
        ]
        return proto

    with _backend.use(backend_name):
        trace = base_traces["oltp"][:]
        kernels.reset_decline_counts()
        columnar = protocol()
        columnar.run(trace)
        declines = kernels.decline_counts()
    objects = protocol()
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals
    assert _predictor_table_state(columnar) == _predictor_table_state(
        objects
    )
    assert columnar.state._blocks == objects.state._blocks
    assert declines == {}


@pytest.mark.parametrize("policy", ("group", "owner", "minimal"))
def test_race_probability_path_identical(traces, policy):
    """The window-of-vulnerability retry path draws the same RNG
    sequence (and produces the same totals) in the fused loops as in
    the record-object engine."""
    from repro.protocols.multicast import MulticastSnoopingProtocol

    trace = traces["oltp"]
    config = SystemConfig()

    columnar = MulticastSnoopingProtocol(
        config, policy, race_probability=0.3, seed=9
    )
    columnar.run(trace)
    objects = MulticastSnoopingProtocol(
        config, policy, race_probability=0.3, seed=9
    )
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals
    assert columnar.totals.retries > 0  # the race path actually fired


def test_resultset_json_identical_across_backends_and_runners(tmp_path):
    """One spec, four executions, byte-identical ResultSet JSON.

    numpy vs pure-python columns x serial vs process-parallel: the
    acceptance contract for the batch execution layer.
    """
    from repro.experiment import ExperimentSpec, Runner

    spec = ExperimentSpec(
        workloads=("barnes-hut",),
        kind="tradeoff",
        n_references=3000,
        policies=("owner", "group", "sticky-spatial"),
    )
    texts = {}
    for backend in BACKENDS:
        _backend.set_backend(backend)
        try:
            serial = Runner(
                jobs=1, cache_dir=tmp_path / f"serial-{backend}"
            ).run(spec)
            parallel = Runner(
                jobs=2, cache_dir=tmp_path / f"parallel-{backend}"
            ).run(spec)
        finally:
            _backend.set_backend("auto")
        texts[f"{backend}-serial"] = serial.to_json()
        texts[f"{backend}-parallel"] = parallel.to_json()
    reference = texts[f"{BACKENDS[0]}-serial"]
    for label, text in texts.items():
        assert text == reference, f"{label} diverged"


@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_accuracy_identical_on_object_trace(traces, policy):
    """Accuracy probing (an ``_handle`` override) matches across inputs.

    The accuracy probe protocol overrides ``_handle``, so the engine
    must *not* take the fast path for it; scoring over the columnar
    trace and over a rebuilt record-by-record trace must agree.
    """
    from repro.analysis.accuracy import prediction_accuracy

    trace = traces["barnes-hut"]
    rebuilt = Trace(
        list(trace), n_processors=trace.n_processors, name=trace.name
    )
    a = prediction_accuracy(trace, policy)
    b = prediction_accuracy(rebuilt, policy)
    assert a.predictions == b.predictions
    assert a.coverage_pct == b.coverage_pct
    assert a.precision_pct == b.precision_pct
    assert a.outcomes == b.outcomes
