"""Kernel-ABI conformance: every backend, every kernel, same bytes.

:mod:`repro.kernels` names the replay hot loops (group + policy
replays, chunk collector, simple + detailed timing passes) as an
explicit ABI with three registered
backends — ``pure``, ``numpy``, ``native``.  The contract is that the
unified backend switch (:mod:`repro.common.backend`) selects *speed
only*: every kernel must produce byte-identical traces, totals,
predictor-table state, coherence state, and timing results under every
backend, for every protocol and predictor — including configurations
where a backend's fastest tier declines (falls back) mid-run.

The directory and broadcast-snooping baselines replay through the
``baseline_replay`` kernel under the native backend; their suite
below pins the warm-up -> measured replay (totals, outcome-column
bytes, coherence state) under both processor models, proves the
kernel really ran (the Python ``_handle_fast`` is patched to raise),
and gates a whole tradeoff sweep against a silent fallback.

The native parametrization is skipped with a reason when the compiled
extension is absent (source-only checkout, no compiler), keeping the
suite green on the no-compiler CI leg.
"""

import dataclasses

import pytest

from repro import kernels
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.experiment import ExperimentSpec, Runner
from repro.predictors.registry import PAPER_POLICIES
from repro.protocols.base import OutcomeColumns
from repro.protocols.directory import DirectoryProtocol
from repro.protocols.snooping import BroadcastSnoopingProtocol
from repro.timing.system import TimingSimulator
from repro.workloads import create_workload

from test_columnar_equivalence import _predictor_table_state

N_REFERENCES = 2_500
WORKLOAD = "oltp"
PROTOCOL_LABELS = (
    "directory", "broadcast-snooping", *PAPER_POLICIES, "sticky-spatial"
)
PROCESSOR_MODELS = ("simple", "detailed")
BASELINE_LABELS = ("directory", "broadcast-snooping")

ALL_BACKENDS = _backend.BACKENDS  # pure, numpy, native


@pytest.fixture(params=ALL_BACKENDS)
def unified_backend(request):
    """Select one registered backend; skip-with-reason when absent."""
    name = request.param
    if name not in kernels.available_backends():
        pytest.skip(
            f"{name} backend unavailable on this machine"
            + (
                " (build the extension with"
                " `python -m repro.kernels.build`)"
                if name == "native"
                else ""
            )
        )
    _backend.set_backend(name)
    yield name
    _backend.set_backend("auto")


@pytest.fixture(scope="module")
def reference():
    """Ground truth computed under the pure backend."""
    _backend.set_backend("pure")
    try:
        trace = create_workload(WORKLOAD, seed=13).collect(
            N_REFERENCES
        ).trace
        runs = {}
        for label in PROTOCOL_LABELS:
            config = SystemConfig()
            protocol = make_protocol(label, config, PredictorConfig())
            protocol.run(trace[:])
            tables = (
                _predictor_table_state(protocol)
                if hasattr(protocol, "predictors")
                else None
            )
            runtimes = {}
            for model in PROCESSOR_MODELS:
                simulator = TimingSimulator(
                    config,
                    make_protocol(label, config, PredictorConfig()),
                    processor_model=model,
                )
                runtimes[model] = simulator.run(trace[:])
            runs[label] = (
                protocol.totals,
                tables,
                dict(protocol.state._blocks),
                runtimes,
            )
    finally:
        _backend.set_backend("auto")
    return {"trace": trace, "runs": runs}


def test_collector_kernel_conformance(unified_backend, reference):
    """The chunk-collector kernel emits the identical miss trace."""
    result = create_workload(WORKLOAD, seed=13).collect(N_REFERENCES)
    trace = result.trace
    expected = reference["trace"]
    assert list(trace._addresses) == list(expected._addresses)
    assert list(trace._pcs) == list(expected._pcs)
    assert list(trace._requesters) == list(expected._requesters)
    assert list(trace._accesses) == list(expected._accesses)
    assert list(trace._instructions) == list(expected._instructions)


@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_replay_kernel_conformance(unified_backend, reference, label):
    """Replay kernels leave identical totals/tables/coherence state."""
    trace = reference["trace"][:]
    protocol = make_protocol(label, SystemConfig(), PredictorConfig())
    protocol.run(trace)
    totals, tables, blocks, _ = reference["runs"][label]
    assert protocol.totals == totals
    if tables is not None:
        assert _predictor_table_state(protocol) == tables
    assert protocol.state._blocks == blocks


@pytest.mark.parametrize("model", PROCESSOR_MODELS)
@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_timing_kernel_conformance(
    unified_backend, reference, label, model
):
    """The timing-pass kernels reproduce the exact RuntimeResult for
    both processor models."""
    trace = reference["trace"][:]
    config = SystemConfig()
    simulator = TimingSimulator(
        config,
        make_protocol(label, config, PredictorConfig()),
        processor_model=model,
    )
    runtime = simulator.run(trace)
    assert runtime == reference["runs"][label][3][model]


def test_backend_registry_shape():
    """available_backends() lists the floor first and native last."""
    names = kernels.available_backends()
    assert names[0] == "pure"
    assert set(names) <= set(ALL_BACKENDS)
    assert kernels.native_available() == ("native" in names)


# ----------------------------------------------------------------------
# baseline_replay: the directory / broadcast-snooping kernel
# ----------------------------------------------------------------------

def _forbid_python_baselines(monkeypatch):
    """Make the Python baseline loop raise if it is ever entered.

    Patching the class attributes keeps the stock-kernel identity the
    native dispatch checks, so only a fallback reaches these.
    """
    def refuse(self, *args):
        raise AssertionError(
            f"{type(self).__name__} replayed through the Python loop"
        )

    monkeypatch.setattr(DirectoryProtocol, "_handle_fast", refuse)
    monkeypatch.setattr(BroadcastSnoopingProtocol, "_handle_fast", refuse)


def _baseline_run(label, trace, model):
    """Warm-up then measured replay, snapshotting every observable.

    The measured replay fills outcome columns like the timing pass
    does; the timing simulator then runs the same split end to end
    under ``model``.
    """
    config = SystemConfig()
    protocol = make_protocol(label, config, PredictorConfig())
    warmup, measured = trace.split_warmup(len(trace) // 4)
    protocol.run(warmup)
    warm = (
        dataclasses.replace(protocol.totals),
        dict(protocol.state._blocks),
    )
    protocol.reset_totals()
    out = OutcomeColumns()
    protocol._run_columns(measured, out)
    simulator = TimingSimulator(
        config,
        make_protocol(label, config, PredictorConfig()),
        processor_model=model,
    )
    runtime = simulator.run(trace[:])
    return {
        "warm": warm,
        "totals": protocol.totals,
        "latency_ns": out.latency_ns.tobytes(),
        "transfer_bytes": out.transfer_bytes.tobytes(),
        "blocks": dict(protocol.state._blocks),
        "runtime": runtime,
        "timing_blocks": dict(simulator.protocol.state._blocks),
    }


@pytest.fixture(scope="module")
def baseline_reference(reference):
    """Pure-backend baseline snapshots, per (label, processor model)."""
    with _backend.use("pure"):
        return {
            (label, model): _baseline_run(label, reference["trace"], model)
            for label in BASELINE_LABELS
            for model in PROCESSOR_MODELS
        }


@pytest.mark.parametrize("model", PROCESSOR_MODELS)
@pytest.mark.parametrize("label", BASELINE_LABELS)
def test_baseline_replay_conformance(
    unified_backend, reference, baseline_reference, label, model,
    monkeypatch,
):
    """Directory and snooping replays are byte-identical on every
    backend — totals, outcome columns, coherence state, warm-up ->
    measured continuity and the timing result — and under the native
    backend they never touch the Python loop."""
    if unified_backend == "native":
        _forbid_python_baselines(monkeypatch)
    kernels.reset_decline_counts()
    got = _baseline_run(label, reference["trace"], model)
    expected = baseline_reference[label, model]
    assert got["warm"] == expected["warm"]
    assert got["totals"] == expected["totals"]
    assert got["latency_ns"] == expected["latency_ns"]
    assert got["transfer_bytes"] == expected["transfer_bytes"]
    assert got["blocks"] == expected["blocks"]
    assert got["runtime"] == expected["runtime"]
    assert got["timing_blocks"] == expected["timing_blocks"]
    assert kernels.decline_counts() == {}


@pytest.mark.parametrize("hook", ("_handle", "_handle_fast"))
def test_overriding_baseline_subclass_keeps_python_path(
    unified_backend, reference, hook
):
    """A subclass overriding ``_handle`` (record path) or
    ``_handle_fast`` (Python columnar loop) is never replayed natively,
    and that is not a decline: the native tier has no twin for it."""
    calls = []

    def audited(self, *args):
        calls.append(args)
        return getattr(DirectoryProtocol, hook)(self, *args)

    Audited = type("Audited", (DirectoryProtocol,), {hook: audited})
    protocol = Audited(SystemConfig())
    assert protocol._fast_ok == (hook == "_handle_fast")
    trace = reference["trace"][:]
    kernels.reset_decline_counts()
    protocol.run(trace)
    assert len(calls) == len(trace)
    assert protocol.totals == reference["runs"]["directory"][0]
    assert protocol.state._blocks == reference["runs"]["directory"][2]
    assert kernels.decline_counts() == {}


def test_baseline_sweep_never_falls_back(monkeypatch):
    """Gate: a default-config tradeoff sweep with both baselines runs
    them natively — the Python baseline loop raises if entered, and
    the sweep must still succeed with no decline recorded."""
    if not kernels.native_available():
        pytest.skip(
            "native backend unavailable on this machine (build the"
            " extension with `python -m repro.kernels.build`)"
        )
    spec = ExperimentSpec(
        workloads=("oltp",),
        kind="tradeoff",
        n_references=N_REFERENCES,
        policies=("owner",),
    )
    assert set(BASELINE_LABELS) <= {job.label for job in spec.expand()}
    with _backend.use("pure"):
        expected = Runner(jobs=1).run(spec)
    _forbid_python_baselines(monkeypatch)
    with _backend.use("native"):
        results = Runner(jobs=1).run(spec)
    assert not results.failures
    assert results.perf.native_declines == {}
    assert results == expected
