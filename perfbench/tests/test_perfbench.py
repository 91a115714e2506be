"""The benchmark's own tests: ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import threading

import pytest

from perfbench import host, oracle, run, spans, stats, workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- metric names ---------------------------------------------------------
def test_benchmark_json_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )


def test_metric_names_and_units_are_valid_and_unique():
    names = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert NAME.match(entry["name"]), entry
            names.append(entry["name"])
            if section != "workloads":
                assert UNIT.match(entry["unit"]), entry
                assert entry["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


class _FakeResults:
    records = []


class _FakeWorkload:
    """Two spanned layers per iteration, no simulator work."""

    name = "fake"

    def enough(self, outcomes):
        return True

    def iterate(self, index, tracer):
        with tracer.iteration_span(index):
            with tracer.span("fabric.enqueue"):
                pass
            with tracer.span("analysis.section2"):
                pass
        return workloads.Outcome(
            0.01, 0.01, 10, 2, 0, [0.001] * 3, _FakeResults()
        )


def test_reported_metrics_match_benchmark_json():
    outcomes = [_FakeWorkload().iterate(0, workloads.NullTracer())]
    assert set(run.end_to_end(outcomes, [0.05], 1.0)) == {
        m["name"] for m in BENCHMARK["end_to_end"]
    }
    layers, _ = run.per_layer(_FakeWorkload(), 0.0)
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in layers.items()} == units


def test_end_to_end_times_are_probe_scaled_cpu_medians():
    # Iterations that waited on the host (wall 9 s) cost 1-3 CPU seconds,
    # on a host where a probe chunk takes twice the reference time.
    outcomes = [
        workloads.Outcome(9.0, cpu, 120, 1, 0) for cpu in (3.0, 1.0, 2.0)
    ]
    probes = [2 * host.REFERENCE_S] * 3
    scale = 0.5 ** host.ELASTICITY
    metrics = run.end_to_end(outcomes, probes, 0.5)
    assert metrics["sweep_norm_s"] == (2.0 * scale, "s")
    assert metrics["records_per_norm_s"] == (60.0 / scale, "1/s")


def test_probe_spends_its_budget():
    samples = host.probe(3 * host.REFERENCE_S)
    assert sum(samples) >= 3 * host.REFERENCE_S
    assert all(sample > 0 for sample in samples)


def test_cpu_seconds_counts_children_waited_for():
    # Set-up time includes the importing child interpreter.
    before = workloads.cpu_seconds()
    subprocess.run(
        [sys.executable, "-c", "sum(range(10_000_000))"], check=True
    )
    assert workloads.cpu_seconds() - before > 0.05


# -- oracle and failed_ratio ---------------------------------------------
def test_failed_ratio_rises_when_one_expected_record_is_perturbed():
    expected = oracle.load("fig5_warm", workloads.DEFAULT_SEED)["records"]
    actual = copy.deepcopy(expected)
    assert oracle.mismatched_cells(expected, actual) == 0
    perturbed = copy.deepcopy(expected)
    metrics = perturbed[3]["metrics"]
    metrics["indirection_pct"] = metrics["indirection_pct"] + 1e-12
    failed = oracle.mismatched_cells(perturbed, actual)
    assert failed == 1
    assert stats.failed_ratio(failed, len(actual)) > stats.failed_ratio(
        0, len(actual)
    )


def test_an_int_read_back_as_float_is_a_mismatch():
    record = {"metrics": {"misses": 3}}
    assert oracle.mismatched_cells([record], [{"metrics": {"misses": 3.0}}])


def test_missing_cells_count_as_failed():
    expected = oracle.load("fabric_serve", workloads.HELD_OUT_SEED)["records"]
    assert oracle.mismatched_cells(expected, expected[:-2]) == 2


def test_oracle_covers_every_trace_seed():
    for name in workloads.WORKLOADS:
        for seed in workloads.TRACE_SEEDS:
            entry = oracle.load(name, seed)
            assert entry["records"]
    assert workloads.trace_seed(0) == workloads.DEFAULT_SEED
    assert workloads.HELD_OUT_SEED not in {
        workloads.trace_seed(seed) for seed in range(100)
    }
    assert workloads.trace_seed(3, held_out=True) == workloads.HELD_OUT_SEED


# -- guards ----------------------------------------------------------------
def test_a_failed_native_build_fails_the_run(monkeypatch):
    def failed_build(command, **kwargs):
        return run.subprocess.CompletedProcess(command, 1, "", "no compiler")

    monkeypatch.setattr(run.subprocess, "run", failed_build)
    with pytest.raises(workloads.GuardError, match="no compiler"):
        run.ensure_backend("native")


# -- percentiles -----------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_needed(99) == 1000
    assert stats.samples_needed(90) == 100
    assert stats.samples_needed(50) == 20
    assert stats.percentile(list(range(999)), 99) is None
    values = list(range(1000))
    p99 = stats.percentile(values, 99)
    assert sum(v > p99 for v in values) == 10
    assert stats.percentile(list(range(19)), 50) is None


def test_failed_ratio_base_is_checked():
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ratio(3, 2)


# -- reconciliation ---------------------------------------------------------
def _span(name, start, end, parent, thread=1):
    return spans.Span(name, start, end, parent, 0, thread)


def test_self_times_sum_to_the_iteration_wall():
    recorded = [
        _span(spans.ROOT, 0.0, 10.0, None),
        _span("timing.run", 1.0, 4.0, 0),
        _span("protocols.multicast", 2.0, 3.0, 1),
        _span("experiment.results.to_json", 5.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    (breakdown,) = spans.reconcile(recorded)
    assert breakdown.wall_layers == {
        spans.UNATTRIBUTED: 6.0, "timing.run": 2.0,
        "protocols.multicast": 1.0, "experiment.results.to_json": 1.0,
    }
    assert sum(breakdown.wall_layers.values()) == breakdown.wall_s == 10.0
    assert breakdown.inclusive["timing.run"] == 3.0


def test_other_threads_count_as_busy_time_only():
    recorded = [
        _span(spans.ROOT, 0.0, 10.0, None),
        _span("fabric.workers", 1.0, 9.0, 0),
        _span("protocols.multicast", 1.0, 8.0, None, thread=2),
        _span("protocols.multicast", 1.0, 8.0, None, thread=3),
    ]
    (breakdown,) = spans.reconcile(recorded)
    assert sum(breakdown.wall_layers.values()) == 10.0
    assert breakdown.busy_layers["protocols.multicast"] == 14.0


@pytest.mark.parametrize(
    "child",
    [(0.5, 3.0), (9.0, 11.0), (2.5, 5.0)],
    ids=["starts-before-parent", "ends-after-parent", "overlaps-sibling"],
)
def test_double_counting_fails_loudly(child):
    recorded = [
        _span(spans.ROOT, 0.0, 10.0, None),
        _span("timing.run", 1.0, 10.0, 0),
        _span("protocols.directory", 2.0, 3.0, 1),
        _span("protocols.snooping", child[0], child[1], 1),
    ]
    with pytest.raises(spans.DoubleCount):
        spans.reconcile(recorded)


def test_instrument_restores_every_patched_function():
    from repro.experiment import runner
    from repro.protocols.base import CoherenceProtocol

    before = (runner._normalize_runtime_records, CoherenceProtocol.run)
    tracer = spans.Tracer()
    tracer.instrument()
    assert CoherenceProtocol.run is not before[1]
    tracer.restore()
    assert (runner._normalize_runtime_records, CoherenceProtocol.run) == before


def test_spans_on_worker_threads_have_no_parent():
    tracer = spans.Tracer()
    with tracer.iteration_span(0):
        worker = threading.Thread(target=lambda: tracer.open("x"))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    assert tracer.spans[1].parent is None
    assert tracer.spans[1].iteration == 0
