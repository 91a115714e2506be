"""Unit tests for the six workload models and the registry."""

from bisect import bisect_right

import pytest

from repro.common import backend as _backend
from repro.common.params import SystemConfig
from repro.workloads import WORKLOAD_NAMES, create_workload, iter_workloads
from repro.workloads.base import WorkloadModel


def columns(model, n_references):
    """``(nodes, addresses, pcs, writes, gaps)`` of the first
    ``n_references`` generated references."""
    out = ([], [], [], [], [])
    for chunk in model.reference_chunks(n_references):
        for column, values in zip(out, (
            chunk.nodes, chunk.addresses, chunk.pcs, chunk.writes,
            chunk.instructions,
        )):
            column.extend(values)
    return out


class TestRegistry:
    def test_six_workloads(self):
        assert len(WORKLOAD_NAMES) == 6
        assert set(WORKLOAD_NAMES) == {
            "apache", "barnes-hut", "ocean", "oltp", "slashcode", "specjbb",
        }

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown workload"):
            create_workload("minesweeper")

    def test_iter_instantiates_all(self):
        models = list(iter_workloads())
        assert [m.name for m in models] == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestEachWorkload:
    def test_metadata_present(self, name):
        model = create_workload(name)
        assert model.name == name
        assert model.description
        assert model.paper.footprint_mb > 0
        assert 0 < model.paper.directory_indirection_pct <= 100

    def test_references_are_deterministic(self, name):
        a = columns(create_workload(name, seed=3), 200)
        b = columns(create_workload(name, seed=3), 200)
        assert a == b

    def test_seeds_differ(self, name):
        a = columns(create_workload(name, seed=3), 200)
        b = columns(create_workload(name, seed=4), 200)
        assert a != b

    def test_round_robin_issue(self, name):
        nodes = columns(create_workload(name), 32)[0]
        assert nodes == [i % 16 for i in range(32)]

    def test_every_node_has_regions(self, name):
        model = create_workload(name)
        members = set()
        for region, weight in model.regions:
            assert weight > 0
            members.update(region.members)
        assert members == set(range(16))

    def test_regions_do_not_overlap(self, name):
        model = create_workload(name)
        ranges = sorted(
            (region.base, region.end) for region, _ in model.regions
        )
        for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
            assert end_a <= start_b

    def test_scaled_config_shrinks_caches(self, name):
        model = create_workload(name)
        scaled = model.scaled_config()
        assert scaled.l2_size < model.config.l2_size
        assert scaled.n_processors == model.config.n_processors

    def test_instruction_gaps_positive(self, name):
        gaps = columns(create_workload(name), 100)[4]
        assert all(gap >= 1 for gap in gaps)

    @pytest.mark.parametrize(
        "backend_name",
        [b for b in _backend.available_backends() if b != "native"],
    )
    def test_references_stay_inside_member_regions(
        self, name, backend_name
    ):
        """Every reference falls in a region its issuing node belongs
        to, on every generation backend."""
        model = create_workload(name)
        regions = sorted(
            (region for region, _ in model.regions),
            key=lambda region: region.base,
        )
        bases = [region.base for region in regions]
        with _backend.use(backend_name):
            nodes, addresses, _, _, _ = columns(model, 5_000)
        for node, address in zip(nodes, addresses):
            region = regions[bisect_right(bases, address) - 1]
            assert region.base <= address < region.end
            assert node in region.members, (
                f"node {node} accessed {address:#x} outside its regions"
            )


class TestScaling:
    def test_scaled_blocks_floor_is_one(self):
        model = create_workload("apache", scale=1e-9)
        assert model.scaled_blocks(64) == 1

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            create_workload("apache", scale=0)

    def test_other_processor_counts(self):
        config = SystemConfig(n_processors=8)
        model = create_workload("ocean", config=config)
        nodes = set(columns(model, 64)[0])
        assert nodes == set(range(8))

    def test_collect_produces_trace(self):
        model = create_workload("barnes-hut")
        result = model.collect(2000)
        assert result.trace.name == "barnes-hut"
        assert result.references == 2000
        assert len(result.trace) > 0
        assert result.total_instructions > 0
