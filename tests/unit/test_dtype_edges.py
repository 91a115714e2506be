"""int64 overflow-safety at the kernel/column dtype edges.

The vectorized column backend and the native kernels both carry
destination-set bitmasks and predictor index keys in int64 lanes.
These tests pin the width contract so the big-system mode cannot
silently truncate:

- :class:`DestinationSet` masks are exact Python ints at any node
  count (bits above 16 — and above 62 — survive round-trips),
- the numpy column path refuses node counts whose bitmasks would not
  fit an int64 lane (``_MAX_NUMPY_NODES``) and falls back to the pure
  path with identical values,
- the native replay kernels accept 63-128-node geometries (two
  uint64 destination-set lanes) byte-identically to the Python tier,
  and decline (fall back, never truncate) past 128 nodes or when
  table keys or MOSI-map entries leave the int64 envelope — the
  directory/snooping ``baseline_replay`` kernel included; the native
  collector keeps its single-word <= 62 envelope.
"""

import random

import pytest

from repro.common import backend as _backend
from repro.common.destset import DestinationSet, full_mask, popcount
from repro.trace import columns as trace_columns


BIG_NODE_COUNTS = (17, 33, 62, 63, 64, 128)

#: Geometries inside the two-lane native replay envelope but past the
#: old single-word one.
WIDE_NATIVE_NODE_COUNTS = (63, 64, 128)


@pytest.mark.parametrize("n_nodes", BIG_NODE_COUNTS)
def test_destination_set_bits_width(n_nodes):
    """Masks stay exact above 16 (and above 62) nodes."""
    assert full_mask(n_nodes) == (1 << n_nodes) - 1
    broadcast = DestinationSet.broadcast(n_nodes)
    assert popcount(broadcast._bits) == n_nodes
    top = n_nodes - 1
    single = DestinationSet.of(n_nodes, top)
    assert single._bits == 1 << top
    assert list(single) == [top]
    union = single.union(DestinationSet.of(n_nodes, 0))
    assert union._bits == (1 << top) | 1
    assert union.contains(top) and union.contains(0)


def _derived(n_nodes, addresses, requesters):
    from array import array

    return trace_columns.derived_columns(
        array("q", addresses),
        array("q", [0] * len(addresses)),
        array("i", requesters),
        block_size=64,
        n_processors=n_nodes,
        key_granularity=1024,
    )


@pytest.mark.parametrize("n_nodes", (63, 64, 128))
def test_numpy_columns_decline_wide_masks(n_nodes):
    """Above 62 nodes the int64 lanes cannot hold a requester bit;
    the numpy path must fall back, not truncate."""
    if _backend.numpy_module() is None:
        pytest.skip("numpy backend not active")
    top = n_nodes - 1
    derived = _derived(n_nodes, [1 << 40, 4096], [top, 0])
    assert derived.reqbits[0] == 1 << top
    assert derived.minimals[0] & (1 << top)
    # Identical to the pure path.
    _backend.set_backend("pure")
    try:
        pure = _derived(n_nodes, [1 << 40, 4096], [top, 0])
    finally:
        _backend.set_backend("auto")
    assert derived == pure


def _wide_trace(n_nodes, records=400, seed=7):
    from repro.trace.trace import Trace

    rng = random.Random(seed)
    trace = Trace(n_processors=n_nodes)
    for _ in range(records):
        block = rng.randrange(48) * 64
        trace.append_fields(
            block + rng.randrange(64),
            rng.randrange(1 << 20),
            rng.randrange(n_nodes),
            rng.randrange(2),
            rng.randrange(50),
        )
    return trace


def _table_snapshot(proto):
    snap = []
    for predictor in proto.predictors:
        table = getattr(predictor, "_table", None)
        if table is None:  # sticky-spatial keeps a raw entry dict
            snap.append((
                dict(predictor._entries),
                predictor.n_allocations,
                predictor.n_replacements,
            ))
            continue
        snap.append({
            key: tuple(
                getattr(entry, name)
                for name in type(entry).__slots__
            )
            for key, entry in table._entries.items()
        })
    return snap


@pytest.mark.parametrize("n_nodes", WIDE_NATIVE_NODE_COUNTS)
@pytest.mark.parametrize("label", ("group", "owner", "sticky-spatial"))
def test_native_replay_accepts_wide_systems(label, n_nodes):
    """63-128-node replays run natively, byte-identical to Python."""
    from repro.common.params import SystemConfig

    if not _backend.native_available():
        pytest.skip("native kernel extension not built")
    from repro.kernels import native
    from repro.protocols.base import OutcomeColumns
    from repro.protocols.multicast import MulticastSnoopingProtocol

    config = SystemConfig(n_processors=n_nodes)
    trace = _wide_trace(n_nodes)

    proto_native = MulticastSnoopingProtocol(config, label)
    out_native = OutcomeColumns()
    if label == "group":
        accepted = native.group_replay(proto_native, trace, out_native)
    else:
        accepted = native.policy_replay(proto_native, trace, out_native)
    assert accepted  # inside the widened envelope: no decline

    proto_pure = MulticastSnoopingProtocol(config, label)
    out_pure = OutcomeColumns()
    with _backend.use("pure"):
        proto_pure._run_columns(trace, out_pure)

    assert out_native.latency_ns.tobytes() == out_pure.latency_ns.tobytes()
    assert (
        out_native.transfer_bytes.tobytes()
        == out_pure.transfer_bytes.tobytes()
    )
    assert proto_native.totals == proto_pure.totals
    assert proto_native.state._blocks == proto_pure.state._blocks
    assert _table_snapshot(proto_native) == _table_snapshot(proto_pure)


def test_native_kernels_decline_past_envelope():
    """Replay falls back (never truncates) past 128 nodes; the
    single-word collector keeps its 62-node envelope."""
    from repro.common.params import SystemConfig
    from repro import kernels

    if not _backend.native_available():
        pytest.skip("native kernel extension not built")
    from repro.cache.pipeline import TraceCollector
    from repro.kernels import native

    config = SystemConfig(n_processors=64)
    collector = TraceCollector(config)
    assert native.make_collector_session(collector) is None

    from repro.protocols.multicast import MulticastSnoopingProtocol
    from repro.trace.trace import Trace

    wide = SystemConfig(n_processors=129)
    proto = MulticastSnoopingProtocol(wide, "group")
    kernels.reset_decline_counts()
    assert not native.group_replay(
        proto, Trace(n_processors=129), out=None
    )
    assert kernels.decline_counts().get("group_replay:envelope") == 1


def test_native_group_replay_declines_overflowing_keys():
    """A predictor-table key outside int64 forces the Python tier.

    The native loader must return the no-op fallback (leaving every
    Python structure untouched) instead of truncating the key.
    """
    from repro.common.params import SystemConfig

    if not _backend.native_available():
        pytest.skip("native kernel extension not built")
    from repro.kernels import native
    from repro.protocols.multicast import MulticastSnoopingProtocol
    from repro.trace.trace import Trace

    config = SystemConfig(n_processors=4)
    proto = MulticastSnoopingProtocol(config, "group")
    table = proto.predictors[0]._table
    huge = 1 << 70  # beyond any int64 lane
    entry = table.lookup_allocate(huge)
    entry.counters[1] = 3
    before = dict(table._entries)

    trace = Trace(n_processors=4)
    trace.append_fields(4096, 0, 2, 1, 10)
    with _backend.use("pure"):
        pass  # ensure backend module is initialised
    assert not native.group_replay(proto, trace, out=None)
    assert table._entries == before  # untouched by the declined call


BASELINE_LABELS = ("directory", "broadcast-snooping")


def _baseline(label, config):
    from repro.protocols.directory import DirectoryProtocol
    from repro.protocols.snooping import BroadcastSnoopingProtocol

    if label == "directory":
        return DirectoryProtocol(config)
    return BroadcastSnoopingProtocol(config)


@pytest.mark.parametrize("n_nodes", WIDE_NATIVE_NODE_COUNTS)
@pytest.mark.parametrize("label", BASELINE_LABELS)
def test_native_baseline_replay_accepts_wide_systems(label, n_nodes):
    """63-128-node directory/snooping replays run natively,
    byte-identical to the Python loop."""
    from repro.common.params import SystemConfig
    from repro import kernels

    if not _backend.native_available():
        pytest.skip("native kernel extension not built")
    from repro.kernels import native
    from repro.protocols.base import OutcomeColumns

    config = SystemConfig(n_processors=n_nodes)
    trace = _wide_trace(n_nodes)

    proto_native = _baseline(label, config)
    out_native = OutcomeColumns()
    kernels.reset_decline_counts()
    assert native.baseline_replay(proto_native, trace, out_native)
    assert kernels.decline_counts() == {}

    proto_pure = _baseline(label, config)
    out_pure = OutcomeColumns()
    with _backend.use("pure"):
        proto_pure._run_columns(trace, out_pure)

    assert out_native.latency_ns.tobytes() == out_pure.latency_ns.tobytes()
    assert (
        out_native.transfer_bytes.tobytes()
        == out_pure.transfer_bytes.tobytes()
    )
    assert proto_native.totals == proto_pure.totals
    assert proto_native.state._blocks == proto_pure.state._blocks


@pytest.mark.parametrize("label", BASELINE_LABELS)
def test_native_baseline_replay_declines_past_envelope(label):
    """Past 128 nodes, or with a MOSI entry the int64 lanes cannot
    carry, the baseline kernel declines with every Python structure
    untouched, counts the decline, and the Python loop takes over."""
    from repro.common.params import SystemConfig
    from repro import kernels

    if not _backend.native_available():
        pytest.skip("native kernel extension not built")
    from repro.kernels import native
    from repro.protocols.base import TrafficTotals

    wide = SystemConfig(n_processors=129)
    proto = _baseline(label, wide)
    proto.state._blocks[0] = (128, 1 << 127)
    before = dict(proto.state._blocks)
    trace = _wide_trace(129, records=50)
    kernels.reset_decline_counts()
    assert not native.baseline_replay(proto, trace)
    assert proto.state._blocks == before
    assert proto.totals == TrafficTotals()
    assert kernels.decline_counts() == {"baseline_replay:envelope": 1}

    config = SystemConfig(n_processors=4)
    trace = _wide_trace(4, records=50)
    expected = _baseline(label, config)
    expected.state._blocks[1 << 70] = (0, 1)
    with _backend.use("pure"):
        expected.run(trace)
    proto = _baseline(label, config)
    proto.state._blocks[1 << 70] = (0, 1)  # beyond any int64 lane
    before = dict(proto.state._blocks)
    kernels.reset_decline_counts()
    assert not native.baseline_replay(proto, trace)
    assert proto.state._blocks == before
    assert kernels.decline_counts() == {"baseline_replay:overflow": 1}
    with _backend.use("native"):
        proto.run(trace)  # declines again, then the Python loop runs
    assert kernels.decline_counts() == {"baseline_replay:overflow": 2}
    assert proto.totals == expected.totals
    assert proto.state._blocks == expected.state._blocks
