"""Fused batch replay loops for multicast snooping.

Two Python skeletons of the same transaction pipeline (predict ->
order -> sufficiency -> account -> train), both driven by the trace's
cached derived columns (:meth:`repro.trace.trace.Trace.derived_columns`)
and both folding accounting into :meth:`TrafficTotals.add_batch`:

- :func:`run_group` — the Group predictor's loop with every predictor
  operation inlined on the flat table state (the paper's flagship
  policy and the benchmark's hot path),
- :func:`run_kernel` — a shared skeleton calling a
  :class:`~repro.predictors.base.FusedKernel`'s closures: a policy's
  own :meth:`~repro.predictors.base.DestinationSetPredictor.fused_kernel`
  (Owner, Broadcast-If-Shared, Owner/Group, StickySpatial) or
  :func:`generic_kernel`, which calls the record methods (every other
  predictor list, subclasses included).

The native tier (:mod:`repro.kernels`) has byte-identical twins of
``run_group`` and of ``run_kernel`` over the policy kernels.

Both skeletons group consecutive records with identical (table key,
requester, access, external destination set) into one *fused training
batch*: the external-request fan-out — one training event per
multicast target per record, the dominant cost for broadcast-heavy
predictors — is delivered as a single count-carrying call per run.
Deferring the fan-out to the end of a run is exact because a run
shares one requester: the only predictor read during the run belongs
to that requester, which is never a member of its own external set
(per-node predictor state is independent).

Equivalence with the record-object engine — identical totals,
coherence state, and predictor tables — is enforced by
``tests/integration/test_columnar_equivalence.py`` over every
protocol x predictor x workload.
"""

from __future__ import annotations

from repro.common.destset import DestinationSet, popcount
from repro.common.types import MEMORY_NODE
from repro.predictors.base import DestinationSetPredictor, FusedKernel
from repro.predictors.group import GroupPredictor
from repro.trace.trace import ACCESS_BY_CODE, Trace

_MAX_RETRIES = 3  # third retry resorts to broadcast (Section 4.1)


def _derived(proto, trace: Trace):
    """The trace's cached derived columns for ``proto``'s config."""
    config = proto.predictor_config
    return trace.derived_columns(
        proto.config.block_size,
        proto.config.n_processors,
        config.index_granularity,
        config.use_pc_index,
    )


def keys_match(proto) -> bool:
    """True when every predictor indexes its table by ``proto``'s keys.

    The derived ``keys`` column follows ``proto.predictor_config``; a
    predictor built with another ``index_granularity`` or
    ``use_pc_index`` keys its table differently, so only the generic
    kernel (whose record methods key by each predictor's own config)
    may replay its list.
    """
    config = proto.predictor_config
    index = (config.index_granularity, config.use_pc_index)
    return all(
        (p.config.index_granularity, p.config.use_pc_index) == index
        for p in proto.predictors
    )


def group_uniform(predictors) -> bool:
    """True when every predictor is a stock, identically-tuned Group."""
    first = predictors[0]
    if type(first) is not GroupPredictor:
        return False
    cmax = first._counter_max
    thr = first._threshold
    rperiod = first._rollover_period
    tdown = first._train_down
    bounded = first._table._bounded
    return all(
        type(p) is GroupPredictor
        and p._counter_max == cmax
        and p._threshold == thr
        and p._rollover_period == rperiod
        and p._train_down == tdown
        and p._table._bounded == bounded
        for p in predictors
    )


def run_group(proto, trace: Trace, out=None) -> None:
    """Fully-inlined Group replay (callers check :func:`group_uniform`).

    COUPLING: the training/decay code below is a deliberate inline
    copy of :meth:`GroupPredictor._train` (as is the Owner/Group
    hybrid's copy in ``owner_group.py``) — per-event closure calls
    would forfeit the fused loop's speedup.  Any change to Group's
    training semantics must be mirrored at every site; the
    backend-parametrized equivalence suite compares full predictor
    table state against the record engine and catches divergence.
    """
    requesters = trace.boxed_column("requesters")
    accesses = trace.boxed_column("accesses")
    derived = _derived(proto, trace)
    blocks = derived.blocks
    keys = derived.keys
    minimals = derived.minimals
    reqbits = derived.reqbits
    notreqs = derived.notreqs

    predictors = proto.predictors
    tables = [p._table for p in predictors]
    entries_get = [t._entries.get for t in tables]
    stamps_l = [t._stamps for t in tables]
    ticks = [t._tick for t in tables]
    bounded = tables[0]._bounded
    first = predictors[0]
    cmax = first._counter_max
    thr = first._threshold
    rperiod = first._rollover_period
    tdown = first._train_down

    state_blocks = proto.state._blocks
    lat_mem = proto._lat_memory
    lat_dir = proto._lat_direct
    lat_ind = proto._lat_indirect
    full = proto._full_mask
    race_probability = proto.race_probability
    rng_random = proto._race_rng.random
    control = proto.traffic.control_bytes
    data_size = proto.traffic.data_bytes
    totals = proto.totals
    MEM = MEMORY_NODE

    lat_append = byte_append = None
    if out is not None:
        lat_append = out.latency_ns.append
        byte_append = out.transfer_bytes.append

    bit_count = popcount
    misses = len(requesters)
    indirections = 0
    request_sum = 0  # sum of destination popcounts; -misses at fold
    retry_sum = 0
    retries_total = 0
    latency_sum = totals.latency_ns_sum

    # Pending fused training batch: a run of consecutive records with
    # identical (key, requester, access, external set).
    p_key = None
    p_req = -1
    p_code = -1
    p_mask = 0
    p_count = 0

    def decay(entry, counters):
        # Rollover wrap: train-down every counter (Section 3.3).
        entry.rollover = 0
        bits = 0
        for index, value in enumerate(counters):
            if value > 0:
                value -= 1
                counters[index] = value
            if value > thr:
                bits |= 1 << index
        entry.bits = bits

    def flush(mask, fkey, freq, count):
        # Deliver one fused external-training batch per target node.
        # The training body replicates GroupPredictor._train (see the
        # coupling note in run_group); count == 1 — the dominant case
        # on real traces — skips the range() machinery.
        while mask:
            low = mask & -mask
            mask ^= low
            node = low.bit_length() - 1
            entry = entries_get[node](fkey)
            if entry is None:
                continue
            if bounded:
                stamps_l[node][fkey] = ticks[node]
                ticks[node] += 1
            counters = entry.counters
            if count == 1:
                c = counters[freq]
                if c < cmax:
                    counters[freq] = c + 1
                    if c == thr:
                        entry.bits |= 1 << freq
                if tdown:
                    rollover = entry.rollover + 1
                    if rollover < rperiod:
                        entry.rollover = rollover
                    else:
                        decay(entry, counters)
                continue
            for _ in range(count):
                c = counters[freq]
                if c < cmax:
                    counters[freq] = c + 1
                    if c == thr:
                        entry.bits |= 1 << freq
                if tdown:
                    rollover = entry.rollover + 1
                    if rollover < rperiod:
                        entry.rollover = rollover
                    else:
                        decay(entry, counters)

    for requester, code, block, key, minimal, reqbit, notreq in zip(
        requesters, accesses, blocks, keys, minimals, reqbits, notreqs,
    ):
        if p_count and (
            key != p_key or requester != p_req or code != p_code
        ):
            # The run ended: deliver its external training before any
            # node in the pending set can issue (and predict) again.
            flush(p_mask, p_key, p_req, p_count)
            p_count = 0

        # Predict (Group: the entry's cached predicted-bits mask).
        entries = entries_get[requester]
        entry = entries(key)
        if entry is not None:
            if bounded:
                stamps_l[requester][key] = ticks[requester]
                ticks[requester] += 1
            destination = entry.bits | minimal
        else:
            destination = minimal

        # Order the request on the global MOSI state (apply_fast).
        packed = state_blocks.get(block)
        if packed is None:
            owner = MEM
            sharers = 0
        else:
            owner, sharers = packed
        if owner >= 0 and owner != requester:
            required = 1 << owner
            responder = owner
        else:
            required = 0
            responder = MEM
        if code:
            required |= sharers & notreq
            state_blocks[block] = (requester, 0)
        elif owner != requester:
            state_blocks[block] = (owner, sharers | reqbit)

        dcount = bit_count(destination)
        request_sum += dcount
        if not (required and required & ~destination):  # sufficient
            lat = lat_mem if responder == MEM else lat_dir
            latency_sum += lat
            external = destination & notreq
            if lat_append is not None:
                lat_append(lat)
                byte_append((dcount - 1) * control + data_size)
        else:
            corrected = required | minimal
            n_retries = 1
            retry_messages = bit_count(corrected) - 1
            delivered = destination | corrected
            if race_probability:
                while (
                    n_retries < _MAX_RETRIES
                    and rng_random() < race_probability
                ):
                    n_retries += 1
                    if n_retries >= _MAX_RETRIES:
                        corrected = full
                    retry_messages += bit_count(corrected) - 1
                    delivered |= corrected
            retry_sum += retry_messages
            retries_total += n_retries
            indirections += 1
            latency_sum += lat_ind
            external = delivered & notreq
            if lat_append is not None:
                lat_append(lat_ind)
                byte_append(
                    (dcount - 1 + retry_messages) * control + data_size
                )

        # Data-response training at the requester (allocate only when
        # the minimal set proved insufficient — Section 3.1).
        if entry is None and required:
            table = tables[requester]
            table._tick = ticks[requester]
            entry = table.lookup_allocate(key)
            ticks[requester] = table._tick
        if entry is not None and responder != MEM:
            counters = entry.counters
            c = counters[responder]
            if c < cmax:
                counters[responder] = c + 1
                if c == thr:
                    entry.bits |= 1 << responder
            if tdown:
                rollover = entry.rollover + 1
                if rollover < rperiod:
                    entry.rollover = rollover
                else:
                    decay(entry, counters)

        # External-request training: extend the pending fused batch or
        # start a new one.
        if p_count and external == p_mask:
            p_count += 1
        else:
            if p_count:
                flush(p_mask, p_key, p_req, p_count)
            p_key = key
            p_req = requester
            p_code = code
            p_mask = external
            p_count = 1

    if p_count:
        flush(p_mask, p_key, p_req, p_count)
    for table, tick in zip(tables, ticks):
        table._tick = tick

    request_messages = request_sum - misses
    traffic_bytes = (
        (request_messages + retry_sum) * control + misses * data_size
    )
    totals.add_batch(
        misses, indirections, request_messages, 0, retry_sum,
        misses, traffic_bytes, latency_sum, retries_total,
    )


def run_kernel(proto, trace: Trace, kernel, out=None) -> None:
    """Semi-fused replay through a :class:`FusedKernel`'s closures.

    Runs a policy's own kernel or :func:`generic_kernel`.  Over a
    policy kernel this loop is the Python oracle for the native
    ``policy_replay`` kernel (:func:`repro.kernels.try_policy_replay`
    dispatches there first when the native tier is active): every
    closure call, MOSI update, and accounting statement here has a
    byte-identical compiled twin, so the dispatch site in
    :meth:`MulticastSnoopingProtocol._run_columns` can swap them
    freely per call.  The generic kernel has no native twin.
    """
    addresses = trace.boxed_column("addresses")
    pcs = trace.boxed_column("pcs")
    requesters = trace.boxed_column("requesters")
    accesses = trace.boxed_column("accesses")
    derived = _derived(proto, trace)
    blocks = derived.blocks
    keys = derived.keys
    homes = derived.homes
    minimals = derived.minimals
    reqbits = derived.reqbits
    if not keys_match(proto):
        # Only the generic kernel runs such lists, and it ignores
        # ``key``: end a run at any (address, pc) change, so every
        # record of a run shares each predictor's own table key.
        keys = list(zip(addresses, pcs))

    k_predict = kernel.predict
    k_response = kernel.train_response
    k_external = kernel.train_external
    k_truth = kernel.train_truth

    state_blocks = proto.state._blocks
    lat_mem = proto._lat_memory
    lat_dir = proto._lat_direct
    lat_ind = proto._lat_indirect
    full = proto._full_mask
    race_probability = proto.race_probability
    rng_random = proto._race_rng.random
    control = proto.traffic.control_bytes
    data_size = proto.traffic.data_bytes
    totals = proto.totals
    MEM = MEMORY_NODE

    lat_append = byte_append = None
    if out is not None:
        lat_append = out.latency_ns.append
        byte_append = out.transfer_bytes.append

    bit_count = popcount
    misses = len(requesters)
    indirections = 0
    request_sum = 0
    retry_sum = 0
    retries_total = 0
    latency_sum = totals.latency_ns_sum

    p_key = None
    p_req = -1
    p_code = -1
    p_addr = 0
    p_pc = 0
    p_mask = 0
    p_count = 0

    for address, pc, requester, code, block, key, home, minimal, reqbit \
            in zip(
        addresses, pcs, requesters, accesses, blocks, keys, homes,
        minimals, reqbits,
    ):
        if p_count and (
            key != p_key or requester != p_req or code != p_code
        ):
            k_external(
                p_mask, p_key, p_addr, p_pc, p_req, p_code, p_count
            )
            p_count = 0

        destination = k_predict(requester, key, address, pc, code) | minimal

        packed = state_blocks.get(block)
        if packed is None:
            owner = MEM
            sharers = 0
        else:
            owner, sharers = packed
        if owner >= 0 and owner != requester:
            required = 1 << owner
            responder = owner
        else:
            required = 0
            responder = MEM
        if code:
            required |= sharers & ~reqbit
            state_blocks[block] = (requester, 0)
        elif owner != requester:
            state_blocks[block] = (owner, sharers | reqbit)

        dcount = bit_count(destination)
        request_sum += dcount
        delivered = destination
        if required & ~destination == 0:
            lat = lat_mem if responder == MEM else lat_dir
            latency_sum += lat
            if lat_append is not None:
                lat_append(lat)
                byte_append((dcount - 1) * control + data_size)
        else:
            corrected = required | minimal
            n_retries = 1
            retry_messages = bit_count(corrected) - 1
            delivered |= corrected
            if race_probability:
                while (
                    n_retries < _MAX_RETRIES
                    and rng_random() < race_probability
                ):
                    n_retries += 1
                    if n_retries >= _MAX_RETRIES:
                        corrected = full
                    retry_messages += bit_count(corrected) - 1
                    delivered |= corrected
            retry_sum += retry_messages
            retries_total += n_retries
            indirections += 1
            latency_sum += lat_ind
            if lat_append is not None:
                lat_append(lat_ind)
                byte_append(
                    (dcount - 1 + retry_messages) * control + data_size
                )

        k_response(requester, key, address, pc, responder, code, required)
        if k_truth is not None:
            k_truth(requester, address, pc, required | (1 << home))

        if k_external is not None:
            external = delivered & ~reqbit
            if p_count and external == p_mask:
                p_count += 1
            else:
                if p_count:
                    k_external(
                        p_mask, p_key, p_addr, p_pc, p_req, p_code,
                        p_count,
                    )
                p_key = key
                p_req = requester
                p_code = code
                p_addr = address
                p_pc = pc
                p_mask = external
                p_count = 1

    if p_count:
        k_external(p_mask, p_key, p_addr, p_pc, p_req, p_code, p_count)
    kernel.sync()

    request_messages = request_sum - misses
    traffic_bytes = (
        (request_messages + retry_sum) * control + misses * data_size
    )
    totals.add_batch(
        misses, indirections, request_messages, 0, retry_sum,
        misses, traffic_bytes, latency_sum, retries_total,
    )


def generic_kernel(proto) -> FusedKernel:
    """A :class:`FusedKernel` whose closures call the record methods.

    The kernel for every predictor list without a policy kernel:
    mixed lists, subclasses, non-uniform Group lists, the oracle,
    bandwidth-adaptive and the static policies.  A fused external
    batch replays one ``train_external`` call per event, ``count``
    times per node in the mask, each carrying the run's first record's
    address and pc (every record of the run shares their table key).
    Directory feedback is wired in only when some predictor overrides
    :meth:`~repro.predictors.base.DestinationSetPredictor.train_truth`.
    """
    predictors = proto.predictors
    n = proto.config.n_processors
    by_code = ACCESS_BY_CODE
    from_bits = DestinationSet._from_bits

    def predict(requester, key, address, pc, code):
        return predictors[requester].predict(
            address, pc, by_code[code]
        )._bits

    def train_response(requester, key, address, pc, responder, code,
                       allocate):
        predictors[requester].train_response(
            address, pc, responder, by_code[code], allocate != 0
        )

    def train_external(mask, key, address, pc, requester, code, count):
        access = by_code[code]
        while mask:
            low = mask & -mask
            mask ^= low
            train = predictors[low.bit_length() - 1].train_external
            for _ in range(count):
                train(address, pc, requester, access)

    def train_truth(requester, address, pc, truth_bits):
        predictors[requester].train_truth(
            address, pc, from_bits(n, truth_bits)
        )

    needs_truth = any(
        type(p).train_truth is not DestinationSetPredictor.train_truth
        for p in predictors
    )
    return FusedKernel(
        predict, train_response, train_external,
        train_truth if needs_truth else None, lambda: None,
    )
