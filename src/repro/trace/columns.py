"""Vectorized derived-column computation (optional numpy backend).

The batch execution layer replays traces through fused loops that
iterate *pre-boxed* Python lists: every derived quantity the protocol
kernels need per record — block-aligned addresses, predictor index
keys, home nodes, and the minimal-destination-set / requester bitmasks
— is computed once per trace as a column instead of per record.

When numpy is importable the columns are produced by vectorized int64
arithmetic over the trace's flat ``array`` buffers and then boxed with
``tolist()``; otherwise a pure-Python comprehension produces the same
lists.  Both backends yield *identical* Python ints, so simulation
results are byte-for-byte independent of the backend — the equivalence
suite asserts this.

The backend is the unified :mod:`repro.common.backend` switch:
``REPRO_BACKEND=pure`` (or ``backend.set_backend("pure")``) forces the
pure path even when numpy is installed (CI runs both).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.common import backend as _backend

#: Bitmask columns need one bit per node in an int64 numpy lane.
_MAX_NUMPY_NODES = 62


class DerivedColumns(NamedTuple):
    """Per-record derived columns for one protocol configuration.

    All fields are plain Python lists (pre-boxed ints), identical
    across backends:

    - ``blocks`` — block-aligned addresses,
    - ``keys`` — predictor table index keys (PC or ``address //
      granularity``; ``None`` when no granularity was requested),
    - ``homes`` — the home node of each block,
    - ``minimals`` — the minimal destination set bitmask
      (requester + home),
    - ``reqbits`` — ``1 << requester``,
    - ``notreqs`` — ``~(1 << requester)`` (the mask that strips the
      requester from a delivery set).
    """

    blocks: List[int]
    keys: Optional[List[int]]
    homes: List[int]
    minimals: List[int]
    reqbits: List[int]
    notreqs: List[int]


def derived_columns(
    addresses,
    pcs,
    requesters,
    block_size: int,
    n_processors: int,
    key_granularity: Optional[int] = None,
    use_pc_index: bool = False,
) -> DerivedColumns:
    """Build every derived replay column for one configuration at once.

    ``addresses``/``pcs``/``requesters`` are the trace's flat
    ``array`` columns.  Vectorized end-to-end under numpy; the pure
    fallback produces identical lists.
    """
    block_shift = block_size.bit_length() - 1
    n = n_processors
    np_ = _backend.numpy_module()
    if (
        np_ is not None
        and n <= _MAX_NUMPY_NODES
        and addresses.itemsize == 8
        and requesters.itemsize == 4
    ):
        addr = np_.frombuffer(addresses, dtype=np_.int64)
        blocks = addr & np_.int64(~(block_size - 1))
        homes = (blocks >> block_shift) % n
        reqbits = np_.int64(1) << np_.frombuffer(
            requesters, dtype=np_.int32
        ).astype(np_.int64)
        minimals = reqbits | (np_.int64(1) << homes)
        if use_pc_index:
            keys = list(pcs)
        elif key_granularity is not None:
            keys = (addr // key_granularity).tolist()
        else:
            keys = None
        return DerivedColumns(
            blocks.tolist(),
            keys,
            homes.tolist(),
            minimals.tolist(),
            reqbits.tolist(),
            (~reqbits).tolist(),
        )

    mask = ~(block_size - 1)
    blocks_list = [a & mask for a in addresses]
    homes_list = [(b >> block_shift) % n for b in blocks_list]
    reqbits_list = [1 << r for r in requesters]
    minimals_list = [
        rb | (1 << h) for rb, h in zip(reqbits_list, homes_list)
    ]
    if use_pc_index:
        keys_list: Optional[List[int]] = list(pcs)
    elif key_granularity is not None:
        keys_list = [a // key_granularity for a in addresses]
    else:
        keys_list = None
    return DerivedColumns(
        blocks_list,
        keys_list,
        homes_list,
        minimals_list,
        reqbits_list,
        [~rb for rb in reqbits_list],
    )


def derived_from_segments(segments) -> DerivedColumns:
    """Box persisted derived segments into :class:`DerivedColumns`.

    ``segments`` maps segment names (as laid out by the v2 trace
    store — see :mod:`repro.trace.io`) to flat int64 buffers over the
    store mapping.  Boxing each segment once here replaces the
    per-process arithmetic recompute with straight C-level copies;
    the resulting lists are identical to what
    :func:`derived_columns` produces from the base columns.
    """
    return DerivedColumns(
        list(segments["blocks"]),
        list(segments["keys"]),
        list(segments["homes"]),
        list(segments["minimals"]),
        list(segments["reqbits"]),
        list(segments["notreqs"]),
    )


def aligned_list(addresses, block_size: int) -> List[int]:
    """Block-aligned addresses as a pre-boxed list.

    The lighter sibling of :func:`derived_columns` for consumers that
    only need the block keys (the baseline protocols' replay loop).
    """
    np_ = _backend.numpy_module()
    if np_ is not None and addresses.itemsize == 8:
        return (
            np_.frombuffer(addresses, dtype=np_.int64)
            & np_.int64(~(block_size - 1))
        ).tolist()
    mask = ~(block_size - 1)
    return [a & mask for a in addresses]


def aligned_array(addresses, block_size: int, typecode: str):
    """Aligned addresses as a stdlib ``array`` (the legacy key API)."""
    from array import array

    np_ = _backend.numpy_module()
    if np_ is not None and addresses.itemsize == 8:
        aligned = np_.frombuffer(
            addresses, dtype=np_.int64
        ) & np_.int64(~(block_size - 1))
        out = array(typecode)
        out.frombytes(aligned.tobytes())
        return out
    mask = ~(block_size - 1)
    return array(typecode, (a & mask for a in addresses))
