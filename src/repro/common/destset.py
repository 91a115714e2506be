"""The :class:`DestinationSet` — a bitset of processor nodes.

The *destination set* is the collection of processors that receive a
particular coherence request (paper Section 1).  Snooping uses the
maximal set (all processors); directories use the minimal set (the home
node); destination-set predictors pick something in between.

The implementation is an immutable bitmask over ``n_nodes`` processors,
supporting the set algebra the protocols and predictors need.  Immutable
value semantics keep predictor/protocol interactions easy to reason
about and hashable for use in dictionaries.

Because protocols and predictors churn through millions of sets, the
common values are interned: the empty set, the broadcast set, and the
singletons are cached per ``n_nodes`` and shared.  Set algebra goes
through the unchecked :meth:`DestinationSet._from_bits` constructor, so
hot paths never revalidate masks they derived from valid sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from repro.common.types import NodeId

if hasattr(int, "bit_count"):  # Python >= 3.10
    #: Number of set bits in an int (the builtin itself, no wrapper).
    popcount = int.bit_count

else:  # pragma: no cover - exercised on Python 3.9 CI only

    def popcount(bits: int) -> int:
        """Number of set bits in ``bits``."""
        return bin(bits).count("1")


#: Interned full bitmasks, empty/broadcast/singleton instances.
_FULL_MASKS: Dict[int, int] = {}
_EMPTY: Dict[int, "DestinationSet"] = {}
_BROADCAST: Dict[int, "DestinationSet"] = {}
_SINGLETONS: Dict[Tuple[int, NodeId], "DestinationSet"] = {}


def full_mask(n_nodes: int) -> int:
    """The all-ones bitmask for ``n_nodes`` processors (cached)."""
    mask = _FULL_MASKS.get(n_nodes)
    if mask is None:
        mask = _FULL_MASKS[n_nodes] = (1 << n_nodes) - 1
    return mask


class DestinationSet:
    """An immutable set of processor node ids in ``[0, n_nodes)``.

    Instances are value objects: all "mutators" (:meth:`add`,
    :meth:`union`, ...) return new sets.
    """

    __slots__ = ("_bits", "_n_nodes")

    def __init__(self, n_nodes: int, bits: int = 0):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if bits & ~full_mask(n_nodes):
            raise ValueError(
                f"bitmask {bits:#x} has nodes outside [0, {n_nodes})"
            )
        self._bits = bits
        self._n_nodes = n_nodes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def _from_bits(n_nodes: int, bits: int) -> "DestinationSet":
        """Unchecked construction from a known-valid bitmask.

        Internal hot-path constructor: callers guarantee ``bits`` only
        names nodes in ``[0, n_nodes)`` (e.g. because it was derived
        from the algebra of valid sets).  Empty and broadcast results
        come from the interned caches.
        """
        if bits == 0:
            return DestinationSet.empty(n_nodes)
        if bits == _FULL_MASKS.get(n_nodes):
            return DestinationSet.broadcast(n_nodes)
        self = object.__new__(DestinationSet)
        self._bits = bits
        self._n_nodes = n_nodes
        return self

    @classmethod
    def empty(cls, n_nodes: int) -> "DestinationSet":
        """The empty destination set (interned per ``n_nodes``)."""
        cached = _EMPTY.get(n_nodes)
        if cached is None:
            cached = _EMPTY[n_nodes] = cls(n_nodes, 0)
        return cached

    @classmethod
    def broadcast(cls, n_nodes: int) -> "DestinationSet":
        """The maximal destination set — all processors (interned)."""
        cached = _BROADCAST.get(n_nodes)
        if cached is None:
            cached = _BROADCAST[n_nodes] = cls(n_nodes, full_mask(n_nodes))
        return cached

    @classmethod
    def of(cls, n_nodes: int, *nodes: NodeId) -> "DestinationSet":
        """A destination set containing exactly ``nodes``."""
        if len(nodes) == 1:
            node = nodes[0]
            cached = _SINGLETONS.get((n_nodes, node))
            if cached is not None:
                return cached
            single = cls.from_nodes(n_nodes, nodes)
            _SINGLETONS[(n_nodes, node)] = single
            return single
        return cls.from_nodes(n_nodes, nodes)

    @classmethod
    def from_nodes(
        cls, n_nodes: int, nodes: Iterable[NodeId]
    ) -> "DestinationSet":
        """A destination set containing ``nodes`` (duplicates allowed)."""
        bits = 0
        for node in nodes:
            cls._check_node(node, n_nodes)
            bits |= 1 << node
        return cls(n_nodes, bits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """The size of the node universe (system processor count)."""
        return self._n_nodes

    @property
    def bits(self) -> int:
        """The raw bitmask (bit ``i`` set means node ``i`` is a member)."""
        return self._bits

    def contains(self, node: NodeId) -> bool:
        """True if ``node`` is a member."""
        self._check_node(node, self._n_nodes)
        return bool(self._bits >> node & 1)

    def count(self) -> int:
        """Number of member nodes."""
        return popcount(self._bits)

    def is_empty(self) -> bool:
        """True if no nodes are members."""
        return self._bits == 0

    def is_broadcast(self) -> bool:
        """True if every node is a member (maximal set)."""
        return self._bits == full_mask(self._n_nodes)

    def is_superset_of(self, other: "DestinationSet") -> bool:
        """True if every member of ``other`` is also a member of self."""
        self._check_compatible(other)
        return other._bits & ~self._bits == 0

    def nodes(self) -> Tuple[NodeId, ...]:
        """The member node ids, ascending."""
        return tuple(self)

    # ------------------------------------------------------------------
    # Algebra (all return new sets)
    # ------------------------------------------------------------------
    def add(self, node: NodeId) -> "DestinationSet":
        """Return a set that also contains ``node``."""
        self._check_node(node, self._n_nodes)
        bits = self._bits | 1 << node
        if bits == self._bits:
            return self
        return DestinationSet._from_bits(self._n_nodes, bits)

    def remove(self, node: NodeId) -> "DestinationSet":
        """Return a set without ``node`` (no-op if absent)."""
        self._check_node(node, self._n_nodes)
        bits = self._bits & ~(1 << node)
        if bits == self._bits:
            return self
        return DestinationSet._from_bits(self._n_nodes, bits)

    def union(self, other: "DestinationSet") -> "DestinationSet":
        """Set union."""
        self._check_compatible(other)
        return DestinationSet._from_bits(
            self._n_nodes, self._bits | other._bits
        )

    def intersection(self, other: "DestinationSet") -> "DestinationSet":
        """Set intersection."""
        self._check_compatible(other)
        return DestinationSet._from_bits(
            self._n_nodes, self._bits & other._bits
        )

    def difference(self, other: "DestinationSet") -> "DestinationSet":
        """Members of self that are not members of ``other``."""
        self._check_compatible(other)
        return DestinationSet._from_bits(
            self._n_nodes, self._bits & ~other._bits
        )

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[NodeId]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return popcount(self._bits)

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self._n_nodes and bool(
            self._bits >> node & 1
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DestinationSet)
            and self._bits == other._bits
            and self._n_nodes == other._n_nodes
        )

    def __hash__(self) -> int:
        return hash((self._bits, self._n_nodes))

    def __repr__(self) -> str:
        return f"DestinationSet({list(self)!r}, n_nodes={self._n_nodes})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _check_node(node: NodeId, n_nodes: int) -> None:
        if not 0 <= node < n_nodes:
            raise ValueError(f"node {node} outside [0, {n_nodes})")

    def _check_compatible(self, other: "DestinationSet") -> None:
        if self._n_nodes != other._n_nodes:
            raise ValueError(
                "destination sets from different systems: "
                f"{self._n_nodes} vs {other._n_nodes} nodes"
            )
