"""Finite integral connectivity structures.

A connectivity structure on a finite ground set is a family of "connected"
subsets containing the empty set and every singleton, and closed under union
of any two members with a common point.  For a finite ground set this pairwise
closure coincides with closure under unions of arbitrary subfamilies with
nonempty intersection: any such union is reachable by binary steps through a
shared point.

Subsets are encoded as bitmasks over the ground order, so union/intersection
are single integer operations.  Ground sets are capped at 24 points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError

MAX_GROUND_SIZE = 24


@dataclass(frozen=True)
class GroundSet:
    """Ordered set of distinct point labels; subsets are bitmasks over this order."""

    labels: tuple

    def __init__(self, labels: Iterable):
        labels = tuple(labels)
        if not labels:
            raise DomainError("ground set must contain at least one point")
        if len(labels) > MAX_GROUND_SIZE:
            raise DomainError(f"ground set size {len(labels)} exceeds cap {MAX_GROUND_SIZE}")
        if len(set(labels)) != len(labels):
            raise DomainError(f"ground set labels must be distinct: {labels!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"label {label!r} is not a ground point") from None

    def mask_of(self, subset: Iterable) -> int:
        mask = 0
        for label in subset:
            mask |= 1 << self.index(label)
        return mask

    def labels_of(self, mask: int) -> tuple:
        if mask < 0 or mask > self.full_mask:
            raise DomainError(f"mask {mask} is out of range for ground of size {self.size}")
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def __iter__(self) -> Iterator:
        return iter(self.labels)

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)


@dataclass(frozen=True)
class ConnectiveStructure:
    """Ground set plus the family of connected subsets, each a bitmask.

    Always integral: the empty set and every singleton are stored as connected.
    """

    ground: GroundSet
    connected: frozenset

    def __init__(self, ground: GroundSet, connected: Iterable[int]):
        object.__setattr__(self, "ground", ground)
        masks = frozenset(int(m) for m in connected)
        base = {0} | {1 << i for i in range(ground.size)}
        object.__setattr__(self, "connected", masks | base)

    def members(self) -> list:
        """Connected subsets in canonical order: by size, then by ground positions."""
        return sorted(self.connected, key=lambda m: (m.bit_count(), _mask_positions(m)))

    def member_labels(self) -> list:
        return [self.ground.labels_of(m) for m in self.members()]

    def __repr__(self):
        parts = ["{" + ",".join(str(l) for l in labs) + "}" for labs in self.member_labels()]
        return f"ConnectiveStructure({list(self.ground.labels)}: {' '.join(parts)})"


def _bipartitions(positions) -> list:
    """Unordered bipartitions (a, b) of the positions, a holding the first one.

    Sizes of a ascend and members follow `itertools.combinations` order, so
    callers that report the first cut they find report a stable one.
    """
    positions = tuple(positions)
    out = []
    for r in range(1, len(positions)):
        for a in itertools.combinations(positions, r):
            if positions[0] in a:
                out.append((a, tuple(p for p in positions if p not in a)))
    return out


def _check_indices(indices, count: int, noun: str) -> tuple:
    """Distinct indices into `count` items, sorted; `noun` names an item."""
    indices = tuple(sorted(int(i) for i in indices))
    if len(set(indices)) != len(indices):
        raise DomainError(f"duplicate {noun} indices: {indices}")
    for i in indices:
        if not 0 <= i < count:
            raise DomainError(f"{noun} index {i} out of range for {count} {noun}s")
    return indices


def _check_partition(part_a, part_b, count: int, noun: str) -> tuple:
    """Two nonempty index sets, each sorted, that partition `count` items."""
    a = _check_indices(part_a, count, noun)
    b = _check_indices(part_b, count, noun)
    if not a or not b:
        raise DomainError("both parts of a bipartition must be nonempty")
    if set(a) & set(b) or len(a) + len(b) != count:
        raise DomainError(f"{a} and {b} do not partition the {count} {noun}s")
    return a, b


def _check_labels(label_sets, kind: str) -> tuple:
    """Label sets as tuples of strings, each nonempty, distinct and comma-free.

    A label set given as one string is an error, not a set of characters, and
    a label that is not a string is an error, not a string to convert.
    """
    label_sets = tuple(label_sets)
    if any(isinstance(labels, str) for labels in label_sets):
        raise DomainError(f"{kind} label sets must be lists of labels, not strings")
    label_sets = tuple(tuple(labels) for labels in label_sets)
    if not all(isinstance(x, str) for labels in label_sets for x in labels):
        raise DomainError(f"{kind} labels must be strings")
    for labels in label_sets:
        if not labels or len(set(labels)) != len(labels):
            raise DomainError(f"{kind} labels must be nonempty and distinct: {labels}")
        if any("," in lab for lab in labels):
            raise DomainError(f"{kind} labels must not contain commas (reserved for JSON keys)")
    return label_sets


def _mask_positions(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _as_mask(ground: GroundSet, subset) -> int:
    if isinstance(subset, int):
        if subset < 0 or subset > ground.full_mask:
            raise DomainError(f"mask {subset} not a subset of the ground set")
        return subset
    return ground.mask_of(subset)


def _close(ground_size: int, masks: Iterable[int]) -> frozenset:
    """Fixpoint of pairwise union-with-common-point, seeded with all singletons."""
    connected = {0} | {1 << i for i in range(ground_size)} | set(masks)
    work = list(connected)
    while work:
        a = work.pop()
        fresh = []
        for b in connected:
            u = a | b
            if a & b and u not in connected:
                fresh.append(u)
        for u in fresh:
            if u not in connected:
                connected.add(u)
                work.append(u)
    return frozenset(connected)


def generate_integral(ground: GroundSet, generators: Iterable) -> ConnectiveStructure:
    """Smallest integral structure whose connected family contains all generators."""
    masks = [_as_mask(ground, g) for g in generators]
    return ConnectiveStructure(ground, _close(ground.size, masks))


def _subset_structures(k: int, verdict, families: Mapping) -> tuple:
    """(verdicts, structures): judge every subset of k sites, then generate.

    `verdict(j)` is called once per sorted 0-based site tuple j with at least
    two sites, by size and then in `itertools.combinations` order, so the
    full site set comes last; each verdict is keyed by the 1-based labels
    of j.  Structure `name` on the ground 1..k is generated by the subsets
    whose verdict `families[name]` accepts.
    """
    verdicts = {
        tuple(s + 1 for s in j): verdict(j)
        for r in range(2, k + 1)
        for j in itertools.combinations(range(k), r)
    }
    ground = GroundSet(range(1, k + 1))
    structures = {
        name: generate_integral(ground, [j for j, v in verdicts.items() if accepts(v)])
        for name, accepts in families.items()
    }
    return verdicts, structures


def is_connected_set(structure: ConnectiveStructure, subset) -> bool:
    """Membership test for a subset (mask or label collection)."""
    return _as_mask(structure.ground, subset) in structure.connected


def irreducibles(structure: ConnectiveStructure) -> frozenset:
    """Connected parts (size >= 2) not regenerated by the other connected parts.

    The family is closed under unions with a common point, so a part k is
    regenerated exactly when k = a | b for connected proper subsets a, b of k
    that meet: the last union step producing k is such a pair.  Singletons
    and the empty set are never irreducible: integrality restores them.
    """
    candidates = [m for m in structure.connected if m.bit_count() >= 2]
    result = set()
    for k in candidates:
        parts = [m for m in candidates if m != k and m & k == m]
        if not any(a & b and a | b == k for a, b in itertools.combinations(parts, 2)):
            result.add(k)
    return frozenset(result)


def connective_order(structure: ConnectiveStructure) -> int:
    """Length in nodes of the longest strict-inclusion chain of irreducibles.

    An antichain of irreducibles has order 1; no irreducibles at all gives 0,
    so a discrete structure has order 0.
    """
    irr = sorted(irreducibles(structure), key=int.bit_count)
    height: dict = {}
    best = 0
    for k in irr:
        h = 1
        for m in irr:
            if m != k and m & k == m and m in height:
                h = max(h, height[m] + 1)
        height[k] = h
        best = max(best, h)
    return best


def meet_structures(structures: Sequence[ConnectiveStructure]) -> ConnectiveStructure:
    """Intersection of the connected families; integral structures are closed under it."""
    if not structures:
        raise DomainError("meet of an empty list of structures")
    ground = structures[0].ground
    for s in structures[1:]:
        if s.ground != ground:
            raise DomainError("meet requires structures over the same ground set")
    connected = frozenset.intersection(*(s.connected for s in structures))
    return ConnectiveStructure(ground, connected)


def brunnian_structure(n: int) -> ConnectiveStructure:
    """Structure on {0,..,n-1} whose only connected part of size >= 2 is the full set."""
    if n < 1:
        raise DomainError(f"brunnian structure needs n >= 1, got {n}")
    ground = GroundSet(range(n))
    return ConnectiveStructure(ground, [ground.full_mask])


def discrete_structure(ground: GroundSet) -> ConnectiveStructure:
    """Finest integral structure: empty set and singletons only."""
    return ConnectiveStructure(ground, [])


def indiscrete_structure(ground: GroundSet) -> ConnectiveStructure:
    """Coarsest structure: every subset connected."""
    return ConnectiveStructure(ground, range(ground.full_mask + 1))


def closure_axiom_holds(structure: ConnectiveStructure) -> bool:
    """Exhaustive pair scan of the union-with-common-point axiom."""
    members = list(structure.connected)
    for a in members:
        for b in members:
            if a & b and (a | b) not in structure.connected:
                return False
    return True
