"""Finite integral connectivity structures.

A connectivity structure on a finite ground set is a family of "connected"
subsets containing the empty set and every singleton, and closed under union
of any two members with a common point.  For a finite ground set this pairwise
closure coincides with closure under unions of arbitrary subfamilies with
nonempty intersection: any such union is reachable by binary steps through a
shared point.

Every structure here is on the points 1..k, and its subsets are bitmasks (bit
p for point p + 1), so union/intersection are single integer operations.
Grounds are capped at 24 points.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

MAX_GROUND_SIZE = 24


def _check_ground(size: int) -> None:
    """Refuse a ground of `size` points outside 1..MAX_GROUND_SIZE."""
    if not 1 <= size <= MAX_GROUND_SIZE:
        raise DomainError(f"ground size {size} is not in 1..{MAX_GROUND_SIZE}")


@dataclass(frozen=True)
class ConnectiveStructure:
    """The smallest integral structure on the points 1..size whose connected
    family holds every given mask; each subset is a bitmask, bit p standing
    for point p + 1.

    The masks are closed once, by `_close`: `connected` is the closed family
    (the empty set and every singleton included) and `irreducibles` the
    masks the closure kept.
    """

    size: int
    connected: frozenset
    irreducibles: frozenset = field(compare=False)

    def __init__(self, size: int, masks: Iterable[int]):
        _check_ground(size)
        masks = frozenset(_integers(masks, "masks must be integers"))
        if masks and not 0 <= min(masks) <= max(masks) < 1 << size:
            bad = min(masks) if min(masks) < 0 else max(masks)
            raise DomainError(f"mask {bad} is out of range for ground of size {size}")
        connected, kept = _close(size, masks)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "irreducibles", frozenset(kept))

    def members(self) -> list:
        """The 0-based positions of each connected subset, in canonical order:
        by size, then by positions."""
        return sorted(map(_mask_positions, self.connected), key=lambda p: (len(p), p))

    def __repr__(self):
        parts = ["{" + ",".join(str(p + 1) for p in m) + "}" for m in self.members()]
        return f"ConnectiveStructure({self.size}: {' '.join(parts)})"


@functools.cache
def _bipartitions(n: int) -> tuple:
    """Unordered bipartitions (a, b) of the positions 0..n-1, a holding 0.

    Sizes of a ascend and members follow `itertools.combinations` order, so
    callers that report the first cut they find report a stable one.  Each
    site count's cuts are built once.
    """
    return tuple(
        (a, tuple(p for p in range(n) if p not in a))
        for r in range(1, n)
        for a in itertools.combinations(range(n), r)
        if a[0] == 0
    )


@functools.cache
def _subsets(k: int) -> tuple:
    """(sites, mask) of every subset of k sites with two or more sites.

    This is the order in which subsets are judged: by size, then in
    `itertools.combinations` order, so the full site set comes last.  The
    sites are a sorted 0-based tuple and the mask has bit s set for site s.
    """
    return tuple(
        (j, _mask(j)) for r in range(2, k + 1) for j in itertools.combinations(range(k), r)
    )


@functools.cache
def _cut_table(k: int) -> tuple:
    """(starts, cuts): every cut of every subset of `_subsets(k)`, as bitmasks.

    `cuts` holds the (3, cuts) masks (J, a, b), the subsets in `_subsets`
    order and each subset's cuts in `_bipartitions` order, and `starts` the
    index of each subset's first cut: a per-cut array reduces to one verdict
    per subset with `np.logical_or.reduceat(..., starts)`.

    Each subset size r is one array step: the (subsets, r) site bits of the
    size-r subsets times the (cuts, r) 0/1 matrix of the sides a of
    `_bipartitions(r)` gives every side mask a, and b = J ^ a.
    """
    starts, cuts, count = [np.zeros(0, dtype=np.intp)], [np.zeros((3, 0), dtype=np.intp)], 0
    for r in range(2, k + 1):
        sites = itertools.chain.from_iterable(itertools.combinations(range(k), r))
        bits = 1 << np.fromiter(sites, dtype=np.intp).reshape(-1, r)
        sides = np.array([[p in a for p in range(r)] for a, _ in _bipartitions(r)], dtype=np.intp)
        a = (bits @ sides.T).reshape(-1)
        j = np.repeat(bits.sum(axis=1), len(sides))
        starts.append(count + len(sides) * np.arange(len(bits), dtype=np.intp))
        cuts.append(np.stack([j, a, j ^ a]))
        count += len(a)
    return np.concatenate(starts), np.concatenate(cuts, axis=1)


def _integers(values, rule: str) -> tuple:
    """The values as ints.  A float, a string or a boolean is an error, not
    an integer to convert: a DomainError names `rule` and the values."""
    values = tuple(values)
    types = {*map(type, values)} - {int}  # values of other types need converting
    if types and any(t in (bool, np.bool_) or not hasattr(t, "__index__") for t in types):
        raise DomainError(f"{rule}: {values}")
    return tuple(map(operator.index, values)) if types else values


def _named(table: Mapping, name, kind: str):
    """table[name]; a name the table lacks is a DomainError listing the known ones."""
    if name not in table:
        raise DomainError(f"unknown {kind} {name!r}; known: {sorted(table)}")
    return table[name]


def _check_indices(indices, count: int) -> tuple:
    """Distinct integer indices into `count` sites, sorted."""
    indices = tuple(sorted(_integers(indices, "site indices must be integers")))
    if len(set(indices)) != len(indices):
        raise DomainError(f"duplicate site indices: {indices}")
    if indices and not 0 <= indices[0] <= indices[-1] < count:
        i = next(i for i in indices if not 0 <= i < count)
        raise DomainError(f"site index {i} out of range for {count} sites")
    return indices


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


def _mask(positions) -> int:
    return sum(1 << p for p in positions)


def _close(ground_size: int, masks: Iterable[int]) -> tuple:
    """(family, kept): the fixpoint of pairwise union-with-common-point,
    seeded with all singletons, and the masks it kept.

    The masks are taken by size, and one the family already holds is
    skipped.  A kept mask is extended by the kept masks that meet the set
    grown so far; a union the family held needs no extending, as the family
    was closed before.  A mask is held on arrival exactly when it is the
    union of two smaller connected members that meet, so the kept masks are
    the irreducibles of the family, whether or not `masks` was closed.
    """
    family = {0} | {1 << i for i in range(ground_size)}
    kept: list = []
    for g in sorted(set(masks), key=int.bit_count):
        if g in family:
            continue
        kept.append(g)
        family.add(g)
        work = [g]
        while work:
            a = work.pop()
            for h in kept:
                u = a | h
                if a & h and u not in family:
                    family.add(u)
                    work.append(u)
    return frozenset(family), kept


def _restrictions(whole, k: int, restrict):
    """`restrict(whole, sites)` by sorted site tuple, each tuple built once;
    the tuple of all k sites is `whole` itself."""
    return functools.cache(lambda sites: whole if len(sites) == k else restrict(whole, sites))


def _subset_structures(k: int, verdict, families: Mapping) -> tuple:
    """(verdicts, structures): judge every subset of k sites, then generate.

    `verdict(j)` is called once per site tuple j of `_subsets(k)`, in that
    order; each verdict is keyed by the 1-based labels of j.  Structure
    `name` on the points 1..k is generated by the masks of the subsets whose
    verdict `families[name]` accepts.
    """
    judged = [(j, mask, verdict(j)) for j, mask in _subsets(k)]
    structures = {
        name: ConnectiveStructure(k, [mask for _, mask, v in judged if accepts(v)])
        for name, accepts in families.items()
    }
    return {tuple(s + 1 for s in j): v for j, _, v in judged}, structures


def connective_order(structure: ConnectiveStructure) -> int:
    """Length in nodes of the longest strict-inclusion chain of irreducibles.

    An antichain of irreducibles has order 1; no irreducibles at all gives 0,
    so a discrete structure has order 0.
    """
    height = {0: 0}  # the empty set, below every irreducible
    for k in sorted(structure.irreducibles, key=int.bit_count):
        height[k] = 1 + max([h for m, h in height.items() if m & k == m])
    return max(height.values())
