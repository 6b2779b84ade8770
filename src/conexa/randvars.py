"""Connectivity structure of finite families of random variables.

A subfamily is separable when some bipartition of it splits the joint law
into a product; the structure of the family is generated by the inseparable
subsets.  An exact table is held as integer counts over a common
denominator D, so the independence tests on the reference examples compare
integers and involve no tolerances at all; float tables are compared within
the caller's tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .connective import (
    ConnectiveStructure,
    _bipartitions,
    _check_indices,
    _check_labels,
    _subset_structures,
    irreducibles,
)
from .errors import DomainError
from .quantum import DEFAULT_TOL


@dataclass(frozen=True)
class FiniteJointDistribution:
    """Probability table over a product of finite outcome alphabets.

    A float table must sum to 1 within `tol`; an exact one exactly.  A table
    with any float entry, a zero included, is a float table.  A boolean is an
    error, not a probability to convert.  Entries naming one outcome add up.

    The only stored table is the support as rows of an index matrix
    (`_index`, one outcome index per variable) with one weight per row
    (`_weights`) over a scale (`_scale`); `prob` is derived from it.  An exact
    table's weights are the integer counts p * D for D the lcm of its
    denominators, as int64 while D**2 < 2**62 (so products of two counts
    cannot overflow) and Python ints beyond; a float table's weights are its
    probabilities, with scale 1.0.
    """

    outcomes: tuple

    def __init__(self, outcomes, prob: Mapping, tol: float = DEFAULT_TOL):
        outcomes = _check_labels(outcomes, "outcome")
        if not outcomes:
            raise DomainError("a joint distribution needs at least one variable")
        k = len(outcomes)
        label_index = [{x: i for i, x in enumerate(labels)} for labels in outcomes]
        # each distinct value object is checked once: `checked` maps its id to
        # (the object, its slot in `values`, or None when it is zero), and
        # holding the object keeps the id from being reused by another value
        checked, values, rows, entries = {}, [], {}, []
        exact = True
        for t, p in prob.items():
            t = tuple(t)
            row = tuple(map(dict.get, label_index, t))
            if len(t) != k or None in row:
                raise DomainError(f"outcome tuple {t} is not well-typed")
            seen = checked.get(id(p))
            if seen is None:
                if isinstance(p, bool):
                    raise DomainError(f"probability {p} for {t} is a boolean, not a number")
                if isinstance(p, (int, Fraction)):
                    value, sign = p, p.numerator  # has p's sign, and is 0 with p
                else:
                    value = sign = float(p)
                    exact = False
                if not sign >= 0:  # also rejects NaN
                    raise DomainError(f"probability {value} for {t} is not >= 0")
                seen = checked[id(p)] = (p, len(values) if sign else None)
                if sign:
                    values.append(value)
            if seen[1] is not None:
                entries.append((rows.setdefault(row, len(rows)), seen[1]))
        if not rows:
            raise DomainError("distribution support is empty")
        if exact:
            scale = math.lcm(*(p.denominator for p in values))
            values = [p.numerator * (scale // p.denominator) for p in values]
        else:
            scale, values = 1.0, [float(p) for p in values]
        weights = [0] * len(rows)
        for r, v in entries:
            weights[r] += values[v]
        total = sum(weights)
        if exact and total != scale:
            raise DomainError(f"probabilities sum to {Fraction(total, scale)}, not 1")
        if not exact and abs(total - 1.0) > tol:
            raise DomainError(f"probabilities sum to {total}, not 1 within {tol}")
        dtype = float if not exact else np.int64 if scale * scale < 2**62 else object
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "exact", exact)
        index = np.fromiter(itertools.chain.from_iterable(rows), np.int64, len(rows) * k)
        object.__setattr__(self, "_index", index.reshape(len(rows), k))
        object.__setattr__(self, "_weights", np.array(weights, dtype=dtype))
        object.__setattr__(self, "_scale", scale)

    @property
    def variables(self) -> int:
        return len(self.outcomes)

    @property
    def prob(self) -> dict:
        """The table: each support outcome's probability, in first-occurrence order."""
        return marginal(self, range(self.variables))

    def __repr__(self):
        return f"FiniteJointDistribution(outcomes={self.outcomes!r}, prob={self.prob!r})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteJointDistribution)
            and self.outcomes == other.outcomes
            and self.prob == other.prob
        )

    def __hash__(self):
        return hash((self.outcomes, frozenset(self.prob.items())))


def _marginals(dist: FiniteJointDistribution):
    """(ids, sums): the marginal on each sorted position tuple, each part computed once.

    ids(positions) is (row ids, support size): rows agreeing on the positions
    share an id, and the ids count up from 0 in the order of the marginal's
    outcome indices.  The key on a tuple refines the ids on its prefix by the
    last position's outcome index, so it stays below the row count times that
    alphabet, and the ids rank the keys (a stable argsort, a flag where the
    sorted key changes, a cumsum), exactly as np.unique(key,
    return_inverse=True) would: no array over the product of the alphabets,
    nor over rows times an alphabet, is ever built.  sums(positions)[id] adds
    up the rows' weights in row order; it is formed only when asked for.
    """
    index, weights = dist._index, dist._weights

    @functools.cache
    def ids(positions: tuple) -> tuple:
        if not positions:
            return np.zeros(len(weights), dtype=np.int64), 1
        *prefix, last = positions
        key = ids(tuple(prefix))[0] * len(dist.outcomes[last]) + index[:, last]
        order = key.argsort(kind="stable")
        ranked = key[order]
        ranks = np.empty(len(key), dtype=np.int64)
        ranks[0] = 0
        np.not_equal(ranked[1:], ranked[:-1], out=ranks[1:])
        ranks.cumsum(out=ranks)
        row_ids = np.empty_like(ranks)
        row_ids[order] = ranks
        return row_ids, int(ranks[-1]) + 1

    @functools.cache
    def sums(positions: tuple) -> np.ndarray:
        row_ids, size = ids(positions)
        out = np.zeros(size, dtype=weights.dtype)
        np.add.at(out, row_ids, weights)
        return out

    return ids, sums


def marginal(dist: FiniteJointDistribution, positions) -> dict:
    """Marginal table over the given variable positions (sorted)."""
    positions = _check_indices(positions, dist.variables, "variable")
    ids, sums = _marginals(dist)
    row_ids = ids(positions)[0]
    first = np.sort(np.unique(row_ids, return_index=True)[1])
    value = (lambda w: Fraction(int(w), dist._scale)) if dist.exact else float
    weight = sums(positions)
    return {
        tuple(dist.outcomes[p][row[p]] for p in positions): value(weight[i])
        for row, i in zip(dist._index[first].tolist(), row_ids[first].tolist())
    }


def _independence(dist: FiniteJointDistribution, tol: float):
    """Predicate on sorted position tuples (a, b): are the blocks a and b independent?

    The joint support on a|b must be the product of the two marginal supports,
    and on every row the joint weight times the scale must match the product
    of the marginal weights within tol, which is 0 for exact tables: their
    integer counts make that equality exact.  Most cuts fail on the support
    sizes, and then no weight is summed.
    """
    ids, sums = _marginals(dist)
    scale = dist._scale
    tol = 0 if dist.exact else tol

    def independent(a: tuple, b: tuple) -> bool:
        j = tuple(sorted(a + b))
        (ids_j, size), (ids_a, size_a), (ids_b, size_b) = ids(j), ids(a), ids(b)
        if size != size_a * size_b:
            return False
        products = sums(a)[ids_a] * sums(b)[ids_b]
        return bool(np.all(np.abs(sums(j)[ids_j] * scale - products) <= tol))

    return independent


@dataclass(frozen=True)
class RvReport:
    structure: ConnectiveStructure
    raw_generators: tuple
    raw_family_closed: bool


def rv_analysis(dist: FiniteJointDistribution, tol: float = DEFAULT_TOL) -> RvReport:
    """Inseparable subsets, the structure they generate, and whether generation
    was needed at all (the raw family can already be closed)."""
    independent = _independence(dist, tol)
    inseparable, structures = _subset_structures(
        dist.variables,
        lambda j: not any(independent(a, b) for a, b in _bipartitions(j)),
        {"rv": bool},
    )
    structure = structures["rv"]
    raw = tuple(j for j, insep in inseparable.items() if insep)
    raw_masks = {structure.ground.mask_of(j) for j in raw}
    closure_masks = {m for m in structure.connected if m.bit_count() >= 2}
    return RvReport(structure, raw, raw_masks == closure_masks)


def brunnian_family(k: int, n: int) -> FiniteJointDistribution:
    """k iid uniform variables over Z/nZ plus their mod-n sum, k+1 variables total."""
    if k < 1:
        raise DomainError(f"brunnian family needs k >= 1, got {k}")
    if n < 2:
        raise DomainError(f"brunnian family needs a modulus n >= 2, got {n}")
    alphabet = tuple(str(v) for v in range(n))
    weight = Fraction(1, n**k)
    prob: dict = {}
    for values in itertools.product(range(n), repeat=k):
        total = sum(values) % n
        key = tuple(str(v) for v in values) + (str(total),)
        prob[key] = weight
    return FiniteJointDistribution((alphabet,) * (k + 1), prob)


def realize_structure(kappa: ConnectiveStructure) -> FiniteJointDistribution:
    """A family of random variables whose structure is exactly kappa.

    The blocks are the irreducible generators, then the points in none of
    them.  Each block gets independent fair bits: a generator's members hold
    a parity family over Z/2Z, and a lone point one bit of its own, so that
    every variable is nondegenerate.  A point's variable is the string of its
    bits across the blocks containing it, in block order.
    """
    k = kappa.ground.size
    generators = sorted(irreducibles(kappa), key=lambda m: (m.bit_count(), m))
    blocks = [[i for i in range(k) if mask >> i & 1] for mask in generators]
    blocks += [[i] for i in range(k) if not any(i in b for b in blocks)]
    # a generator's last member takes the parity of the others' bits; a
    # lone point's one bit has no partner, so its parity is never used
    widths = [max(1, len(b) - 1) for b in blocks]
    weight = Fraction(1, 2 ** sum(widths))
    prob: dict = {}
    for bits in itertools.product("01", repeat=sum(widths)):
        parts = [[] for _ in range(k)]
        cursor = 0
        for members, width in zip(blocks, widths):
            free = bits[cursor : cursor + width]
            cursor += width
            for i, bit in zip(members, free + (str(free.count("1") % 2),)):
                parts[i].append(bit)
        prob[tuple("".join(p) for p in parts)] = weight
    outcomes = [
        tuple("".join(c) for c in itertools.product("01", repeat=sum(i in b for b in blocks)))
        for i in range(k)
    ]
    return FiniteJointDistribution(outcomes, prob)
