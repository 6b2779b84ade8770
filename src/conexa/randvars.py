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
        label_index = [{x: i for i, x in enumerate(labels)} for labels in outcomes]
        rows, entries = {}, []
        exact = True
        for t, p in prob.items():
            t = tuple(t)
            row = tuple(map(dict.get, label_index, t))
            if len(t) != len(outcomes) or None in row:
                raise DomainError(f"outcome tuple {t} is not well-typed")
            if isinstance(p, bool):
                raise DomainError(f"probability {p} for {t} is a boolean, not a number")
            if isinstance(p, (int, Fraction)):
                sign = p.numerator  # has p's sign, and is 0 with p
            else:
                p = sign = float(p)
                exact = False
            if not sign >= 0:  # also rejects NaN
                raise DomainError(f"probability {p} for {t} is not >= 0")
            if sign:
                entries.append((rows.setdefault(row, len(rows)), p))
        if not rows:
            raise DomainError("distribution support is empty")
        if exact:
            scale = math.lcm(*(p.denominator for _, p in entries))
            entries = [(r, p.numerator * (scale // p.denominator)) for r, p in entries]
        else:
            scale, entries = 1.0, [(r, float(p)) for r, p in entries]
        weights = [0] * len(rows)
        for r, w in entries:
            weights[r] += w
        total = sum(weights)
        if exact and total != scale:
            raise DomainError(f"probabilities sum to {Fraction(total, scale)}, not 1")
        if not exact and abs(total - 1.0) > tol:
            raise DomainError(f"probabilities sum to {total}, not 1 within {tol}")
        dtype = float if not exact else np.int64 if scale * scale < 2**62 else object
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_index", np.array(list(rows), dtype=np.int64))
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
    """(row ids, sums) of the marginal on each sorted position tuple, each computed once.

    Rows agreeing on the positions share an id, and the ids count up from 0
    to the marginal's support size; sums[id] adds up the rows' weights in
    row order.  The id on a tuple refines the id on its prefix by the last
    position's outcome index, so it stays below the row count: no dense array
    over the product of the alphabets is ever built.
    """
    index, weights = dist._index, dist._weights

    @functools.cache
    def marg(positions: tuple) -> tuple:
        if positions:
            *prefix, last = positions
            key = marg(tuple(prefix))[0] * len(dist.outcomes[last]) + index[:, last]
            ids = np.unique(key, return_inverse=True)[1]
        else:
            ids = np.zeros(len(weights), dtype=np.int64)
        sums = np.zeros(ids.max() + 1, dtype=weights.dtype)
        np.add.at(sums, ids, weights)
        return ids, sums

    return marg


def marginal(dist: FiniteJointDistribution, positions) -> dict:
    """Marginal table over the given variable positions (sorted)."""
    positions = _check_indices(positions, dist.variables, "variable")
    ids, sums = _marginals(dist)(positions)
    first = np.sort(np.unique(ids, return_index=True)[1])
    value = (lambda w: Fraction(int(w), dist._scale)) if dist.exact else float
    return {
        tuple(dist.outcomes[p][row[p]] for p in positions): value(sums[i])
        for row, i in zip(dist._index[first].tolist(), ids[first].tolist())
    }


def _independence(dist: FiniteJointDistribution, tol: float):
    """Predicate on sorted position tuples (a, b): are the blocks a and b independent?

    The joint support on a|b must be the product of the two marginal supports,
    and on every row the joint weight times the scale must match the product
    of the marginal weights within tol, which is 0 for exact tables: their
    integer counts make that equality exact.
    """
    marg, scale = _marginals(dist), dist._scale
    tol = 0 if dist.exact else tol

    def independent(a: tuple, b: tuple) -> bool:
        (ids, joint), (ids_a, wa), (ids_b, wb) = marg(tuple(sorted(a + b))), marg(a), marg(b)
        if len(joint) != len(wa) * len(wb):
            return False
        return bool(np.all(np.abs(joint[ids] * scale - wa[ids_a] * wb[ids_b]) <= tol))

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
