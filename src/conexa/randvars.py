"""Connectivity structure of finite families of random variables.

A subfamily is separable when some bipartition of it splits the joint law
into a product; the structure of the family is generated by the inseparable
subsets.  Probabilities are exact rationals whenever the inputs are, so the
independence tests on the reference examples involve no tolerances at all;
float tables are compared within the caller's tolerance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .connective import (
    ConnectiveStructure,
    _bipartitions,
    _check_indices,
    _check_labels,
    _check_partition,
    _subset_structures,
    irreducibles,
)
from .errors import DomainError
from .quantum import DEFAULT_TOL


@dataclass(frozen=True)
class FiniteJointDistribution:
    """Probability table over a product of finite outcome alphabets.

    A float table must sum to 1 within `tol`; an exact one exactly.
    """

    outcomes: tuple
    prob: Mapping[tuple, object]

    def __init__(self, outcomes, prob: Mapping, tol: float = DEFAULT_TOL):
        outcomes = _check_labels(outcomes, "outcome")
        if not outcomes:
            raise DomainError("a joint distribution needs at least one variable")
        table = {}
        exact = True
        for t, p in prob.items():
            t = tuple(t)
            if len(t) != len(outcomes) or any(
                x not in outcomes[i] for i, x in enumerate(t)
            ):
                raise DomainError(f"outcome tuple {t} is not well-typed")
            if isinstance(p, Fraction) or isinstance(p, int):
                p = Fraction(p)
            else:
                p = float(p)
                exact = False
            if not p >= 0:  # also rejects NaN
                raise DomainError(f"probability {p} for {t} is not >= 0")
            if p != 0:
                table[t] = table.get(t, Fraction(0) if exact else 0.0) + p
        if not table:
            raise DomainError("distribution support is empty")
        total = sum(table.values())
        if exact:
            if total != 1:
                raise DomainError(f"probabilities sum to {total}, not 1")
        elif abs(float(total) - 1.0) > tol:
            raise DomainError(f"probabilities sum to {total}, not 1 within {tol}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "prob", table)
        object.__setattr__(self, "exact", exact)

    @property
    def variables(self) -> int:
        return len(self.outcomes)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteJointDistribution)
            and self.outcomes == other.outcomes
            and self.prob == other.prob
        )


def marginal(dist: FiniteJointDistribution, positions) -> dict:
    """Marginal table over the given variable positions (sorted)."""
    positions = _check_indices(positions, dist.variables, "variable")
    table: dict = {}
    zero = Fraction(0) if dist.exact else 0.0
    for t, p in dist.prob.items():
        key = tuple(t[i] for i in positions)
        table[key] = table.get(key, zero) + p
    return table


def _marginals(dist: FiniteJointDistribution):
    """marginal of dist by sorted position tuple, each tuple computed once."""
    return functools.cache(lambda positions: marginal(dist, positions))


def _independent(marg, j1: tuple, j2: tuple, tol) -> bool:
    """Whether the marginals on j1 and j2 are independent within the joint on j1|j2.

    Every entry must match the product of marginals within tol, which `_tol`
    makes 0 for exact tables, whose Fraction arithmetic makes that equality.
    A support-size mismatch short-circuits.
    """
    union = tuple(sorted(j1 + j2))
    joint, m1, m2 = marg(union), marg(j1), marg(j2)
    if len(joint) != len(m1) * len(m2):
        return False
    pos1 = [union.index(p) for p in j1]
    pos2 = [union.index(p) for p in j2]
    return all(
        abs(p - m1[tuple(t[i] for i in pos1)] * m2[tuple(t[i] for i in pos2)]) <= tol
        for t, p in joint.items()
    )


def _tol(dist: FiniteJointDistribution, tol: float):
    return 0 if dist.exact else tol


def is_separable_split(dist: FiniteJointDistribution, j1, j2, tol: float = DEFAULT_TOL) -> bool:
    """Whether (j1, j2) partitions the family into two independent blocks."""
    a, b = _check_partition(j1, j2, dist.variables, "variable")
    return _independent(_marginals(dist), a, b, _tol(dist, tol))


@dataclass(frozen=True)
class RvReport:
    structure: ConnectiveStructure
    raw_generators: tuple
    raw_family_closed: bool


def rv_analysis(dist: FiniteJointDistribution, tol: float = DEFAULT_TOL) -> RvReport:
    """Inseparable subsets, the structure they generate, and whether generation
    was needed at all (the raw family can already be closed)."""
    marg, tol = _marginals(dist), _tol(dist, tol)
    inseparable, structures = _subset_structures(
        dist.variables,
        lambda j: not any(_independent(marg, a, b, tol) for a, b in _bipartitions(j)),
        {"rv": bool},
    )
    structure = structures["rv"]
    raw = tuple(j for j, insep in inseparable.items() if insep)
    raw_masks = {structure.ground.mask_of(j) for j in raw}
    closure_masks = {m for m in structure.connected if m.bit_count() >= 2}
    return RvReport(structure, raw, raw_masks == closure_masks)


def rv_structure(dist: FiniteJointDistribution) -> ConnectiveStructure:
    """Integral structure generated by the inseparable subfamilies, labels 1..k."""
    return rv_analysis(dist).structure


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
        key = tuple("".join(p) for p in parts)
        prob[key] = prob.get(key, Fraction(0)) + weight
    outcomes = [
        tuple("".join(c) for c in itertools.product("01", repeat=sum(i in b for b in blocks)))
        for i in range(k)
    ]
    return FiniteJointDistribution(outcomes, prob)
