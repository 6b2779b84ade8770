"""Connectivity structure of finite families of random variables.

A subfamily is separable when some bipartition of it splits the joint law
into a product; the structure of the family is generated by the inseparable
subsets.  An exact table is held as integer counts over a common
denominator D, so the independence tests on the reference examples compare
integers and involve no tolerances at all; float tables are compared within
the caller's tolerance.

`rv_analysis` decides every cut of every subset in one sweep over the subset
sizes: one ranking per size gives every subset of that size its support
rows' ids, one array comparison applies the support-size test to every cut,
and one more step tests the weights of the cuts that pass it.
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
    _check_ground,
    _check_labels,
    _cut_table,
    _subset_structures,
    _subsets,
)
from .errors import DomainError
from .quantum import _EPS, DEFAULT_TOL


@dataclass(frozen=True)
class FiniteJointDistribution:
    """Probability table over a product of finite outcome alphabets.

    An exact table must sum to 1 exactly, a float one within tol plus the band
    n eps (1 + tol), n its nonzero entries: rounding each entry and summing
    them moves a sum of at most 1 + tol by no more (as for the trace of a
    `DensityOperator`), so a rounded table passes at tol = 0.  A table
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
        if not exact and abs(total - 1.0) > tol + len(entries) * _EPS * (1 + tol):
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
        """The table: each support outcome's probability, in first-occurrence order.

        The count rows are distinct and their weights nonzero, so each row is
        one entry."""
        value = (lambda w: Fraction(w, self._scale)) if self.exact else float
        return {
            tuple(map(tuple.__getitem__, self.outcomes, row)): value(w)
            for row, w in zip(self._index.tolist(), self._weights.tolist())
        }

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


def _rank(keys: np.ndarray) -> tuple:
    """(ids, sizes): rank each line of a (lines, rows) integer key matrix.

    Entries of a line that share a key share an id, and the ids count up
    from 0 in key order, exactly as np.unique(line, return_inverse=True)
    would give them: an argsort along each line, a flag where the sorted key
    changes, a cumsum, and a scatter back.  The order of equal keys does
    not change the ids, so the sort need not be stable.  `sizes` holds each
    line's number of distinct keys.
    """
    order = keys.argsort(axis=1)
    order += np.arange(0, keys.size, keys.shape[1])[:, None]
    ranked = keys.ravel()[order]
    ranks = np.empty_like(keys)
    ranks[:, 0] = 0
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=ranks[:, 1:])
    ranks.cumsum(axis=1, out=ranks)
    row_ids = np.empty_like(ranks)
    row_ids.ravel()[order] = ranks
    return row_ids, ranks[:, -1] + 1


@functools.cache
def _plan(k: int) -> tuple:
    """The rank levels `_sweep` runs on k variables, as bitmasks.

    For each size s = 1..k, the (masks, prefixes, lasts) arrays of the
    size-s subsets in the order of `connective._subsets`: each subset, the
    subset without its last variable, and that variable.
    """
    levels = []
    singles = tuple(((p,), 1 << p) for p in range(k))
    for _, level in itertools.groupby(singles + _subsets(k), key=lambda subset: len(subset[0])):
        masks, lasts = zip(*((mask, j[-1]) for j, mask in level))
        prefixes = [m ^ 1 << last for m, last in zip(masks, lasts)]
        levels.append(tuple(np.array(v, dtype=np.intp) for v in (masks, prefixes, lasts)))
    return tuple(levels)


# the weight test takes its passing cuts in steps, so that each (cuts, rows)
# array it gathers holds at most this many entries, or one cut's rows
_CHUNK = 1 << 20


def _sweep(dist: FiniteJointDistribution, tol: float) -> tuple:
    """(row ids, sizes, independent): every subset ranked, every cut decided.

    `row_ids[m]` holds the rows' ids on the subset with bitmask m (rows
    agreeing on its variables share an id, counted up from 0 in the order
    of its outcome indices) and `sizes[m]` its support size; m = 0 is the
    empty subset.  One size at a time, each subset's key is its prefix's
    row ids times its last variable's alphabet size plus that variable's
    outcome index, and one `_rank` call ranks the keys of every subset of
    the size: the keys stay below the rows times an alphabet, and no array
    over the product of the alphabets is ever built.

    `independent` holds one verdict per cut of `connective._cut_table`: the
    blocks a and b of J are independent when J's support is the product of
    theirs, size[J] == size[a] * size[b], and on every row J's weight sum
    times the scale matches the product of a's and b's within tol, which is
    0 for exact tables: their integer counts make that equality exact.
    Weight sums are formed, by one np.add.at in row order, only for the
    subsets that the cuts passing the support test touch.
    """
    weights = dist._weights
    columns = np.ascontiguousarray(dist._index.T)
    levels, cuts = _plan(dist.variables), _cut_table(dist.variables)[1]
    alphabets = np.array([len(labels) for labels in dist.outcomes], dtype=np.int64)
    row_ids = np.zeros((1 << dist.variables, len(weights)), dtype=np.int64)
    sizes = np.ones(1 << dist.variables, dtype=np.int64)
    for masks, prefixes, lasts in levels:
        keys = row_ids[prefixes] * alphabets[lasts, None] + columns[lasts]
        row_ids[masks], sizes[masks] = _rank(keys)
    j, a, b = cuts
    independent = np.zeros(len(j), dtype=bool)
    passing = np.flatnonzero(sizes[j] == sizes[a] * sizes[b])
    if not len(passing):
        return row_ids, sizes, independent
    # each row's weight sum on each subset that a passing cut touches
    hit = np.zeros(len(sizes), dtype=bool)
    hit[cuts[:, passing]] = True
    touched, line = np.flatnonzero(hit), np.cumsum(hit) - 1
    ends = np.cumsum(sizes[touched])
    flat = row_ids[touched] + (ends - sizes[touched])[:, None]
    sums = np.zeros(int(ends[-1]), dtype=weights.dtype)
    np.add.at(sums, flat.ravel(), np.tile(weights, len(touched)))
    cells = sums[flat]
    scale, tol = dist._scale, 0 if dist.exact else tol
    step = max(1, _CHUNK // len(weights))
    for lo in range(0, len(passing), step):
        chunk = passing[lo : lo + step]
        joint, left, right = cells[line[cuts[:, chunk]]]
        independent[chunk] = np.all(np.abs(joint * scale - left * right) <= tol, axis=1)
    return row_ids, sizes, independent


@dataclass(frozen=True)
class RvReport:
    structure: ConnectiveStructure
    raw_generators: tuple
    raw_family_closed: bool


def rv_analysis(dist: FiniteJointDistribution, tol: float = DEFAULT_TOL) -> RvReport:
    """Inseparable subsets, the structure they generate, and whether generation
    was needed at all (the raw family can already be closed).

    A subset is separable when any of its cuts of `_sweep` is independent;
    the verdicts follow the subsets of `connective._subsets`.  The structure
    contains every raw generator, so it adds none exactly when its parts of
    two or more points are as many as the raw generators.
    """
    k = dist.variables
    _check_ground(k)
    separable = np.logical_or.reduceat(_sweep(dist, tol)[2], _cut_table(k)[0])
    verdicts = dict(zip((j for j, _ in _subsets(k)), np.logical_not(separable).tolist()))
    inseparable, structures = _subset_structures(k, verdicts.__getitem__, {"rv": bool})
    structure = structures["rv"]
    raw = tuple(j for j, insep in inseparable.items() if insep)
    return RvReport(structure, raw, len(structure.connected) - k - 1 == len(raw))


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
    k = kappa.size
    generators = sorted(kappa.irreducibles, key=lambda m: (m.bit_count(), m))
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
