"""Connectivity structure of finite families of random variables.

A subfamily is separable when some bipartition of it splits the joint law
into a product; the structure of the family is generated by the inseparable
subsets.  An exact table is held as integer counts over a common
denominator D, so the independence tests on the reference examples compare
integers and involve no tolerances at all; float tables are compared within
the caller's tolerance.

A table is built from one column of labels per variable and one value per
entry, in whole-list steps.  `rv_analysis` decides every cut of every subset
in one sweep: one ranking of every subset's mixed-radix row codes gives each
subset its support rows' ids, one array comparison applies the support-size
test to every cut, and one more step tests the weights of the passing cuts.
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
        k, keys = len(outcomes), list(map(tuple, prob))
        # a key of another arity names no outcome
        rows = [t if len(t) == k else (None,) * k for t in keys]
        columns, values = list(zip(*rows)) or [()] * k, list(prob.values())
        aliased = len(set(keys)) < len(keys)
        self._assemble(outcomes, columns, values, tol, keys.__getitem__, aliased=aliased)

    @classmethod
    def _from_columns(cls, outcomes, columns, values, tol: float, key_of):
        """The table of entries i with distinct labels columns[v][i] and values
        values[i]; `key_of(i)` names entry i in an error."""
        dist, outcomes = cls.__new__(cls), _check_labels(outcomes, "outcome")
        dist._assemble(outcomes, columns, values, tol, key_of, aliased=False)
        return dist

    def _assemble(self, outcomes: tuple, columns, values, tol: float, key_of, aliased) -> None:
        """Check and store the entries given as label columns and values.

        Each column is mapped to outcome indices by one `map`, and each distinct
        value object (held by `values`, so no id is reused) is read once, in the
        order of its first entry, up to the first key naming no outcome: so the
        first faulty entry is the one named.  Zero entries are dropped; when
        `aliased`, entries naming one row are summed in first-occurrence order.
        """
        if not outcomes:
            raise DomainError("a joint distribution needs at least one variable")
        index = [
            list(map(dict(zip(labels, range(len(labels)))).get, column))
            for labels, column in zip(outcomes, columns)
        ]
        ids = list(map(id, values))
        bad = min((column.index(None) for column in index if None in column), default=len(ids))
        num = {}
        for oid, p in dict(zip(ids[:bad], values[:bad])).items():
            num[oid], sign = (p, p.numerator) if isinstance(p, (int, Fraction)) else (float(p),) * 2
            if isinstance(p, bool) or not sign >= 0:  # `not >=` also refuses NaN
                fault = "is a boolean, not a number" if isinstance(p, bool) else "is not >= 0"
                raise DomainError(f"probability {num[oid]} for {key_of(ids.index(oid))} {fault}")
        if bad < len(ids):
            raise DomainError(f"outcome tuple {key_of(bad)} is not well-typed")
        exact = not any(isinstance(v, float) for v in num.values())
        scale = math.lcm(*(v.denominator for v in num.values())) if exact else 1.0
        weigh = (lambda v: v.numerator * (scale // v.denominator)) if exact else float
        weights = list(map({oid: weigh(v) for oid, v in num.items()}.__getitem__, ids))
        if not all(weights):
            nonzero = list(map(bool, weights))
            weights = list(itertools.compress(weights, nonzero))
            index = [list(itertools.compress(column, nonzero)) for column in index]
        if not weights:
            raise DomainError("distribution support is empty")
        entries = len(weights)
        if aliased:
            rows = dict.fromkeys(zip(*index), 0)
            for row, w in zip(zip(*index), weights):
                rows[row] += w
            index, weights = list(zip(*rows)), list(rows.values())
        total = sum(weights)
        if exact and total != scale:
            raise DomainError(f"probabilities sum to {Fraction(total, scale)}, not 1")
        if not exact and abs(total - 1.0) > tol + entries * _EPS * (1 + tol):
            raise DomainError(f"probabilities sum to {total}, not 1 within {tol}")
        dtype = float if not exact else np.int64 if scale * scale < 2**62 else object
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_index", np.array(index, dtype=np.int64).T)
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
def _plan(lo: int, hi: int) -> tuple:
    """The subsets `_sweep` ranks for the run of variables lo..hi-1, as bitmasks.

    (own, bits, prefixes, lasts): the run's nonempty subsets Q, as masks and
    as the (subsets, hi - lo) 0/1 matrix of their variables, then every
    nonempty subset P of the variables before lo beside every Q, as the
    masks of the pairs (P, Q).
    """
    own = np.arange(1, 1 << (hi - lo), dtype=np.intp)
    bits = (own[:, None] >> np.arange(hi - lo) & 1).astype(np.int64)
    prefixes = np.repeat(np.arange(1, 1 << lo, dtype=np.intp), len(own))
    return own << lo, bits, prefixes, np.tile(own << lo, (1 << lo) - 1)


# each stack of keys that `_sweep` ranks, and each (cuts, rows) array its
# weight test gathers, holds at most _CHUNK entries, or one line's rows; the
# variables of one run have alphabets whose product is below _RADIX_LIMIT
_CHUNK, _RADIX_LIMIT = 1 << 20, 1 << 62


def _sweep(dist: FiniteJointDistribution, tol: float) -> tuple:
    """(row ids, sizes, independent): every subset ranked, every cut decided.

    `row_ids[m]` holds the rows' ids on the subset with bitmask m (rows
    agreeing on its variables share an id, counted up from 0 in the order
    of its outcome indices) and `sizes[m]` its support size; m = 0 is the
    empty subset.  A subset's key on a row is the mixed-radix code of the
    row's outcome indices on it, the first variable most significant: one
    integer product of the subsets' 0/1 rows with the stride-scaled index
    columns, ranked by one `_rank` call per stack.  Where the product of
    the alphabets would reach 2**62, the variables are split into runs whose
    products stay below it; a subset P | Q, with P before the run and Q in
    it, is then keyed by P's ids times Q's support size plus Q's ids.  The
    keys stay below 2**62 or the rows squared, and no array over the
    product of the alphabets is ever built.

    `independent` holds one verdict per cut of `connective._cut_table`: the
    blocks a and b of J are independent when J's support is the product of
    theirs, size[J] == size[a] * size[b], and on every row J's weight sum
    times the scale matches the product of a's and b's within tol, which is
    0 for exact tables: their integer counts make that equality exact.
    Weight sums are formed, by one np.add.at in row order, only for the
    subsets that the cuts passing the support test touch.
    """
    weights, cuts = dist._weights, _cut_table(dist.variables)[1]
    alphabets = [len(labels) for labels in dist.outcomes]
    row_ids = np.zeros((1 << dist.variables, len(weights)), dtype=np.int64)
    sizes = np.ones(1 << dist.variables, dtype=np.int64)
    step = max(1, _CHUNK // len(weights))
    bounds = [0]  # the first variable of each run
    for v in range(1, dist.variables):
        if math.prod(alphabets[bounds[-1] : v + 1]) >= _RADIX_LIMIT:
            bounds.append(v)
    for lo, hi in zip(bounds, bounds[1:] + [dist.variables]):
        own, bits, prefixes, lasts = _plan(lo, hi)
        strides = [math.prod(alphabets[v + 1 : hi]) for v in range(lo, hi)]
        scaled = dist._index.T[lo:hi] * np.array(strides, dtype=np.int64)[:, None]
        for s in range(0, len(own), step):
            q = own[s : s + step]
            row_ids[q], sizes[q] = _rank(bits[s : s + step] @ scaled)
        for s in range(0, len(lasts), step):
            p, q = prefixes[s : s + step], lasts[s : s + step]
            row_ids[p | q], sizes[p | q] = _rank(row_ids[p] * sizes[q, None] + row_ids[q])
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
