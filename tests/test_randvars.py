"""Random-variable families: separability, brunnian constructions, realization."""

import functools
import hashlib
import itertools
import json
import math
import operator
import random
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conexa import randvars
from conexa.connective import _cut_table
from conexa.errors import DomainError
from conexa.quantum import DEFAULT_TOL
from conexa.randvars import (
    FiniteJointDistribution,
    _sweep,
    brunnian_family,
    realize_structure,
    rv_analysis,
)
from conexa.serialize import canonical_json, distribution_from_dict, distribution_to_dict

from helpers import (
    all_integral_structures,
    borromean,
    discrete,
    oracle_independent,
    oracle_index,
    oracle_irreducibles,
    oracle_marginal,
    oracle_rv_inseparable,
    pinned_layout,
    power_set,
    structure,
)


def mask(positions) -> int:
    return sum(1 << p for p in positions)


def independent(dist, a, b, tol=DEFAULT_TOL) -> bool:
    """Whether the blocks a and b are independent: the sweep's verdict on that cut."""
    _, left, right = _cut_table(dist.variables)[1]
    a, b = mask(a), mask(b)
    (cut,) = np.flatnonzero((left == a) & (right == b) | (left == b) & (right == a))
    return bool(_sweep(dist, tol)[2][cut])


def independent_bits(k):
    prob = {
        tuple(str(b) for b in bits): Fraction(1, 2**k)
        for bits in itertools.product((0, 1), repeat=k)
    }
    return FiniteJointDistribution((("0", "1"),) * k, prob)


def test_distribution_validation():
    with pytest.raises(DomainError):
        FiniteJointDistribution((("0", "1"),), {("0",): Fraction(1, 2)})
    with pytest.raises(DomainError):
        FiniteJointDistribution((("0", "1"),), {("2",): Fraction(1, 1)})
    with pytest.raises(DomainError):
        FiniteJointDistribution((("0", "1"),), {})


def test_boolean_probability_is_refused():
    # bool is an int subclass: True must not be read as the exact probability 1
    for p in (True, False):
        with pytest.raises(DomainError, match="boolean"):
            FiniteJointDistribution((("0", "1"),), {("0",): p, ("1",): Fraction(1)})


def test_mixed_table_is_float_in_either_order():
    # one float entry makes the whole table float, whichever entry comes first
    entries = [(("0",), Fraction(1, 2)), (("1",), 0.5)]
    first, second = (
        FiniteJointDistribution((("0", "1"),), dict(order)) for order in (entries, entries[::-1])
    )
    assert not first.exact and not second.exact
    assert first.prob == second.prob
    assert all(type(p) is float for p in [*first.prob.values(), *second.prob.values()])
    assert distribution_to_dict(first) == distribution_to_dict(second) == {
        "outcomes": [["0", "1"]], "prob": {"0": 0.5, "1": 0.5}
    }


def test_zero_float_entry_keeps_table_float():
    # exactness is decided over every entry, the zero ones included
    dist = FiniteJointDistribution((("0", "1"),), {("0",): Fraction(1), ("1",): 0.0})
    assert not dist.exact
    assert dist.prob == {("0",): 1.0} and type(dist.prob[("0",)]) is float
    assert FiniteJointDistribution((("0", "1"),), {("0",): Fraction(1), ("1",): 0}).exact


def test_aliased_keys_are_summed():
    # the string "ab" and the tuple ("a", "b") name one outcome
    outcomes = (("a", "b"),) * 2
    exact = FiniteJointDistribution(
        outcomes, {"ab": Fraction(1, 4), ("b", "a"): Fraction(1, 2), ("a", "b"): Fraction(1, 4)}
    )
    assert list(exact.prob.items()) == [(("a", "b"), Fraction(1, 2)), (("b", "a"), Fraction(1, 2))]
    floats = FiniteJointDistribution(outcomes, {"ab": 0.25, "ba": 0.5, ("a", "b"): 0.25})
    assert floats.prob == {("a", "b"): 0.5, ("b", "a"): 0.5}
    with pytest.raises(DomainError, match="sum to 3/2"):
        FiniteJointDistribution(outcomes, {"ab": Fraction(1, 2), ("a", "b"): 1})


def test_repr_shows_the_table():
    assert repr(brunnian_family(1, 2)) == (
        "FiniteJointDistribution(outcomes=(('0', '1'), ('0', '1')), "
        "prob={('0', '0'): Fraction(1, 2), ('1', '1'): Fraction(1, 2)})"
    )


def test_distribution_hash_agrees_with_equality():
    xor = brunnian_family(2, 2)
    reordered = FiniteJointDistribution(xor.outcomes, dict(reversed(list(xor.prob.items()))))
    as_float = FiniteJointDistribution(xor.outcomes, {t: float(p) for t, p in xor.prob.items()})
    assert xor == reordered == as_float
    assert hash(xor) == hash(reordered) == hash(as_float)
    assert len({xor, reordered, as_float, independent_bits(3)}) == 2


def test_xor_triple_table():
    xor = brunnian_family(2, 2)
    assert xor.prob == {
        ("0", "0", "0"): Fraction(1, 4),
        ("0", "1", "1"): Fraction(1, 4),
        ("1", "0", "1"): Fraction(1, 4),
        ("1", "1", "0"): Fraction(1, 4),
    }


def test_independent_bits_split():
    assert independent(independent_bits(2), [0], [1])


def test_xor_triple_has_no_separable_split():
    # each variable is the parity of the other two, so every bipartition of
    # the full triple is dependent
    xor = brunnian_family(2, 2)
    for j1 in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        j2 = [i for i in range(3) if i not in j1]
        assert not independent(xor, j1, j2)
        assert not oracle_independent(xor.outcomes, xor.prob, j1, j2)


def test_xor_triple_pairwise_separable():
    # the marginal pair families are independent
    xor = brunnian_family(2, 2)
    for pair in ((0, 1), (0, 2), (1, 2)):
        table = oracle_marginal(xor.prob, pair)
        pair_dist = FiniteJointDistribution((("0", "1"),) * 2, table)
        assert independent(pair_dist, [0], [1])
        assert all(p == Fraction(1, 4) for p in table.values())


def test_rv_structure_of_xor_triple_is_borromean():
    assert rv_analysis(brunnian_family(2, 2)).structure == borromean(3)


def test_rv_structure_of_independent_bits_is_discrete():
    assert rv_analysis(independent_bits(3)).structure == discrete(3)


def test_rv_structure_of_brunnian_families():
    assert rv_analysis(brunnian_family(3, 2)).structure == borromean(4)
    assert rv_analysis(brunnian_family(3, 3)).structure == borromean(4)
    assert rv_analysis(brunnian_family(1, 2)).structure == power_set(2)


def test_brunnian_validation():
    with pytest.raises(DomainError):
        brunnian_family(0, 2)
    with pytest.raises(DomainError):
        brunnian_family(2, 1)


def test_realize_borromean_round_trip():
    kappa = borromean(3)
    dist = realize_structure(kappa)
    assert rv_analysis(dist).structure == kappa
    # up to outcome relabeling this is the parity triple: uniform support of
    # size 4 with the third bit determined
    assert len(dist.prob) == 4
    assert all(p == Fraction(1, 4) for p in dist.prob.values())


def test_realize_discrete_gives_independent_bits():
    kappa = discrete(3)
    dist = realize_structure(kappa)
    assert rv_analysis(dist).structure == kappa
    assert len(dist.prob) == 8


def test_realize_nested_structure_round_trip():
    kappa = structure(3, [(2, 3), (1, 2, 3)])
    assert rv_analysis(realize_structure(kappa)).structure == kappa


def test_realization_support_sizes():
    # every assignment of the free bits gives its own outcome: a generator g
    # holds |g| - 1 free bits, a point in no generator one
    for n in range(1, 5):
        for kappa in all_integral_structures(n):
            generators = oracle_irreducibles(kappa)
            covered = functools.reduce(operator.or_, generators, 0)
            free = sum(g.bit_count() - 1 for g in generators) + n - covered.bit_count()
            assert len(realize_structure(kappa).prob) == 2**free


def test_realize_round_trip_all_three_point_structures():
    structures = all_integral_structures(3)
    assert len(structures) == 12
    for kappa in structures:
        assert rv_analysis(realize_structure(kappa)).structure == kappa


def test_marginalization_commutes_with_structure_analysis():
    # generator membership of K inside J computed on the full distribution
    # agrees with the analysis of the marginal distribution on J
    for dist in (brunnian_family(3, 2), realize_structure(structure(4, [(1, 2), (2, 3, 4)]))):
        k = dist.variables
        raw = rv_analysis(dist).raw_generators
        for j in itertools.combinations(range(k), 3):
            table = oracle_marginal(dist.prob, j)
            sub = FiniteJointDistribution(tuple(dist.outcomes[i] for i in j), table)
            sub_report = rv_analysis(sub)
            expected = {
                tuple(j.index(label - 1) + 1 for label in subset)
                for subset in raw
                if all(label - 1 in j for label in subset)
            }
            assert set(sub_report.raw_generators) == expected


def test_raw_family_closed_flag():
    # for the parity triple, the raw inseparable family is {full set} and it
    # is already a structure; attaching an extra independent bit keeps it so
    report = rv_analysis(brunnian_family(2, 2))
    assert report.raw_generators == ((1, 2, 3),)
    assert report.raw_family_closed

    # the power-set realization: every pair and the triple are inseparable,
    # so the raw family is already the whole structure
    report = rv_analysis(realize_structure(power_set(3)))
    assert report.raw_generators == ((1, 2), (1, 3), (2, 3), (1, 2, 3))
    assert report.raw_family_closed


def test_sparse_table_over_large_alphabets():
    # the parity triple on the first and last of 20,000 labels per variable:
    # a dense array over the alphabets would need 8 * 10**12 cells
    alphabet = tuple(str(v) for v in range(20_000))
    relabel = {"0": alphabet[0], "1": alphabet[-1]}
    xor = brunnian_family(2, 2)
    dist = FiniteJointDistribution(
        (alphabet,) * 3, {tuple(relabel[x] for x in t): p for t, p in xor.prob.items()}
    )
    report = rv_analysis(dist)
    assert (report.structure, report.raw_generators) == (borromean(3), ((1, 2, 3),))
    assert oracle_marginal(dist.prob, [0, 2]) == {
        (alphabet[0], alphabet[0]): Fraction(1, 4), (alphabet[0], alphabet[-1]): Fraction(1, 4),
        (alphabet[-1], alphabet[-1]): Fraction(1, 4), (alphabet[-1], alphabet[0]): Fraction(1, 4),
    }


@pytest.mark.parametrize("value, message", [
    (True, "probability True for ('1',) is a boolean, not a number"),
    (Fraction(-1, 4), "probability -1/4 for ('1',) is not >= 0"),
    (-0.25, "probability -0.25 for ('1',) is not >= 0"),
])
def test_repeated_bad_value_object_names_its_first_entry(value, message):
    # one object on two entries is checked once, on the first of them
    prob = {("0",): Fraction(1, 2), ("1",): value, ("2",): value}
    with pytest.raises(DomainError) as caught:
        FiniteJointDistribution((("0", "1", "2"),), prob)
    assert str(caught.value) == message


class FreshValues(Mapping):
    """A table whose items() builds a new value object for every entry on each
    call, so that a freed value's id can come back two entries later."""

    def __init__(self, table, kind):
        self._table, self._kind = table, kind

    def __getitem__(self, key):
        return self._kind(self._table[key])

    def __iter__(self):
        return iter(self._table)

    def __len__(self):
        return len(self._table)


@pytest.mark.parametrize("kind, values", [
    # a zero value is held by no row, a Decimal only as its float copy
    (Fraction, (0, Fraction(1, 4), Fraction(3, 4), 0)),
    (Decimal, (0.125, 0.375, 0.0625, 0.4375)),
])
def test_values_are_told_apart_when_each_entry_is_a_new_object(kind, values):
    table = dict(zip(itertools.product("01", repeat=2), values))
    fresh = FiniteJointDistribution((("0", "1"),) * 2, FreshValues(table, kind))
    plain = FiniteJointDistribution((("0", "1"),) * 2, table)
    assert fresh.exact == plain.exact == (kind is Fraction)
    assert fresh._index.tolist() == plain._index.tolist()
    assert fresh._weights.tolist() == plain._weights.tolist()
    assert fresh._scale == plain._scale


def test_large_alphabets_and_support_decode_and_rank():
    # x, y uniform on 64 values and z = x + y mod 64: 4,096 rows, each value
    # spread over a 4,096-label alphabet; one probability string for them all
    alphabet = [str(v) for v in range(4096)]
    label = [alphabet[64 * v + v % 7] for v in range(64)]
    data = {
        "outcomes": [alphabet] * 3,
        "prob": {
            ",".join((label[x], label[y], label[(x + y) % 64])): "1/4096"
            for x in range(64) for y in range(64)
        },
    }
    dist = distribution_from_dict(data)
    assert dist._index.shape == (4096, 3) and dist._scale == 4096
    assert set(dist._weights.tolist()) == {1}
    report = rv_analysis(dist)
    assert (report.structure, report.raw_generators) == (borromean(3), ((1, 2, 3),))
    # the ranked ids are np.unique's inverse over the rows' outcome indices
    ids, sizes = _sweep(dist, DEFAULT_TOL)[:2]
    for r in (1, 2, 3):
        for positions in itertools.combinations(range(3), r):
            row_ids, size = ids[mask(positions)], sizes[mask(positions)]
            unique, inverse = np.unique(dist._index[:, positions], axis=0, return_inverse=True)
            assert size == len(unique) and row_ids.tolist() == inverse.ravel().tolist()


@st.composite
def rv_cases(draw):
    """(outcomes, table, kind, blocks) on 2-5 variables of 1-3 outcomes each.

    The table is one random law, or the product of two on a random split of
    the variables (`blocks` 2), so that independent cuts occur.  Its entries
    are Fractions of counts up to 3 (kind "small"), Fractions of counts up to
    2**33, whose common denominator D mostly has D**2 >= 2**62 (kind
    "huge"), or floats, kind being the tolerance the test applies.
    """
    sizes = draw(st.lists(st.sampled_from((1, 2, 2, 3)), min_size=2, max_size=5))
    k = len(sizes)
    outcomes = tuple(tuple(str(x) for x in range(n)) for n in sizes)
    kind = draw(st.sampled_from(("small", "huge", "huge", 1e-9, 1e-3)))
    order = draw(st.permutations(range(k)))
    split = draw(st.integers(1, k - 1)) if draw(st.booleans()) else 0
    blocks = [sorted(order[:split]), sorted(order[split:])] if split else [list(range(k))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    high = 2**33 if kind == "huge" else 3

    def law(part):
        cells = list(itertools.product(*(outcomes[i] for i in part)))
        counts = [rng.choice((0, rng.randint(1, high))) for _ in cells]
        counts[rng.randrange(len(cells))] = rng.randint(1, high)
        total = sum(counts)
        return [(cell, Fraction(c, total)) for cell, c in zip(cells, counts) if c]

    table = {}
    for combo in itertools.product(*(law(part) for part in blocks)):
        t, p = [None] * k, 1
        for part, (cell, q) in zip(blocks, combo):
            for i, x in zip(part, cell):
                t[i] = x
            p *= float(q) if isinstance(kind, float) else q
        table[tuple(t)] = p
    return outcomes, table, kind, len(blocks)


@settings(max_examples=100)
@given(rv_cases())
def test_rv_analysis_matches_oracle(case):
    outcomes, table, kind, blocks = case
    if kind == "huge":
        assume(math.lcm(*(p.denominator for p in table.values())) ** 2 >= 2**62)
    tol = kind if isinstance(kind, float) else DEFAULT_TOL
    dist = FiniteJointDistribution(outcomes, table)
    report = rv_analysis(dist, tol=tol)
    raw = set(report.raw_generators)
    assert raw == oracle_rv_inseparable(outcomes, table, tol if isinstance(kind, float) else 0)
    # independence across A|B passes to every sub-cut, so two overlapping
    # inseparable subsets of an exact table have an inseparable union
    if not isinstance(kind, float):
        assert report.raw_family_closed
    if blocks == 2:
        assert tuple(range(1, len(outcomes) + 1)) not in raw
    # the table, then its JSON keys in the order of the outcome indices
    full = oracle_marginal(table, range(len(outcomes)))
    assert list(dist.prob.items()) == list(full.items())
    by_index = sorted(full, key=lambda t: [outcomes[i].index(x) for i, x in enumerate(t)])
    assert list(distribution_to_dict(dist)["prob"]) == ["".join(t) for t in by_index]


def sweep_cuts(dist):
    """(J, a, b) position tuples of each cut of the sweep, in its order."""
    return [tuple(tuple(p for p in range(dist.variables) if m >> p & 1) for m in cut)
            for cut in _cut_table(dist.variables)[1].T.tolist()]


def check_sweep_against_oracle(outcomes, table, tol=DEFAULT_TOL):
    """Every cut's verdict is the oracle's, and every subset's row ids are
    np.unique's inverse over the rows' outcome indices."""
    dist = FiniteJointDistribution(outcomes, table)
    row_ids, sizes, independent = _sweep(dist, tol)
    cuts = sweep_cuts(dist)
    assert len(cuts) == len(independent) == (3 ** len(outcomes) + 1) // 2 - 2 ** len(outcomes)
    for (j, a, b), verdict in zip(cuts, independent.tolist()):
        expected = oracle_independent(outcomes, table, a, b, 0 if dist.exact else tol)
        assert verdict == expected, (j, a, b)
    assert row_ids[0].tolist() == [0] * len(table) and sizes[0] == 1
    for m in range(1, 1 << len(outcomes)):
        positions = [p for p in range(len(outcomes)) if m >> p & 1]
        unique, inverse = np.unique(dist._index[:, positions], axis=0, return_inverse=True)
        assert row_ids[m].tolist() == inverse.ravel().tolist() and sizes[m] == len(unique)
    return dist


@settings(max_examples=80)
@given(rv_cases())
def test_sweep_decides_every_cut_as_the_oracle(case):
    outcomes, table, kind, _ = case
    check_sweep_against_oracle(outcomes, table, kind if isinstance(kind, float) else DEFAULT_TOL)


@settings(max_examples=30)
@given(rv_cases(), st.integers(1, 3), st.sampled_from((2, 3, 4, 9, 2**62)))
def test_sweep_decides_every_cut_as_the_oracle_in_steps(case, lines_per_step, radix_limit):
    # a stack of 1-3 subsets or cuts, so that the ranking and the passing cuts
    # span several stacks, and runs of variables whose alphabets multiply to
    # less than `radix_limit`, so that most subsets are ranked as pairs (P, Q)
    outcomes, table, kind, _ = case
    stacks = []

    def rank(keys):
        stacks.append(len(keys))
        return rank_once(keys)

    rank_once = randvars._rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randvars, "_CHUNK", lines_per_step * len(table))
        mp.setattr(randvars, "_RADIX_LIMIT", radix_limit)
        mp.setattr(randvars, "_rank", rank)
        check_sweep_against_oracle(outcomes, table, kind if isinstance(kind, float) else DEFAULT_TOL)
    # every nonempty subset is ranked once, in stacks of at most lines_per_step
    assert sum(stacks) == 2 ** len(outcomes) - 1 and max(stacks) <= lines_per_step


def test_sweep_splits_alphabets_whose_product_reaches_2_to_62():
    # two parity triples over 6 variables of 2,048 labels each: 2048**6 = 2**66,
    # so variables 1-5 form one run and variable 6 another, and the second
    # triple's subsets are ranked as pairs across the two runs
    kappa = structure(6, [(1, 2, 3), (4, 5, 6)])
    small = realize_structure(kappa)
    alphabet = tuple(str(v) for v in range(2048))
    relabel = [{x: alphabet[(577 * j + 131 * v) % 2048] for j, x in enumerate(labels)}
               for v, labels in enumerate(small.outcomes)]
    table = {tuple(r[x] for r, x in zip(relabel, t)): p for t, p in small.prob.items()}
    runs = []

    def plan(lo, hi):
        runs.append((lo, hi))
        return plan_once(lo, hi)

    plan_once = randvars._plan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randvars, "_plan", plan)
        dist = FiniteJointDistribution((alphabet,) * 6, table)
        row_ids, sizes, independent = _sweep(dist, DEFAULT_TOL)
    assert runs == [(0, 5), (5, 6)]
    for m in range(1, 1 << 6):
        positions = [p for p in range(6) if m >> p & 1]
        unique, inverse = np.unique(dist._index[:, positions], axis=0, return_inverse=True)
        assert row_ids[m].tolist() == inverse.ravel().tolist() and sizes[m] == len(unique)
    # the oracle walks the labels the table uses; the others have no mass
    used = [sorted(r.values(), key=alphabet.index) for r in relabel]
    for (_, a, b), verdict in zip(sweep_cuts(dist), independent.tolist()):
        assert verdict == oracle_independent(used, table, a, b)
    assert rv_analysis(dist).structure == kappa


def _json_table(items, form, commas):
    """The JSON "prob" object of a table's (key tuple, value) items: compact,
    comma or, per `commas`, mixed keys; Fractions as "p/q" strings."""
    return json.loads(json.dumps({
        ",".join(t) if form == "comma" or form == "mixed" and c else "".join(t):
        f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else p
        for (t, p), c in zip(items, commas)
    }))


@settings(max_examples=80)
@given(rv_cases(), st.sampled_from(("compact", "comma", "mixed")), st.data())
def test_json_decoder_matches_the_constructor_and_the_oracle(case, form, data):
    # the table with some zero entries (the JSON integer 0, which keeps a
    # table exact) off its support, in a drawn entry order
    outcomes, table, _, _ = case
    missing = [t for t in itertools.product(*outcomes) if t not in table]
    zeros = data.draw(st.lists(st.sampled_from(missing), unique=True)) if missing else []
    items = data.draw(st.permutations([*table.items(), *((t, 0) for t in zeros)]))
    commas = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    json_table = _json_table(items, form, commas)
    decoded = distribution_from_dict({"outcomes": outcomes, "prob": json_table})
    built = FiniteJointDistribution(outcomes, dict(items))
    rows, weights, scale, exact = oracle_index(outcomes, dict(items))
    dtype = np.dtype(float if not exact else np.int64 if scale**2 < 2**62 else object)
    for dist in (decoded, built):
        assert dist._index.tolist() == [list(row) for row in rows]
        assert dist._weights.tolist() == weights and dist._weights.dtype == dtype
        assert dist._scale == scale and dist.exact == exact


def test_sweep_on_one_row_and_object_weights():
    # one support row: every sorted line has no neighbour to compare with
    one = check_sweep_against_oracle((("0", "1"), ("0",), ("0", "1", "2")),
                                     {("1", "0", "2"): Fraction(1)})
    assert _sweep(one, DEFAULT_TOL)[2].all()
    # a parity triple beside an independent bit, over a denominator D with
    # D**2 >= 2**62: the weights are Python ints in an object array
    bit = {"0": 1 - Fraction(3, 2**33 + 1), "1": Fraction(3, 2**33 + 1)}
    table = {(*t, x): p * q for t, p in brunnian_family(2, 2).prob.items() for x, q in bit.items()}
    dist = check_sweep_against_oracle((("0", "1"),) * 4, table)
    assert dist._weights.dtype == object
    assert rv_analysis(dist).raw_generators == ((1, 2, 3),)


def permuted(dist, perm):
    """The family whose variable i is variable perm[i] of dist."""
    return FiniteJointDistribution(
        [dist.outcomes[p] for p in perm],
        {tuple(t[p] for p in perm): q for t, q in dist.prob.items()},
    )


def check_variable_order(dist, perm, tol=DEFAULT_TOL):
    # a subset S of the moved family is the subset perm[S] of dist: its
    # verdict, its support size and the verdict on each of its cuts move with it
    moved = permuted(dist, perm)

    def image(positions):
        return tuple(sorted(perm[p] for p in positions))

    before, after = rv_analysis(dist, tol), rv_analysis(moved, tol)
    assert set(after.raw_generators) == {
        tuple(sorted(perm.index(p - 1) + 1 for p in j)) for j in before.raw_generators
    }
    _, sizes, independent = _sweep(dist, tol)
    _, moved_sizes, moved_independent = _sweep(moved, tol)
    for s in range(1, 1 << dist.variables):
        positions = [p for p in range(dist.variables) if s >> p & 1]
        assert moved_sizes[s] == sizes[mask(image(positions))]
    # a cut is the unordered pair of its blocks
    verdicts = {frozenset((a, b)): v for (_, a, b), v in zip(sweep_cuts(dist), independent.tolist())}
    for (_, a, b), v in zip(sweep_cuts(moved), moved_independent.tolist()):
        assert verdicts[frozenset((image(a), image(b)))] == v


@pytest.mark.parametrize("dist", [
    brunnian_family(3, 2),
    brunnian_family(2, 3),
    realize_structure(structure(4, [(1, 2), (2, 3, 4)])),
    realize_structure(structure(4, [(1, 3), (3, 4)])),
], ids=["brunnian-3-2", "brunnian-2-3", "realized-nested", "realized-chain"])
def test_variable_order_moves_every_verdict(dist):
    for perm in itertools.permutations(range(dist.variables)):
        check_variable_order(dist, list(perm))


@settings(max_examples=40)
@given(rv_cases(), st.data())
def test_variable_order_moves_every_verdict_on_drawn_tables(case, data):
    outcomes, table, kind, _ = case
    perm = data.draw(st.permutations(range(len(outcomes))))
    dist = FiniteJointDistribution(outcomes, table)
    check_variable_order(dist, list(perm), kind if isinstance(kind, float) else DEFAULT_TOL)


def test_float_probabilities_accepted():
    dist = FiniteJointDistribution(
        (("0", "1"), ("0", "1")),
        {("0", "0"): 0.25, ("0", "1"): 0.25, ("1", "0"): 0.25, ("1", "1"): 0.25},
    )
    assert independent(dist, [0], [1])
    assert rv_analysis(dist).structure == discrete(2)


def _float_pair(table):
    return FiniteJointDistribution((("0", "1"), ("0", "1")), table)


@pytest.mark.parametrize("delta, separable", [(1e-13, True), (1e-11, False)])
def test_float_independence_tolerance(delta, separable):
    # both marginals are exactly uniform, so |p - m1 m2| = delta everywhere
    dist = _float_pair({
        ("0", "0"): 0.25 + delta, ("0", "1"): 0.25 - delta,
        ("1", "0"): 0.25 - delta, ("1", "1"): 0.25 + delta,
    })
    assert independent(dist, [0], [1], tol=1e-12) is separable
    assert rv_analysis(dist, tol=1e-12).structure == (discrete(2) if separable else power_set(2))


@pytest.mark.parametrize("delta, separable", [(1e-11, True), (1e-10, True), (1e-8, False)])
def test_float_independence_default_tolerance(delta, separable):
    # the default tolerance is DEFAULT_TOL = 1e-9, as for `analyze-rvs`
    p, q = 0.25 + delta, 0.25 - delta
    dist = _float_pair({("0", "0"): p, ("0", "1"): q, ("1", "0"): q, ("1", "1"): p})
    assert independent(dist, [0], [1]) is separable
    assert rv_analysis(dist).structure == (discrete(2) if separable else power_set(2))


def test_float_sum_checked_within_tolerance():
    table = {("0", "0"): 0.5 + 1e-10, ("1", "1"): 0.5}
    assert _float_pair(table).variables == 2
    with pytest.raises(DomainError, match="not 1 within 1e-12"):
        FiniteJointDistribution((("0", "1"), ("0", "1")), table, tol=1e-12)


def test_exact_tables_ignore_tolerance():
    # Fraction arithmetic decides exactly, whatever the tolerance
    dist = brunnian_family(2, 2)
    assert not independent(dist, [0, 1], [2], tol=0.5)
    assert rv_analysis(dist, tol=0.5).structure == rv_analysis(dist).structure


def test_float_support_shortcut():
    # within 1e-12 of a product law entry by entry, but the support has
    # three outcomes where a product of two two-outcome marginals has four
    dist = _float_pair({("0", "0"): 1 - 2e-13, ("0", "1"): 1e-13, ("1", "0"): 1e-13})
    assert not independent(dist, [0], [1])
    assert rv_analysis(dist).structure == power_set(2)


REALIZATIONS_SHA256 = "e099d503974274ab10c6a8494ba8069b08ac62e930b5867f5f0a46486af09430"


def test_realizations_pinned():
    # canonical JSON of the realization of every 3- and 4-point structure,
    # in its pinned layout
    digest = hashlib.sha256()
    count = 0
    for n in (3, 4):
        for kappa in all_integral_structures(n):
            out = canonical_json(distribution_to_dict(realize_structure(kappa)))
            digest.update(pinned_layout(out))
            count += 1
    assert (count, digest.hexdigest()) == (432, REALIZATIONS_SHA256)
