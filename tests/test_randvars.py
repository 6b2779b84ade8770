"""Random-variable families: separability, brunnian constructions, realization."""

import functools
import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conexa.errors import DomainError
from conexa.quantum import DEFAULT_TOL
from conexa.randvars import (
    FiniteJointDistribution,
    brunnian_family,
    is_separable_split,
    marginal,
    realize_structure,
    rv_analysis,
    rv_structure,
)
from conexa.serialize import canonical_json, distribution_to_dict

from helpers import (
    all_integral_structures,
    borromean,
    discrete,
    oracle_independent,
    oracle_irreducibles,
    oracle_marginal,
    oracle_rv_inseparable,
    power_set,
    structure,
)


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
    assert is_separable_split(independent_bits(2), [0], [1])


def test_xor_triple_has_no_separable_split():
    # each variable is the parity of the other two, so every bipartition of
    # the full triple is dependent
    xor = brunnian_family(2, 2)
    for j1 in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        j2 = [i for i in range(3) if i not in j1]
        assert not is_separable_split(xor, j1, j2)
        assert not oracle_independent(xor.outcomes, xor.prob, j1, j2)


def test_xor_triple_pairwise_separable():
    # the marginal pair families are independent
    xor = brunnian_family(2, 2)
    for pair in ((0, 1), (0, 2), (1, 2)):
        table = marginal(xor, pair)
        pair_dist = FiniteJointDistribution((("0", "1"),) * 2, table)
        assert is_separable_split(pair_dist, [0], [1])
        assert all(p == Fraction(1, 4) for p in table.values())


def test_split_requires_partition():
    xor = brunnian_family(2, 2)
    with pytest.raises(DomainError):
        is_separable_split(xor, [0], [1])


def test_rv_structure_of_xor_triple_is_borromean():
    assert rv_structure(brunnian_family(2, 2)) == borromean(3)


def test_rv_structure_of_independent_bits_is_discrete():
    assert rv_structure(independent_bits(3)) == discrete(3)


def test_rv_structure_of_brunnian_families():
    assert rv_structure(brunnian_family(3, 2)) == borromean(4)
    assert rv_structure(brunnian_family(3, 3)) == borromean(4)
    assert rv_structure(brunnian_family(1, 2)) == power_set(2)


def test_brunnian_validation():
    with pytest.raises(DomainError):
        brunnian_family(0, 2)
    with pytest.raises(DomainError):
        brunnian_family(2, 1)


def test_realize_borromean_round_trip():
    kappa = borromean(3)
    dist = realize_structure(kappa)
    assert rv_structure(dist) == kappa
    # up to outcome relabeling this is the parity triple: uniform support of
    # size 4 with the third bit determined
    assert len(dist.prob) == 4
    assert all(p == Fraction(1, 4) for p in dist.prob.values())


def test_realize_discrete_gives_independent_bits():
    kappa = discrete(3)
    dist = realize_structure(kappa)
    assert rv_structure(dist) == kappa
    assert len(dist.prob) == 8


def test_realize_nested_structure_round_trip():
    kappa = structure(3, [(2, 3), (1, 2, 3)])
    assert rv_structure(realize_structure(kappa)) == kappa


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
        assert rv_structure(realize_structure(kappa)) == kappa


def test_marginalization_commutes_with_structure_analysis():
    # generator membership of K inside J computed on the full distribution
    # agrees with the analysis of the marginal distribution on J
    for dist in (brunnian_family(3, 2), realize_structure(structure(4, [(1, 2), (2, 3, 4)]))):
        k = dist.variables
        raw = rv_analysis(dist).raw_generators
        for j in itertools.combinations(range(k), 3):
            table = marginal(dist, j)
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

    # two overlapping correlated pairs: raw family lacks the generated union
    kappa = power_set(3)
    report = rv_analysis(realize_structure(kappa))
    assert not report.raw_family_closed or set(report.raw_generators) == {
        (1, 2), (1, 3), (2, 3), (1, 2, 3)
    }


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
    assert marginal(dist, [0, 2]) == {
        (alphabet[0], alphabet[0]): Fraction(1, 4), (alphabet[0], alphabet[-1]): Fraction(1, 4),
        (alphabet[-1], alphabet[-1]): Fraction(1, 4), (alphabet[-1], alphabet[0]): Fraction(1, 4),
    }


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rv_cases())
def test_rv_analysis_matches_oracle(case):
    outcomes, table, kind, blocks = case
    if kind == "huge":
        assume(math.lcm(*(p.denominator for p in table.values())) ** 2 >= 2**62)
    tol = kind if isinstance(kind, float) else DEFAULT_TOL
    dist = FiniteJointDistribution(outcomes, table)
    raw = set(rv_analysis(dist, tol=tol).raw_generators)
    assert raw == oracle_rv_inseparable(outcomes, table, tol if isinstance(kind, float) else 0)
    if blocks == 2:
        assert tuple(range(1, len(outcomes) + 1)) not in raw
    # the table, then its JSON keys in the order of the outcome indices
    full = oracle_marginal(table, range(len(outcomes)))
    assert list(dist.prob.items()) == list(full.items())
    by_index = sorted(full, key=lambda t: [outcomes[i].index(x) for i, x in enumerate(t)])
    assert list(distribution_to_dict(dist)["prob"]) == ["".join(t) for t in by_index]
    # same entries in the same (first-occurrence) order
    for r in range(len(outcomes) + 1):
        for positions in itertools.combinations(range(len(outcomes)), r):
            expected = oracle_marginal(table, positions)
            assert list(marginal(dist, positions).items()) == list(expected.items())


def test_float_probabilities_accepted():
    dist = FiniteJointDistribution(
        (("0", "1"), ("0", "1")),
        {("0", "0"): 0.25, ("0", "1"): 0.25, ("1", "0"): 0.25, ("1", "1"): 0.25},
    )
    assert is_separable_split(dist, [0], [1])
    assert rv_structure(dist) == discrete(2)


def _float_pair(table):
    return FiniteJointDistribution((("0", "1"), ("0", "1")), table)


@pytest.mark.parametrize("delta, separable", [(1e-13, True), (1e-11, False)])
def test_float_independence_tolerance(delta, separable):
    # both marginals are exactly uniform, so |p - m1 m2| = delta everywhere
    dist = _float_pair({
        ("0", "0"): 0.25 + delta, ("0", "1"): 0.25 - delta,
        ("1", "0"): 0.25 - delta, ("1", "1"): 0.25 + delta,
    })
    assert is_separable_split(dist, [0], [1], tol=1e-12) is separable
    assert rv_analysis(dist, tol=1e-12).structure == (discrete(2) if separable else power_set(2))


@pytest.mark.parametrize("delta, separable", [(1e-11, True), (1e-10, True), (1e-8, False)])
def test_float_independence_default_tolerance(delta, separable):
    # the default tolerance is DEFAULT_TOL = 1e-9, as for `analyze-rvs`
    p, q = 0.25 + delta, 0.25 - delta
    dist = _float_pair({("0", "0"): p, ("0", "1"): q, ("1", "0"): q, ("1", "1"): p})
    assert is_separable_split(dist, [0], [1]) is separable
    assert rv_analysis(dist).structure == (discrete(2) if separable else power_set(2))


def test_float_sum_checked_within_tolerance():
    table = {("0", "0"): 0.5 + 1e-10, ("1", "1"): 0.5}
    assert _float_pair(table).variables == 2
    with pytest.raises(DomainError, match="not 1 within 1e-12"):
        FiniteJointDistribution((("0", "1"), ("0", "1")), table, tol=1e-12)


def test_exact_tables_ignore_tolerance():
    # Fraction arithmetic decides exactly, whatever the tolerance
    dist = brunnian_family(2, 2)
    assert not is_separable_split(dist, [0, 1], [2], tol=0.5)
    assert rv_analysis(dist, tol=0.5).structure == rv_structure(dist)


def test_float_support_shortcut():
    # within 1e-12 of a product law entry by entry, but the support has
    # three outcomes where a product of two two-outcome marginals has four
    dist = _float_pair({("0", "0"): 1 - 2e-13, ("0", "1"): 1e-13, ("1", "0"): 1e-13})
    assert not is_separable_split(dist, [0], [1])
    assert rv_structure(dist) == power_set(2)


REALIZATIONS_SHA256 = "e099d503974274ab10c6a8494ba8069b08ac62e930b5867f5f0a46486af09430"


def test_realizations_pinned():
    # canonical JSON of the realization of every 3- and 4-point structure
    digest = hashlib.sha256()
    count = 0
    for n in (3, 4):
        for kappa in all_integral_structures(n):
            digest.update(canonical_json(distribution_to_dict(realize_structure(kappa))).encode())
            count += 1
    assert (count, digest.hexdigest()) == (432, REALIZATIONS_SHA256)
