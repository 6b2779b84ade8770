"""Random-variable families: separability, brunnian constructions, realization."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from conexa.errors import DomainError
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

from helpers import all_integral_structures, borromean, discrete, power_set, structure


def independent_bits(k):
    prob = {
        tuple(str(b) for b in bits): Fraction(1, 2**k)
        for bits in itertools.product((0, 1), repeat=k)
    }
    return FiniteJointDistribution((("0", "1"),) * k, prob)


def oracle_independent(dist, j1, j2) -> bool:
    """Float-based independence check over the full outcome product."""
    union = sorted(set(j1) | set(j2))
    pj = {t: float(p) for t, p in marginal(dist, union).items()}
    p1 = {t: float(p) for t, p in marginal(dist, j1).items()}
    p2 = {t: float(p) for t, p in marginal(dist, j2).items()}
    alphabets = [dist.outcomes[i] for i in union]
    for combo in itertools.product(*alphabets):
        t1 = tuple(combo[union.index(i)] for i in sorted(j1))
        t2 = tuple(combo[union.index(i)] for i in sorted(j2))
        lhs = pj.get(combo, 0.0)
        rhs = p1.get(t1, 0.0) * p2.get(t2, 0.0)
        if abs(lhs - rhs) > 1e-12:
            return False
    return True


def test_distribution_validation():
    with pytest.raises(DomainError):
        FiniteJointDistribution((("0", "1"),), {("0",): Fraction(1, 2)})
    with pytest.raises(DomainError):
        FiniteJointDistribution((("0", "1"),), {("2",): Fraction(1, 1)})
    with pytest.raises(DomainError):
        FiniteJointDistribution((("0", "1"),), {})


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
        assert not oracle_independent(xor, j1, j2)


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
