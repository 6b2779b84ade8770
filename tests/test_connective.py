"""Connectivity-structure kernel: generation, irreducibles, order, meet."""

import numpy as np
import pytest

from conexa.connective import (
    GroundSet,
    _check_indices,
    _check_labels,
    _check_partition,
    _subset_structures,
    brunnian_structure,
    closure_axiom_holds,
    connective_order,
    discrete_structure,
    generate_integral,
    indiscrete_structure,
    irreducibles,
    is_connected_set,
    meet_structures,
)
from conexa.devices import Device, builtin_device, derive_device, sub_device
from conexa.errors import DomainError
from conexa.quantum import builtin_state, is_separable_bipartition, partial_trace, ppt_is_separable
from conexa.randvars import (
    FiniteJointDistribution,
    brunnian_family,
    is_separable_split,
    marginal,
)

from helpers import (
    all_integral_structures,
    borromean,
    discrete,
    ground,
    oracle_close,
    oracle_irreducibles,
    power_set,
    structure,
)


def test_generate_two_overlapping_pairs():
    s = generate_integral(ground(3), [(1, 2), (2, 3)])
    assert s == structure(3, [(1, 2), (2, 3), (1, 2, 3)])


def test_generate_full_set_gives_borromean():
    g = GroundSet((0, 1, 2))
    s = generate_integral(g, [(0, 1, 2)])
    nontrivial = [m for m in s.connected if bin(m).count("1") >= 2]
    assert nontrivial == [g.full_mask]


def test_generate_empty_generators_is_discrete():
    s = generate_integral(ground(2), [])
    assert s == discrete(2)


def test_generator_outside_ground_rejected():
    with pytest.raises(DomainError):
        generate_integral(ground(2), [(1, 3)])


def test_is_connected_set():
    b3 = brunnian_structure(3)
    assert not is_connected_set(b3, (0, 1))
    assert is_connected_set(b3, (0, 1, 2))
    assert is_connected_set(b3, (1,))
    assert is_connected_set(b3, ())


def test_irreducibles_borromean():
    b3 = brunnian_structure(3)
    assert irreducibles(b3) == frozenset({b3.ground.full_mask})


def test_irreducibles_power_set_three_points():
    s = power_set(3)
    expected = {s.ground.mask_of(p) for p in [(1, 2), (1, 3), (2, 3)]}
    assert irreducibles(s) == frozenset(expected)
    assert irreducibles(s) == frozenset(oracle_irreducibles(s))


def test_irreducibles_nested_example():
    s = structure(3, [(2, 3), (1, 2, 3)])
    expected = {s.ground.mask_of(p) for p in [(2, 3), (1, 2, 3)]}
    assert irreducibles(s) == frozenset(expected)
    assert irreducibles(s) == frozenset(oracle_irreducibles(s))


def test_irreducibles_match_oracle_on_all_small_structures():
    for n in (2, 3, 4):
        for s in all_integral_structures(n):
            assert irreducibles(s) == frozenset(oracle_irreducibles(s))


def test_connective_order_examples():
    assert connective_order(discrete(3)) == 0
    assert connective_order(brunnian_structure(3)) == 1
    assert connective_order(power_set(3)) == 1
    assert connective_order(structure(3, [(2, 3), (1, 2, 3)])) == 2


def test_connective_order_brunnian_family():
    for n in range(2, 7):
        assert connective_order(brunnian_structure(n)) == 1
    assert connective_order(brunnian_structure(1)) == 0


def test_connective_order_deep_chain():
    s = structure(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4)])
    assert connective_order(s) == 3


def test_meet_idempotent_and_absorbing():
    b3 = borromean(3)
    assert meet_structures([b3]) == b3
    assert meet_structures([b3, power_set(3)]) == b3


def test_meet_of_disjoint_pairs_is_discrete():
    a = generate_integral(ground(3), [(1, 2)])
    b = generate_integral(ground(3), [(2, 3)])
    assert meet_structures([a, b]) == discrete(3)


def test_meet_requires_same_ground():
    with pytest.raises(DomainError):
        meet_structures([borromean(3), brunnian_structure(3)])
    with pytest.raises(DomainError):
        meet_structures([])


def test_brunnian_structure_examples():
    b1 = brunnian_structure(1)
    assert b1.members() == [0, 1]
    b4 = brunnian_structure(4)
    assert len(b4.connected) == 6
    with pytest.raises(DomainError):
        brunnian_structure(0)


def test_closure_axiom_on_generated_structures():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        g = ground(n)
        gens = [int(rng.integers(1, g.full_mask + 1)) for _ in range(int(rng.integers(0, 5)))]
        s = generate_integral(g, gens)
        assert closure_axiom_holds(s)
        assert s.connected == oracle_close(n, gens)


def test_generate_is_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        g = ground(n)
        gens = [int(rng.integers(1, g.full_mask + 1)) for _ in range(3)]
        s = generate_integral(g, gens)
        assert generate_integral(g, s.connected) == s


def test_generate_is_monotone():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        g = ground(n)
        small = [int(rng.integers(1, g.full_mask + 1)) for _ in range(2)]
        large = small + [int(rng.integers(1, g.full_mask + 1)) for _ in range(2)]
        assert generate_integral(g, small).connected <= generate_integral(g, large).connected


def test_irreducibles_regenerate_structure():
    # exhaustive for up to 4 points, sampled on 5
    for n in (2, 3, 4):
        for s in all_integral_structures(n):
            assert generate_integral(s.ground, irreducibles(s)) == s
    rng = np.random.default_rng(14)
    g5 = ground(5)
    for _ in range(200):
        gens = [int(rng.integers(1, g5.full_mask + 1)) for _ in range(int(rng.integers(0, 6)))]
        s = generate_integral(g5, gens)
        assert generate_integral(g5, irreducibles(s)) == s


def test_ground_set_validation():
    with pytest.raises(DomainError):
        GroundSet(())
    with pytest.raises(DomainError):
        GroundSet((1, 1))
    with pytest.raises(DomainError):
        GroundSet(range(25))


def test_indiscrete_structure_is_everything():
    s = indiscrete_structure(ground(3))
    assert len(s.connected) == 8
    assert closure_axiom_holds(s)


def test_structure_counts_small_grounds():
    assert len(all_integral_structures(2)) == 2
    assert len(all_integral_structures(3)) == 12


def test_discrete_structure_matches_empty_generation():
    g = ground(4)
    assert discrete_structure(g) == generate_integral(g, [])


# The shared input rules, each reached directly and through the engines that
# check it: (noun in the message, call).


def _index_calls(indices):
    rho = builtin_state("GHZ").density()
    return [
        ("site", lambda: _check_indices(indices, 3, "site")),
        ("site", lambda: partial_trace(rho, indices)),
        ("site", lambda: sub_device(builtin_device("K"), indices)),
        ("variable", lambda: marginal(brunnian_family(2, 2), indices)),
    ]


@pytest.mark.parametrize(
    "indices, message",
    [((0, 3), "{noun} index 3 out of range for 3 {noun}s"), ((1, 1), "duplicate {noun} indices")],
)
def test_index_rule_is_shared(indices, message):
    for noun, call in _index_calls(indices):
        with pytest.raises(DomainError, match=message.format(noun=noun)):
            call()
    assert _check_indices([2, 0], 3, "site") == (0, 2)


def test_partition_rule_is_shared():
    calls = [
        ("site", lambda: _check_partition([0], [1], 3, "site")),
        ("site", lambda: is_separable_bipartition(builtin_state("GHZ"), [0], [1])),
        ("site", lambda: ppt_is_separable(builtin_state("GHZ").density(), [0], [1])),
        ("variable", lambda: is_separable_split(brunnian_family(2, 2), [0], [1])),
    ]
    for noun, call in calls:
        with pytest.raises(DomainError, match=f"do not partition the 3 {noun}s"):
            call()
    with pytest.raises(DomainError, match="nonempty"):
        is_separable_split(brunnian_family(2, 2), [], [0, 1, 2])
    assert _check_partition([2], [1, 0], 3, "site") == ((2,), (0, 1))


def _label_calls(labels):
    """Each call puts `labels` in the second slot of a two-slot label list."""
    bits = ("0", "1")
    z = np.diag([1.0, -1.0])
    return [
        ("question", lambda: _check_labels([bits, labels], "question")),
        ("question", lambda: Device([bits, labels], [bits, bits], {})),
        ("result", lambda: Device([bits, bits], [bits, labels], {})),
        ("outcome", lambda: FiniteJointDistribution([bits, labels], {})),
        ("question", lambda: derive_device(
            builtin_state("EPR"), [[("z", z)], [(lab, z) for lab in labels]])),
    ]


@pytest.mark.parametrize(
    "labels, message",
    [
        ((), "{kind} labels must be nonempty and distinct"),
        (("a", "a"), "{kind} labels must be nonempty and distinct"),
        (("a", "b,c"), "{kind} labels must not contain commas"),
    ],
    ids=["empty", "duplicate", "comma"],
)
def test_label_rule_is_shared(labels, message):
    for kind, call in _label_calls(labels):
        with pytest.raises(DomainError, match=message.format(kind=kind)):
            call()
    assert _check_labels([[0, 1]], "outcome") == (("0", "1"),)


def test_subset_driver_order_and_labels():
    seen = []

    def verdict(j):
        seen.append(j)
        return len(j)

    families = {"pairs": lambda size: size == 2, "none": lambda size: False}
    verdicts, structures = _subset_structures(4, verdict, families)
    assert seen == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (0, 1, 2, 3),
    ]
    assert list(verdicts) == [tuple(s + 1 for s in j) for j in seen]
    assert list(verdicts.values()) == [len(j) for j in seen]
    assert list(structures) == ["pairs", "none"]
    assert structures["pairs"] == indiscrete_structure(GroundSet(range(1, 5)))
    assert structures["none"] == discrete_structure(GroundSet(range(1, 5)))
