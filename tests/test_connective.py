"""Connectivity-structure kernel: generation, irreducibles, order."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conexa.connective import (
    ConnectiveStructure,
    _bipartitions,
    _check_indices,
    _check_labels,
    _close,
    _cut_table,
    _restrictions,
    _subset_structures,
    _subsets,
    connective_order,
)
from conexa.devices import Device, builtin_device, derive_device, sub_device
from conexa.disentangle import classify_on_subset
from conexa.errors import DomainError
from conexa.quantum import builtin_state, partial_trace
from conexa.randvars import FiniteJointDistribution, _plan

from helpers import (
    all_integral_structures,
    borromean,
    discrete,
    mask,
    oracle_close,
    oracle_irreducibles,
    power_set,
    structure,
)


def test_generate_two_overlapping_pairs():
    s = ConnectiveStructure(3, [mask((1, 2)), mask((2, 3))])
    assert s == structure(3, [(1, 2), (2, 3), (1, 2, 3)])


def test_generate_full_set_gives_borromean():
    s = ConnectiveStructure(3, [mask((1, 2, 3))])
    nontrivial = [m for m in s.connected if bin(m).count("1") >= 2]
    assert nontrivial == [0b111]


def test_generate_empty_generators_is_discrete():
    s = ConnectiveStructure(2, [])
    assert s == discrete(2)


def test_generator_outside_ground_rejected():
    with pytest.raises(DomainError):
        ConnectiveStructure(2, [mask((1, 3))])


def test_is_connected_set():
    b3 = borromean(3)
    assert mask((1, 2)) not in b3.connected
    assert mask((1, 2, 3)) in b3.connected
    assert mask((2,)) in b3.connected
    assert mask(()) in b3.connected


def test_irreducibles_borromean():
    b3 = borromean(3)
    assert b3.irreducibles == frozenset({0b111})


def test_irreducibles_power_set_three_points():
    s = power_set(3)
    expected = {mask(p) for p in [(1, 2), (1, 3), (2, 3)]}
    assert s.irreducibles == frozenset(expected)
    assert s.irreducibles == frozenset(oracle_irreducibles(s))


def test_irreducibles_nested_example():
    s = structure(3, [(2, 3), (1, 2, 3)])
    expected = {mask(p) for p in [(2, 3), (1, 2, 3)]}
    assert s.irreducibles == frozenset(expected)
    assert s.irreducibles == frozenset(oracle_irreducibles(s))


def test_irreducibles_match_oracle_on_all_small_structures():
    for n in (2, 3, 4):
        for s in all_integral_structures(n):
            assert s.irreducibles == frozenset(oracle_irreducibles(s))


def test_connective_order_examples():
    assert connective_order(discrete(3)) == 0
    assert connective_order(borromean(3)) == 1
    assert connective_order(power_set(3)) == 1
    assert connective_order(structure(3, [(2, 3), (1, 2, 3)])) == 2


def test_connective_order_brunnian_family():
    for n in range(2, 7):
        assert connective_order(borromean(n)) == 1
    assert connective_order(borromean(1)) == 0


def test_connective_order_deep_chain():
    s = structure(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4)])
    assert connective_order(s) == 3


def test_brunnian_structure_examples():
    b1 = borromean(1)
    assert b1.members() == [(), (0,)]
    b4 = borromean(4)
    assert len(b4.connected) == 6
    with pytest.raises(DomainError):
        borromean(0)


@st.composite
def _generator_lists(draw, max_n=7):
    """A ground size n <= max_n and up to 2n nonempty masks over it."""
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=2 * n))
    return n, gens


# two pairs that meet, not closed: the constructor must add their union
_OPEN_PAIRS = (3, [0b011, 0b110])


@settings(max_examples=150)
@given(_generator_lists())
@example(_OPEN_PAIRS)
def test_closure_axiom_on_generated_structures(case):
    n, gens = case
    s = ConnectiveStructure(n, gens)
    assert oracle_close(n, s.connected) == s.connected
    assert s.connected == oracle_close(n, gens)
    # the kept masks are the irreducibles: each is a drawn generator, and
    # together they regenerate the structure
    assert frozenset(_close(n, gens)[1]) == s.irreducibles <= set(gens)
    assert ConnectiveStructure(n, s.irreducibles) == s


@settings(max_examples=80)
@given(_generator_lists(max_n=6))
@example(_OPEN_PAIRS)
def test_irreducibles_match_oracle_on_drawn_families(case):
    n, gens = case
    s = ConnectiveStructure(n, gens)
    assert s.irreducibles == frozenset(oracle_irreducibles(s))


@pytest.mark.parametrize("k", [10, 11, 12])
def test_power_set_closure_past_ten_points(k):
    # every mask of two or more points, accepted as for a W_k state's kappa_corr
    s = ConnectiveStructure(k, [m for m in range(1 << k) if m.bit_count() >= 2])
    assert s.connected == frozenset(range(1 << k))
    assert s.irreducibles == frozenset(mask(p) for p in itertools.combinations(range(1, k + 1), 2))
    assert connective_order(s) == 1


@pytest.mark.parametrize("k", [10, 11, 12])
def test_sparse_families_past_ten_points_match_oracle(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        gens = [
            mask(rng.choice(np.arange(1, k + 1), size=int(rng.integers(2, 5)), replace=False).tolist())
            for _ in range(int(rng.integers(1, 6)))
        ]
        assert ConnectiveStructure(k, gens).connected == oracle_close(k, gens)


def test_nested_chain_of_twelve_points():
    s = structure(12, [tuple(range(1, top + 1)) for top in range(2, 13)])
    assert s.irreducibles == frozenset(mask(range(1, top + 1)) for top in range(2, 13))
    assert connective_order(s) == 11


def test_cut_table_caches_one_cut_list_per_site_count():
    _bipartitions.cache_clear()
    _cut_table.cache_clear()
    _cut_table(10)
    assert _bipartitions.cache_info().currsize <= 10
    for k in range(1, 11):
        starts, cuts = _cut_table(k)
        inline, first = [], []
        for r in range(2, k + 1):
            for j in itertools.combinations(range(k), r):
                first.append(len(inline))
                inline += [
                    [sum(1 << s for s in j), sum(1 << s for s in a),
                     sum(1 << s for s in j if s not in a)]
                    for size in range(1, r)
                    for a in itertools.combinations(j, size)
                    if j[0] in a
                ]
        assert starts.dtype == cuts.dtype == np.intp
        assert starts.tolist() == first
        assert cuts.shape == (3, len(inline)) and cuts.T.tolist() == inline


def test_generate_is_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        gens = [int(rng.integers(1, 1 << n)) for _ in range(3)]
        s = ConnectiveStructure(n, gens)
        assert ConnectiveStructure(n, s.connected) == s


def test_generate_is_monotone():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        small = [int(rng.integers(1, 1 << n)) for _ in range(2)]
        large = small + [int(rng.integers(1, 1 << n)) for _ in range(2)]
        assert ConnectiveStructure(n, small).connected <= ConnectiveStructure(n, large).connected


def test_irreducibles_regenerate_structure():
    # exhaustive for up to 4 points, sampled on 5
    for n in (2, 3, 4):
        for s in all_integral_structures(n):
            assert ConnectiveStructure(n, s.irreducibles) == s
    rng = np.random.default_rng(14)
    for _ in range(200):
        gens = [int(rng.integers(1, 1 << 5)) for _ in range(int(rng.integers(0, 6)))]
        s = ConnectiveStructure(5, gens)
        assert ConnectiveStructure(5, s.irreducibles) == s


def test_ground_set_validation():
    with pytest.raises(DomainError, match="ground size 0 is not in 1..24"):
        ConnectiveStructure(0, [])
    with pytest.raises(DomainError, match="ground size 25 is not in 1..24"):
        ConnectiveStructure(25, [])
    for bad in (-1, 0b100):
        with pytest.raises(DomainError, match=f"mask {bad} is out of range for ground of size 2"):
            ConnectiveStructure(2, [0b11, bad])


@pytest.mark.parametrize("masks", [[3.7, True], [np.True_], [1, "3"], [2.0]])
def test_masks_must_be_integers(masks):
    # a float, a string or a boolean is refused, not truncated to a mask
    with pytest.raises(DomainError, match="masks must be integers"):
        ConnectiveStructure(3, masks)
    assert ConnectiveStructure(3, [np.int64(3), 5]) == ConnectiveStructure(3, [3, 5])


def test_indiscrete_structure_is_everything():
    s = power_set(3)
    assert len(s.connected) == 8
    assert oracle_close(3, s.connected) == s.connected


def test_structure_counts_small_grounds():
    assert len(all_integral_structures(2)) == 2
    assert len(all_integral_structures(3)) == 12


def test_discrete_structure_matches_empty_generation():
    assert discrete(4) == ConnectiveStructure(4, [])


# The shared input rules, each reached directly and through the engines that
# check it.


def _index_calls(indices):
    ghz = builtin_state("GHZ")
    rho = ghz.density()
    return [
        lambda: _check_indices(indices, 3),
        lambda: partial_trace(rho, indices),
        lambda: classify_on_subset(ghz, indices),
        lambda: sub_device(builtin_device("K"), indices),
    ]


@pytest.mark.parametrize(
    "indices, message",
    [
        ((0, 3), "{noun} index 3 out of range for 3 {noun}s"),
        ((1, 1), "duplicate {noun} indices"),
        # a float or a boolean is refused, not truncated to an index
        ((0.9, 1.2), "{noun} indices must be integers"),
        ((0.5, True), "{noun} indices must be integers"),
        ((True, 2), "{noun} indices must be integers"),
    ],
)
def test_index_rule_is_shared(indices, message):
    # every index names a site
    for call in _index_calls(indices):
        with pytest.raises(DomainError, match=message.format(noun="site")):
            call()
    assert _check_indices([2, 0], 3) == (0, 2)


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
    with pytest.raises(DomainError, match="outcome labels must be strings"):
        _check_labels([[0, 1]], "outcome")


def test_integer_relation_and_table_keys_are_refused():
    # keys must name the string labels; integers are not turned into them
    with pytest.raises(DomainError, match="not coherent"):
        Device([["0"], ["0"]], [["0", "1"], ["0", "1"]], {(0, 0): {(0, 0), (1, 1)}})
    with pytest.raises(DomainError, match="not well-typed"):
        Device([["0"], ["0"]], [["0", "1"], ["0", "1"]], {("0", "0"): {(0, 0), (1, 1)}})
    half = Fraction(1, 2)
    with pytest.raises(DomainError, match="not well-typed"):
        FiniteJointDistribution([["0", "1"], ["0", "1"]], {(0, 0): half, (1, 1): half})


def test_restrictions_build_each_proper_tuple_once_and_return_the_whole():
    # one cache serves the density and the device engines: a proper site
    # tuple is restricted once, and the tuple of every site is the input
    for whole, restrict in ((builtin_state("GHZ").density(), partial_trace),
                            (builtin_device("GHZ"), sub_device)):
        calls = []

        def counted(w, sites):
            calls.append(sites)
            return restrict(w, sites)

        reduce = _restrictions(whole, 3, counted)
        assert reduce((0, 1, 2)) is whole
        assert reduce((0, 2)) is reduce((0, 2))
        assert type(reduce((1,))) is type(whole)
        assert calls == [(0, 2), (1,)]


@settings(max_examples=60)
@given(st.integers(2, 6), st.data())
def test_subset_driver_order_and_labels(k, data):
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
    assert structures["pairs"] == power_set(4)
    assert structures["none"] == discrete(4)

    # a drawn accept set on k sites: each family's structure is the one the
    # accepted 1-based label tuples generate
    judged = [j for r in range(2, k + 1) for j in itertools.combinations(range(k), r)]
    accept = dict(zip(judged, data.draw(st.lists(st.booleans(), min_size=len(judged),
                                                 max_size=len(judged)))))
    seen.clear()

    def drawn(j):
        seen.append(j)
        return accept[j]

    verdicts, structures = _subset_structures(k, drawn, {"in": bool, "out": lambda v: not v})
    assert seen == judged and [j for j, _ in _subsets(k)] == judged
    assert list(verdicts) == [tuple(s + 1 for s in j) for j in judged]
    for name, want in (("in", True), ("out", False)):
        labels = [label for label, v in verdicts.items() if v is want]
        assert structures[name] == ConnectiveStructure(k, [mask(j) for j in labels])
    # the shared cut table cuts the subsets in the order the skeleton judges
    # them, and the rv sweep ranks every nonempty subset once, whether its
    # variables form one run or are split into two
    masks = [sum(1 << s for s in j) for j in judged]
    starts, cuts = _cut_table(k)
    own = _plan(0, k)[0]
    assert own.tolist() == list(range(1, 1 << k))
    for lo in range(1, k):
        ranked = [_plan(0, lo)[0], _plan(lo, k)[0], np.bitwise_or(*_plan(lo, k)[2:])]
        assert sorted(np.concatenate(ranked).tolist()) == own.tolist()
    assert cuts[0, starts].tolist() == masks
    assert cuts[0].tolist() == np.repeat(masks, np.diff(starts, append=cuts.shape[1])).tolist()
