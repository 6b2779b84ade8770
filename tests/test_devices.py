"""Multilocal devices: taxonomy, structures, realization scans, derivation."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conexa.connective import generate_integral, meet_structures
from conexa.devices import (
    _INCLUSIONS,
    _STRUCTURE_OF,
    Device,
    builtin_device,
    dependency_domain,
    derive_device,
    deterministic_realizations,
    device_structures,
    domanial_structures,
    locality_profile,
    realization_count,
    sub_device,
    tensor_device,
    tensorial_structures,
)
from conexa.errors import DomainError, ResourceError
from conexa.quantum import (
    PureState,
    SiteLayout,
    builtin_state,
    pauli_x,
    pauli_x_binary,
    pauli_z,
    pauli_z_binary,
    tensor_state,
)

from helpers import (
    borromean,
    discrete,
    ground,
    oracle_locality_profile,
    power_set,
    random_state_vector,
)

BITS = ("0", "1")


def full_answers(k):
    return set(itertools.product(BITS, repeat=k))


def coin() -> Device:
    """Single site, one question, both answers possible."""
    return Device((("*",),), ((BITS),), {("*",): {("0",), ("1",)}})


def random_device(rng, k=2) -> Device:
    questions = (BITS,) * k
    relation = {}
    answers = sorted(full_answers(k))
    for q in itertools.product(*questions):
        selector = int(rng.integers(1, 2 ** len(answers)))
        relation[q] = {r for i, r in enumerate(answers) if selector >> i & 1}
    return Device(questions, (BITS,) * k, relation)


def random_deterministic_device(rng, k=3) -> Device:
    questions = (BITS,) * k
    relation = {}
    for q in itertools.product(*questions):
        relation[q] = {tuple(str(int(rng.integers(0, 2))) for _ in range(k))}
    return Device(questions, (BITS,) * k, relation)


# ---------------------------------------------------------------------------
# construction, sub-devices, tensor products


def test_incoherent_device_rejected():
    with pytest.raises(DomainError):
        Device((BITS,), (BITS,), {("0",): {("0",)}, ("1",): set()})


def test_ill_typed_answer_rejected():
    with pytest.raises(DomainError):
        Device((BITS,), (BITS,), {("0",): {("2",)}, ("1",): {("0",)}})


def test_sub_device_of_epr_is_single_site_coin():
    depr = builtin_device("EPR")
    sub = sub_device(depr, (0,))
    assert sub.relation[("*",)] == {("0",), ("1",)}


def test_sub_device_of_k_site_one_is_full():
    dk = builtin_device("K")
    sub = sub_device(dk, (0,))
    for q in sub.relation:
        assert sub.relation[q] == {("0",), ("1",)}


def test_sub_device_of_tensor_recovers_factor():
    a = builtin_device("EPR2")
    b = coin()
    joined = tensor_device(a, b)
    assert sub_device(joined, (0, 1)) == a
    assert sub_device(joined, (2,)) == b


def test_tensor_of_two_coins_differs_from_epr():
    pair = tensor_device(coin(), coin())
    assert pair.relation[("*", "*")] == full_answers(2)
    assert pair != builtin_device("EPR")


def test_realization_streams():
    depr = builtin_device("EPR")
    realizations = list(deterministic_realizations(depr))
    assert len(realizations) == 2
    assert {f(("*", "*")) for f in realizations} == {("0", "0"), ("1", "1")}

    det = random_deterministic_device(np.random.default_rng(1))
    assert realization_count(det) == 1
    only = next(iter(deterministic_realizations(det)))
    assert all(only(q) in det.relation[q] for q in det.relation)


def test_realization_count_of_k_device():
    assert realization_count(builtin_device("K")) == 4**4 * 8**4 == 1_048_576


def test_realization_cap_enforced():
    dk = builtin_device("K")
    with pytest.raises(ResourceError):
        list(deterministic_realizations(dk, cap=1000))
    with pytest.raises(ResourceError):
        domanial_structures(dk, cap=1000)


def test_union_of_realizations_reconstructs_device():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dev = random_device(rng, k=2)
        union: dict = {q: set() for q in dev.relation}
        for f in deterministic_realizations(dev):
            for q in dev.relation:
                union[q].add(f(q))
        assert union == {q: set(v) for q, v in dev.relation.items()}


# ---------------------------------------------------------------------------
# locality taxonomy


def test_epr_profile():
    p = locality_profile(builtin_device("EPR"))
    assert not p.local
    assert not p.separable
    assert p.quasi_separable
    assert p.quasi_local
    assert p.partially_local
    assert p.pseudo_separable
    assert p.partially_separable


def test_tensor_of_single_site_devices_fully_local():
    pair = tensor_device(coin(), coin())
    p = locality_profile(pair)
    assert all(
        getattr(p, name)
        for name in (
            "local",
            "quasi_local",
            "partially_local",
            "separable",
            "quasi_separable",
            "pseudo_separable",
            "partially_separable",
        )
    )


def test_k_device_profile_separable_but_not_local():
    # two colluding sites can satisfy the parity table: an explicit
    # deterministic realization separable along ({1,2},{3}) exists, while the
    # four parity constraints sum to an odd total and forbid any fully local
    # realization
    dk = builtin_device("K")
    p = locality_profile(dk)
    assert p.partially_separable
    assert not p.partially_local
    assert not p.quasi_local
    assert not p.separable
    assert p.quasi_separable

    g = {
        ("0", "0"): ("0", "0"),
        ("0", "1"): ("0", "0"),
        ("1", "0"): ("0", "0"),
        ("1", "1"): ("0", "1"),
    }
    h = {"0": "0", "1": "0"}
    for q in itertools.product(BITS, repeat=3):
        witness = g[(q[0], q[1])] + (h[q[2]],)
        assert witness in dk.relation[q]


def test_k_sub_pair_partially_separable():
    pair = sub_device(builtin_device("K"), (0, 1))
    assert locality_profile(pair).partially_separable


def test_epr2_profile_and_structures():
    # the two correlated questions force f1(q)=f2(q) on matching inputs, which
    # constant local functions satisfy, so the device is quasi-local; it is
    # not a product because the matching questions exclude discordant answers
    depr2 = builtin_device("EPR2")
    p = locality_profile(depr2)
    assert p.quasi_local and not p.local
    assert p.quasi_separable and not p.separable
    structures = tensorial_structures(depr2)
    assert structures["NS"] == power_set(2)
    assert structures["NL"] == power_set(2)
    for name in ("NPS", "NOS", "NPL", "NQS", "NQL"):
        assert structures[name] == discrete(2), name


def test_implication_lattice_random_devices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dev = random_device(rng, k=2)
        assert locality_profile(dev).check_implications() == []


def test_deterministic_collapse_of_taxonomy():
    # for a deterministic device the local notions coincide and the separable
    # quartet collapses likewise
    rng = np.random.default_rng(4)
    for _ in range(20):
        dev = random_deterministic_device(rng, k=3)
        p = locality_profile(dev)
        assert p.local == p.quasi_local == p.partially_local
        assert (
            p.separable == p.quasi_separable == p.pseudo_separable == p.partially_separable
        )


@st.composite
def coherent_devices(draw):
    """2-3 sites, 1-3 questions and answers per site, at most 4096 realizations."""
    k = draw(st.integers(2, 3))
    questions = tuple(tuple(str(x) for x in range(draw(st.integers(1, 3)))) for _ in range(k))
    results = tuple(tuple(str(x) for x in range(draw(st.integers(1, 3)))) for _ in range(k))
    answers = list(itertools.product(*results))
    budget = 4096
    relation = {}
    for q in itertools.product(*questions):
        picked = draw(st.lists(
            st.sampled_from(answers), min_size=1, max_size=min(len(answers), budget), unique=True
        ))
        budget //= len(picked)
        relation[q] = set(picked)
    return Device(questions, results, relation)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coherent_devices())
def test_locality_profile_matches_oracle(dev):
    assert realization_count(dev) <= 4096
    profile = locality_profile(dev)
    assert dataclasses.asdict(profile) == oracle_locality_profile(dev)
    assert device_structures(dev).profile == profile


# ---------------------------------------------------------------------------
# tensorial structures


def test_epr_tensorial_structures():
    structures = tensorial_structures(builtin_device("EPR"))
    for name in ("NPS", "NOS", "NPL", "NQS", "NQL"):
        assert structures[name] == discrete(2), name
    assert structures["NS"] == power_set(2)
    assert structures["NL"] == power_set(2)


def test_product_device_structures_discrete():
    dev = tensor_device(tensor_device(coin(), coin()), coin())
    structures = tensorial_structures(dev)
    for name, s in structures.items():
        assert s == discrete(3), name


def test_k_tensorial_structures():
    structures = tensorial_structures(builtin_device("K"))
    assert structures["NL"] == borromean(3)
    assert structures["NS"] == borromean(3)
    assert structures["NPL"] == borromean(3)
    assert structures["NQL"] == borromean(3)
    # the parity constraints only touch questions whose two-site projections
    # are pairwise distinct, so every cut admits separable realizations
    assert structures["NPS"] == discrete(3)
    assert structures["NOS"] == discrete(3)
    assert structures["NQS"] == discrete(3)


def test_tensorial_chains_random_devices():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dev = random_device(rng, k=2)
        s = {name: st.connected for name, st in tensorial_structures(dev).items()}
        assert s["NPS"] <= s["NPL"] <= s["NQL"] <= s["NL"]
        assert s["NPS"] <= s["NOS"] <= s["NQS"] <= s["NS"] <= s["NL"]
        assert s["NQS"] <= s["NQL"]


# ---------------------------------------------------------------------------
# dependency domains and domanial structures


def test_dependency_domain_of_rotation():
    qs = list(itertools.product(BITS, repeat=3))
    rotation = {q: (q[1], q[2], q[0]) for q in qs}
    assert dependency_domain(rotation, 0) == frozenset({1})
    assert dependency_domain(rotation, 1) == frozenset({2})
    assert dependency_domain(rotation, 2) == frozenset({0})


def test_dependency_domain_of_constant_is_empty():
    qs = list(itertools.product(BITS, repeat=2))
    constant = {q: ("0", "1") for q in qs}
    assert dependency_domain(constant, 0) == frozenset()
    assert dependency_domain(constant, 1) == frozenset()


def test_dependency_domain_of_k_realization():
    # f(00q3)=000, f(01q3)=011, f(10q3)=101, f(11q3)=111: the first two
    # outputs copy q1 and q2, the third is their OR
    table = {}
    for q3 in BITS:
        table[("0", "0", q3)] = ("0", "0", "0")
        table[("0", "1", q3)] = ("0", "1", "1")
        table[("1", "0", q3)] = ("1", "0", "1")
        table[("1", "1", q3)] = ("1", "1", "1")
    assert dependency_domain(table, 0) == frozenset({0})
    assert dependency_domain(table, 1) == frozenset({1})
    assert dependency_domain(table, 2) == frozenset({0, 1})
    dk = builtin_device("K")
    assert all(table[q] in dk.relation[q] for q in table)


def test_domanial_structures_small_device_against_bruteforce():
    rng = np.random.default_rng(6)
    for _ in range(5):
        dev = random_device(rng, k=2)
        kappa_do, kappa_dp = domanial_structures(dev)
        g = ground(2)
        do_meet = None
        dp_meet = None
        for f in deterministic_realizations(dev):
            do_sets = [dependency_domain(f, i) for i in range(2)]
            dp_sets = [set(d) | {i} for i, d in enumerate(do_sets)]
            s_do = generate_integral(g, [tuple(x + 1 for x in d) for d in do_sets])
            s_dp = generate_integral(g, [tuple(x + 1 for x in d) for d in dp_sets])
            do_meet = s_do if do_meet is None else meet_structures([do_meet, s_do])
            dp_meet = s_dp if dp_meet is None else meet_structures([dp_meet, s_dp])
        assert kappa_do == do_meet
        assert kappa_dp == dp_meet


def test_domanial_structures_three_site_against_bruteforce():
    rng = np.random.default_rng(123)
    g = ground(3)
    answers = sorted(itertools.product(BITS, repeat=3))
    for _ in range(3):
        relation = {}
        for q in itertools.product(BITS, repeat=3):
            size = int(rng.integers(1, 4))
            picks = rng.choice(len(answers), size=size, replace=False)
            relation[q] = {answers[i] for i in picks}
        dev = Device((BITS,) * 3, (BITS,) * 3, relation)
        kappa_do, kappa_dp = domanial_structures(dev)
        do_meet = dp_meet = None
        for f in deterministic_realizations(dev):
            do_sets = [dependency_domain(f, i) for i in range(3)]
            dp_sets = [set(d) | {i} for i, d in enumerate(do_sets)]
            s_do = generate_integral(g, [tuple(x + 1 for x in d) for d in do_sets])
            s_dp = generate_integral(g, [tuple(x + 1 for x in d) for d in dp_sets])
            do_meet = s_do if do_meet is None else meet_structures([do_meet, s_do])
            dp_meet = s_dp if dp_meet is None else meet_structures([dp_meet, s_dp])
        assert kappa_do == do_meet
        assert kappa_dp == dp_meet


def test_k_domanial_structures_discrete():
    kappa_do, kappa_dp = domanial_structures(builtin_device("K"))
    assert kappa_do == discrete(3)
    assert kappa_dp == discrete(3)


def test_local_deterministic_device_domanial_discrete():
    qs = list(itertools.product(BITS, repeat=2))
    dev = Device(
        (BITS, BITS),
        (BITS, BITS),
        {q: {(q[0], q[1])} for q in qs},
    )
    kappa_do, kappa_dp = domanial_structures(dev)
    assert kappa_do == discrete(2)
    assert kappa_dp == discrete(2)


def test_device_orders():
    assert device_structures(builtin_device("EPR")) == device_structures(builtin_device("EPR"))
    orders = device_structures(builtin_device("EPR")).orders
    assert (orders.tensorial, orders.domanial, orders.overall) == (1, 0, 1)
    product = tensor_device(coin(), coin())
    orders = device_structures(product).orders
    assert (orders.tensorial, orders.domanial, orders.overall) == (0, 0, 0)
    orders = device_structures(builtin_device("K")).orders
    assert (orders.tensorial, orders.domanial, orders.overall) == (1, 0, 1)


# ---------------------------------------------------------------------------
# derivation from quantum experiments


def zx_menus(sites):
    return [[("0", pauli_z()), ("1", pauli_x())] for _ in range(sites)]


def binary_menus(sites):
    return [[("0", pauli_x_binary()), ("1", pauli_z_binary())] for _ in range(sites)]


def test_derive_epr_device():
    derived = derive_device(builtin_state("EPR"), [[("*", pauli_z())]] * 2, recode="paper")
    assert derived == builtin_device("EPR")


def test_derive_epr2_device():
    derived = derive_device(builtin_state("EPR"), zx_menus(2), recode="paper")
    assert derived == builtin_device("EPR2")


def test_derive_ghz_device():
    derived = derive_device(builtin_state("GHZ"), zx_menus(3), recode="paper")
    assert derived == builtin_device("GHZ")


def test_derive_k_device():
    derived = derive_device(builtin_state("K"), binary_menus(3), recode="paper")
    assert derived == builtin_device("K")


def test_derive_without_recode_keeps_eigenvalues():
    derived = derive_device(builtin_state("EPR"), [[("*", pauli_z())]] * 2)
    assert derived.results == (("-1", "1"), ("-1", "1"))
    assert derived.relation[("*", "*")] == {("-1", "-1"), ("1", "1")}


def test_derive_rejects_degenerate_observable():
    with pytest.raises(DomainError):
        derive_device(builtin_state("EPR"), [[("*", np.eye(2))]] * 2)


def test_derived_product_state_device_is_separable():
    rng = np.random.default_rng(8)
    a = PureState(SiteLayout((2,)), random_state_vector(rng, 2))
    b = PureState(SiteLayout((2,)), random_state_vector(rng, 2))
    joint = tensor_state(a, b)
    dev = derive_device(joint, zx_menus(2), recode="paper")
    profile = locality_profile(dev)
    assert profile.separable
    assert profile.separable_cut == ((0,), (1,))


def test_tensorial_inclusions_follow_the_implication_lattice():
    # the inclusion chains once written out by hand next to the lattice
    chains = {
        ("NPS", "NPL"), ("NPL", "NQL"), ("NQL", "NL"), ("NPS", "NOS"),
        ("NOS", "NQS"), ("NQS", "NS"), ("NS", "NL"), ("NQS", "NQL"),
    }
    assert len(_INCLUSIONS) == 8
    assert set(_INCLUSIONS) == chains
    assert list(_STRUCTURE_OF.values()) == ["NPS", "NOS", "NPL", "NQS", "NQL", "NS", "NL"]
