"""Multilocal devices: taxonomy, structures, realization scans, derivation."""

import dataclasses
import itertools
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conexa import devices
from conexa.connective import _restrictions
from conexa.density import density_structures
from conexa.devices import (
    _IMPLIES,
    _STRUCTURE_OF,
    Device,
    builtin_device,
    derive_device,
    device_structures,
    realization_count,
    sub_device,
)
from conexa.errors import DomainError, ResourceError
from conexa.quantum import (
    PureState,
    builtin_state,
    pauli_x,
    pauli_x_binary,
    pauli_z,
    pauli_z_binary,
)
from conexa.serialize import device_from_dict, device_to_dict

from helpers import (
    borromean,
    discrete,
    oracle_dependency_domain,
    oracle_domanial,
    oracle_locality_profile,
    oracle_realizations,
    oracle_sub_device,
    haar_unitary,
    ladder_device,
    power_set,
    random_state_vector,
    tensor_device,
    tensor_state,
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


def locality(dev):
    """The full-device locality profile, from one scan."""
    sites = tuple(range(dev.uplicity))
    return devices._profile(_restrictions(dev, dev.uplicity, sub_device), sites)[0]


def tensorial(dev) -> dict:
    """The seven tensorial structures of the device's report."""
    structures = device_structures(dev).structures
    return {name: structures[name] for name in _STRUCTURE_OF.values()}


def domanial(dev) -> tuple:
    """(kappa_do, kappa_dp) from the codes of one scan of the full device
    along every partition."""
    _, codes = devices._scan(dev)
    return devices._domanial(dev.uplicity, codes)


def random_deterministic_device(rng, k=3) -> Device:
    questions = (BITS,) * k
    relation = {}
    for q in itertools.product(*questions):
        relation[q] = {tuple(str(int(rng.integers(0, 2))) for _ in range(k))}
    return Device(questions, (BITS,) * k, relation)


# ---------------------------------------------------------------------------
# construction, sub-devices, tensor products


def test_relation_keys_naming_one_question_pool_their_answers():
    # a relation is a set of pairs, as repeated distribution entries add up
    b = ("0", "1")
    dev = Device([b, b], [b, b], {
        "00": [("0", "0")], "01": [("0", "1")], "10": [("1", "0")], "11": [("1", "1")],
        ("0", "1"): [("1", "1")],
    })
    assert dev.relation[("0", "1")] == {("0", "1"), ("1", "1")}
    assert realization_count(dev) == 2


def test_devices_compare_by_value():
    # equality compares questions, results and relation; a device is unhashable
    k = builtin_device("K")
    back = device_from_dict(json.loads(json.dumps(device_to_dict(k))))
    assert back == k and back is not k
    assert k != builtin_device("GHZ")
    assert k != 3
    with pytest.raises(TypeError):
        hash(k)


def test_checked_tables_are_read_only():
    # the relation of a checked device, and of any restriction of one, is a
    # read-only view: a table cannot change after its checks
    k = builtin_device("K")
    decoded = device_from_dict(json.loads(json.dumps(device_to_dict(k))))
    for dev in (k, decoded, sub_device(k, (0, 2))):
        q = next(iter(dev.relation))
        with pytest.raises(TypeError):
            dev.relation[q] = frozenset()
        with pytest.raises(TypeError):
            del dev.relation[q]
        assert dev.relation[q]
    assert decoded == k and sub_device(decoded, (0, 2)) == sub_device(k, (0, 2))


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


def test_sub_device_needs_a_site():
    with pytest.raises(DomainError, match="sub-device needs a nonempty site set"):
        sub_device(builtin_device("EPR"), [])


def test_tensor_of_two_coins_differs_from_epr():
    pair = tensor_device(coin(), coin())
    assert pair.relation[("*", "*")] == full_answers(2)
    assert pair != builtin_device("EPR")


def test_realization_streams():
    depr = builtin_device("EPR")
    realizations = list(oracle_realizations(depr))
    assert len(realizations) == realization_count(depr) == 2
    assert {f[("*", "*")] for f in realizations} == {("0", "0"), ("1", "1")}

    det = random_deterministic_device(np.random.default_rng(1))
    assert realization_count(det) == 1
    only = next(iter(oracle_realizations(det)))
    assert all(only[q] in det.relation[q] for q in det.relation)


def test_realization_count_of_k_device():
    assert realization_count(builtin_device("K")) == 4**4 * 8**4 == 1_048_576


def test_realization_cap_enforced():
    # the pair sub-devices have 256 realizations each, the full device 4^4 * 8^4
    with pytest.raises(ResourceError, match="sites 1,2,3 has 1048576 .* above the cap 1000$"):
        device_structures(builtin_device("K"), cap=1000)


def test_union_of_realizations_reconstructs_device():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dev = random_device(rng, k=2)
        union: dict = {q: set() for q in dev.relation}
        for f in oracle_realizations(dev):
            for q in dev.relation:
                union[q].add(f[q])
        assert union == {q: set(v) for q, v in dev.relation.items()}


# ---------------------------------------------------------------------------
# locality taxonomy


def test_epr_profile():
    p = locality(builtin_device("EPR"))
    assert not p.local
    assert not p.separable
    assert p.quasi_separable
    assert p.quasi_local
    assert p.partially_local
    assert p.pseudo_separable
    assert p.partially_separable


def test_tensor_of_single_site_devices_fully_local():
    pair = tensor_device(coin(), coin())
    p = locality(pair)
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
    p = locality(dk)
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
    assert locality(pair).partially_separable


def test_epr2_profile_and_structures():
    # the two correlated questions force f1(q)=f2(q) on matching inputs, which
    # constant local functions satisfy, so the device is quasi-local; it is
    # not a product because the matching questions exclude discordant answers
    depr2 = builtin_device("EPR2")
    p = locality(depr2)
    assert p.quasi_local and not p.local
    assert p.quasi_separable and not p.separable
    structures = tensorial(depr2)
    assert structures["NS"] == power_set(2)
    assert structures["NL"] == power_set(2)
    for name in ("NPS", "NOS", "NPL", "NQS", "NQL"):
        assert structures[name] == discrete(2), name


def test_implication_lattice_random_devices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dev = random_device(rng, k=2)
        assert locality(dev).check_implications() == []


def test_deterministic_collapse_of_taxonomy():
    # for a deterministic device the local notions coincide and the separable
    # quartet collapses likewise
    rng = np.random.default_rng(4)
    for _ in range(20):
        dev = random_deterministic_device(rng, k=3)
        p = locality(dev)
        assert p.local == p.quasi_local == p.partially_local
        assert (
            p.separable == p.quasi_separable == p.pseudo_separable == p.partially_separable
        )


@st.composite
def coherent_devices(draw, sites=(2, 3), labels=3, budget=4096):
    """`sites` sites, 1 to `labels` questions and answers per site, at most
    `budget` realizations."""
    k = draw(st.integers(*sites))
    questions = tuple(
        tuple(str(x) for x in range(draw(st.integers(1, labels)))) for _ in range(k)
    )
    results = tuple(
        tuple(str(x) for x in range(draw(st.integers(1, labels)))) for _ in range(k)
    )
    answers = list(itertools.product(*results))
    relation = {}
    for q in itertools.product(*questions):
        picked = draw(st.lists(
            st.sampled_from(answers), min_size=1, max_size=min(len(answers), budget), unique=True
        ))
        budget //= len(picked)
        relation[q] = set(picked)
    return Device(questions, results, relation)


@settings(max_examples=60)
@given(coherent_devices())
def test_locality_profile_matches_oracle(dev):
    assert realization_count(dev) <= 4096
    profile = locality(dev)
    assert dataclasses.asdict(profile) == oracle_locality_profile(dev)
    assert device_structures(dev).profile == profile


# Seven realizations per scan chunk: coverage builds up over many chunks, and
# the full-device scan of `device_structures` reads every one of them.


@settings(max_examples=30)
@given(coherent_devices())
def test_locality_profile_matches_oracle_across_chunks(dev):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(devices, "_CHUNK", 7)
        profile = locality(dev)
        full = device_structures(dev).profile
    assert dataclasses.asdict(profile) == oracle_locality_profile(dev)
    assert full == profile


@settings(max_examples=30)
@given(coherent_devices())
def test_domanial_structures_match_bruteforce_across_chunks(dev):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(devices, "_CHUNK", 7)
        meets = domanial(dev)
    assert meets == oracle_domanial(dev)


# Dependency codes take the smallest unsigned dtype holding k * k bits: uint16
# on 4 sites, uint32 on 5.


@settings(max_examples=30)
@given(coherent_devices(sites=(4, 5), labels=2, budget=64))
def test_wide_devices_match_oracles(dev):
    assert dataclasses.asdict(locality(dev)) == oracle_locality_profile(dev)
    assert domanial(dev) == oracle_domanial(dev)


def _scan_results(dev):
    """The coverage matrix, the codes and both meets of a scan along every
    partition, and the meets of the device's report."""
    coverage, codes = devices._scan(dev)
    report = device_structures(dev).structures
    meets = devices._domanial(dev.uplicity, codes)
    return coverage.tolist(), codes, meets, (report["do"], report["dp"])


def _results_per_block_size(dev):
    default = devices._CHUNK
    results = []
    for chunk in (1, 7, default):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(devices, "_CHUNK", chunk)
            results.append(_scan_results(dev))
    return results


@settings(max_examples=20)
@given(coherent_devices(budget=512))
def test_scan_results_do_not_depend_on_block_size(dev):
    one, seven, default = _results_per_block_size(dev)
    assert one == seven == default


# With the width limit at 0 bits every code goes through np.unique and a set,
# the path of 5 to 7 sites.


@settings(max_examples=20)
@given(coherent_devices(sites=(2, 4), labels=2, budget=256))
def test_code_table_and_unique_fold_agree(dev):
    table = _results_per_block_size(dev)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(devices, "_TABLE_BITS", 0)
        unique = _results_per_block_size(dev)
    assert table == unique
    for _, _, meets, reported in table:
        assert meets == reported == oracle_domanial(dev)


def oracle_codes(dev) -> list:
    """The distinct dependency codes of the device's realizations, ascending:
    bit i * k + j is set when output i reads slot j."""
    k = dev.uplicity
    return sorted({
        sum(1 << (i * k + j) for i in range(k) for j in oracle_dependency_domain(f, i))
        for f in oracle_realizations(dev)
    })


@settings(max_examples=20)
@given(coherent_devices(sites=(2, 5), labels=2, budget=64))
def test_scan_codes_match_the_oracle(dev):
    expected = oracle_codes(dev)
    for patch in ({"_CHUNK": 1}, {"_CHUNK": 7}, {}, {"_TABLE_BITS": 0}):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patch.items():
                mp.setattr(devices, name, value)
            assert devices._scan(dev)[1] == expected


def test_k_codes_never_reach_np_unique():
    # K's 9-bit codes go through the code table, never through np.unique;
    # its meets are discrete while not every partition selects every pair
    dev = builtin_device("K")
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        coverage, codes = devices._scan(dev)
    assert unique.call_count == 0
    assert not coverage.all()
    assert devices._domanial(dev.uplicity, codes) == (discrete(3), discrete(3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(devices, "_TABLE_BITS", 0)
        assert devices._scan(dev)[1] == codes


def test_scan_block_of_one_axis_above_the_chunk():
    # the last question has 8 answers: at _CHUNK 1 and 7 every block is its axis
    relation = {q: {("0", "0", "0"), q} for q in itertools.product(BITS, repeat=3)}
    relation[("1", "1", "1")] = full_answers(3)
    dev = Device((BITS,) * 3, (BITS,) * 3, relation)
    one, seven, default = _results_per_block_size(dev)
    assert one == seven == default
    assert dataclasses.asdict(locality(dev)) == oracle_locality_profile(dev)
    assert domanial(dev) == oracle_domanial(dev)


def test_ladder_scan_does_not_depend_on_block_size():
    # 2^18 realizations, one block at the default _CHUNK.  At 2^12 the
    # questions 000, 001 and 011 lead and 010 has one answer, so entries, rows
    # and the block-invariant base all add to each of the 256 blocks' codes
    dev = ladder_device(random.Random(5), 18)
    assert realization_count(dev) == 1 << 18
    coverage, codes = devices._scan(dev)
    for name, value in (("_CHUNK", 1 << 12), ("_TABLE_BITS", 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(devices, name, value)
            other_coverage, other_codes = devices._scan(dev)
        assert np.array_equal(other_coverage, coverage)
        assert other_codes == codes
    assert 0b111 in devices._domanial(3, codes)[1].connected


def test_scan_gives_no_axis_to_questions_with_one_answer():
    # 81 question tuples, more than numpy's 64 array dimensions; only the
    # questions with two answers (five, by the count) span an axis
    rng = random.Random(15)
    relation = {}
    for n, q in enumerate(itertools.product("012", repeat=4)):
        relation[q] = {tuple(rng.choice(BITS) for _ in range(4)) for _ in range(1 + (n % 16 == 0))}
    dev = Device((("0", "1", "2"),) * 4, (BITS,) * 4, relation)
    assert realization_count(dev) == 32
    assert dataclasses.asdict(locality(dev)) == oracle_locality_profile(dev)
    assert domanial(dev) == oracle_domanial(dev)


# ---------------------------------------------------------------------------
# tensorial structures


def test_epr_tensorial_structures():
    structures = tensorial(builtin_device("EPR"))
    for name in ("NPS", "NOS", "NPL", "NQS", "NQL"):
        assert structures[name] == discrete(2), name
    assert structures["NS"] == power_set(2)
    assert structures["NL"] == power_set(2)


def test_product_device_structures_discrete():
    dev = tensor_device(tensor_device(coin(), coin()), coin())
    structures = tensorial(dev)
    for name, s in structures.items():
        assert s == discrete(3), name


def test_k_tensorial_structures():
    structures = tensorial(builtin_device("K"))
    assert structures["NL"] == borromean(3)
    assert structures["NS"] == borromean(3)
    assert structures["NPL"] == borromean(3)
    assert structures["NQL"] == borromean(3)
    # the parity constraints only touch questions whose two-site projections
    # are pairwise distinct, so every cut admits separable realizations
    assert structures["NPS"] == discrete(3)
    assert structures["NOS"] == discrete(3)
    assert structures["NQS"] == discrete(3)


def moved_device(dev, perm, questions, answers):
    """The device whose site i is site perm[i] of dev, with the labels of
    site s renamed by the maps questions[s] and answers[s]."""
    return Device(
        [[questions[p][x] for x in dev.questions[p]] for p in perm],
        [[answers[p][x] for x in dev.results[p]] for p in perm],
        {
            tuple(questions[p][q[p]] for p in perm): {
                tuple(answers[p][r[p]] for p in perm) for r in rs
            }
            for q, rs in dev.relation.items()
        },
    )


@st.composite
def moved_devices(draw):
    """(device, perm, moved device): a builtin or drawn 3-site device, and the
    device its sites move to under perm, each site's labels renamed by a
    drawn bijection."""
    dev = draw(st.one_of(
        st.sampled_from([builtin_device(name) for name in ("EPR2", "GHZ", "K")]),
        coherent_devices(sites=(3, 3), labels=2),
    ))
    perm = draw(st.permutations(range(dev.uplicity)))

    def renaming(labels):
        return dict(zip(labels, draw(st.permutations(labels))))

    questions = [renaming(labels) for labels in dev.questions]
    answers = [renaming(labels) for labels in dev.results]
    return dev, perm, moved_device(dev, perm, questions, answers)


@settings(max_examples=100)
@given(moved_devices())
def test_site_permutation_permutes_every_notion_and_structure(case):
    # renaming labels changes nothing, and site i of the moved device is
    # site perm[i] of dev: every structure's masks move with the sites, and
    # the full-device notions stay
    dev, perm, moved = case
    before, after = device_structures(dev), device_structures(moved)
    for notion in _STRUCTURE_OF:
        assert getattr(after.profile, notion) == getattr(before.profile, notion), notion
    assert list(after.structures) == list(before.structures)
    for name, s in after.structures.items():
        image = {sum(1 << p for i, p in enumerate(perm) if m >> i & 1) for m in s.connected}
        assert image == before.structures[name].connected, name
    assert after.orders == before.orders


def test_tensorial_chains_random_devices():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dev = random_device(rng, k=2)
        s = {name: st.connected for name, st in tensorial(dev).items()}
        assert s["NPS"] <= s["NPL"] <= s["NQL"] <= s["NL"]
        assert s["NPS"] <= s["NOS"] <= s["NQS"] <= s["NS"] <= s["NL"]
        assert s["NQS"] <= s["NQL"]

def test_device_structures_builds_each_sub_device_once():
    # every proper nonempty site tuple of a 4-site device is a profiled
    # sub-device or a block of one; one analysis builds each of them once
    dev = tensor_device(builtin_device("EPR2"), builtin_device("EPR"))
    with mock.patch.object(devices, "sub_device", wraps=sub_device) as built:
        device_structures(dev)
    tuples = [call.args[1] for call in built.call_args_list]
    assert len(tuples) == 14
    assert set(tuples) == {j for n in (1, 2, 3) for j in itertools.combinations(range(4), n)}


@pytest.mark.parametrize("make", [
    lambda: builtin_device("K"),
    lambda: builtin_device("GHZ"),
    lambda: tensor_device(builtin_device("EPR2"), builtin_device("EPR")),
], ids=["K", "GHZ", "EPR2xEPR"])
def test_device_structures_checks_no_sub_device(make, monkeypatch):
    # a device is checked once, where it enters; its sub-devices are
    # restrictions of checked tables and skip the checking constructor
    dev = make()
    checked = []
    init = Device.__init__

    def counted(self, *args, **kwargs):
        checked.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Device, "__init__", counted)
    device_structures(dev)
    assert checked == []


@settings(max_examples=40)
@given(coherent_devices())
def test_sub_device_matches_oracle_and_checking_constructor(dev):
    k = dev.uplicity
    for j in itertools.chain.from_iterable(
        itertools.combinations(range(k), n) for n in range(1, k + 1)
    ):
        sub = sub_device(dev, j)
        assert sub == oracle_sub_device(dev, j)
        checked = Device(sub.questions, sub.results, sub.relation)
        assert checked == sub
        assert repr(checked) == repr(sub)


# ---------------------------------------------------------------------------
# dependency domains and domanial structures


def test_dependency_domain_of_rotation():
    qs = list(itertools.product(BITS, repeat=3))
    rotation = {q: (q[1], q[2], q[0]) for q in qs}
    assert oracle_dependency_domain(rotation, 0) == frozenset({1})
    assert oracle_dependency_domain(rotation, 1) == frozenset({2})
    assert oracle_dependency_domain(rotation, 2) == frozenset({0})


def test_dependency_domain_of_constant_is_empty():
    qs = list(itertools.product(BITS, repeat=2))
    constant = {q: ("0", "1") for q in qs}
    assert oracle_dependency_domain(constant, 0) == frozenset()
    assert oracle_dependency_domain(constant, 1) == frozenset()


def test_dependency_domain_of_k_realization():
    # f(00q3)=000, f(01q3)=011, f(10q3)=101, f(11q3)=111: the first two
    # outputs copy q1 and q2, the third is their OR
    table = {}
    for q3 in BITS:
        table[("0", "0", q3)] = ("0", "0", "0")
        table[("0", "1", q3)] = ("0", "1", "1")
        table[("1", "0", q3)] = ("1", "0", "1")
        table[("1", "1", q3)] = ("1", "1", "1")
    assert oracle_dependency_domain(table, 0) == frozenset({0})
    assert oracle_dependency_domain(table, 1) == frozenset({1})
    assert oracle_dependency_domain(table, 2) == frozenset({0, 1})
    dk = builtin_device("K")
    assert all(table[q] in dk.relation[q] for q in table)


def test_domanial_structures_small_device_against_bruteforce():
    rng = np.random.default_rng(6)
    for _ in range(5):
        dev = random_device(rng, k=2)
        assert domanial(dev) == oracle_domanial(dev)


def test_domanial_structures_three_site_against_bruteforce():
    rng = np.random.default_rng(123)
    answers = sorted(itertools.product(BITS, repeat=3))
    for _ in range(3):
        relation = {}
        for q in itertools.product(BITS, repeat=3):
            size = int(rng.integers(1, 4))
            picks = rng.choice(len(answers), size=size, replace=False)
            relation[q] = {answers[i] for i in picks}
        dev = Device((BITS,) * 3, (BITS,) * 3, relation)
        assert domanial(dev) == oracle_domanial(dev)


def test_k_domanial_structures_discrete():
    kappa_do, kappa_dp = domanial(builtin_device("K"))
    assert kappa_do == discrete(3)
    assert kappa_dp == discrete(3)


def test_local_deterministic_device_domanial_discrete():
    qs = list(itertools.product(BITS, repeat=2))
    dev = Device(
        (BITS, BITS),
        (BITS, BITS),
        {q: {(q[0], q[1])} for q in qs},
    )
    kappa_do, kappa_dp = domanial(dev)
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


@pytest.mark.parametrize("recode", [None, "", "Paper", "0"])
def test_derive_refuses_an_unknown_recode(recode):
    # "raw" and "paper" are the only values, in the library as on the command line
    with pytest.raises(DomainError, match="unknown recode option"):
        derive_device(builtin_state("EPR"), [[("*", pauli_z())]] * 2, recode=recode)


def test_derive_rejects_degenerate_observable():
    with pytest.raises(DomainError):
        derive_device(builtin_state("EPR"), [[("*", np.eye(2))]] * 2)


def test_derived_product_state_device_is_separable():
    rng = np.random.default_rng(8)
    a = PureState((2,), random_state_vector(rng, 2))
    b = PureState((2,), random_state_vector(rng, 2))
    joint = tensor_state(a, b)
    dev = derive_device(joint, zx_menus(2), recode="paper")
    profile = locality(dev)
    assert profile.separable
    assert profile.separable_cut == ((0,), (1,))


def _qubit(rng):
    return PureState((2,), random_state_vector(rng, 2))


# States for the NS inclusion: builtins, Bell (x) |0>, products of three
# random qubits, and Haar states.
_PREPARED = {
    "GHZ": lambda rng: builtin_state("GHZ"),
    "K": lambda rng: builtin_state("K"),
    "O2": lambda rng: builtin_state("O2"),
    "Bell0": lambda rng: tensor_state(builtin_state("EPR"), PureState((2,), [1, 0])),
    "product": lambda rng: tensor_state(tensor_state(_qubit(rng), _qubit(rng)), _qubit(rng)),
    "Haar": lambda rng: PureState((2, 2, 2), random_state_vector(rng, 8)),
}


_BASES = (
    lambda rng: np.eye(2),
    lambda rng: np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    lambda rng: haar_unitary(rng, 2),
)


@settings(max_examples=40)
@given(st.sampled_from(sorted(_PREPARED)), st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 2), min_size=3, max_size=3),
       st.sampled_from([(0.5, -0.5), (1.0, -1.0)]))
def test_derived_device_ns_lies_inside_the_correlation_structure(name, seed, counts, spectrum):
    # a cut along which |psi><psi| restricted to J factorizes makes every
    # measured sub-device on J a product along it, so a subset that is not
    # separable as a device is completely correlated: NS <= kappa_corr
    rng = np.random.default_rng(seed)
    psi = _PREPARED[name](rng)
    menus = []
    for count in counts:
        # Z and X eigenbases as well as Haar ones: possibilistic devices from
        # generic bases relate every answer tuple, so their NS is discrete
        bases = [_BASES[int(rng.integers(3))](rng) for _ in range(count)]
        menus.append([(label, u @ np.diag(spectrum) @ u.conj().T)
                      for label, u in zip("ab", bases)])
    dev = derive_device(psi, menus)
    try:
        ns = device_structures(dev).structures["NS"]
    except ResourceError:
        reject()
    assert ns.connected <= density_structures(psi.density()).kappa_corr.connected


@settings(max_examples=40)
@given(coherent_devices())
@example(builtin_device("EPR"))
@example(builtin_device("EPR2"))
@example(builtin_device("GHZ"))
@example(builtin_device("K"))
def test_tensorial_inclusions_follow_the_implication_lattice(dev):
    # where a implies b, every sub-device failing b fails a, so b's structure
    # lies inside a's: the eight (fine, coarse) pairs, the inclusion chains
    # once written out by hand next to the lattice, hold on every report
    chains = {
        ("NPS", "NPL"), ("NPL", "NQL"), ("NQL", "NL"), ("NPS", "NOS"),
        ("NOS", "NQS"), ("NQS", "NS"), ("NS", "NL"), ("NQS", "NQL"),
    }
    inclusions = {(_STRUCTURE_OF[b], _STRUCTURE_OF[a]) for a, b in _IMPLIES}
    assert len(_IMPLIES) == 8
    assert inclusions == chains
    assert list(_STRUCTURE_OF.values()) == ["NPS", "NOS", "NPL", "NQS", "NQL", "NS", "NL"]
    structures = device_structures(dev).structures
    for fine, coarse in inclusions:
        assert structures[fine].connected <= structures[coarse].connected, (fine, coarse)
