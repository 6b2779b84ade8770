"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 2 and 7 assert the values that the implemented definitions force,
not the published ones, and check the witnesses that refute the published
values exactly: integer and rational arithmetic on the O2 amplitudes, and a
plain-Python brute force over the K device's parity rule, with no conexa code
in either derivation.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from conexa.connective import ConnectiveStructure
from conexa.density import VerdictQuality, density_structures, total_order
from conexa.devices import (
    builtin_device,
    derive_device,
    device_structures,
    realization_count,
)
from conexa.disentangle import IntricationClass, disentanglement_structures
from conexa.quantum import (
    DEFAULT_TOL,
    PureState,
    _eigensystem,
    _residuals,
    builtin_state,
    partial_trace,
    pauli_x,
    pauli_x_binary,
    pauli_z,
    pauli_z_binary,
)
from conexa.randvars import brunnian_family, realize_structure, rv_analysis

from helpers import (
    all_integral_structures,
    borromean,
    discrete,
    mask,
    oracle_close,
    oracle_completely_correlated,
    power_set,
    random_state_vector,
    structure,
)


def conclude(n: int, message: str) -> None:
    print(f"[criterion {n:2d}] PASS  {message}")


def test_criterion_01_ghz_disentanglement():
    start = time.perf_counter()
    report = disentanglement_structures(builtin_state("GHZ"))
    elapsed = time.perf_counter() - start
    assert report.structures["GI"] == borromean(3)
    assert report.structures["MT"] == borromean(3)
    for name in ("BIP", "IP", "ML", "NCS"):
        assert report.structures[name] == power_set(3), name
    assert elapsed < 1.0, f"GHZ analysis took {elapsed:.3f}s"
    conclude(1, f"GHZ: GI=MT=borromean, four coarse structures, {elapsed:.3f}s")


# O2 * sqrt(13) = 2|000> + 2|011> + 2|100> - |111>, keyed by site bits.
O2_AMPLITUDES = {(0, 0, 0): 2, (0, 1, 1): 2, (1, 0, 0): 2, (1, 1, 1): -1}
O2_NORM_SQ = 13


def o2_residual(site: int, direction: tuple) -> list:
    """Unnormalized 2x2 residual on the other two sites after <direction| on one site.

    Rows index the lower remaining site, columns the higher one.  Directions
    are real integer vectors, so the bra needs no conjugation.
    """
    rest = [s for s in range(3) if s != site]
    m = [[0, 0], [0, 0]]
    for bits, amp in O2_AMPLITUDES.items():
        m[bits[rest[0]]][bits[rest[1]]] += direction[bits[site]] * amp
    return m


def det2(m: list) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_criterion_02_o2_structure_and_order():
    o2 = builtin_state("O2")
    start = time.perf_counter()
    report = disentanglement_structures(o2)
    orders = total_order(o2)
    elapsed = time.perf_counter() - start
    assert orders.omega == 2
    assert elapsed < 1.0, f"O2 analysis took {elapsed:.3f}s"

    # The published kappa_GI(O2) = {{2,3},{1,2,3}} is the Sugita structure.
    published = structure(3, [(2, 3), (1, 2, 3)])
    assert density_structures(o2.density()).kappa_s == published
    assert report.structures["GI"] == borromean(3), (
        "{2,3} is not globally entangled: the X-basis outcome (1,-1) on site 1"
        f" leaves a product state.  computed: {report.structures['GI']!r}"
    )

    # Exact witnesses, in integers and rationals only.
    dense = [O2_AMPLITUDES.get(bits, 0) for bits in itertools.product((0, 1), repeat=3)]
    assert np.allclose(o2.amplitudes * np.sqrt(O2_NORM_SQ), dense)
    grid = list(itertools.product(range(-3, 4), repeat=2))
    # Measuring site 1 along (a,b) leaves {2,3} in a product state iff the
    # determinant (2a+2b)(2a-b) vanishes: only along (1,-1) and (1,2).
    for a, b in grid:
        assert det2(o2_residual(0, (a, b))) == (2 * a + 2 * b) * (2 * a - b)
    minus, other = (1, -1), (1, 2)
    assert o2_residual(0, minus) == [[0, 0], [0, 3]]  # |11> on {2,3}
    weight = sum(x * x for row in o2_residual(0, minus) for x in row)
    assert Fraction(weight, 2 * O2_NORM_SQ) == Fraction(9, 26)
    assert o2_residual(0, other) == [[6, 0], [0, 0]]  # |00> on {2,3}
    # The two directions are not orthogonal, and the direction orthogonal to
    # each leaves an entangled state, so no basis makes both outcomes product.
    assert minus[0] * other[0] + minus[1] * other[1] == -1
    assert det2(o2_residual(0, (1, 1))) == 4 and det2(o2_residual(0, (2, -1))) == 10
    # The Z basis leaves both outcomes entangled.
    assert det2(o2_residual(0, (1, 0))) == 4 and det2(o2_residual(0, (0, 1))) == -2
    # Measuring site 3 (for {1,2}) or site 2 (for {1,3}) along (a,b) gives
    # determinant -6ab: the Z basis leaves both outcomes product, and every
    # other basis has a, b != 0 in both vectors, leaving both entangled.
    for site in (2, 1):
        for a, b in grid:
            assert det2(o2_residual(site, (a, b))) == -6 * a * b

    # Those facts fix the classes exactly, whatever the pool holds beyond Z and X.
    kinds = {j: c.kind for j, c in report.classes.items()}
    assert kinds[(2, 3)] is IntricationClass.WELL_ENTANGLED_ONLY
    assert kinds[(1, 2)] is IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    assert kinds[(1, 3)] is IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    conclude(2, f"O2: kappa_GI borromean, published set = kappa_S, Omega=2, {elapsed:.3f}s")


def test_criterion_03_epr_structures():
    report = disentanglement_structures(builtin_state("EPR"))
    for name, s in report.structures.items():
        assert s == power_set(2), name
    orders = total_order(builtin_state("EPR"))
    assert orders.omega == 1
    conclude(3, "EPR: all six structures coarse, Omega=1")


def test_criterion_04_sugita_and_correlation():
    ghz = builtin_state("GHZ")
    report = density_structures(ghz.density())
    assert report.kappa_s == borromean(3)
    assert all(v.quality is VerdictQuality.EXACT for v in report.subsets.values())
    assert report.kappa_corr == power_set(3)
    # independent reduced-product oracle over every subset
    oracle_generators = [
        mask(labels)
        for labels, sites in [((1, 2), (0, 1)), ((1, 3), (0, 2)), ((2, 3), (1, 2)),
                              ((1, 2, 3), (0, 1, 2))]
        if oracle_completely_correlated(ghz.density().matrix, (2, 2, 2), sites)
    ]
    assert ConnectiveStructure(3, oracle_generators) == power_set(3)
    conclude(4, "GHZ: kappa_S borromean (EXACT), kappa_corr coarse (oracle agreed)")


def test_criterion_05_partial_trace_ground_truth():
    reduced = partial_trace(builtin_state("EPR").density(), [0])
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12
    conclude(5, "reduced EPR single site = I/2 to 1e-12")


def test_criterion_06_device_derivation_closes_loop():
    start = time.perf_counter()
    ghz_menus = [[("0", pauli_z()), ("1", pauli_x())]] * 3
    assert derive_device(builtin_state("GHZ"), ghz_menus, recode="paper") == builtin_device("GHZ")
    k_menus = [[("0", pauli_x_binary()), ("1", pauli_z_binary())]] * 3
    assert derive_device(builtin_state("K"), k_menus, recode="paper") == builtin_device("K")
    epr_menu = [[("*", pauli_z())]] * 2
    assert derive_device(builtin_state("EPR"), epr_menu, recode="paper") == builtin_device("EPR")
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"derivations took {elapsed:.3f}s"
    conclude(6, f"derived GHZ/K/EPR tables equal builtins bit-exactly, {elapsed:.3f}s")


def k_allows(q: tuple, r: tuple) -> bool:
    """The K table: one question bit set forces even answer parity, three force odd."""
    ones = sum(q)
    if ones == 1:
        return sum(r) % 2 == 0
    if ones == 3:
        return sum(r) % 2 == 1
    return True


def count_k_factoring(blocks) -> int:
    """Realizations of K whose outputs on each block read only that block's questions.

    Brute force over one function per block (block questions -> block answers);
    distinct function tuples assemble distinct realizations.
    """
    tables = []
    for block in blocks:
        block_questions = list(itertools.product((0, 1), repeat=len(block)))
        block_answers = list(itertools.product((0, 1), repeat=len(block)))
        tables.append([
            dict(zip(block_questions, choice))
            for choice in itertools.product(block_answers, repeat=len(block_questions))
        ])
    count = 0
    for functions in itertools.product(*tables):
        for q in itertools.product((0, 1), repeat=3):
            r = [0, 0, 0]
            for block, g in zip(blocks, functions):
                for s, x in zip(block, g[tuple(q[s] for s in block)]):
                    r[s] = x
            if not k_allows(q, r):
                break
        else:
            count += 1
    return count


def test_criterion_07_k_device_structures():
    dk = builtin_device("K")
    assert realization_count(dk) == 1_048_576
    start = time.perf_counter()
    report = device_structures(dk)
    structures = report.structures
    kappa_do, kappa_dp = structures["do"], structures["dp"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"K analysis took {elapsed:.3f}s"
    assert kappa_do == discrete(3)
    for name in ("NPL", "NQL", "NS", "NL"):
        assert structures[name] == borromean(3), name
    # The published kappa_NPS = kappa_dp = borromean assumed no realization
    # factors along a cut; 64 do along each cut (derived below).
    assert structures["NPS"] == discrete(3) and kappa_dp == discrete(3), (
        f"K is partially separable along every cut.  computed: NPS={structures['NPS']!r},"
        f" dp={kappa_dp!r}"
    )
    profile = report.profile
    assert profile.partially_separable and not profile.partially_local

    # Plain-Python derivation from the parity rule.
    bits = list(itertools.product((0, 1), repeat=3))
    table = {
        tuple(str(x) for x in q): {tuple(str(x) for x in r) for r in bits if k_allows(q, r)}
        for q in bits
    }
    assert table == dk.relation
    assert math.prod(len(answers) for answers in table.values()) == 1_048_576
    cuts = [((0, 1), (2,)), ((0, 2), (1,)), ((1, 2), (0,))]
    assert [count_k_factoring(cut) for cut in cuts] == [64, 64, 64]
    # Full locality is impossible: the four parity constraints sum to 0 = 1.
    assert count_k_factoring([(0,), (1,), (2,)]) == 0
    # The witness f(q) = (g(q1,q2), 0) with g(1,1) = (0,1), g = (0,0) elsewhere.
    for q in bits:
        g = (0, 1) if q[:2] == (1, 1) else (0, 0)
        assert k_allows(q, g + (0,)), q
    conclude(7, f"K device: NPS=dp=do discrete, NPL=NQL=NS=NL borromean, 64 per cut, {elapsed:.3f}s")


def test_criterion_08_epr_device_profile():
    depr = builtin_device("EPR")
    report = device_structures(depr)
    profile = report.profile
    assert profile.quasi_separable
    assert not profile.separable
    structures = report.structures
    assert structures["NS"] == power_set(2)
    assert structures["NL"] == power_set(2)
    for name in ("NPS", "NOS", "NPL", "NQS", "NQL"):
        assert structures[name] == discrete(2), name
    conclude(8, "EPR device: quasi-separable, not separable; NS=NL coarse, rest discrete")


def test_criterion_09_random_variables():
    start = time.perf_counter()
    assert rv_analysis(brunnian_family(2, 2)).structure == borromean(3)
    assert rv_analysis(brunnian_family(3, 2)).structure == borromean(4)
    three_point = all_integral_structures(3)
    assert len(three_point) == 12
    for kappa in three_point:
        dist = realize_structure(kappa)
        assert dist.exact, "realization must use exact rational probabilities"
        assert rv_analysis(dist).structure == kappa
    four_point = all_integral_structures(4)
    for kappa in four_point:
        assert rv_analysis(realize_structure(kappa)).structure == kappa
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"round trips took {elapsed:.3f}s"
    conclude(
        9,
        f"XOR/brunnian structures and {len(three_point)}+{len(four_point)}"
        f" realization round trips, {elapsed:.3f}s",
    )


def test_criterion_10_property_suites():
    rng = np.random.default_rng(2024)

    # closure axiom on every structure emitted across one analysis of each kind
    emitted = []
    rep = disentanglement_structures(builtin_state("GHZ"))
    emitted.extend(rep.structures.values())
    dens = density_structures(builtin_state("O2").density())
    emitted.extend([dens.kappa_corr, dens.kappa_s])
    emitted.extend(device_structures(builtin_device("EPR")).structures.values())
    emitted.extend(device_structures(builtin_device("EPR2")).structures.values())
    emitted.append(rv_analysis(brunnian_family(2, 2)).structure)
    assert all(oracle_close(s.size, s.connected) == s.connected for s in emitted)

    # six-structure inclusion chains on 50 random three-qubit states
    for _ in range(50):
        psi = PureState((2, 2, 2), random_state_vector(rng, 8))
        s = {k: v.connected for k, v in disentanglement_structures(psi).structures.items()}
        assert s["GI"] <= s["BIP"] <= s["IP"]
        assert s["GI"] <= s["MT"] <= s["IP"]
        assert s["IP"] <= s["ML"] <= s["NCS"]

    # seven-structure chains on 50 random coherent two-site binary devices
    from conexa.devices import Device

    answers = sorted(itertools.product(("0", "1"), repeat=2))
    for _ in range(50):
        relation = {}
        for q in itertools.product(("0", "1"), repeat=2):
            selector = int(rng.integers(1, 16))
            relation[q] = {r for i, r in enumerate(answers) if selector >> i & 1}
        dev = Device((("0", "1"),) * 2, (("0", "1"),) * 2, relation)
        s = {k: v.connected for k, v in device_structures(dev).structures.items()}
        assert s["NPS"] <= s["NPL"] <= s["NQL"] <= s["NL"]
        assert s["NPS"] <= s["NOS"] <= s["NQS"] <= s["NS"] <= s["NL"]
        assert s["NQS"] <= s["NQL"]

    # measurement probabilities (squared residual norms) sum to one on 100 random states
    menu = (pauli_z(), pauli_x(), pauli_z())
    bras = [_eigensystem(m, DEFAULT_TOL)[1].conj().T[None] for m in menu]
    for _ in range(100):
        psi = PureState((2, 2, 2), random_state_vector(rng, 8))
        _, norms = _residuals(psi.tensor, bras)
        possible = norms[norms > 1e-9]
        assert abs(float(np.sum(possible**2)) - 1.0) < 1e-9

    conclude(10, "closure scans, inclusion chains, device chains, probability sums")
