"""Density-side structures: complete correlation, complete entanglement, orders."""

import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conexa import density
from conexa.connective import _cut_table, _restrictions
from conexa.density import (
    VerdictQuality,
    _norms_allow_product,
    _product,
    _split_cuts,
    density_structures,
    total_order,
)
from conexa.disentangle import IntricationClass, classify_on_subset, disentanglement_structures
from conexa.errors import DomainError
from conexa.quantum import (
    DensityOperator,
    _frobenius,
    PureState,
    builtin_state,
    partial_trace,
)
from conexa.randvars import brunnian_family, realize_structure, rv_analysis

from helpers import (
    all_integral_structures,
    basis_state,
    borromean,
    discrete,
    haar_unitary,
    horodecki_2x4,
    oracle_completely_correlated,
    oracle_completely_entangled,
    oracle_factorizes,
    oracle_partial_trace,
    power_set,
    random_density_matrix,
    random_state_vector,
    structure,
    tensor_state,
)

def random_pure(rng, dims):
    return PureState(dims, random_state_vector(rng, math.prod(dims)))


def verdict_on(rho, j):
    """The analysis's verdict on the 0-based site tuple j."""
    return density_structures(rho).subsets[tuple(s + 1 for s in j)]


def test_ghz_pair_completely_correlated_matches_oracle():
    rho = builtin_state("GHZ").density()
    assert verdict_on(rho, (0, 1)).completely_correlated
    assert oracle_completely_correlated(rho.matrix, rho.dims, (0, 1))


def test_product_density_not_correlated():
    rng = np.random.default_rng(2)
    joint = tensor_state(random_pure(rng, (2,)), random_pure(rng, (2,))).density()
    assert not verdict_on(joint, (0, 1)).completely_correlated


def test_epr_completely_correlated():
    rho = builtin_state("EPR").density()
    assert verdict_on(rho, (0, 1)).completely_correlated


def test_correlation_ignores_uncorrelated_bystander():
    # a product qubit attached to an EPR pair: the triple has a factorizing
    # cut, so it is not completely correlated even though it is not a full
    # product either
    rng = np.random.default_rng(3)
    triple = tensor_state(builtin_state("EPR"), random_pure(rng, (2,))).density()
    assert verdict_on(triple, (0, 1)).completely_correlated
    assert not verdict_on(triple, (0, 1, 2)).completely_correlated
    assert oracle_completely_correlated(triple.matrix, triple.dims, (0, 1, 2)) is False


def test_ghz_full_set_completely_entangled_exact():
    rho = builtin_state("GHZ").density()
    v = verdict_on(rho, (0, 1, 2))
    assert v.completely_entangled is True
    assert v.quality is VerdictQuality.EXACT


def test_ghz_pair_not_completely_entangled():
    rho = builtin_state("GHZ").density()
    v = verdict_on(rho, (0, 1))
    assert v.completely_entangled is False
    assert v.quality is VerdictQuality.EXACT


def test_product_not_completely_entangled():
    rng = np.random.default_rng(4)
    joint = tensor_state(random_pure(rng, (2,)), random_pure(rng, (2,))).density()
    v = verdict_on(joint, (0, 1))
    assert v.completely_entangled is False
    assert v.quality is VerdictQuality.EXACT


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 2, 4)])
def test_inconclusive_cut_flags_ppt_necessary(dims):
    # Horodecki's 2x4 state is PPT across 2|4.  On (2, 2, 2) no cut factors
    # it, and its inconclusive cuts flag the subset.  On (1, 2, 4) the first
    # cut has a side of dimension 1, so it factors the operator and decides
    # the subset: not completely entangled, EXACT
    quality = VerdictQuality.EXACT if 1 in dims else VerdictQuality.PPT_NECESSARY
    matrix = horodecki_2x4(0.5)
    rho = DensityOperator(dims, matrix)
    v = verdict_on(rho, (0, 1, 2))
    assert (v.completely_entangled, v.quality) == (False, quality)
    assert oracle_completely_entangled(matrix, dims, [0, 1, 2]) == (False, quality.value)


def test_small_subsets_rejected():
    # an operator on one site has no subset of two sites to judge
    rho = partial_trace(builtin_state("GHZ").density(), (1,))
    with pytest.raises(DomainError, match="at least two sites"):
        density_structures(rho)


def test_ghz_density_structures():
    rep = density_structures(builtin_state("GHZ").density())
    assert rep.kappa_s == borromean(3)
    assert rep.kappa_corr == power_set(3)
    assert rep.omega_f == 1
    assert all(v.quality is VerdictQuality.EXACT for v in rep.subsets.values())


def test_o2_density_structures():
    rep = density_structures(builtin_state("O2").density())
    assert rep.kappa_s == structure(3, [(2, 3), (1, 2, 3)])
    assert rep.kappa_corr == power_set(3)
    assert rep.omega_f == 2


def test_product_state_structures_discrete():
    psi = basis_state((2, 2, 2), (0, 1, 0))
    rep = density_structures(psi.density())
    assert rep.kappa_corr == discrete(3)
    assert rep.kappa_s == discrete(3)
    assert rep.omega_f == 0


def test_omega_f_is_max_of_both_orders():
    from conexa.connective import connective_order

    for name in ("EPR", "GHZ", "O2"):
        rep = density_structures(builtin_state(name).density())
        assert rep.omega_f == max(
            connective_order(rep.kappa_corr), connective_order(rep.kappa_s)
        )


def test_reduction_consistency_nested_partial_traces():
    rng = np.random.default_rng(6)
    for _ in range(25):
        rho = random_pure(rng, (2, 2, 2)).density()
        via_pair = partial_trace(partial_trace(rho, (0, 2)), (0,))
        direct = partial_trace(rho, (0,))
        assert np.max(np.abs(via_pair.matrix - direct.matrix)) < 1e-10


def test_pure_state_cross_module_agreement_on_full_set():
    # complete entanglement of |psi><psi| on all sites is exactly the
    # certified global-entanglement classification of psi on all sites
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_pure(rng, (2, 2, 2))
        verdict = verdict_on(psi.density(), (0, 1, 2)).completely_entangled
        cls = classify_on_subset(psi, (0, 1, 2))
        assert verdict == (cls.kind is IntricationClass.GLOBALLY_ENTANGLED)


# The classes of a subset J that some experiment on the complement leaves
# separable in every possible residual.
_SEPARATED_BY_SOME_EXPERIMENT = {
    IntricationClass.TOTALLY_SEPARATED,
    IntricationClass.CLEARLY_SEPARABLE_ONLY,
    IntricationClass.GLOBALLY_SEPARABLE_ONLY,
    IntricationClass.WELL_SEPARABLE_ONLY,
    IntricationClass.WELL_ENTANGLED_AND_SEPARABLE,
}

_PAIR_STATES = {
    "GHZ": lambda rng: builtin_state("GHZ"),
    "O2": lambda rng: builtin_state("O2"),
    "Bell0": lambda rng: tensor_state(builtin_state("EPR"), basis_state((2,), (0,))),
    "0Bell": lambda rng: tensor_state(basis_state((2,), (0,)), builtin_state("EPR")),
    "product": lambda rng: tensor_state(
        tensor_state(random_pure(rng, (2,)), random_pure(rng, (3,))), random_pure(rng, (2,))
    ),
    "Haar pair (x) qubit": lambda rng: tensor_state(random_pure(rng, (2, 2)),
                                                    random_pure(rng, (2,))),
}


@settings(max_examples=30)
@given(st.sampled_from(sorted(_PAIR_STATES)), st.integers(0, 2**32 - 1))
def test_pairs_some_experiment_separates_are_not_completely_entangled(name, seed):
    # an experiment leaving every residual on the pair J separable writes
    # rho_J as a mixture of product states, so J is not completely entangled
    psi = _PAIR_STATES[name](np.random.default_rng(seed))
    classes = disentanglement_structures(psi).classes
    subsets = density_structures(psi.density()).subsets
    separated = [
        j for j, cls in classes.items()
        if len(j) == 2 and cls.kind in _SEPARATED_BY_SOME_EXPERIMENT
    ]
    assert separated
    for j in separated:
        assert not subsets[j].completely_entangled, j


def test_total_order_reference_states():
    assert total_order(builtin_state("EPR")) == total_order(builtin_state("EPR"))
    epr = total_order(builtin_state("EPR"))
    assert (epr.omega_c, epr.omega_f, epr.omega) == (1, 1, 1)
    ghz = total_order(builtin_state("GHZ"))
    assert (ghz.omega_c, ghz.omega_f, ghz.omega) == (1, 1, 1)
    o2 = total_order(builtin_state("O2"))
    assert o2.omega == 2
    assert o2.omega_f == 2


@st.composite
def density_cases(draw):
    """Dims in {1, 2, 3} on 2-4 sites, and a rank-1..3 operator or a permuted product."""
    dims = tuple(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if not draw(st.booleans()):
        return dims, random_density_matrix(rng, dims, draw(st.integers(1, 3)))
    # rho_A (x) rho_B on a random split of the sites, axes put back in order
    k = len(dims)
    order = draw(st.permutations(range(k)))
    split = draw(st.integers(1, k - 1))
    a, b = order[:split], order[split:]
    factors = [
        random_density_matrix(rng, [dims[s] for s in part], draw(st.integers(1, 3)))
        for part in (a, b)
    ]
    raw = np.kron(*factors).reshape([dims[s] for s in a + b] * 2)
    inverse = [list(a + b).index(i) for i in range(k)]
    n = int(np.prod(dims))
    return dims, np.transpose(raw, inverse + [k + p for p in inverse]).reshape(n, n)


# a pure operator split along one cut of the full set but entangled across others
_EPR_AND_QUBIT = np.kron(builtin_state("EPR").density().matrix, np.full((2, 2), 0.5))


@settings(max_examples=40)
@given(density_cases())
@example(((2, 2, 2), _EPR_AND_QUBIT))
def test_density_structures_match_oracles(case):
    dims, matrix = case
    report = density_structures(DensityOperator(dims, matrix))
    assert len(report.subsets) == 2 ** len(dims) - len(dims) - 1
    for labels, verdict in report.subsets.items():
        sites = [s - 1 for s in labels]
        assert verdict.completely_correlated == oracle_completely_correlated(matrix, dims, sites)
        entangled, quality = oracle_completely_entangled(matrix, dims, sites)
        assert (verdict.completely_entangled, verdict.quality.value) == (entangled, quality)


@st.composite
def cores(draw):
    """(dims, matrix) on three sites: an operator of rank 1-3 or full rank on
    dimensions 2 and 3, or Horodecki's 2x4 state, PPT across 2|4, on (2, 2, 2)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return (2, 2, 2), horodecki_2x4(draw(st.floats(0.05, 0.95)))
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=3, max_size=3)))
    rank = draw(st.sampled_from((1, 2, 3, int(np.prod(dims)))))
    return dims, random_density_matrix(rng, dims, rank)


@pytest.mark.parametrize("position", range(4))
def test_site_of_dimension_one_keeps_every_flag_of_the_oracle(position):
    # a site of dimension 1 makes each subset holding it a product across
    # the cut that isolates it, and that cut decides the subset: not
    # completely entangled, EXACT, whatever its other cuts would flag; every
    # verdict is the oracle's
    @settings(max_examples=15)
    @given(cores())
    def check(core):
        dims, matrix = core
        dims = dims[:position] + (1,) + dims[position:]
        report = density_structures(DensityOperator(dims, matrix))
        for labels, verdict in report.subsets.items():
            sites = [s - 1 for s in labels]
            entangled, quality = oracle_completely_entangled(matrix, dims, sites)
            assert (verdict.completely_entangled, verdict.quality.value) == (entangled, quality)
            if position in sites:
                assert (verdict.completely_entangled, verdict.quality) == (
                    False, VerdictQuality.EXACT)

    check()


# a correlated classical law whose norm equals the product of its marginals'
# norms (0.41^2 + 2 * 0.29^2 + 0.01^2 = 0.58^2): the norm bound keeps its
# cut, and only the entrywise test rules it out
_NORM_TIGHT = np.diag([0.41, 0.29, 0.29, 0.01]).astype(complex)


@settings(max_examples=40)
@given(density_cases())
@example(((2, 2, 2), _EPR_AND_QUBIT))
@example(((2, 2), _NORM_TIGHT))
@example(((2, 2, 2), np.kron(_NORM_TIGHT, np.full((2, 2), 0.5))))
def test_every_cut_splits_as_the_entrywise_oracle(case):
    # the norm bound rules cuts out and the entrywise test decides the rest:
    # each cut of the shared cut table gets the entrywise comparison's answer
    dims, matrix = case
    k = len(dims)
    split = _split_cuts(_restrictions(DensityOperator(dims, matrix), k, partial_trace), k, 1e-9)
    cuts = _cut_table(k)[1].T.tolist()
    assert split.shape == (len(cuts),)
    for verdict, masks in zip(split.tolist(), cuts):
        sites, a, _ = ([s for s in range(k) if mask >> s & 1] for mask in masks)
        reduced = oracle_partial_trace(matrix, dims, sites)
        a = [sites.index(s) for s in a]
        assert verdict is oracle_factorizes(reduced, [dims[s] for s in sites], a), masks


def test_one_analysis_traces_each_proper_subset_once(monkeypatch):
    # 2^k - 2 partial traces for k = 4: every nonempty proper site tuple once,
    # and the full-set verdict reads the operator itself
    dims = (2, 2, 2, 2)
    rho = DensityOperator(dims, random_density_matrix(np.random.default_rng(7), dims, 2))
    traced, judged = [], []

    def trace(r, keep):
        traced.append(tuple(keep))
        return partial_trace(r, keep)

    def entangled(operators, tol):
        judged.append(operators)
        return ppt_entangled(operators, tol)

    ppt_entangled = density.ppt_entangled
    monkeypatch.setattr(density, "partial_trace", trace)
    monkeypatch.setattr(density, "ppt_entangled", entangled)
    report = density_structures(rho)
    assert len(traced) == 2 ** 4 - 2
    assert set(traced) == {j for n in (1, 2, 3) for j in itertools.combinations(range(4), n)}
    assert report.subsets[(1, 2, 3, 4)].completely_correlated
    # one stacked PPT call per layout, and the full set's stack is rho itself
    assert sorted(stack[0].dims for stack in judged) == [(2, 2), (2, 2, 2), dims]
    full = [stack for stack in judged if stack[0].dims == dims]
    assert len(full) == 1 and len(full[0]) == 1 and full[0][0] is rho


def test_six_qubit_analysis_factorizes_one_cut():
    # a seeded rank-2 operator on 6 qubits: the principal blocks over the
    # leading and trailing three sites certify every entangled cut but
    # {1,2,3}|{4,5,6}, which splits neither run, so one partial transpose is
    # factorized (40 with blocks over the trailing sites alone)
    dims = (2,) * 6
    rho = DensityOperator(dims, random_density_matrix(np.random.default_rng(1), dims, 2))
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        report = density_structures(rho)
    assert cholesky.call_count == 1
    assert report.subsets[(1, 2, 3, 4, 5, 6)].completely_entangled


def _noisy(amplitudes, p):
    """(1 - p) |psi><psi| + p I / n for the normalized amplitudes psi."""
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return (1 - p) * np.outer(v, v.conj()) + p * np.eye(len(v)) / len(v)


_W = [0, 1, 1, 0, 1, 0, 0, 0]
_BELL_PLUS = np.kron([1, 0, 0, 1], [1, 1])

# On every cut of every subset, the least partial-transpose eigenvalue of
# these operators is 0 (GHZ and K at p = 0.8, Bell (x) |+>) or at least 0.005
# from it, and the largest entry of rho_J - rho_A (x) rho_B is 0 or at least
# 0.05 in modulus: each verdict is decided far from tol, where the rounding of
# a local rotation cannot move it.
_LU_CASES = [
    _noisy(amplitudes, p)
    for amplitudes in (builtin_state("GHZ").amplitudes, builtin_state("K").amplitudes, _W)
    for p in (0, 0.3, 0.8)
] + [_noisy(_BELL_PLUS, 0)]


@pytest.mark.parametrize("matrix", _LU_CASES)
@settings(max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
def test_density_structures_are_local_unitary_invariant(matrix, seed):
    # every structure is defined by quantifiers over all local frames, so
    # (U_1 (x) U_2 (x) U_3) rho (...)^dagger gets every verdict and flag of rho
    rng = np.random.default_rng(seed)
    u = functools.reduce(np.kron, [haar_unitary(rng, 2) for _ in range(3)])
    turned = density_structures(DensityOperator((2, 2, 2), u @ matrix @ u.conj().T))
    assert turned.subsets == density_structures(DensityOperator((2, 2, 2), matrix)).subsets


_NAMED = [((2, 2, 2), builtin_state(name).density().matrix) for name in ("GHZ", "O2", "K")] + [
    ((2, 2, 3), np.kron(builtin_state("EPR").density().matrix, np.eye(3) / 3)),
    ((2, 2, 2, 2), np.kron(builtin_state("GHZ").density().matrix, _noisy([1, 1j], 0))),
]


@st.composite
def permuted_cases(draw):
    """A named or drawn operator, and a permutation of its sites."""
    dims, matrix = draw(st.one_of(st.sampled_from(_NAMED), density_cases()))
    return dims, matrix, draw(st.permutations(range(len(dims))))


@settings(max_examples=40)
@given(permuted_cases())
def test_site_permutation_permutes_every_verdict(case):
    # site i of the moved operator is site perm[i] of rho: the verdict on a
    # subset of the moved sites is rho's verdict on its image
    dims, matrix, perm = case
    k, n = len(dims), len(matrix)
    moved = np.transpose(matrix.reshape(dims * 2), [*perm, *(k + p for p in perm)])
    before = density_structures(DensityOperator(dims, matrix)).subsets
    after = density_structures(
        DensityOperator(tuple(dims[p] for p in perm), moved.reshape(n, n))
    ).subsets
    assert len(after) == len(before)
    for labels, verdict in after.items():
        assert verdict == before[tuple(sorted(perm[s - 1] + 1 for s in labels))], labels


def _uniform(n):
    """|+><+| on dimension n: every entry 1/n, where the norm bound is tight."""
    return np.full((n, n), 1 / n, dtype=complex)


@st.composite
def near_products(draw):
    """(tol, cut, rho_A, rho_B, E): rho_A (x) rho_B on a random cut of 2-4
    sites of dimension 1-3, and a Hermitian E with max |E| just under tol,
    either random or of modulus max |E| in every entry, in phase with the
    product."""
    tol = draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6)))
    dims = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=4))
    order = draw(st.permutations(range(len(dims))))
    split = draw(st.integers(1, len(dims) - 1))
    cut = tuple(tuple(sorted(part)) for part in (order[:split], order[split:]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = []
    for part in cut:
        side_dims = [dims[p] for p in part]
        matrix = (random_density_matrix(rng, side_dims, draw(st.integers(1, 3)))
                  if draw(st.booleans()) else _uniform(int(np.prod(side_dims))))
        sides.append(DensityOperator(side_dims, matrix))
    scale = tol * draw(st.one_of(
        st.floats(0, 1, exclude_max=True), st.sampled_from((1 - 2**-40, 1 - 2**-20))
    ))
    product = _product(sides, cut)
    if draw(st.booleans()):
        noise = rng.standard_normal(product.shape) + 1j * rng.standard_normal(product.shape)
        noise += noise.conj().T
    else:
        noise = np.exp(1j * np.angle(product))
    return tol, cut, *sides, noise * (scale / np.max(np.abs(noise)))


def _bound_allows(reduced, rho_a, rho_b, tol):
    """_norms_allow_product on the analysis's norms of rho_J, rho_A and rho_B."""
    norms = [_frobenius(m) for m in (reduced, rho_a.matrix, rho_b.matrix)]
    return bool(_norms_allow_product(*norms, reduced.shape[0], tol))


@settings(max_examples=200)
@given(near_products())
def test_norm_bound_keeps_every_cut_the_product_test_accepts(case):
    # the bound only skips cuts: wherever the entrywise test accepts rho_J =
    # rho_A (x) rho_B + E, the norms must leave the cut to that test
    tol, cut, rho_a, rho_b, noise = case
    product = _product([rho_a, rho_b], cut)
    reduced = product + noise
    if np.max(np.abs(product - reduced)) <= tol:
        assert _bound_allows(reduced, rho_a, rho_b, tol)


def test_norm_bound_is_tight_on_uniform_products():
    # |+><+| (x) |+><+| + s tol J has a norm gap of exactly n s tol: kept
    # just below s = 1, ruled out just above it
    rho_a = DensityOperator((2, 2), _uniform(4))
    rho_b = DensityOperator((2,), _uniform(2))
    cut = ((0, 2), (1,))
    product = _product([rho_a, rho_b], cut)
    tol = 1e-6
    for scale, allowed in ((1 - 2**-20, True), (1 + 2**-20, False)):
        reduced = product + scale * tol
        assert bool(np.max(np.abs(product - reduced)) <= tol) is allowed
        assert _bound_allows(reduced, rho_a, rho_b, tol) is allowed


def test_site_of_dimension_one_is_analyzed():
    rho = PureState((1, 2, 2), [1, 0, 0, 1]).density()
    report = density_structures(rho)
    pair = report.subsets[(2, 3)]
    assert (pair.completely_correlated, pair.completely_entangled, pair.quality) == (
        True, True, VerdictQuality.EXACT
    )
    # site 1 has dimension 1, so every cut of (1, 2) and (1, 3) is a product
    for j in ((1, 2), (1, 3)):
        assert report.subsets[j].quality is VerdictQuality.EXACT, j
    assert report.kappa_corr == structure(3, [(2, 3)])


def _diagonal_embedding(dist):
    """The classical joint law of `dist` as diag(p) over one site per variable."""
    dims = [len(alphabet) for alphabet in dist.outcomes]
    diag = np.zeros(int(np.prod(dims)))
    for outcome, p in dist.prob.items():
        index = [alphabet.index(x) for alphabet, x in zip(dist.outcomes, outcome)]
        diag[np.ravel_multi_index(index, dims)] = float(p)
    return DensityOperator(dims, np.diag(diag))


def test_classical_density_matches_rv_engine():
    # a diagonal operator is correlated exactly where its law is dependent,
    # and it is entangled across no cut
    dists = [realize_structure(kappa) for kappa in all_integral_structures(3)]
    dists += [brunnian_family(k, n) for k, n in ((2, 2), (3, 2), (2, 3))]
    dists += [
        dist for dist in map(realize_structure, all_integral_structures(4))
        if np.prod([len(alphabet) for alphabet in dist.outcomes]) <= 64
    ]
    assert len(dists) == 12 + 3 + 79
    for dist in dists:
        report = density_structures(_diagonal_embedding(dist))
        assert report.kappa_corr == rv_analysis(dist).structure
        assert report.kappa_s == discrete(dist.variables)
