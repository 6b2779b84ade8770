"""Measurement-pool classification and the six disentanglement structures."""

import itertools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conexa import disentangle, quantum
from conexa.disentangle import (
    Confidence,
    IntricationClass,
    classify_on_subset,
    disentanglement_structures,
)
from conexa.errors import DomainError
from conexa.quantum import (
    PureState,
    _residuals,
    builtin_state,
)

from helpers import (
    basis_state,
    borromean,
    matricize,
    measured_first,
    oracle_classify,
    power_set,
    random_state_vector,
    same_up_to_phase,
    tensor_state,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_pure(rng, dims):
    return PureState(dims, random_state_vector(rng, math.prod(dims)))


def bras_of(bases):
    """The conjugate transpose of a basis, or of each basis of a stack: the
    bras, as rows, that measure in it."""
    return np.conj(np.swapaxes(np.asarray(bases), -1, -2))


def experiments_of(pool):
    """Per-experiment bases (columns = basis vectors), one matrix per measured
    site, read from the stacks of bras."""
    return [[bras_of(b[e]) for b in pool] for e in range(len(pool[0]))]


@contextmanager
def pool_replaced(stacks):
    """Classify with `stacks`, one (experiments, d, d) stack of bras per
    measured site, as the pool of every complement."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disentangle, "_pool", lambda dims: tuple(np.asarray(b) for b in stacks))
        yield


def residual_states(psi, j, bases, tol=1e-9) -> list:
    """The possible residual J-states of psi, in outcome order, under one
    experiment: one basis per site outside J, in site order."""
    complement = tuple(s for s in range(len(psi.dims)) if s not in j)
    bras = [bras_of(b)[None] for b in bases]
    residuals, norms = _residuals(measured_first(psi, complement), bras)
    return [PureState(tuple(psi.dims[s] for s in j), v) for v in residuals[0][norms[0] > tol]]


def pool_with_extras(dims, extras):
    """The pool `_pool(dims)` would be with the bases `extras[i]` appended
    to the structured ones of measured site i: every combination across the
    sites, then the generic experiment, as stacks of bras."""
    options = [disentangle._structured_bases(d) + list(more) for d, more in zip(dims, extras)]
    combos = list(itertools.product(*options))
    return tuple(
        bras_of(np.stack([*column, disentangle._generic_basis(d)]))
        for d, column in zip(dims, zip(*combos))
    )


def test_pool_structured_sizes():
    # the structured grid, then the one generic experiment
    assert [b.shape for b in disentangle._pool((2,))] == [(3, 2, 2)]
    assert [b.shape for b in disentangle._pool((2, 2))] == [(5, 2, 2)] * 2


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (4,), (5,), (2, 3), (3, 2)])
def test_pool_stacks_are_unitary_cached_and_read_only(dims):
    pool = disentangle._pool(dims)
    assert [b.shape[1:] for b in pool] == [(d, d) for d in dims]
    for stack in pool:
        gram = stack.conj().transpose(0, 2, 1) @ stack
        assert np.max(np.abs(gram - np.eye(stack.shape[1]))) <= 1e-12
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0
    assert disentangle._pool(dims) is pool


def test_pool_on_a_site_of_dimension_one():
    # a one-dimensional site has only the 1x1 bases; the generic one is a
    # phase, held as its bra
    pool = disentangle._pool((1, 2))
    trivial = pool[0]
    assert trivial.shape == (5, 1, 1)
    assert np.allclose(np.abs(trivial), 1.0)
    assert np.allclose(trivial[-1], np.exp(-1j * math.sqrt(2)))


def test_fourier_basis_used_for_qutrits():
    assert disentangle._pool((3,))[0].shape == (3, 3, 3)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pool_ends_with_the_generic_basis(d):
    # Hadamard (d = 2) or Fourier, row j times exp(i sqrt(2) (j + 1)), first two
    # rows turned by 0.4 rad
    if d == 2:
        second = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    else:
        j, k = np.meshgrid(range(d), range(d), indexing="ij")
        second = np.exp(2j * np.pi * j * k / d) / math.sqrt(d)
    expected = second * np.exp(1j * math.sqrt(2) * np.arange(1, d + 1))[:, None]
    c, s = math.cos(0.4), math.sin(0.4)
    expected[:2] = np.array([[c, -s], [s, c]]) @ expected[:2]
    for stack in disentangle._pool((d, d)):
        generic = bras_of(stack[-1])
        assert np.allclose(generic, expected, atol=1e-12)
        assert np.allclose(generic.conj().T @ generic, np.eye(d), atol=1e-12)
        assert not any(np.allclose(stack[-1], b) for b in stack[:-1])


def test_post_states_ghz_z_experiment():
    ghz = builtin_state("GHZ")
    states = residual_states(ghz, (1, 2), [np.eye(2)])
    assert len(states) == 2
    expected = {basis_state((2, 2), (0, 0)), basis_state((2, 2), (1, 1))}
    for s in states:
        assert any(same_up_to_phase(s, e) for e in expected)


def test_post_states_ghz_x_experiment_all_entangled():
    ghz = builtin_state("GHZ")
    h = np.array([[1, 1], [1, -1]]) * INV_SQRT2
    states = residual_states(ghz, (1, 2), [h])
    epr_plus = builtin_state("EPR")
    epr_minus = PureState((2, 2), [1, 0, 0, -1])
    assert len(states) == 2
    for s in states:
        assert same_up_to_phase(s, epr_plus) or same_up_to_phase(s, epr_minus)


def test_post_states_of_product_factorize():
    rng = np.random.default_rng(3)
    psi_j = random_pure(rng, (2, 2))
    psi_rest = random_pure(rng, (2,))
    # joint layout: J = sites (0, 1), measured site = 2
    joint = tensor_state(psi_j, psi_rest)
    for bases in experiments_of(disentangle._pool((2,))):
        # both outcomes are possible, and each leaves the J-factor
        states = residual_states(joint, (0, 1), bases)
        assert len(states) == 2
        assert all(same_up_to_phase(state, psi_j) for state in states)


def test_classify_ghz_full_set_certified():
    cls = classify_on_subset(builtin_state("GHZ"), (0, 1, 2))
    assert cls.kind is IntricationClass.GLOBALLY_ENTANGLED
    assert cls.confidence is Confidence.CERTIFIED


def test_classify_ghz_pair_well_entangled_and_separable():
    cls = classify_on_subset(builtin_state("GHZ"), (1, 2))
    assert cls.kind is IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    assert cls.confidence is Confidence.POOL_LIMITED


def test_classify_product_state_totally_separated():
    zero3 = basis_state((2, 2, 2), (0, 0, 0))
    for j in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        cls = classify_on_subset(zero3, j)
        assert cls.kind is IntricationClass.TOTALLY_SEPARATED
        assert cls.confidence is Confidence.CERTIFIED


def test_classify_epr_times_qubit_certified_entangled():
    rng = np.random.default_rng(4)
    joint = tensor_state(builtin_state("EPR"), random_pure(rng, (2,)))
    cls = classify_on_subset(joint, (0, 1))
    assert cls.kind is IntricationClass.GLOBALLY_ENTANGLED
    assert cls.confidence is Confidence.CERTIFIED


def test_classify_depends_only_on_factor_for_products():
    rng = np.random.default_rng(5)
    psi_j = random_pure(rng, (2, 2))
    for tail_seed in (1, 2):
        tail = random_pure(np.random.default_rng(tail_seed), (2,))
        cls = classify_on_subset(tensor_state(psi_j, tail), (0, 1))
        assert cls.confidence is Confidence.CERTIFIED
        assert cls.kind is IntricationClass.GLOBALLY_ENTANGLED


def test_classify_rejects_small_subsets():
    with pytest.raises(DomainError):
        classify_on_subset(builtin_state("GHZ"), (0,))


# (ent_here, sep_here, sep_along) over two experiments and three cuts, as
# each class's definition forces them: every experiment has some possible
# outcome, and a cut splits every outcome only when every outcome splits
DECIDE_ROWS = {
    IntricationClass.GLOBALLY_ENTANGLED: ([1, 1], [0, 0], [0, 0, 0]),
    IntricationClass.TOTALLY_MIXED: ([1, 1], [1, 1], [0, 0, 0]),
    IntricationClass.WELL_ENTANGLED_ONLY: ([1, 1], [0, 1], [0, 0, 0]),
    IntricationClass.WELL_SEPARABLE_ONLY: ([0, 1], [1, 1], [0, 0, 0]),
    IntricationClass.WELL_ENTANGLED_AND_SEPARABLE: ([1, 0], [0, 1], [0, 0, 0]),
    IntricationClass.GLOBALLY_SEPARABLE_ONLY: ([0, 0], [1, 1], [0, 0, 0]),
    IntricationClass.CLEARLY_SEPARABLE_ONLY: ([0, 0], [1, 1], [0, 1, 0]),
    IntricationClass.TOTALLY_SEPARATED: ([0, 0], [1, 1], [1, 1, 1]),
}


@pytest.mark.parametrize("kind", list(IntricationClass), ids=lambda kind: kind.value)
def test_decide_reaches_every_class(kind):
    ent_here, sep_here, sep_along = (np.array(t, dtype=bool) for t in DECIDE_ROWS[kind])
    assert disentangle._decide(ent_here, sep_here, sep_along) is kind


def test_ghz_structures_pinned():
    rep = disentanglement_structures(builtin_state("GHZ"))
    assert rep.structures["GI"] == borromean(3)
    assert rep.structures["MT"] == borromean(3)
    for name in ("BIP", "IP", "ML", "NCS"):
        assert rep.structures[name] == power_set(3)
    assert rep.omega_c == 1


def test_epr_structures_all_coarse():
    rep = disentanglement_structures(builtin_state("EPR"))
    for name, s in rep.structures.items():
        assert s == power_set(2), name
    assert rep.omega_c == 1


def test_o2_subset_classes_and_structures():
    # The X-type experiment on site 1 sends sites {2,3} to the product |11>
    # with probability 9/26, so {2,3} cannot be globally entangled and the
    # global-entanglement structure collapses to the borromean one.
    o2 = builtin_state("O2")
    v = np.array([1.0, -1.0]) * INV_SQRT2
    residuals, norms = _residuals(o2.tensor, [v.reshape(1, 1, 2)])
    assert abs(norms[0, 0] ** 2 - 9.0 / 26.0) < 1e-12
    hit = PureState((2, 2), residuals[0, 0])
    assert same_up_to_phase(hit, basis_state((2, 2), (1, 1)))

    rep = disentanglement_structures(o2)
    assert rep.classes[(2, 3)].kind is IntricationClass.WELL_ENTANGLED_ONLY
    assert rep.classes[(1, 2)].kind is IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    assert rep.classes[(1, 2, 3)].kind is IntricationClass.GLOBALLY_ENTANGLED
    assert rep.structures["GI"] == borromean(3)
    assert rep.structures["BIP"] == power_set(3)
    assert rep.omega_c == 1


def test_structure_inclusion_chains_random_states():
    rng = np.random.default_rng(21)
    for _ in range(50):
        psi = random_pure(rng, (2, 2, 2))
        rep = disentanglement_structures(psi)
        s = {name: st.connected for name, st in rep.structures.items()}
        assert s["GI"] <= s["BIP"] <= s["IP"]
        assert s["GI"] <= s["MT"] <= s["IP"]
        assert s["IP"] <= s["ML"] <= s["NCS"]


def test_classification_deterministic():
    psi = builtin_state("O2")
    a = disentanglement_structures(psi)
    b = disentanglement_structures(psi)
    assert a.classes == b.classes
    assert a.structures == b.structures


def test_pool_monotonicity_verdict_movement():
    # enlarging the pool can break a homogeneous verdict but never create one
    mixed_family = IntricationClass.TOTALLY_MIXED, IntricationClass.WELL_ENTANGLED_ONLY, \
        IntricationClass.WELL_SEPARABLE_ONLY, IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    rng = np.random.default_rng(22)
    for _ in range(20):
        psi = random_pure(rng, (2, 2, 2))
        for j in ((0, 1), (0, 2), (1, 2)):
            (c,) = {0, 1, 2} - set(j)
            c_small = classify_on_subset(psi, j).kind
            with pool_replaced(pool_with_extras((2,), [[_random_basis(rng, 2)]])):
                c_large = classify_on_subset(psi, j).kind
            if c_small in mixed_family:
                assert c_large in mixed_family
            if c_large is IntricationClass.GLOBALLY_ENTANGLED:
                assert c_small is IntricationClass.GLOBALLY_ENTANGLED


def test_generic_experiment_decides_the_adversarial_state():
    # Measuring site c along v leaves a pencil whose product directions are
    # exactly the Z and X ones, so every structured experiment mixes product and
    # entangled outcomes; only the generic experiment is entangled throughout.
    amplitudes = np.array([1, 0, 0, 0, 0, 1, 1, 1]) / 2.0
    psi = PureState((2, 2, 2), amplitudes)
    hadamard = np.array([[1, 1], [1, -1]]) * INV_SQRT2
    for j in ((0, 1), (0, 2), (1, 2)):
        cls = classify_on_subset(psi, j)
        assert cls == disentangle.Classification(
            IntricationClass.WELL_ENTANGLED_ONLY, Confidence.POOL_LIMITED
        )
        with pool_replaced([bras_of(np.stack([np.eye(2), hadamard]))]):
            assert classify_on_subset(psi, j).kind is IntricationClass.TOTALLY_MIXED


def test_one_pool_per_complement_shape():
    # complements of (2, 3, 2, 2): shapes (2, 3), (2, 2), (3, 2), (2,) and (3,)
    # over 11 subsets; J = every site measures nothing and reads no pool
    psi = random_pure(np.random.default_rng(21), (2, 3, 2, 2))
    disentangle._pool.cache_clear()
    with mock.patch.object(disentangle, "classify_on_subset",
                           wraps=classify_on_subset) as classify:
        report = disentanglement_structures(psi)
    assert disentangle._pool.cache_info().misses == 5
    assert classify.call_count == 11
    # each subset is classified as when classified alone
    for j, c in report.classes.items():
        assert classify_on_subset(psi, tuple(s - 1 for s in j)) == c


def test_haar_six_qubits_run_lapack_only_to_factor():
    # the 56 subsets short of the full set each try one factorization (a
    # matrix); no cut of a residual reaches the stacked SVD
    psi = random_pure(np.random.default_rng(6), (2,) * 6)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        report = disentanglement_structures(psi)
    assert svd.call_count == 56
    assert all(call.args[0].ndim == 2 for call in svd.call_args_list)
    # one cut per stack gives every verdict again
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "_CHUNK", 1)
        assert disentanglement_structures(psi) == report


@st.composite
def planted_splits(draw):
    """(state, J, factor, tol): a 3-5-site state with local dims in {2, 3}
    whose matricization along J, a proper subset of at least two sites, has
    the two singular values sqrt(1 - sigma_2^2) and sigma_2 = factor * tol."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=3, max_size=5)))
    j = tuple(sorted(draw(st.sets(st.integers(0, len(dims) - 1), min_size=2,
                                  max_size=len(dims) - 1))))
    factor = draw(st.sampled_from((0.0, 0.5, 0.999, 1.001, 2.0)))
    tol = draw(st.sampled_from((1e-9, 1e-4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = tuple(s for s in range(len(dims)) if s not in j)
    # two orthonormal columns over J (a) and over the rest (b)
    a, b = (_random_basis(rng, math.prod(dims[s] for s in side))[:, :2] for side in (j, rest))
    second = factor * tol
    mat = math.sqrt(1 - second**2) * np.outer(a[:, 0], b[:, 0])
    mat += second * np.outer(a[:, 1], b[:, 1])
    tensor = mat.reshape([dims[s] for s in j + rest]).transpose(np.argsort(j + rest))
    return PureState(dims, tensor.reshape(-1)), j, factor, tol


@settings(max_examples=40)
@given(planted_splits())
def test_factor_on_decides_by_the_second_singular_value(case):
    # on every subset: a J-factor exactly when sigma_2 <= tol, equal to the
    # leading left singular vector up to phase, and a CERTIFIED class exactly then
    psi, planted, factor, tol = case
    k = len(psi.dims)
    factored = set()
    for j in (j for r in range(2, k) for j in itertools.combinations(range(k), r)):
        mat = matricize(psi, j)
        vector = disentangle._factor_on(mat, tol)
        assert (vector is not None) == (np.linalg.svd(mat, compute_uv=False)[1] <= tol)
        if vector is not None:
            lead = np.linalg.svd(mat)[0][:, 0]
            phase = np.vdot(lead, vector)
            assert np.max(np.abs(vector - phase / abs(phase) * lead)) <= 1e-12
            factored.add(j)
        certified = classify_on_subset(psi, j, tol=tol).confidence is Confidence.CERTIFIED
        assert certified == (j in factored)
    # the planted sigma_2 is off tol by 1e-3 of it at least, far beyond rounding
    assert (planted in factored) == (factor < 1)


def _oracle_state(kind, dims, rng):
    """Amplitudes of a random, product, GHZ-like, block-product or sparse state."""
    total = math.prod(dims)
    if kind == "random":
        return random_state_vector(rng, total)
    if kind == "product":
        vec = np.ones(1, dtype=complex)
        for d in dims:
            vec = np.kron(vec, random_state_vector(rng, d))
        return vec
    if kind == "ghz":
        vec = np.zeros(dims, dtype=complex)
        for i in range(min(dims)):
            vec[(i,) * len(dims)] = rng.standard_normal() + 1j * rng.standard_normal()
        return vec.reshape(-1)
    if kind == "blocks":
        # a product of random or GHZ-like states over a random grouping of sites
        label = rng.integers(0, len(dims), size=len(dims))
        blocks = [tuple(np.flatnonzero(label == b)) for b in np.unique(label)]
        tensor = np.ones((), dtype=complex)
        for block in blocks:
            inner = "ghz" if len(block) > 1 and rng.integers(2) else "random"
            part = _oracle_state(inner, tuple(dims[s] for s in block), rng)
            tensor = np.multiply.outer(tensor, part.reshape([dims[s] for s in block]))
        order = [s for block in blocks for s in block]
        return np.transpose(tensor, np.argsort(order)).reshape(-1)
    # sparse: a few basis states, so many outcomes are impossible or separable
    vec = np.zeros(total, dtype=complex)
    support = rng.choice(total, size=int(rng.integers(2, 5)), replace=False)
    vec[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return vec


def _random_basis(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


@st.composite
def oracle_cases(draw):
    """A 3-4-site state with local dims in {2, 3}, a subset J, a pool kind and a tol.

    Pool kinds: the default pool, the default pool with one random extra basis
    per measured site (`pool_with_extras`), or a caller's stacks in place of
    `_pool`.

    Under the large tolerance some experiments have no possible outcome.
    """
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=3, max_size=4)))
    kind = draw(st.sampled_from(("random", "product", "ghz", "blocks", "sparse")))
    seed = draw(st.integers(0, 2**32 - 1))
    j = tuple(sorted(draw(st.sets(st.integers(0, len(dims) - 1), min_size=2))))
    pool_kind = draw(st.sampled_from(("default", "extras", "caller")))
    return dims, kind, seed, j, pool_kind, draw(st.sampled_from((1e-9, 0.55)))


def _check_against_oracle(case):
    dims, kind, seed, j, pool_kind, tol = case
    rng = np.random.default_rng(seed)
    psi = PureState(dims, _oracle_state(kind, dims, rng))
    shape = tuple(d for s, d in enumerate(dims) if s not in j)
    pool, experiments = disentangle._pool(shape), []
    if shape:
        if pool_kind == "caller":
            options = [[np.eye(d), _random_basis(rng, d)] for d in shape]
            combos = list(itertools.product(*options))
            pool = tuple(bras_of(np.stack(bases)) for bases in zip(*combos))
        elif pool_kind == "extras":
            pool = pool_with_extras(shape, [[_random_basis(rng, d)] for d in shape])
        experiments = experiments_of(pool)
    with pool_replaced(pool):
        cls = classify_on_subset(psi, j, tol=tol)
    expected = oracle_classify(psi.amplitudes, dims, j, experiments, tol)
    assert (cls.kind.value, cls.confidence.value) == expected


GHZ_LIKE = ((2, 3, 2), "ghz", 0, (0, 2), "default", 1e-9)
PRODUCT = ((3, 2, 2, 3), "product", 0, (1, 2, 3), "default", 1e-9)
SPARSE_CALLER_POOL = ((2, 2, 2, 2), "sparse", 0, (0, 1), "caller", 1e-9)
GHZ_LIKE_EXTRAS = ((2, 3, 2), "ghz", 0, (0, 2), "extras", 1e-9)
# a qubit times a GHZ-like triple: CLEARLY_SEPARABLE_ONLY (POOL_LIMITED)
BLOCKS_CLEARLY_SEPARABLE = ((2, 2, 2, 2), "blocks", 20, (0, 1, 2), "default", 1e-9)
# WELL_ENTANGLED_ONLY (POOL_LIMITED): only some experiments mix verdicts
SPARSE_WELL_ENTANGLED = ((2, 2, 2), "sparse", 0, (0, 1), "default", 1e-9)
# every X x X outcome has norm 1/2 and every generic one at most 0.52 <= tol: the
# chunk holding those two experiments has no possible outcome
GHZ4_EMPTY_CHUNK = ((2, 2, 2, 2), "ghz", 6, (0, 1), "default", 0.55)


@settings(max_examples=80)
@given(oracle_cases())
@example(GHZ_LIKE)
@example(PRODUCT)
@example(SPARSE_CALLER_POOL)
@example(BLOCKS_CLEARLY_SEPARABLE)
def test_classify_matches_oracle(case):
    _check_against_oracle(case)


@settings(max_examples=25)
@given(oracle_cases())
@example(GHZ_LIKE_EXTRAS)
@example(SPARSE_WELL_ENTANGLED)
@example(GHZ4_EMPTY_CHUNK)
def test_classify_matches_oracle_across_chunks(case):
    # three experiments per chunk, so pools of four or more span several chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disentangle, "_CHUNK", 3 * math.prod(case[0]))
        _check_against_oracle(case)


def test_oracle_examples_hit_impossible_outcomes_and_certified_path():
    dims, kind, seed, j = GHZ_LIKE[:4]
    ghz = PureState(dims, _oracle_state(kind, dims, np.random.default_rng(seed)))
    z_on_qutrit = experiments_of(disentangle._pool((3,)))[0]
    assert len(residual_states(ghz, j, z_on_qutrit)) == 2  # outcome 2 is impossible
    dims, kind, seed, j = PRODUCT[:4]
    product = PureState(dims, _oracle_state(kind, dims, np.random.default_rng(seed)))
    assert classify_on_subset(product, j).confidence is Confidence.CERTIFIED


def test_classify_conjugates_the_measured_basis():
    # Measuring site 3 along v leaves conj(v0) I + conj(v1) diag(-2i, -3) on
    # sites 1, 2: a product exactly when conj(v) ~ (2i, 1) or (3, 1).  The
    # tilted basis holds v = (-2i, 1)/sqrt(5); its conjugate holds no such v.
    tensor = np.zeros((2, 2, 2), dtype=complex)
    tensor[:, :, 0] = np.eye(2)
    tensor[:, :, 1] = np.diag([-2j, -3])
    psi = PureState((2, 2, 2), tensor.reshape(-1))
    tilted = np.array([[-2j, 1], [1, -2j]]) / math.sqrt(5.0)
    experiments = [np.eye(2), tilted]
    with pool_replaced([bras_of(np.stack(experiments))]):
        cls = classify_on_subset(psi, (0, 1))
    assert cls.kind is IntricationClass.WELL_ENTANGLED_ONLY
    expected = oracle_classify(psi.amplitudes, (2, 2, 2), (0, 1), [[b] for b in experiments])
    assert (cls.kind.value, cls.confidence.value) == expected


def moved_state(psi, perm):
    """The state whose site i is site perm[i] of psi."""
    dims = psi.dims
    amplitudes = np.transpose(psi.amplitudes.reshape(dims), perm).reshape(-1)
    return PureState([dims[p] for p in perm], amplitudes)


# States for the site-permutation property: builtins, Haar states on three
# and four sites, and products with a Bell pair, with a Haar pair or of three
# Haar sites.
_PERMUTED = {
    "GHZ": lambda rng: builtin_state("GHZ"),
    "O2": lambda rng: builtin_state("O2"),
    "K": lambda rng: builtin_state("K"),
    "Haar 2x2x2": lambda rng: random_pure(rng, (2, 2, 2)),
    "Haar 2x2x2x2": lambda rng: random_pure(rng, (2, 2, 2, 2)),
    "Haar 2x3x2": lambda rng: random_pure(rng, (2, 3, 2)),
    "Bell (x) Haar 2x2": lambda rng: tensor_state(builtin_state("EPR"), random_pure(rng, (2, 2))),
    "Haar 2x3 (x) qubit": lambda rng: tensor_state(random_pure(rng, (2, 3)),
                                                   random_pure(rng, (2,))),
    "product": lambda rng: tensor_state(
        tensor_state(random_pure(rng, (2,)), random_pure(rng, (3,))), random_pure(rng, (2,))
    ),
}


@settings(max_examples=150)
@given(st.sampled_from(sorted(_PERMUTED)), st.integers(0, 2**32 - 1), st.data())
def test_site_permutation_permutes_every_class_and_structure(name, seed, data):
    # site i of the moved state is site perm[i] of psi: the class of a subset
    # of the moved sites is psi's class of its image, and every structure's
    # masks move with it
    psi = _PERMUTED[name](np.random.default_rng(seed))
    perm = data.draw(st.permutations(range(len(psi.dims))))
    before = disentanglement_structures(psi)
    after = disentanglement_structures(moved_state(psi, perm))
    assert len(after.classes) == len(before.classes)
    for labels, cls in after.classes.items():
        assert cls == before.classes[tuple(sorted(perm[s - 1] + 1 for s in labels))], labels
    for kind, moved in after.structures.items():
        image = {sum(1 << p for i, p in enumerate(perm) if m >> i & 1) for m in moved.connected}
        assert image == before.structures[kind].connected, kind
    assert after.omega_c == before.omega_c
