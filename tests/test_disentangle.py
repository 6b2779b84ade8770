"""Measurement-pool classification and the six disentanglement structures."""

import math

import numpy as np
import pytest

from conexa.disentangle import (
    Confidence,
    DeterminantExperiment,
    IntricationClass,
    MeasurementPool,
    PoolConfig,
    build_pool,
    classify_on_subset,
    disentanglement_structures,
    post_states,
)
from conexa.errors import DomainError
from conexa.quantum import PureState, SiteLayout, basis_state, builtin_state, tensor_state

from helpers import borromean, power_set, random_state_vector

CFG = PoolConfig(n_random=20, seed=7)
STRUCTURED_ONLY = PoolConfig(n_random=0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_pure(rng, dims):
    layout = SiteLayout(dims)
    return PureState(layout, random_state_vector(rng, layout.total_dim))


def test_pool_on_empty_site_set_is_identity():
    ghz = builtin_state("GHZ")
    pool = build_pool(ghz.layout, (), STRUCTURED_ONLY)
    assert len(pool.experiments) == 1
    assert post_states(ghz, (0, 1, 2), pool.experiments[0]) == [ghz]


def test_pool_structured_sizes():
    layout = SiteLayout((2, 2, 2))
    assert len(build_pool(layout, (0,), STRUCTURED_ONLY).experiments) == 2
    assert len(build_pool(layout, (0, 1), STRUCTURED_ONLY).experiments) == 4


def test_pool_requires_seed_for_random_bases():
    with pytest.raises(DomainError):
        PoolConfig(n_random=5, seed=None)


def test_pool_deterministic_per_seed():
    layout = SiteLayout((2, 2))
    a = build_pool(layout, (0,), PoolConfig(n_random=3, seed=42))
    b = build_pool(layout, (0,), PoolConfig(n_random=3, seed=42))
    assert a.experiments == b.experiments
    c = build_pool(layout, (0,), PoolConfig(n_random=3, seed=43))
    assert a.experiments != c.experiments


def test_fourier_basis_used_for_qutrits():
    layout = SiteLayout((3, 3))
    pool = build_pool(layout, (0,), STRUCTURED_ONLY)
    assert len(pool.experiments) == 2
    for e in pool.experiments:
        assert e.bases[0].shape == (3, 3)


def test_post_states_ghz_z_experiment():
    ghz = builtin_state("GHZ")
    z_basis = DeterminantExperiment((0,), [np.eye(2)])
    states = post_states(ghz, (1, 2), z_basis)
    assert len(states) == 2
    expected = {basis_state((2, 2), (0, 0)), basis_state((2, 2), (1, 1))}
    for s in states:
        assert any(s.equals_up_to_phase(e) for e in expected)


def test_post_states_ghz_x_experiment_all_entangled():
    ghz = builtin_state("GHZ")
    h = np.array([[1, 1], [1, -1]]) * INV_SQRT2
    states = post_states(ghz, (1, 2), DeterminantExperiment((0,), [h]))
    epr_plus = builtin_state("EPR")
    epr_minus = PureState(SiteLayout((2, 2)), [1, 0, 0, -1])
    assert len(states) == 2
    for s in states:
        assert s.equals_up_to_phase(epr_plus) or s.equals_up_to_phase(epr_minus)


def test_post_states_of_product_factorize():
    rng = np.random.default_rng(3)
    psi_j = random_pure(rng, (2, 2))
    psi_rest = random_pure(rng, (2,))
    # joint layout: J = sites (0, 1), measured site = 2
    joint = tensor_state(psi_j, psi_rest)
    pool = build_pool(joint.layout, (2,), PoolConfig(n_random=4, seed=9))
    for e in pool.experiments:
        states = post_states(joint, (0, 1), e)
        assert len(states) == 1
        assert states[0].equals_up_to_phase(psi_j)


def test_classify_ghz_full_set_certified():
    cls = classify_on_subset(builtin_state("GHZ"), (0, 1, 2), CFG)
    assert cls.kind is IntricationClass.GLOBALLY_ENTANGLED
    assert cls.confidence is Confidence.CERTIFIED


def test_classify_ghz_pair_well_entangled_and_separable():
    cls = classify_on_subset(builtin_state("GHZ"), (1, 2), CFG)
    assert cls.kind is IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    assert cls.confidence is Confidence.POOL_LIMITED


def test_classify_product_state_totally_separated():
    zero3 = basis_state((2, 2, 2), (0, 0, 0))
    for j in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        cls = classify_on_subset(zero3, j, CFG)
        assert cls.kind is IntricationClass.TOTALLY_SEPARATED
        assert cls.confidence is Confidence.CERTIFIED


def test_classify_epr_times_qubit_certified_entangled():
    rng = np.random.default_rng(4)
    joint = tensor_state(builtin_state("EPR"), random_pure(rng, (2,)))
    cls = classify_on_subset(joint, (0, 1), CFG)
    assert cls.kind is IntricationClass.GLOBALLY_ENTANGLED
    assert cls.confidence is Confidence.CERTIFIED


def test_classify_depends_only_on_factor_for_products():
    rng = np.random.default_rng(5)
    psi_j = random_pure(rng, (2, 2))
    for tail_seed in (1, 2):
        tail = random_pure(np.random.default_rng(tail_seed), (2,))
        cls = classify_on_subset(tensor_state(psi_j, tail), (0, 1), CFG)
        assert cls.confidence is Confidence.CERTIFIED
        assert cls.kind is IntricationClass.GLOBALLY_ENTANGLED


def test_classify_rejects_small_subsets():
    with pytest.raises(DomainError):
        classify_on_subset(builtin_state("GHZ"), (0,), CFG)


def test_ghz_structures_pinned():
    rep = disentanglement_structures(builtin_state("GHZ"), CFG)
    assert rep.structures["GI"] == borromean(3)
    assert rep.structures["MT"] == borromean(3)
    for name in ("BIP", "IP", "ML", "NCS"):
        assert rep.structures[name] == power_set(3)
    assert rep.omega_c == 1


def test_epr_structures_all_coarse():
    rep = disentanglement_structures(builtin_state("EPR"), CFG)
    for name, s in rep.structures.items():
        assert s == power_set(2), name
    assert rep.omega_c == 1


def test_o2_subset_classes_and_structures():
    # The X-type experiment on site 1 sends sites {2,3} to the product |11>
    # with probability 9/26, so {2,3} cannot be globally entangled and the
    # global-entanglement structure collapses to the borromean one.
    o2 = builtin_state("O2")
    v = np.array([1.0, -1.0]) * INV_SQRT2
    from conexa.quantum import partial_contract

    hit = partial_contract(o2, {0: v})
    assert hit is not None
    assert abs(hit.probability - 9.0 / 26.0) < 1e-12
    assert hit.state.equals_up_to_phase(basis_state((2, 2), (1, 1)))

    rep = disentanglement_structures(o2, CFG)
    assert rep.classes[(2, 3)].kind is IntricationClass.WELL_ENTANGLED_ONLY
    assert rep.classes[(1, 2)].kind is IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    assert rep.classes[(1, 2, 3)].kind is IntricationClass.GLOBALLY_ENTANGLED
    assert rep.structures["GI"] == borromean(3)
    assert rep.structures["BIP"] == power_set(3)
    assert rep.omega_c == 1


def test_structure_inclusion_chains_random_states():
    rng = np.random.default_rng(21)
    cfg = PoolConfig(n_random=3, seed=77)
    for _ in range(50):
        psi = random_pure(rng, (2, 2, 2))
        rep = disentanglement_structures(psi, cfg)
        s = {name: st.connected for name, st in rep.structures.items()}
        assert s["GI"] <= s["BIP"] <= s["IP"]
        assert s["GI"] <= s["MT"] <= s["IP"]
        assert s["IP"] <= s["ML"] <= s["NCS"]


def test_classification_deterministic():
    psi = builtin_state("O2")
    a = disentanglement_structures(psi, CFG)
    b = disentanglement_structures(psi, CFG)
    assert a.classes == b.classes
    assert a.structures == b.structures


def test_pool_monotonicity_verdict_movement():
    # enlarging the pool can break a homogeneous verdict but never create one
    mixed_family = IntricationClass.TOTALLY_MIXED, IntricationClass.WELL_ENTANGLED_ONLY, \
        IntricationClass.WELL_SEPARABLE_ONLY, IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    rng = np.random.default_rng(22)
    small = PoolConfig(n_random=0)
    large = PoolConfig(n_random=10, seed=5)
    for _ in range(20):
        psi = random_pure(rng, (2, 2, 2))
        for j in ((0, 1), (0, 2), (1, 2)):
            c_small = classify_on_subset(psi, j, small).kind
            c_large = classify_on_subset(psi, j, large).kind
            if c_small in mixed_family:
                assert c_large in mixed_family
            if c_large is IntricationClass.GLOBALLY_ENTANGLED:
                assert c_small is IntricationClass.GLOBALLY_ENTANGLED


def test_pool_mismatched_experiments_rejected():
    layout = SiteLayout((2, 2))
    e0 = DeterminantExperiment((0,), [np.eye(2)])
    e1 = DeterminantExperiment((1,), [np.eye(2)])
    with pytest.raises(DomainError):
        MeasurementPool((0,), [e0, e1])
    with pytest.raises(DomainError):
        MeasurementPool((0,), [])


def test_experiment_requires_orthonormal_basis():
    with pytest.raises(DomainError):
        DeterminantExperiment((0,), [np.array([[1, 1], [0, 0]])])


def test_extra_bases_enter_the_pool():
    layout = SiteLayout((2, 2))
    tilted = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    cfg = PoolConfig(n_random=0, extra_bases={0: [tilted]})
    pool = build_pool(layout, (0,), cfg)
    assert len(pool.experiments) == 3
