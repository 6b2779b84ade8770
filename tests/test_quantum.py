"""Quantum kernel: tensor products, Schmidt data, measurement, reductions, PPT."""

import functools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conexa import quantum
from conexa.connective import _bipartitions
from conexa.devices import derive_device
from conexa.errors import DomainError
from conexa.quantum import (
    DEFAULT_TOL,
    DensityOperator,
    _BLOCK,
    _block_npt,
    _cut_plan,
    _eigensystem,
    _frobenius,
    _min_eig_below,
    _residuals,
    _separable_cuts,
    _transposed,
    PureState,
    builtin_state,
    partial_trace,
    pauli_x,
    pauli_z,
    ppt_entangled,
    purity,
)

from helpers import (
    basis_state,
    haar_unitary,
    horodecki_2x4,
    matricize,
    measured_first,
    oracle_cut_plan,
    oracle_device_relation,
    oracle_measure,
    oracle_partial_trace,
    oracle_partial_transpose,
    random_density_matrix,
    random_state_vector,
    same_up_to_phase,
    tensor_state,
    tiles_upb,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qubit(a, b) -> PureState:
    return PureState((2,), [a, b])


def random_pure(rng, dims) -> PureState:
    return PureState(dims, random_state_vector(rng, math.prod(dims)))


# the Peres-Horodecki verdicts on one cut
SEPARABLE, ENTANGLED, PPT_INCONCLUSIVE = "SEPARABLE", "ENTANGLED", "PPT_INCONCLUSIVE"


def ppt(rho, a, b, tol=DEFAULT_TOL) -> str:
    """The verdict on the cut a|b of rho from the two rules that `ppt_entangled`
    applies to each cut: the eigenvalue test and the dimension rule."""
    da, db = (math.prod(rho.dims[s] for s in side) for side in (a, b))
    if min(da, db) == 1:
        return SEPARABLE
    tens = rho.matrix.reshape(rho.dims * 2)
    if _min_eig_below(_transposed(tens, b), -tol, _frobenius(rho.matrix)):
        return ENTANGLED
    return SEPARABLE if {da, db} in ({2}, {2, 3}) else PPT_INCONCLUSIVE


def ppt_answer(verdicts) -> tuple:
    """The (entangled, exact) pair of `ppt_entangled` for one operator's
    per-cut verdicts, in any order."""
    if PPT_INCONCLUSIVE in verdicts:
        return False, False
    return all(v == ENTANGLED for v in verdicts), True


def stacked_answers(operators, tol=DEFAULT_TOL) -> list:
    """`ppt_entangled`'s (entangled, exact) per operator, as Python bools."""
    return list(zip(*(a.tolist() for a in ppt_entangled(operators, tol))))


def schmidt(psi, part) -> np.ndarray:
    return np.linalg.svd(matricize(psi, tuple(part)), compute_uv=False)


def separable(psi, a, b, tol=1e-9) -> bool:
    cut = _bipartitions(len(psi.dims)).index((tuple(a), tuple(b)))
    return bool(_separable_cuts(psi.amplitudes, psi.dims, tol)[0, cut])


def contract(psi, site_vectors):
    """(residual state, probability) of projecting each site onto its vector."""
    sites = tuple(site_vectors)
    bras = [np.conj(site_vectors[s]).reshape(1, 1, -1) for s in sites]
    residuals, norms = _residuals(measured_first(psi, sites), bras)
    rest = [d for s, d in enumerate(psi.dims) if s not in sites]
    return PureState(rest, residuals[0, 0]), float(norms[0, 0]) ** 2


def measure(psi, observables, tol=1e-9) -> list:
    """(eigenvalues, probability, residual) of each possible joint outcome of
    the (site, matrix) observables, as `derive_device` measures them."""
    systems = [_eigensystem(m, DEFAULT_TOL) for _, m in observables]
    sites = tuple(site for site, _ in observables)
    bras = [vecs.conj().T[None] for _, vecs in systems]
    residuals, norms = _residuals(measured_first(psi, sites), bras)
    out = []
    for o in np.flatnonzero(norms[0] > tol):
        idx = np.unravel_index(o, [len(vals) for vals, _ in systems])
        values = tuple(float(vals[i]) for (vals, _), i in zip(systems, idx))
        out.append((values, float(norms[0, o]) ** 2, residuals[0, o] / norms[0, o]))
    return out


def test_tensor_of_basis_states():
    s = tensor_state(qubit(1, 0), qubit(1, 0))
    assert np.allclose(s.amplitudes, [1, 0, 0, 0])


def test_tensor_is_bilinear_on_plus_zero():
    s = tensor_state(qubit(1, 1), qubit(1, 0))
    assert np.allclose(s.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])


def test_epr_is_not_a_tensor_product():
    # rank-2 Schmidt spectrum certifies EPR is outside the image of tensor_state
    epr = builtin_state("EPR")
    coeffs = schmidt(epr, [0])
    assert np.allclose(coeffs, [INV_SQRT2, INV_SQRT2])
    rng = np.random.default_rng(5)
    for _ in range(25):
        product = tensor_state(random_pure(rng, (2,)), random_pure(rng, (2,)))
        assert abs(np.vdot(product.amplitudes, epr.amplitudes)) < 1 - 1e-6


def test_schmidt_of_product_state():
    coeffs = schmidt(basis_state((2, 2), (0, 0)), [0])
    assert np.allclose(coeffs, [1, 0])


def test_schmidt_of_ghz_matches_svd_oracle():
    ghz = builtin_state("GHZ")
    mat = ghz.amplitudes.reshape(2, 4)
    expected = np.linalg.svd(mat, compute_uv=False)
    assert np.array_equal(matricize(ghz, (0,)), mat)
    assert np.allclose(schmidt(ghz, [0]), expected)
    assert np.allclose(expected, [INV_SQRT2, INV_SQRT2])


def test_schmidt_squares_sum_to_one_and_swap_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_pure(rng, (2, 3, 2))
        for part in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            comp = [s for s in range(3) if s not in part]
            a = schmidt(psi, part)
            b = schmidt(psi, comp)
            assert abs(float(np.sum(a**2)) - 1.0) < 1e-9
            assert np.allclose(sorted(a[a > 1e-12]), sorted(b[b > 1e-12]))


def test_separability_examples():
    epr = builtin_state("EPR")
    assert not separable(epr, [0], [1])
    assert separable(basis_state((2, 2), (0, 0)), [0], [1])
    assert not separable(builtin_state("GHZ"), [0], [1, 2])


# Second Schmidt coefficients planted by `_planted_cut`: a Haar matrix, an
# exact product (on a random or a basis row), and near-threshold values
# around tol, where the closed form hands over to the SVD.  A tol near 1/2
# puts sigma_1 close to sigma_2, where the closed form's bracket is widest.
_NEAR = [1 / math.sqrt(2), 1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6, 1.0]
_CUT_KINDS = ["haar", "product", "basis product", *(f"near {k}" for k in range(len(_NEAR)))]


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def _planted_cut(rng, kind, m, tol, r=2):
    """An r x m matrix (r <= m) of the given kind, of unit norm except for a
    near kind with r > 2: that one has the singular values sqrt(1 - s^2), s
    and r - 2 more up to s, with s its planted second coefficient."""
    if kind == "haar":
        mat = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
        return mat / np.linalg.norm(mat)
    if kind.endswith("product"):
        row = np.eye(r)[rng.integers(r)] if kind == "basis product" else _unitary(rng, r)[:, 0]
        return np.outer(row, _unitary(rng, m)[0])
    second = tol * _NEAR[int(kind.split()[1])]
    tail = second * rng.uniform(size=r - 2) if r > 2 else []
    values = np.array([math.sqrt(1 - second**2), second, *tail])
    return (_unitary(rng, r) * values) @ _unitary(rng, m)[:r].conj()


def _check_cuts_against_svd(kinds, r, m, tall, tol, seed):
    """`_separable_cuts` on planted r x m matrices (m x r when tall), on the
    one cut of a two-site layout, against `np.linalg.svd`."""
    rng = np.random.default_rng(seed)
    mats = np.stack([_planted_cut(rng, kind, m, tol, r) for kind in kinds])
    if tall:
        mats = mats.transpose(0, 2, 1).copy()
    want = np.linalg.svd(mats, compute_uv=False)[:, 1] <= tol
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as spy:
        got = _separable_cuts(mats.reshape(len(kinds), -1), mats.shape[1:], tol)
    assert got[:, 0].tolist() == want.tolist()
    # LAPACK runs only on the matrices in the rounding band around tol, and
    # on them as given, not transposed; the band holds only second
    # coefficients within a factor sqrt(r) + sqrt(r - 1) of tol
    if tol < 1e-6 and all(not kind.startswith("near") for kind in kinds):
        assert spy.call_count == 0
    spread = math.sqrt(r) + math.sqrt(r - 1)
    for call in spy.call_args_list:
        assert call.args[0].shape[1:] == mats.shape[1:]
        second = np.linalg.svd(call.args[0], compute_uv=False)[:, 1]
        assert (tol / spread - 1e-10 <= second).all() and (second <= spread * tol + 1e-10).all()


@settings(max_examples=150)
@given(kinds=st.lists(st.sampled_from(_CUT_KINDS), min_size=1, max_size=6),
       m=st.integers(2, 64), tall=st.booleans(), tol=st.sampled_from([1e-9, 0.3, 0.6]),
       seed=st.integers(0, 2**32 - 1))
@example(kinds=["near 5"] * 4, m=3, tall=True, tol=1e-9, seed=0)
def test_two_row_cuts_agree_with_svd(kinds, m, tall, tol, seed):
    _check_cuts_against_svd(kinds, 2, m, tall, tol, seed)


@settings(max_examples=150)
@given(kinds=st.lists(st.sampled_from(_CUT_KINDS), min_size=1, max_size=6),
       r=st.integers(3, 8), extra=st.integers(0, 40), tall=st.booleans(),
       tol=st.sampled_from([1e-9, 0.3, 0.6]), seed=st.integers(0, 2**32 - 1))
@example(kinds=["near 5"] * 4, r=3, extra=0, tall=False, tol=1e-9, seed=0)
@example(kinds=["near 0", "haar", "product"], r=8, extra=0, tall=True, tol=0.6, seed=0)
def test_every_shorter_side_agrees_with_svd(kinds, r, extra, tall, tol, seed):
    _check_cuts_against_svd(kinds, r, r + extra, tall, tol, seed)


@settings(max_examples=40)
@given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=4).map(tuple),
       seed=st.integers(0, 2**32 - 1))
def test_every_cut_agrees_with_svd(dims, seed):
    # random states and products of two random factors, over every cut, with
    # every group of cuts in one stack and with one cut per stack
    rng = np.random.default_rng(seed)
    split = int(rng.integers(1, len(dims)))
    states = [random_pure(rng, dims), tensor_state(random_pure(rng, dims[:split]),
                                                   random_pure(rng, dims[split:]))]
    amplitudes = np.stack([psi.amplitudes for psi in states])
    got = _separable_cuts(amplitudes, dims, 1e-9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "_CHUNK", 1)
        assert np.array_equal(_separable_cuts(amplitudes, dims, 1e-9), got)
    for c, (a, b) in enumerate(_bipartitions(len(dims))):
        for i, psi in enumerate(states):
            coeffs = np.linalg.svd(psi.tensor.transpose(a + b).reshape(
                math.prod(dims[p] for p in a), -1), compute_uv=False)
            assert got[i, c] == (len(coeffs) < 2 or coeffs[1] <= 1e-9)


@settings(max_examples=200)
@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=7).map(tuple))
@example(dims=(2, 9, 1))  # T holds no site of dimension >= 2
def test_cut_plan_matches_a_per_cut_recomputation(dims):
    sides, groups, (lead, stacks, cover, loose) = _cut_plan(dims)
    runs, want = oracle_cut_plan(dims)
    assert sides == tuple(side for side, _, _ in want)
    # every cut with both sides above 1 sits in exactly one group, keyed by
    # its least side, and no other cut sits in any
    placed = [(c, (r, positions, flipped))
              for r, group in groups.items() for c, positions, flipped in group]
    assert sorted(placed) == [(c, g) for c, (_, g, _) in enumerate(want) if g is not None]
    # the principal blocks: one per run (T, then L) and distinct inner
    # position set on it, first seen first in cut order, numbered through
    # one stack per block size, ascending; each cut has one block per run
    # its b splits
    blocks = list(dict.fromkeys((r, inner) for _, _, inners in want
                                for r, inner in enumerate(inners) if inner is not None))
    size = [math.prod(dims[start:stop]) for start, stop in runs]
    sizes = sorted({size[r] for r, _ in blocks})
    blocks = [block for m in sizes for block in blocks if size[block[0]] == m]
    assert cover.shape == (len(blocks), len(want)) and cover.dtype == np.float64
    assert set(cover.ravel().tolist()) <= {0.0, 1.0}
    assert [np.flatnonzero(column).tolist() for column in cover.T] == [
        sorted(blocks.index((r, inner)) for r, inner in enumerate(inners) if inner is not None)
        for _, _, inners in want]
    assert lead == runs[0][0]
    # block i gathers rho's corner over its run, the entries whose indices
    # outside the run are all 0, transposed on inners[i], as flat indices
    # into rho's n x n matrix
    n = math.prod(dims)
    assert [entries.shape for entries in stacks] == [
        (sum(size[r] == m for r, _ in blocks), m, m) for m in sizes]
    assert all(entries.dtype == np.intp for entries in stacks)
    flat = np.arange(n * n).reshape(dims * 2)
    for (r, inner), gathered in zip(blocks, [g for entries in stacks for g in entries]):
        start, stop = runs[r]
        corner = flat[tuple(slice(None) if start <= s < stop else 0
                            for s in range(len(dims))) * 2].reshape(size[r], size[r])
        assert np.array_equal(gathered, oracle_partial_transpose(corner, dims[start:stop], inner))
    # PPT proves nothing on a cut whose sides are both above 1 and not 2x2 or 2x3
    assert loose.tolist() == [g is not None and set(side) not in ({2}, {2, 3})
                              for side, g, _ in want]


@pytest.mark.parametrize("k, blockless", [(4, 0), (5, 0), (6, 1), (7, 3)])
def test_qubit_cuts_without_a_block_leave_both_runs_one_sided(k, blockless):
    # on k qubits T holds the last three sites and L the first three, which
    # overlap on 4 and 5 qubits; a grouped cut has no block exactly when its
    # b holds all or none of T and all or none of L, and {1}|{2,...,k},
    # which holds all of T, has L's block
    _, _, (lead, _, cover, _) = _cut_plan((2,) * k)
    assert lead == k - 3
    runs = [set(range(k - 3, k)), set(range(3))]
    none = [all(run <= set(b) or not run & set(b) for run in runs)
            for _, b in _bipartitions(k)]
    assert (cover.sum(axis=0) == 0).tolist() == none
    assert sum(none) == blockless
    assert _bipartitions(k)[0] == ((0,), tuple(range(1, k))) and cover[:, 0].sum() == 1


def test_tensor_then_separable_on_build_seam():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_pure(rng, (2, 2))
        b = random_pure(rng, (2,))
        joined = tensor_state(a, b)
        assert separable(joined, [0, 1], [2])


def test_residuals_ghz_z_outcome():
    ghz = builtin_state("GHZ")
    state, probability = contract(ghz, {0: np.array([1.0, 0.0])})
    assert abs(probability - 0.5) < 1e-12
    assert same_up_to_phase(state, basis_state((2, 2), (0, 0)))


def test_residuals_ghz_x_outcome_is_epr():
    ghz = builtin_state("GHZ")
    plus = np.array([1.0, 1.0]) * INV_SQRT2
    state, probability = contract(ghz, {0: plus})
    assert abs(probability - 0.5) < 1e-12
    assert same_up_to_phase(state, builtin_state("EPR"))


def test_residuals_impossible_outcome_is_zero():
    # an outcome that cannot occur has a zero residual and a zero norm
    s01 = basis_state((2, 2), (0, 1))
    residuals, norms = _residuals(s01.tensor, [np.array([0.0, 1.0]).reshape(1, 1, 2)])
    assert norms.tolist() == [[0.0]]
    assert not residuals.any()


def test_residuals_are_the_raw_contraction():
    # each residual is the direct contraction of the measured axes against
    # one product of bras, not divided by its norm, and `norms` are its norms
    rng = np.random.default_rng(49)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(30):
        k = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.choice((2, 3), size=k))
        measured = int(rng.integers(1, k + 1))
        n = int(rng.integers(1, 4))
        tensor = PureState(dims, random_state_vector(rng, math.prod(dims))).tensor
        bras = [gaussian(n, int(rng.integers(1, d + 1)), d) for d in dims[:measured]]
        axes, outcomes = "abcd"[:k], "ABCD"[:measured]
        spec = ",".join(f"n{o}{a}" for o, a in zip(outcomes, axes))
        spec += f",{axes}->n{outcomes}{axes[measured:]}"
        want = np.einsum(spec, *bras, tensor).reshape(n, -1, math.prod(dims[measured:]))
        residuals, norms = _residuals(tensor, bras)
        assert residuals.shape == want.shape
        np.testing.assert_allclose(residuals, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(norms, np.linalg.norm(residuals, axis=-1), rtol=1e-12)


def test_measure_z_on_eigenstate():
    outcomes = measure(qubit(1, 0), [(0, pauli_z())])
    assert len(outcomes) == 1
    values, probability, _ = outcomes[0]
    assert values == (1.0,)
    assert abs(probability - 1.0) < 1e-12


def test_measure_z_on_epr_site():
    epr = builtin_state("EPR")
    by_value = {values[0]: (p, residual) for values, p, residual in measure(epr, [(0, pauli_z())])}
    assert set(by_value) == {1.0, -1.0}
    assert abs(by_value[1.0][0] - 0.5) < 1e-12
    # the residual on site 1 is |0> after +1 and |1> after -1
    assert abs(np.vdot(by_value[1.0][1], [1, 0])) > 1 - 1e-12
    assert abs(np.vdot(by_value[-1.0][1], [0, 1])) > 1 - 1e-12


def test_measure_zzz_on_ghz():
    ghz = builtin_state("GHZ")
    outcomes = measure(ghz, [(s, pauli_z()) for s in range(3)])
    assert [values for values, _, _ in outcomes] == [(-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)]
    for _, probability, residual in outcomes:
        assert abs(probability - 0.5) < 1e-12
        # no site is left: the residual is a phase
        assert residual.shape == (1,) and abs(abs(residual[0]) - 1.0) < 1e-12


def test_measurement_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(100):
        psi = random_pure(rng, (2, 2, 2))
        total = sum(p for _, p, _ in measure(psi, [(0, pauli_z()), (2, pauli_x())]))
        assert abs(total - 1.0) < 1e-9


def test_observable_rejects_non_hermitian():
    with pytest.raises(DomainError):
        _eigensystem([[0, 1], [0, 0]], DEFAULT_TOL)


def test_nondegenerate_flag_rejects_identity():
    with pytest.raises(DomainError):
        _eigensystem(np.eye(2), DEFAULT_TOL)


@pytest.mark.parametrize("psi, matrix", [
    (builtin_state("EPR"), np.eye(2)),
    (basis_state((3,), (2,)), np.diag([0.0, 0.0, 1.0])),
])
def test_measure_rejects_degenerate_observable(psi, matrix):
    # the kernel measures rank-1 projectors only, so a repeated eigenvalue
    # would split one outcome into several with equal values
    with pytest.raises(DomainError, match="repeated eigenvalues"):
        derive_device(psi, [[("*", matrix)]] * len(psi.dims))


def test_residuals_agree_with_measurement():
    # contracting against one product of basis vectors reproduces the
    # probability and the post-state of that outcome of the projector oracle
    rng = np.random.default_rng(10)
    x_vecs = {-1.0: np.array([1.0, -1.0]) * INV_SQRT2, 1.0: np.array([1.0, 1.0]) * INV_SQRT2}
    z_vecs = {1.0: np.array([1.0, 0.0]), -1.0: np.array([0.0, 1.0])}
    for _ in range(10):
        psi = random_pure(rng, (2, 2, 2))
        outcomes = oracle_measure(psi.amplitudes, (2, 2, 2), [(0, pauli_x()), (1, pauli_z())])
        assert len(outcomes) == 4
        for _, (x, z), probability, post in outcomes:
            state, p = contract(psi, {0: x_vecs[x], 1: z_vecs[z]})
            assert abs(p - probability) < 1e-9
            full = np.kron(np.kron(x_vecs[x], z_vecs[z]), state.amplitudes)
            assert abs(np.vdot(full, post)) > 1 - 1e-9


@pytest.mark.parametrize("amplitude, possible", [(1e-6, True), (1e-10, False)])
def test_one_possibility_rule(amplitude, possible):
    # |11> has probability amplitude**2: possible iff its residual norm is > tol
    psi = PureState((2, 2), [1, 0, 0, amplitude])
    _, norms = _residuals(psi.tensor, [np.eye(2)[None]])
    assert (norms[0] > 1e-9).tolist() == [True, possible]
    values = [values for values, _, _ in measure(psi, [(0, pauli_z()), (1, pauli_z())])]
    assert values == ([(-1.0, -1.0), (1.0, 1.0)] if possible else [(1.0, 1.0)])
    device = derive_device(psi, [[("*", pauli_z())]] * 2)
    expected = {("1", "1"), ("-1", "-1")} if possible else {("1", "1")}
    assert device.relation[("*", "*")] == expected


def test_kernel_rejects_wrong_dimension():
    with pytest.raises(DomainError):
        derive_device(builtin_state("EPR"), [[("*", pauli_z())], [("*", np.diag([0.0, 1.0, 2.0]))]])


def _case_state(rng, dims, sparse):
    total = math.prod(dims)
    if not sparse:
        return random_state_vector(rng, total)
    vec = np.zeros(total, dtype=complex)
    support = rng.choice(total, size=min(total, int(rng.integers(1, 4))), replace=False)
    vec[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return vec


def _case_observable(rng, d, computational):
    """Nondegenerate, with distinct integer eigenvalues, so labels are exact."""
    eigenvalues = rng.choice(np.arange(-3, 4), size=d, replace=False).astype(float)
    basis = np.eye(d)
    if not computational:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis = np.linalg.qr(z)[0]
    return basis @ np.diag(eigenvalues) @ basis.conj().T


@st.composite
def measurement_cases(draw, min_sites, max_sites):
    """Dims in {2, 3}, a seed, sparse or random amplitudes, computational or Haar bases."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=min_sites, max_size=max_sites)))
    return dims, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.booleans())


@settings(max_examples=60)
@given(measurement_cases(1, 4), st.data())
def test_residuals_match_projector_oracle(case, data):
    # the kernel's norms squared are the outcome probabilities, and each
    # eigenvector product times the residual is the post-state up to phase
    dims, seed, sparse, computational = case
    rng = np.random.default_rng(seed)
    psi = PureState(dims, _case_state(rng, dims, sparse))
    order = data.draw(st.permutations(range(len(dims))))
    sites = tuple(order[: data.draw(st.integers(1, len(dims)))])
    observables = [(s, _case_observable(rng, dims[s], computational)) for s in sites]
    systems = [_eigensystem(m, DEFAULT_TOL) for _, m in observables]
    bras = [vecs.conj().T[None] for _, vecs in systems]
    residuals, norms = _residuals(measured_first(psi, sites), bras)
    rest = tuple(s for s in range(len(dims)) if s not in sites)
    possible = np.flatnonzero(norms[0] > 1e-9)
    want = oracle_measure(psi.amplitudes, dims, observables)
    assert len(possible) == len(want)
    for o, (idx, values, prob, post) in zip(possible, want):
        assert np.unravel_index(o, [dims[s] for s in sites]) == idx
        assert tuple(float(vals[i]) for (vals, _), i in zip(systems, idx)) == pytest.approx(
            values, abs=1e-12)
        assert abs(norms[0, o] ** 2 - prob) < 1e-9
        factors = [vecs[:, i] for (_, vecs), i in zip(systems, idx)]
        factors.append((residuals[0, o] / norms[0, o]).reshape([dims[s] for s in rest]))
        full = np.transpose(functools.reduce(np.multiply.outer, factors), np.argsort(sites + rest))
        assert abs(np.vdot(full.reshape(-1), post)) > 1 - 1e-9


@settings(max_examples=40)
@given(measurement_cases(2, 3), st.data())
def test_derive_device_matches_projector_oracle(case, data):
    dims, seed, sparse, computational = case
    rng = np.random.default_rng(seed)
    psi = PureState(dims, _case_state(rng, dims, sparse))
    menus = [
        [(label, _case_observable(rng, d, computational)) for label in "ab"[: rng.integers(1, 3)]]
        for d in dims
    ]
    relation = oracle_device_relation(psi.amplitudes, dims, menus)
    # ascending eigenvalues of each menu observable, and each site's sorted union
    spectra = [{label: np.round(np.linalg.eigvalsh(m)).astype(int) for label, m in menu} for menu in menus]
    union = [sorted(set().union(*map(set, site.values()))) for site in spectra]
    for recode in ("raw", "paper"):
        def name(site, value):
            return str(union[site].index(value)) if recode == "paper" else str(value)
        device = derive_device(psi, menus, recode=recode)
        assert device.results == tuple(tuple(name(s, v) for v in vals) for s, vals in enumerate(union))
        expected = {
            q: {tuple(name(s, spectra[s][q[s]][i]) for s, i in enumerate(idx)) for idx in answers}
            for q, answers in relation.items()
        }
        assert device.relation == expected


def test_partial_trace_of_epr_is_maximally_mixed():
    epr = builtin_state("EPR")
    reduced = partial_trace(epr.density(), [0])
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12


def test_partial_trace_needs_a_site_to_keep():
    with pytest.raises(DomainError, match="partial_trace needs a nonempty set of sites"):
        partial_trace(builtin_state("EPR").density(), [])


def test_partial_trace_of_product_returns_factor():
    rng = np.random.default_rng(11)
    a = random_pure(rng, (2,))
    b = random_pure(rng, (3,))
    joint = tensor_state(a, b).density()
    reduced = partial_trace(joint, [0])
    assert np.max(np.abs(reduced.matrix - a.density().matrix)) < 1e-12


def test_partial_trace_ghz_pair_matches_loop_oracle():
    ghz = builtin_state("GHZ")
    rho = ghz.density()
    expected = oracle_partial_trace(rho.matrix, (2, 2, 2), [0, 1])
    got = partial_trace(rho, [0, 1])
    assert np.max(np.abs(got.matrix - expected)) < 1e-12
    half = 0.5 * np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    assert np.max(np.abs(got.matrix - half)) < 1e-12


def test_partial_trace_properties_random_states():
    rng = np.random.default_rng(12)
    for _ in range(100):
        psi = random_pure(rng, (2, 2, 2))
        keep = [[0], [1], [2], [0, 1], [0, 2], [1, 2]][int(rng.integers(0, 6))]
        reduced = partial_trace(psi.density(), keep)
        assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-9
        assert float(np.linalg.eigvalsh(reduced.matrix)[0]) > -1e-9


def test_purity_examples():
    ghz = builtin_state("GHZ")
    assert abs(purity(ghz.density()) - 1.0) < 1e-9
    mixed = DensityOperator((2,), np.eye(2) / 2)
    assert abs(purity(mixed) - 0.5) < 1e-12
    reduced = partial_trace(ghz.density(), [0, 1])
    assert abs(purity(reduced) - 0.5) < 1e-9


def test_ppt_epr_entangled_with_eigenvalue_oracle():
    epr = builtin_state("EPR")
    rho = epr.density()
    pt = oracle_partial_transpose(rho.matrix, (2, 2), [1])
    assert abs(float(np.linalg.eigvalsh(pt)[0]) + 0.5) < 1e-12
    assert ppt(rho, [0], [1]) == ENTANGLED


def test_ppt_classical_mixture_separable():
    mats = np.zeros((4, 4), dtype=complex)
    mats[0, 0] = 0.5
    mats[3, 3] = 0.5
    rho = DensityOperator((2, 2), mats)
    assert ppt(rho, [0], [1]) == SEPARABLE


def test_ppt_product_state_separable():
    rng = np.random.default_rng(13)
    for _ in range(10):
        joint = tensor_state(random_pure(rng, (2,)), random_pure(rng, (2,)))
        assert ppt(joint.density(), [0], [1]) == SEPARABLE


def test_ppt_mixed_product_separable():
    rng = np.random.default_rng(15)
    factor = random_pure(rng, (2,)).density().matrix
    rho = DensityOperator((2, 2), np.kron(np.eye(2) / 2, factor))
    assert ppt(rho, [0], [1]) == SEPARABLE


def test_ppt_inconclusive_beyond_low_dimensions():
    rng = np.random.default_rng(14)
    a = random_pure(rng, (2, 2))
    b = random_pure(rng, (2, 2))
    joint = tensor_state(a, b).density()
    assert ppt(joint, [0, 1], [2, 3]) == PPT_INCONCLUSIVE
    # a 1 x 4 cut has a side of dimension 1: always a product
    epr = PureState((1, 2, 2), [1, 0, 0, 1]).density()
    assert ppt(epr, [0], [1, 2]) == SEPARABLE


def _planted(rng, n, lowest):
    """U diag(lambda) U^dagger with least eigenvalue `lowest` and the rest above it."""
    spectrum = np.concatenate([[lowest], lowest + rng.random(n - 1)])
    u = haar_unitary(rng, n)
    return (u * spectrum) @ u.conj().T


def _margin(mat, bound):
    """The rounding margin delta of `_min_eig_below`."""
    n = len(mat)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    return 4 * n * (n + 1) * eps * (np.linalg.norm(mat) + abs(bound)) + tiny


@pytest.mark.parametrize("k", [-5, -3, -1, -0.5, 0, 0.5, 1, 3, 5])
@settings(max_examples=25)
@given(n=st.integers(1, 40), bound=st.sampled_from([-1e-9, 0.0, -0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_min_eig_below_agrees_with_eigvalsh(k, n, bound, seed):
    rng = np.random.default_rng(seed)
    delta = _margin(_planted(rng, n, bound), bound)
    mat = _planted(np.random.default_rng(seed), n, bound + k * delta)
    want = float(np.linalg.eigvalsh(mat)[0]) < bound
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        got = _min_eig_below(mat, bound, np.linalg.norm(mat))
    assert got == want
    # eigvalsh decides only inside the +-2 delta band around the bound
    assert spy.call_count == 0 or abs(k) <= 2


def test_min_eig_below_leaves_its_input_unwritten():
    # the partial transpose is a view of rho.matrix
    rho = PureState((1, 2), [1, 0]).density()
    assert _min_eig_below(_transposed(rho.matrix.reshape(rho.dims * 2), [0]), 0.5, 1.0)
    assert np.array_equal(rho.matrix, [[1, 0], [0, 0]])


def test_density_negative_eigenvalue_check():
    DensityOperator((2,), np.diag([1 + 5e-10, -5e-10]))
    for mat in (np.diag([1 + 2e-9, -2e-9]), [[0.5, 1e200], [1e200, 0.5]]):
        # the second one's norm overflows, which leaves the decision to eigvalsh
        with pytest.raises(DomainError, match="negative eigenvalue"):
            DensityOperator((2,), mat)


def test_pure_state_density_is_the_outer_product_unchecked():
    # |psi><psi| of a unit vector is valid as computed, up to rounding the
    # input checks allow, so none of them runs on it
    psi = PureState((2, 3, 2), random_state_vector(np.random.default_rng(4), 12))
    with mock.patch.object(quantum, "_min_eig_below", wraps=_min_eig_below) as spy:
        rho = psi.density()
    assert spy.call_count == 0
    outer = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert rho.dims == psi.dims
    assert rho.matrix.dtype == outer.dtype and rho.matrix.tobytes() == outer.tobytes()
    assert not rho.matrix.flags.writeable
    assert DensityOperator(psi.dims, outer) == rho


@pytest.mark.parametrize("a", np.linspace(0.05, 0.95, 19))
def test_ppt_entangled_states_stay_inconclusive(a):
    # PPT but entangled: the partial transpose has no negative eigenvalue,
    # so neither ENTANGLED nor, beyond 2x3, SEPARABLE may be returned
    for dims, matrix in (((2, 4), horodecki_2x4(a)), ((3, 3), tiles_upb(a))):
        rho = DensityOperator(dims, matrix)
        assert ppt(rho, [0], [1]) == PPT_INCONCLUSIVE


def test_tiles_state_kernel_stays_inconclusive():
    # without noise the partial transpose equals the state and has a
    # five-dimensional kernel: its least eigenvalue rounds to about 0
    rho = DensityOperator((3, 3), tiles_upb(1.0))
    assert ppt(rho, [0], [1]) == PPT_INCONCLUSIVE


@pytest.mark.parametrize("p", [0, 0.1, 0.2, 0.3, 0.32, 0.35, 0.4, 0.6, 0.8, 1])
def test_werner_state_is_entangled_exactly_above_one_third(p):
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    werner = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    rho = DensityOperator((2, 2), werner)
    want = ENTANGLED if p > 1 / 3 else SEPARABLE
    assert ppt(rho, [0], [1]) == want
    assert ppt(rho, [1], [0]) == want


def _oracle_ppt(matrix, dims, a, b, tol):
    """The Peres-Horodecki verdict on the cut a|b from eigvalsh of the oracle
    partial transpose."""
    da = math.prod(dims[s] for s in a)
    db = math.prod(dims[s] for s in b)
    if min(da, db) == 1:
        return SEPARABLE
    if np.linalg.eigvalsh(oracle_partial_transpose(matrix, dims, b))[0] < -tol:
        return ENTANGLED
    return SEPARABLE if {da, db} in ({2}, {2, 3}) else PPT_INCONCLUSIVE


def _least_pt_eigenvalue_at(sigma, dims, b, target):
    """(1 - p) sigma + p I / n: white noise moves the least eigenvalue of the
    partial transpose over b from sigma's (below target) to target."""
    n = len(sigma)
    mu = np.linalg.eigvalsh(oracle_partial_transpose(sigma, dims, b))[0]
    p = (target - mu) / (1 / n - mu)
    assert 0 < p < 1
    return (1 - p) * sigma + p * np.eye(n) / n


def _maximally_correlated(dims):
    """sum_i |i ... i> / sqrt(m) on dims, m the least local dimension, as a projector."""
    m = min(dims)
    v = np.zeros(math.prod(dims))
    v[[np.ravel_multi_index([i] * len(dims), dims) for i in range(m)]] = 1 / math.sqrt(m)
    return np.outer(v, v).astype(complex)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("kind", ["werner", "rank1", "rank2"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)])
def test_ppt_verdicts_at_the_rounding_band(dims, kind, tol):
    # each cut's least partial-transpose eigenvalue is placed at -tol and at
    # -tol +- {1, 10} delta, with delta the band of rho's own norm: the
    # (entangled, exact) answer of `ppt_entangled`, and the rules it applies
    # to each cut, agree with eigvalsh of the oracle partial transpose
    rng = np.random.default_rng(sum(dims) * 10 + len(kind))
    sigma = (_maximally_correlated(dims) if kind == "werner"
             else random_density_matrix(rng, dims, int(kind[-1])))
    cuts = _bipartitions(len(dims))
    for a, b in cuts:
        if min(math.prod(dims[s] for s in side) for side in (a, b)) == 1:
            continue
        delta = _margin(_least_pt_eigenvalue_at(sigma, dims, b, -tol), -tol)
        for k in (-10, -1, 0, 1, 10):
            matrix = _least_pt_eigenvalue_at(sigma, dims, b, -tol + k * delta)
            least = np.linalg.eigvalsh(oracle_partial_transpose(matrix, dims, b))[0]
            assert abs(least - (-tol + k * delta)) < delta / 4
            rho = DensityOperator(dims, matrix)
            # the cuts that the pass reaches
            want = [_oracle_ppt(matrix, dims, *cut, tol) for cut in cuts]
            if PPT_INCONCLUSIVE in want:
                want = want[: want.index(PPT_INCONCLUSIVE) + 1]
            for cut in cuts:
                assert ppt(rho, *cut, tol=tol) == _oracle_ppt(matrix, dims, *cut, tol)
            with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy, \
                    mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol:
                assert stacked_answers([rho], tol) == [ppt_answer(want)]
            n = len(matrix)
            if n <= _BLOCK:
                # a small layout: one eigvalsh over the stacked partial
                # transposes of every cut decides each of them at any k,
                # and nothing is factorized
                (call,) = spy.call_args_list
                assert call.args[0].shape == (1, len(cuts), n, n)
                assert chol.call_count == 0
                continue
            # once the pass reaches the cut, eigvalsh decides it at the
            # bound; ten deltas out, the factorizations decide every cut.
            # Only calls on the whole matrix count: the stacked principal
            # blocks of the certificate are smaller
            full = sum(call.args[0].shape == (n, n) for call in spy.call_args_list)
            if k == 0 and cuts.index((a, b)) < len(want):
                assert full > 0
            assert full == 0 or abs(k) < 10


@st.composite
def qutrit_operators(draw):
    """(dims, matrix) with a 3 among the dims: a rank-1 or rank-2 operator on
    2-4 sites of total dimension <= 36, or the Horodecki 2x4 or tiles UPB
    state beside a random operator on one more site, the sites in drawn
    order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("rank", "horodecki", "upb")))
    if kind == "rank":
        dims = draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=4)
                    .filter(lambda d: 3 in d and math.prod(d) <= 36))
        return tuple(dims), random_density_matrix(rng, dims, draw(st.integers(1, 2)))
    weight = draw(st.floats(0.05, 0.95))
    if kind == "horodecki":
        dims, core = (2, 2, 2, 3), horodecki_2x4(weight)
    else:
        dims, core = (3, 3, draw(st.sampled_from((2, 3)))), tiles_upb(weight)
    matrix = np.kron(core, random_density_matrix(rng, dims[-1:], draw(st.integers(1, 2))))
    perm = draw(st.permutations(range(len(dims))))
    k, n = len(dims), len(matrix)
    moved = np.transpose(matrix.reshape(dims * 2), [*perm, *(k + p for p in perm)])
    return tuple(dims[p] for p in perm), moved.reshape(n, n)


@st.composite
def qubit_operators(draw):
    """(dims, matrix): a rank 1-3 operator on 4 or 5 qubits, where the
    leading and trailing runs of the principal blocks overlap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (2,) * draw(st.integers(4, 5))
    return dims, random_density_matrix(rng, dims, draw(st.integers(1, 3)))


def test_ppt_entangled_matches_the_oracle_with_block_certificates():
    # the pass answers as the eigvalsh oracle's verdicts do, and a principal
    # block certifies only cuts that the oracle calls ENTANGLED; on a layout
    # of dimension <= _BLOCK the blocks are the whole partial transposes and
    # certify exactly those cuts.  Among the draws, an L block certifies a
    # cut that has no T block on 4 and on 5 qubits, where L and T overlap,
    # and on a layout where L and T differ in size
    fired, leading = [], set()

    @settings(max_examples=90)
    @given(st.one_of(qutrit_operators(), qubit_operators()))
    def check(case):
        dims, matrix = case
        rho = DensityOperator(dims, matrix)
        cuts = _bipartitions(len(dims))
        want = [_oracle_ppt(matrix, dims, *cut, DEFAULT_TOL) for cut in cuts]
        certified = _block_npt([rho], [_frobenius(rho.matrix)], DEFAULT_TOL)[0]
        assert all(w == ENTANGLED for w, c in zip(want, certified.tolist()) if c)
        if len(matrix) <= _BLOCK:
            assert certified.tolist() == [w == ENTANGLED for w in want]
        assert stacked_answers([rho]) == [ppt_answer(want)]
        fired.append(bool(certified.any()))
        runs, plan = oracle_cut_plan(dims)
        if any(c and inners[0] is None and inners[1:] not in ((), (None,))
               for c, (_, _, inners) in zip(certified.tolist(), plan)):
            sizes = {math.prod(dims[start:stop]) for start, stop in runs}
            leading.add(dims if set(dims) == {2} else len(sizes))

    check()
    assert any(fired) and not all(fired)
    assert leading >= {(2,) * 4, (2,) * 5, 2}


@st.composite
def operator_stacks(draw):
    """(dims, matrices): 1-6 operators of one layout, drawn as
    `qutrit_operators` draws one.  A "rank" layout has 2-4 sites of
    dimension 1-3 and total dimension 2..36, and each operator is rank 1-3;
    a Horodecki 2x4 or tiles-UPB layout holds that state, each operator with
    its own weight, beside a random operator on one more site, or a rank-2
    operator on the whole layout.  The sites are in one drawn order, and a
    site of dimension 1 may be inserted anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("rank", "horodecki", "upb")))
    count = draw(st.integers(1, 6))
    if kind == "rank":
        dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                          .filter(lambda d: 2 <= math.prod(d) <= 36)))
        matrices = [random_density_matrix(rng, dims, draw(st.integers(1, 3)))
                    for _ in range(count)]
    else:
        dims = (2, 2, 2, 3) if kind == "horodecki" else (3, 3, draw(st.sampled_from((2, 3))))
        core = horodecki_2x4 if kind == "horodecki" else tiles_upb
        matrices = [
            np.kron(core(draw(st.floats(0.05, 0.95))),
                    random_density_matrix(rng, dims[-1:], draw(st.integers(1, 2))))
            if draw(st.booleans()) else random_density_matrix(rng, dims, 2)
            for _ in range(count)
        ]
        perm = draw(st.permutations(range(len(dims))))
        k, n = len(dims), math.prod(dims)
        matrices = [np.transpose(m.reshape(dims * 2), [*perm, *(k + p for p in perm)])
                    .reshape(n, n) for m in matrices]
        dims = tuple(dims[p] for p in perm)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(dims)))
        dims = dims[:at] + (1,) + dims[at:]
    return dims, matrices


def test_stacked_ppt_answers_match_the_oracle_and_ignore_the_stack():
    # each operator of a stack gets ppt_answer of the eigvalsh oracle's
    # verdicts, and permuting the stack or splitting it in two moves the
    # answers with their operators
    drawn = set()

    @settings(max_examples=80)
    @given(operator_stacks(), st.randoms(use_true_random=False))
    def check(case, random):
        dims, matrices = case
        operators = [DensityOperator(dims, m) for m in matrices]
        cuts = _bipartitions(len(dims))
        want = [ppt_answer([_oracle_ppt(m, dims, *cut, DEFAULT_TOL) for cut in cuts])
                for m in matrices]
        assert stacked_answers(operators) == want
        order = random.sample(range(len(operators)), len(operators))
        assert stacked_answers([operators[i] for i in order]) == [want[i] for i in order]
        cut = random.randint(1, len(operators))
        parts = [operators[:cut], operators[cut:]]
        assert [answer for part in parts if part for answer in stacked_answers(part)] == want
        drawn.update((1 in dims, len(matrices[0]) <= _BLOCK, answer) for answer in want)

    check()
    # small and large layouts, with and without a site of dimension 1, and
    # every answer (exact entangled, exact not, PPT-inconclusive) were drawn
    assert {flags[:2] for flags in drawn} >= {(False, True), (False, False), (True, False)}
    assert {flags[2] for flags in drawn} == {(True, True), (False, True), (False, False)}


def test_stacked_ppt_refuses_mixed_layouts():
    a = DensityOperator((2, 2), np.eye(4) / 4)
    b = DensityOperator((4,), np.eye(4) / 4)
    with pytest.raises(DomainError, match="one layout"):
        ppt_entangled([a, b])
    with pytest.raises(DomainError, match="one layout"):
        ppt_entangled([])


@pytest.mark.parametrize("chunk, steps", [(1 << 16, [7]), (400, [2, 2, 2, 1]), (100, [1] * 7)])
def test_stacked_ppt_bounds_each_eigvalsh_step(monkeypatch, chunk, steps):
    # each eigvalsh step holds the three 8 x 8 blocks of as many operators
    # as the chunk of amplitudes allows, at least one, and every operator
    # keeps its own answer: products sit at 0, 3 and 4 among entangled pure
    # states, so no two steps hold the same pattern
    rng = np.random.default_rng(3)
    dims = (2, 2, 2)
    matrices = [functools.reduce(np.kron, [random_density_matrix(rng, (2,), 1)] * 3)
                if r in (0, 3, 4) else random_density_matrix(rng, dims, 1)
                for r in range(7)]
    cuts = _bipartitions(3)
    want = [ppt_answer([_oracle_ppt(m, dims, *cut, DEFAULT_TOL) for cut in cuts])
            for m in matrices]
    assert len(set(want)) == 2
    monkeypatch.setattr(quantum, "_CHUNK", chunk)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        assert stacked_answers([DensityOperator(dims, m) for m in matrices]) == want
    shapes = [call.args[0].shape for call in spy.call_args_list]
    assert shapes == [(count, 3, 8, 8) for count in steps]


@pytest.mark.parametrize("chunk, steps", [(1 << 16, [5]), (120, [2, 2, 1]), (50, [1] * 5)])
def test_stacked_ppt_steps_hold_both_block_sizes(monkeypatch, chunk, steps):
    # on (3, 2, 2) T = {2, 3} gives one 4 x 4 block and L = {1, 2} one
    # 6 x 6 block: each step holds both for as many operators as the chunk
    # of 16 + 36 amplitudes per operator allows, at least one, in one
    # eigvalsh per block size, and every operator keeps the oracle's answer
    rng = np.random.default_rng(5)
    dims = (3, 2, 2)
    matrices = [random_density_matrix(rng, dims, 1 + r % 3) for r in range(5)]
    cuts = _bipartitions(3)
    want = [ppt_answer([_oracle_ppt(m, dims, *cut, DEFAULT_TOL) for cut in cuts])
            for m in matrices]
    monkeypatch.setattr(quantum, "_CHUNK", chunk)
    operators = [DensityOperator(dims, m) for m in matrices]
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        _block_npt(operators, [_frobenius(rho.matrix) for rho in operators], DEFAULT_TOL)
    shapes = [call.args[0].shape for call in spy.call_args_list]
    assert shapes == [(count, 1, m, m) for count in steps for m in (4, 6)]
    assert stacked_answers(operators) == want


def test_stacked_ppt_stops_each_operator_at_its_first_inconclusive_cut():
    # on (2, 2, 2, 3) the first cut, {1}|{2,3,4}, holds every trailing site
    # and splits the leading ones, L = {1,2,3}, so it has L's block; but
    # Horodecki's 2x4 state beside a qutrit is PPT there, 2 x 12, so no
    # principal block of its partial transpose can show a negative
    # eigenvalue, and that operator's pass ends after one factorization,
    # while the entangled operator beside it has every uncertified cut
    # factorized
    rng = np.random.default_rng(8)
    dims = (2, 2, 2, 3)
    horodecki = np.kron(horodecki_2x4(0.5), random_density_matrix(rng, (3,), 2))
    entangled = random_density_matrix(rng, dims, 1)
    operators = [DensityOperator(dims, m) for m in (horodecki, entangled)]
    norms = [_frobenius(rho.matrix) for rho in operators]
    _, _, (_, _, cover, _) = _cut_plan(dims)
    assert cover[:, 0].any()
    assert _oracle_ppt(horodecki, dims, *_bipartitions(4)[0], DEFAULT_TOL) == PPT_INCONCLUSIVE
    certified = _block_npt(operators, norms, DEFAULT_TOL)
    assert not certified[0, 0]
    with mock.patch.object(quantum, "_min_eig_below", wraps=_min_eig_below) as spy:
        assert stacked_answers(operators) == [(False, False), (True, True)]
    uncertified = len(_bipartitions(4)) - int(certified[1].sum())
    assert spy.call_count == 1 + uncertified


def test_state_normalization_and_zero_rejection():
    s = PureState((2,), [3.0, 4.0])
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        PureState((2,), [0.0, 0.0])


def test_layout_cap():
    # the dims are checked before the amplitudes or the matrix
    with pytest.raises(DomainError, match="exceeds cap"):
        PureState((2,) * 15, [1.0])
    with pytest.raises(DomainError, match="exceeds cap"):
        DensityOperator((2,) * 15, np.eye(1))


@pytest.mark.parametrize("dims", [(2.5, 2), (2.0, 2), ("2", 2), (True, 2), (np.True_, 2), (0, 2)])
def test_dims_rule_names_itself(dims):
    # a dimension that is no integer >= 1 breaks the rule, whatever its type
    message = re.escape(f"site dimensions must be integers >= 1: {dims}")
    with pytest.raises(DomainError, match=message):
        PureState(dims, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError, match=message):
        DensityOperator(dims, np.eye(4) / 4)


def test_numpy_integer_dims_become_a_tuple_of_ints():
    amplitudes = [1.0, 0.0, 0.0, 1.0]
    psi = PureState(np.array([2, 2]), amplitudes)
    assert type(psi.dims) is tuple and all(type(d) is int for d in psi.dims)
    assert psi == PureState((2, 2), amplitudes)
    assert hash(psi) == hash(PureState((2, 2), amplitudes))
    rho = DensityOperator(np.array([2, 2], dtype=np.int32), psi.density().matrix)
    assert type(rho.dims) is tuple and all(type(d) is int for d in rho.dims)
    assert rho == psi.density() and hash(rho) == hash(psi.density())


def test_density_validation():
    with pytest.raises(DomainError):
        DensityOperator((2,), np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        DensityOperator((2,), np.array([[1, 1], [0, 0]]))


def test_builtin_state_names():
    for name in ("EPR", "GHZ", "O2", "K"):
        psi = builtin_state(name)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        builtin_state("W")
