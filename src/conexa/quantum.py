"""Dense finite-dimensional quantum kernel.

Pure states are complex amplitude vectors over a row-major product of local
site dimensions; density operators are positive unit-trace matrices over the
same indexing.  Everything here is a pure function over immutable values.

One kernel, `_residuals`, contracts the leading axes of a state tensor
against stacked local bras, the conjugate transposes of the measured bases,
and returns the raw contraction and its norms; the disentanglement
classification and `devices.derive_device` both measure through it, under
one rule: an outcome is possible iff its residual norm is > tol, that is, its
probability is > tol^2.

The rank and PPT tests judge every cut of `connective._bipartitions` and
take no cut list: `_cut_plan` plans each layout's cuts once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .connective import _bipartitions, _check_indices, _integers, _named
from .errors import DomainError

DEFAULT_TOL = 1e-9
MAX_TOTAL_DIM = 2**14
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# the largest principal block of a partial transpose that `ppt_entangled`
# diagonalizes, stacked, before any cut is factorized
_BLOCK = 8
# Amplitudes processed at once: `_separable_cuts` stacks at most this many
# (at least one cut), and pure-state classification contracts the pool's
# experiments in chunks of at most this many residual amplitudes (at least
# one experiment), which bounds memory up to MAX_TOTAL_DIM.
_CHUNK = 1 << 16


def _check_dims(dims: Iterable[int]) -> tuple:
    """Local Hilbert-space dimensions, one per site in row-major order, as a
    tuple of ints: integers >= 1 (a string, a float or a boolean is an error,
    not a dimension to convert) whose product is at most MAX_TOTAL_DIM."""
    dims = _integers(dims, "site dimensions must be integers >= 1")
    if any(d < 1 for d in dims):
        raise DomainError(f"site dimensions must be integers >= 1: {dims}")
    if math.prod(dims) > MAX_TOTAL_DIM:
        raise DomainError(f"total dimension {math.prod(dims)} exceeds cap {MAX_TOTAL_DIM}")
    return dims


def _finite_copy(values, what: str) -> np.ndarray:
    """A writable complex copy of `values`, which must all be finite."""
    arr = np.asarray(values, dtype=np.complex128).copy()
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} has non-finite entries")
    return arr


def _hermitian(mat: np.ndarray, tol: float) -> bool:
    """Whether every entry of mat - mat^H has modulus <= tol; an entry that
    overflows has not."""
    with np.errstate(over="ignore"):
        return bool(np.max(np.abs(mat - mat.conj().T)) <= tol)


@dataclass(frozen=True)
class PureState:
    """Unit vector over the product space of `dims`, auto-normalized on construction.

    A vector whose norm overflows or is at most 1e-12 is first divided by its
    largest real or imaginary part; any other vector is normalized as given.
    Only a vector with no nonzero entry is refused.
    """

    dims: tuple
    amplitudes: np.ndarray

    def __init__(self, dims: Iterable[int], amplitudes):
        dims = _check_dims(dims)
        amp = _finite_copy(amplitudes, "state vector").reshape(-1)
        if amp.size != math.prod(dims):
            raise DomainError(
                f"amplitude length {amp.size} != total dimension {math.prod(dims)}"
            )
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amp))
        if not math.isfinite(norm) or norm <= 1e-12:
            peak = np.abs(amp.view(np.float64)).max()
            if peak == 0:
                raise DomainError("state vector is zero")
            amp /= peak
            norm = float(np.linalg.norm(amp))
        amp /= norm
        amp.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def density(self) -> "DensityOperator":
        """|psi><psi|, unchecked: the outer product of a unit vector is a
        valid operator up to rounding that the input checks allow."""
        amp = self.amplitudes
        return DensityOperator._derived(self.dims, np.outer(amp, amp.conj()))

    def __eq__(self, other):
        return (
            isinstance(other, PureState)
            and self.dims == other.dims
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    def __hash__(self):
        return hash((self.dims, self.amplitudes.tobytes()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive, unit-trace matrix with site-dimension metadata.

    The trace and the least eigenvalue are checked within tol plus a rounding
    band, so that the float rounding of a positive operator rho of trace at
    most 1 + tol passes even at tol = 0.  Rounding moves each entry by at most
    u = eps / 2 of its size, and ||rho||_F <= tr rho <= 1 + tol.  So:

    - the n rounded diagonal entries are off by at most u (1 + tol) together,
      and summing them adds at most (n - 1) u (1 + tol) (Higham, *Accuracy
      and Stability of Numerical Algorithms*, sec. 4.2): the trace band is
      n eps (1 + tol);
    - the rounding error E has ||E||_2 <= ||E||_F <= u (1 + tol), so the
      least eigenvalue of the matrix is at least -u (1 + tol) (Weyl), and
      eigvalsh is off by less than the 4 n (n + 1) eps ||mat||_F that
      `_min_eig_below` allows it, with ||mat||_F <= (1 + u) (1 + tol): for
      n <= MAX_TOTAL_DIM both together stay below the eigenvalue band
      (4 n (n + 1) + 1) eps (1 + tol).
    """

    dims: tuple
    matrix: np.ndarray

    def __init__(self, dims: Iterable[int], matrix, tol: float = DEFAULT_TOL):
        dims = _check_dims(dims)
        mat = _finite_copy(matrix, "density matrix")
        n = math.prod(dims)
        if mat.shape != (n, n):
            raise DomainError(f"density matrix shape {mat.shape} != ({n}, {n})")
        if not _hermitian(mat, tol):
            raise DomainError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > tol + n * _EPS * (1 + tol):
            raise DomainError(f"density matrix trace {tr} != 1 within tolerance")
        bound = -tol - (4 * n * (n + 1) + 1) * _EPS * (1 + tol)
        if _min_eig_below(mat, bound, _frobenius(mat)):
            raise DomainError("density matrix has a significantly negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _derived(cls, dims: tuple, mat: np.ndarray) -> "DensityOperator":
        """Wrap dims and a matrix computed from a validated operator, without the input checks."""
        mat.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", dims)
        object.__setattr__(rho, "matrix", mat)
        return rho

    def __eq__(self, other):
        return (
            isinstance(other, DensityOperator)
            and self.dims == other.dims
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.dims, self.matrix.tobytes()))


def _eigensystem(matrix, tol: float) -> tuple:
    """(eigenvalues ascending, eigenvectors as matching columns) of a finite
    square Hermitian matrix whose eigenvalues are finite, no two of them
    within tol."""
    mat = _finite_copy(matrix, "observable")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"observable must be a square matrix, got shape {mat.shape}")
    if not _hermitian(mat, tol):
        raise DomainError("observable is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(mat)
    if not np.isfinite(vals).all():
        raise DomainError("observable has an eigenvalue too large to represent")
    if len(vals) > 1 and np.min(np.diff(vals)) <= tol:
        raise DomainError("observable has (numerically) repeated eigenvalues")
    return vals, vecs


# ---------------------------------------------------------------------------
# state operations


def _separable_cuts(states: np.ndarray, dims: tuple, tol: float) -> np.ndarray:
    """Bool array (states, cuts): which cuts of `connective._bipartitions`
    split each state.

    `states` holds one unit vector over the layout `dims` per row.  A state
    splits along a cut when the second Schmidt coefficient of its
    matricization is <= tol, exactly as `np.linalg.svd` computes it: a side of
    dimension 1 leaves one coefficient, so every state splits there.  Every
    other cut is in the group of its shorter side's dimension r in
    `_cut_plan(dims)`, which fixes the matrix shape up to transposition, and
    each group goes to `_second_below` in stacks of at most `_CHUNK`
    amplitudes, at least one cut.  The bound caps memory: a batch of `states`
    that holds `_CHUNK` amplitudes or more, as the residual chunks of large
    states do, is tested one cut per call.
    """
    tensors = states.reshape(-1, *dims)
    sides, groups, _ = _cut_plan(dims)
    out = np.ones((len(tensors), len(sides)), dtype=bool)
    step = max(1, _CHUNK // max(tensors.size, 1))
    for r, group in groups.items():
        for start in range(0, len(group), step):
            positions, orders, flipped = zip(*group[start:start + step])
            out[:, positions] = _second_below(tensors, r, orders, flipped, tol)
    return out


def _second_below(tensors: np.ndarray, r: int, orders, flipped, tol: float) -> np.ndarray:
    """Bool array (states, cuts): `np.linalg.svd(m, compute_uv=False)[:, 1]
    <= tol` for the stack m of matricizations of `tensors` (one state per
    leading index) along each cut, decided without LAPACK outside a rounding
    band.  `orders[i]` lists cut i's positions, those of its shorter side
    first, and that side has dimension r >= 2 for every cut; `flipped[i]`
    says that the shorter side is b, so that the given matrix, rows indexed
    by a, is the transpose of the one tested.

    Each matrix M is tested with its r rows along the shorter side; m is the
    dimension of the longer side, F = ||M||_F, a is the longest row of M and
    R holds the rows of M minus their projections onto a.  M minus R has rank
    1, so sigma_2 <= ||R||_F (Eckart-Young).  Write M = sigma_1 u v* + E with
    ||E||_2 = sigma_2 and ||E||_F <= sqrt(r - 1) sigma_2.  The distance from
    a to the line of v is at most sigma_2, and ||a|| >= F/sqrt(r) >=
    sigma_1/sqrt(r), so projecting out a leaves at most sqrt(r) sigma_2 of the
    rank-1 part and at most ||E||_F of E: sigma_2 is in
    [||R||_F / (sqrt(r) + sqrt(r - 1)), ||R||_F].

    Rounding, with eps the machine epsilon: each computed dot product and
    squared norm of length m is off by at most about m eps times the product
    of its operands' norms (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Sec. 3.1).  As a is the longest row, the coefficient
    <a,b>/||a||^2 of every row b has modulus <= 1, so each computed row of R
    is within about (3 m + 3) eps ||b|| of the exact one, and summing the
    2 r m squares of ||R||_F^2 adds at most r m eps F to the norm.  Each
    computed end of the interval is within 3 r (m + 2) eps F of the exact
    one.  LAPACK's sigma_2 is off by at most p eps sigma_1, with p growing
    like the Householder reduction's backward error, c r m (LAPACK Users' Guide
    Sec. 4.9; Higham Thm 19.4).  The band half-width delta = 8 r (m + 2) eps
    F covers both with room, plus the least normal float so that a zero
    matrix falls inside the band.

    An upper end below tol - delta answers "separable" and a lower end above
    tol + delta "entangled".  Only the matrices in between, or with a zero or
    non-finite F, go to `np.linalg.svd`, in their given orientation: a
    transposed matrix can round sigma_2 = tol the other way.  The work is
    O(r m) per matrix and no r x r Gram matrix is formed: its eigenvalues
    carry rounding of about eps F^2, above tol^2 = 1e-18.
    """
    count, *dims = tensors.shape
    m = math.prod(dims) // r
    # (r, cuts, states, m): row i of every matrix, its shorter side as rows
    stack = np.empty((r, len(orders), count, m), dtype=np.complex128)
    for i, order in enumerate(orders):
        stack[:, i] = tensors.transpose(0, *(p + 1 for p in order)).reshape(
            count, r, m).swapaxes(0, 1)
    flat = stack.view(np.float64)
    squares = np.einsum("...k,...k->...", flat, flat)
    sq_a = squares.max(axis=0)
    frob = np.sqrt(squares.sum(axis=0))
    lead = squares.reshape(r, -1).argmax(axis=0)
    a = stack.reshape(r, -1, m)[lead, np.arange(len(lead))].reshape(stack.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.einsum("...k,r...k->r...", a.conj(), stack) / sq_a
        residual = (stack - coef[..., None] * a).view(np.float64)
        high = np.sqrt(np.einsum("r...k,r...k->...", residual, residual))
    low = high / (math.sqrt(r) + math.sqrt(r - 1))
    delta = 8 * r * (m + 2) * _EPS * frob + _TINY
    out = high < tol - delta
    band = ~(out | (low > tol + delta))
    if band.any():
        for i in np.flatnonzero(band.any(axis=1)):
            given = stack[:, i, band[i]].transpose((1, 2, 0) if flipped[i] else (1, 0, 2))
            out[i, band[i]] = np.linalg.svd(given, compute_uv=False)[:, 1] <= tol
    return out.T


def _residuals(tensor: np.ndarray, bras: Sequence[np.ndarray]) -> tuple:
    """Contract the leading axes of `tensor` against stacked local bras: the one kernel.

    `bras[i]` has shape (n, m, d) for axis i of `tensor`, of dimension d:
    outcome o of stack entry e applies the bra in row o of entry e.  Returns
    the raw contraction over the remaining axes, in order, shape (n,
    outcomes, dim_rest) with outcomes in row-major order over the measured
    axes, and its norms (n, outcomes).  The squared norm is the outcome
    probability, and an outcome is possible iff its norm is > tol.  Nothing
    is checked, normalized or transposed: each caller orders the axes and
    passes the stacks of their dims.
    """
    first, *others = bras
    n = len(first)
    # axes: (stack entry, outcomes so far, amplitudes not yet measured)
    t = first @ tensor.reshape(len(tensor), -1)
    for b in others:
        d = b.shape[-1]
        t = np.einsum("npd,nodr->nopr", b, t.reshape(n, -1, d, t.shape[-1] // d))
    t = t.reshape(n, -1, t.shape[-1])
    flat = t.view(np.float64)
    return t, np.sqrt(np.einsum("...k,...k->...", flat, flat))


# ---------------------------------------------------------------------------
# density operations


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduce to the sites in `keep`, tracing everything else out.

    The result skips the input checks that rho passed: its dims are a
    selection of rho's, and rounding, which grows with the number of sites
    traced out, must not fail a valid operator.
    """
    dims = rho.dims
    k = len(dims)
    keep = _check_indices(keep, k)
    if not keep:
        raise DomainError("partial_trace needs a nonempty set of sites to keep")
    tens = rho.matrix.reshape(dims + dims)
    ket = list(range(k))
    bra = [k + i if i in keep else i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    reduced = np.einsum(tens, ket + bra, out)
    side = math.prod(dims[s] for s in keep)
    return DensityOperator._derived(tuple(dims[s] for s in keep), reduced.reshape(side, side))


def purity(rho: DensityOperator) -> float:
    """tr(rho^2); equals 1 within tolerance exactly for rank-1 operators."""
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def _transposed(tens: np.ndarray, sites) -> np.ndarray:
    """An operator's tensor (k ket axes, then k bra axes) with the ket and
    bra axes of `sites` swapped: a view, no copy."""
    k = tens.ndim // 2
    perm = list(range(2 * k))
    for s in sites:
        perm[s], perm[k + s] = perm[k + s], perm[s]
    return tens.transpose(perm)


def _frobenius(mat: np.ndarray) -> float:
    return math.sqrt(np.vdot(mat, mat).real)


def _eig_band(n: int, norm: float, bound: float) -> float:
    """The rounding band delta of `_min_eig_below` for an n x n matrix of
    Frobenius norm `norm`, tested against `bound`."""
    return 4 * n * (n + 1) * _EPS * (norm + abs(bound)) + _TINY


def _min_eig_below(mat: np.ndarray, bound: float, norm: float) -> bool:
    """Whether `float(np.linalg.eigvalsh(mat.reshape(n, n))[0]) < bound`,
    decided by Cholesky, for an array `mat` of n^2 entries with Frobenius
    norm `norm`.

    Cholesky of a Hermitian H succeeds in floating point when its least
    eigenvalue exceeds the rounding margin delta, and fails when it is below
    -delta; eigvalsh is off by less than delta as well (Higham, *Accuracy and
    Stability of Numerical Algorithms*, Thms 10.3 and 10.7).  Here delta =
    4 n (n + 1) eps (||mat||_F + |bound|), plus the least normal float so
    that the zero matrix gets a band too.  A failed factorization of
    mat - (bound - 2 delta) I puts the least eigenvalue below bound, and a
    successful one of mat - (bound + 2 delta) I puts it above; only inside
    that band, or when the norm overflows, does eigvalsh decide.

    The norm is the caller's: a partial transpose only permutes the entries
    of rho, so rho's norm, computed once, gives every cut the same band.
    `mat` may be a transposed view of rho's tensor, copied once into the
    matrix that is factorized; it is never written, since it can be a view
    of a read-only operator.
    """
    n = math.isqrt(mat.size)
    delta = _eig_band(n, norm, bound)
    if not math.isfinite(delta):
        return float(np.linalg.eigvalsh(mat.reshape(n, n))[0]) < bound
    work = mat.copy().reshape(n, n)
    diagonal = work.reshape(-1)[:: n + 1]
    diagonal -= bound - 2 * delta
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        return True
    diagonal -= 4 * delta
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        return float(np.linalg.eigvalsh(mat.reshape(n, n))[0]) < bound
    return False


@functools.cache
def _cut_plan(dims: tuple) -> tuple:
    """(sides, groups, ppt): the cuts of `connective._bipartitions` over the
    layout `dims`, planned once for every kernel that judges them.

    `sides[c]` holds the dimensions (da, db) of cut c = (a, b).  `groups`
    maps each shorter-side dimension r >= 2 to its cuts as (c, positions,
    flipped): the positions of the shorter side first, and whether that side
    is b; a cut with a side of dimension 1 is in no group.  `ppt` is (lead,
    stacks, cover, loose), what `ppt_entangled` reads.

    The principal blocks come from runs of sites.  The trailing sites
    T = lead..k-1 are the last ones whose dimensions multiply to at most
    `_BLOCK`, so lead is 0 exactly when the whole layout is that small; on a
    larger layout the leading sites L = 0..t-1 are the first ones chosen the
    same way.  The corner of rho over a run R of dimension m is its m x m
    principal block whose rows and columns have every index outside R at 0:
    rho's first m rows and columns for T, the whole matrix when lead is 0,
    and every (n / m)-th for L.  A grouped cut has a block from R when b
    holds some but not all of R's sites of dimension >= 2: the corner
    transposed on those sites of b.  Cuts whose b holds the same of those
    sites share the block.  Where lead > 0 the blocks only certify, and the
    corner transposed on R's other such sites is the block's transpose, with
    the same eigenvalues, so that one serves whenever b holds R's first
    such site.

    `stacks` holds one (blocks, m, m) array per block size m, ascending, the
    flat index in rho's n x n matrix of each block entry.  `cover[i, c]` is
    1.0 when block i, numbered through the stacks in order, is a block of
    cut c, else 0.0: a float, so that a product with it runs in BLAS.
    `loose` marks the grouped cuts other than 2x2 and 2x3, where a positive
    partial transpose proves nothing.
    """
    k, n = len(dims), math.prod(dims)
    lead = next(t for t in range(k + 1) if math.prod(dims[t:]) <= _BLOCK)
    runs = [range(lead, k)]
    if lead:
        runs.append(range(max(t for t in range(k) if math.prod(dims[:t]) <= _BLOCK)))
    sides, groups, blocks = [], {}, {}
    for c, (a, b) in enumerate(_bipartitions(k)):
        da, db = math.prod(dims[p] for p in a), math.prod(dims[p] for p in b)
        sides.append((da, db))
        if min(da, db) > 1:
            groups.setdefault(min(da, db), []).append((c, a + b if da <= db else b + a, da > db))
            for run in runs:
                wide = [s for s in run if dims[s] > 1]
                inner = [s for s in b if s in wide]
                if lead and inner[:1] == wide[:1]:  # its transpose, same eigenvalues
                    inner = [s for s in wide if s not in inner]
                if 0 < len(inner) < len(wide):
                    blocks.setdefault((run, tuple(inner)), []).append(c)
    size = {run: math.prod(dims[s] for s in run) for run in runs}
    order = sorted(blocks, key=lambda block: size[block[0]])
    stacks, cover = {}, np.zeros((len(order), len(sides)))
    for i, (run, inner) in enumerate(order):
        cover[i, blocks[run, inner]] = 1.0
        m = size[run]
        corner = np.arange(m * m).reshape(tuple(dims[s] for s in run) * 2)
        entry = _transposed(corner, [s - run.start for s in inner]).reshape(m, m)
        # corner entry (u, v) is rho's (u s, v s), s the dimension after R
        stride = math.prod(dims[run.stop:])
        stacks.setdefault(m, []).append(stride * (entry // m * n + entry % m))
    stacks = tuple(np.array(entries, dtype=np.intp) for entries in stacks.values())
    loose = np.array([min(side) > 1 and set(side) not in ({2}, {2, 3}) for side in sides],
                     dtype=bool)
    return tuple(sides), groups, (lead, stacks, cover, loose)


def _block_npt(operators: Sequence[DensityOperator], norms, tol: float) -> np.ndarray:
    """Bool (operators, cuts of `connective._bipartitions`): the cuts whose
    partial transpose a block of `_cut_plan` shows NPT, with
    `_min_eig_below(..., -tol, norm)` True, for operators of one layout;
    `norms`, their Frobenius norms, are read only on a layout of dimension
    above `_BLOCK`.

    Each step takes as many operators as `_CHUNK` amplitudes of blocks
    allow, at least one, gathers their blocks through the plan's flat
    indices and makes one eigvalsh per block size, at most two.  On a layout
    of dimension n <= `_BLOCK` each block is the whole partial transpose of
    a cut, and its least eigenvalue below -tol decides the cut, exactly as
    `_min_eig_below` does.  On a larger layout a block over a run R of the
    plan, T or L, is the principal submatrix of the partial transpose over b
    whose rows and columns have every index outside R at 0: transposing b's
    sites outside R leaves those entries in place, as their ket and bra
    indices are both 0, so the submatrix is rho's corner over R transposed
    on b's sites in R, and the block is that submatrix or its transpose,
    with the same eigenvalues.  By Cauchy interlacing (Horn and Johnson,
    *Matrix Analysis*, Thm 4.3.28) the least eigenvalue of the whole matrix
    is at most the block's.  eigvalsh on the block, of dimension m < n and
    norm at most rho's, is off by less than the band delta that
    `_min_eig_below` derives for n from rho's norm.  So a block eigenvalue
    below -tol - 3 delta puts the exact least eigenvalue below -tol - 2
    delta, where each branch of `_min_eig_below` answers True: the first
    factorization fails, or the second fails and eigvalsh, off by less than
    delta, is below -tol.  A cut is certified when any of its blocks, one
    per run that its b splits, is below that bound.  A corner transposed on
    none or all of R's sites of dimension >= 2 is a principal block of rho
    or of its transpose, so a cut whose b splits neither run has no block,
    and False certifies nothing.
    """
    dims = operators[0].dims
    sides, _, (lead, stacks, cover, _) = _cut_plan(dims)
    if not len(cover):
        return np.zeros((len(operators), len(sides)), dtype=bool)
    least = np.empty((len(operators), len(cover)))
    step = max(1, _CHUNK // sum(entries.size for entries in stacks))
    for start in range(0, len(operators), step):
        flats = [rho.matrix.reshape(-1) for rho in operators[start:start + step]]
        at = 0
        for entries in stacks:
            blocks = np.array([flat.take(entries) for flat in flats])
            least[start:start + step, at:at + len(entries)] = np.linalg.eigvalsh(blocks)[..., 0]
            at += len(entries)
    if lead:
        n = math.prod(dims)
        bound = np.array([[-tol - 3 * _eig_band(n, norm, -tol)] for norm in norms])
    else:
        bound = -tol
    return (least < bound) @ cover > 0


def ppt_entangled(operators: Sequence[DensityOperator], tol: float = DEFAULT_TOL) -> tuple:
    """(entangled, exact), two bool arrays with one entry per operator:
    whether the Peres-Horodecki test finds the operator entangled across
    every bipartition of its sites, and whether that is exact.  Every
    operator has the same dims.

    A side of dimension 1 makes every operator a product across the cut.
    Otherwise a partial-transpose eigenvalue below -tol (`_min_eig_below`)
    certifies entanglement in any dimension; a positive partial transpose
    certifies separability only for 2x2 and 2x3 local dimensions.  So an
    operator with some PPT cut outside those gets (False, False), whatever
    the cut order, and any other gets (every cut NPT, True).

    `_block_npt` judges the blocks of every operator in stacked steps; on a
    layout of dimension <= `_BLOCK` that decides every cut.  On a larger one
    each operator's norm, computed once, sets the rounding band of every
    cut; a principal block over the leading or the trailing sites certifies
    a cut NPT whenever its least eigenvalue falls below that band, and only
    the other cuts, those whose b splits neither run or whose blocks stay
    above it, go to `_min_eig_below` in cut order, each partial transpose
    copied once into the matrix that is factorized, up to the first PPT cut
    outside 2x2 and 2x3.
    """
    layouts = {rho.dims for rho in operators}
    if len(layouts) != 1:
        raise DomainError(f"ppt_entangled needs operators of one layout, got {sorted(layouts)}")
    (dims,) = layouts
    sides, _, (lead, *_, loose) = _cut_plan(dims)
    norms = [_frobenius(rho.matrix) for rho in operators] if lead else None
    npt = _block_npt(operators, norms, tol)
    if lead:  # the blocks only certify: factorize every other cut
        cuts = _bipartitions(len(dims))
        for rho, norm, row in zip(operators, norms, npt):
            tens = rho.matrix.reshape(dims * 2)
            for c in np.flatnonzero(~row).tolist():
                if min(sides[c]) == 1:  # a product across the cut
                    continue
                if _min_eig_below(_transposed(tens, cuts[c][1]), -tol, norm):
                    row[c] = True
                elif loose[c]:
                    break
    return npt.all(axis=1), (npt | ~loose).all(axis=1)


# ---------------------------------------------------------------------------
# named states and standard observables


def pauli_z() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def pauli_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def pauli_z_binary() -> np.ndarray:
    """Same eigenbasis as Z but with eigenvalues 0 (for |0>) and 1 (for |1>)."""
    return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def pauli_x_binary() -> np.ndarray:
    """Same eigenbasis as X but with eigenvalues 0 (for |+>) and 1 (for |->)."""
    return 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.complex128)


def _epr() -> PureState:
    return PureState((2, 2), [1, 0, 0, 1])


def _ghz() -> PureState:
    return PureState((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 1])


def _o2() -> PureState:
    return PureState((2, 2, 2), [2, 0, 0, 2, 2, 0, 0, -1])


def _k_state() -> PureState:
    return PureState((2, 2, 2), [0, -1, -1, 0, -1, 0, 0, 1])


BUILTIN_STATES = {
    "EPR": _epr,
    "GHZ": _ghz,
    "O2": _o2,
    "K": _k_state,
}


def builtin_state(name: str) -> PureState:
    """Named states used throughout the test corpus and the CLI."""
    return _named(BUILTIN_STATES, name, "builtin state")()
