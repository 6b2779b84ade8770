"""Dense finite-dimensional quantum kernel.

Pure states are complex amplitude vectors over a row-major product of local
site dimensions; density operators are positive unit-trace matrices over the
same indexing.  Everything here is a pure function over immutable values.

One kernel, `_residuals`, contracts sites of a pure state against stacked
local bases; `partial_contract`, `measure_projective`, the disentanglement
pools' `post_states` and classification, and `devices.derive_device` are all
built on it.  One rule holds for all of them: an outcome is possible iff its
residual norm is > tol, that is, its probability is > tol^2.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .connective import _check_indices, _check_partition
from .errors import DomainError

DEFAULT_TOL = 1e-9
MAX_TOTAL_DIM = 2**14


@dataclass(frozen=True)
class SiteLayout:
    """Local Hilbert-space dimensions, one per site, in fixed row-major order.

    Dimensions must be integers: a string, a float or a boolean is an error,
    not a dimension to convert.
    """

    dims: tuple

    def __init__(self, dims: Iterable[int], max_total_dim: int = MAX_TOTAL_DIM):
        values = tuple(dims)
        dims = tuple(operator.index(d) for d in values)
        if any(isinstance(v, bool) or d < 1 for v, d in zip(values, dims)):
            raise DomainError(f"site dimensions must be integers >= 1: {values}")
        if math.prod(dims) > max_total_dim:
            raise DomainError(
                f"total dimension {math.prod(dims)} exceeds cap {max_total_dim}"
            )
        object.__setattr__(self, "dims", dims)

    @property
    def sites(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def site_indices(self) -> tuple:
        return tuple(range(self.sites))

    def restrict(self, sites: Iterable[int]) -> "SiteLayout":
        sites = _check_indices(sites, self.sites, "site")
        return SiteLayout(self.dims[s] for s in sites)


def _finite_copy(values, what: str) -> np.ndarray:
    """A writable complex copy of `values`, which must all be finite."""
    arr = np.asarray(values, dtype=np.complex128).copy()
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} has non-finite entries")
    return arr


@dataclass(frozen=True)
class PureState:
    """Unit vector over the layout's product space, auto-normalized on construction.

    A vector whose norm overflows is first divided by its largest real or
    imaginary part; a vector of finite norm is normalized as given.
    """

    layout: SiteLayout
    amplitudes: np.ndarray

    def __init__(self, layout: SiteLayout, amplitudes):
        amp = _finite_copy(amplitudes, "state vector").reshape(-1)
        if amp.size != layout.total_dim:
            raise DomainError(
                f"amplitude length {amp.size} != total dimension {layout.total_dim}"
            )
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amp))
        if not math.isfinite(norm):
            amp /= np.abs(amp.view(np.float64)).max()
            norm = float(np.linalg.norm(amp))
        if norm <= 1e-12:
            raise DomainError("state vector is (numerically) zero")
        amp /= norm
        amp.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)

    def overlap(self, other: "PureState") -> complex:
        if self.layout != other.layout:
            raise DomainError("overlap requires identical layouts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def equals_up_to_phase(self, other: "PureState", tol: float = DEFAULT_TOL) -> bool:
        """Phase-blind equality: |<a|b>| = 1 within tolerance."""
        return abs(self.overlap(other)) > 1.0 - tol

    def density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))

    def __eq__(self, other):
        return (
            isinstance(other, PureState)
            and self.layout == other.layout
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    def __hash__(self):
        return hash((self.layout, self.amplitudes.tobytes()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive, unit-trace matrix with site-dimension metadata."""

    layout: SiteLayout
    matrix: np.ndarray

    def __init__(self, layout: SiteLayout, matrix, tol: float = DEFAULT_TOL):
        mat = _finite_copy(matrix, "density matrix")
        n = layout.total_dim
        if mat.shape != (n, n):
            raise DomainError(f"density matrix shape {mat.shape} != ({n}, {n})")
        if np.max(np.abs(mat - mat.conj().T)) > tol:
            raise DomainError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > tol:
            raise DomainError(f"density matrix trace {tr} != 1 within tolerance")
        if float(np.linalg.eigvalsh(mat)[0]) < -tol:
            raise DomainError("density matrix has a significantly negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _derived(cls, layout: SiteLayout, mat: np.ndarray) -> "DensityOperator":
        """Wrap a matrix computed from a validated operator, without the input checks."""
        mat.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "layout", layout)
        object.__setattr__(rho, "matrix", mat)
        return rho

    def __eq__(self, other):
        return (
            isinstance(other, DensityOperator)
            and self.layout == other.layout
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.layout, self.matrix.tobytes()))


@dataclass(frozen=True)
class Observable:
    """Nondegenerate Hermitian operator on one site: no two eigenvalues within tol."""

    site: int
    matrix: np.ndarray

    def __init__(self, site: int, matrix, tol: float = DEFAULT_TOL):
        mat = _finite_copy(matrix, "observable")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"observable must be a square matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > tol:
            raise DomainError("observable is not Hermitian within tolerance")
        eigenvalues = np.linalg.eigvalsh(mat)
        if len(eigenvalues) > 1 and np.min(np.diff(eigenvalues)) <= tol:
            raise DomainError("observable has (numerically) repeated eigenvalues")
        mat.setflags(write=False)
        object.__setattr__(self, "site", int(site))
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Eigenvalues ascending, eigenvectors as matching columns."""
        vals, vecs = np.linalg.eigh(self.matrix)
        return vals, vecs

    def __eq__(self, other):
        return (
            isinstance(other, Observable)
            and self.site == other.site
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.site, self.matrix.tobytes()))


@dataclass(frozen=True)
class MeasurementOutcome:
    """One joint result: eigenvalue tuple, its probability, the post-measurement state."""

    values: tuple
    probability: float
    post_state: PureState


class Contraction(NamedTuple):
    state: PureState
    probability: float


class Verdict(enum.Enum):
    SEPARABLE = "SEPARABLE"
    ENTANGLED = "ENTANGLED"
    PPT_INCONCLUSIVE = "PPT_INCONCLUSIVE"


# ---------------------------------------------------------------------------
# state operations


def tensor_state(a: PureState, b: PureState) -> PureState:
    """Kronecker product; the result's sites are a's sites followed by b's."""
    layout = SiteLayout(a.layout.dims + b.layout.dims)
    return PureState(layout, np.kron(a.amplitudes, b.amplitudes))


def _matricize(psi: PureState, part: tuple) -> np.ndarray:
    """Rows indexed by `part` (sorted), columns by the complementary sites."""
    rest = tuple(s for s in psi.layout.site_indices() if s not in part)
    perm = part + rest
    t = np.transpose(psi.tensor, perm)
    rows = math.prod(psi.layout.dims[s] for s in part)
    return t.reshape(rows, -1)


def schmidt_coefficients(psi: PureState, part) -> np.ndarray:
    """Singular values (descending) of the matricization along `part` vs the rest."""
    part = _check_indices(part, psi.layout.sites, "site")
    if not part or len(part) == psi.layout.sites:
        raise DomainError("Schmidt coefficients need a proper nonempty bipartition")
    return np.linalg.svd(_matricize(psi, part), compute_uv=False)


def is_separable_bipartition(psi: PureState, j1, j2, tol: float = DEFAULT_TOL) -> bool:
    """True when psi factorizes across (j1, j2), i.e. the matricization has rank 1."""
    cut = _check_partition(j1, j2, psi.layout.sites, "site")
    return bool(_separable_cuts(psi.amplitudes, psi.layout.dims, [cut], tol)[0, 0])


def _separable_cuts(states: np.ndarray, dims: tuple, cuts, tol: float) -> np.ndarray:
    """Bool array (states, cuts): which bipartitions (by position) split each state.

    `states` holds one unit vector over the layout `dims` per row; each cut is
    one stacked SVD testing the second Schmidt coefficient.
    """
    tensors = states.reshape(-1, *dims)
    out = np.empty((len(tensors), len(cuts)), dtype=bool)
    for c, (a, b) in enumerate(cuts):
        axes = (0, *(p + 1 for p in a + b))
        rows = math.prod(dims[p] for p in a)
        mats = tensors.transpose(axes).reshape(len(tensors), rows, math.prod(dims) // rows)
        coeffs = np.linalg.svd(mats, compute_uv=False)
        # a side of dimension 1 leaves one coefficient: every state splits there
        out[:, c] = coeffs[:, 1] <= tol if coeffs.shape[1] > 1 else True
    return out


def _residuals(psi: PureState, sites: tuple, bases: Sequence[np.ndarray]) -> tuple:
    """Contract `sites` of psi against stacked local bras: the one contraction kernel.

    `bases[i]` has shape (n, d, m) for site `sites[i]` of dimension d: stack
    entry e holds m column vectors, and outcome o of entry e applies the bras
    of their conjugates.  Returns the residuals over the unmeasured sites (in
    site order), shape (n, outcomes, dim_rest) with outcomes in row-major
    order over `sites` as given, normalized wherever the norm is nonzero,
    and their norms (n, outcomes).  The squared norm is the outcome
    probability, and an outcome is possible iff its norm is > tol.
    """
    _check_indices(sites, psi.layout.sites, "site")
    if not sites or len(bases) != len(sites):
        raise DomainError("one basis stack per measured site is required")
    dims = psi.layout.dims
    n = len(bases[0])
    for s, b in zip(sites, bases):
        if b.ndim != 3 or b.shape[0] != n or b.shape[1] != dims[s]:
            raise DomainError(
                f"bases for site {s} have shape {b.shape}, expected ({n}, {dims[s]}, m)"
            )
    rest = tuple(s for s in psi.layout.site_indices() if s not in sites)
    total = psi.layout.total_dim
    # axes: (stack entry, outcomes so far, unmeasured amplitudes)
    t = np.transpose(psi.tensor, tuple(sites) + rest).reshape(1, 1, total)
    t = np.broadcast_to(t, (n, 1, total))
    for s, b in zip(sites, bases):
        bras = b.conj().transpose(0, 2, 1)
        t = bras[:, None] @ t.reshape(n, -1, dims[s], t.shape[-1] // dims[s])
    t = t.reshape(n, -1, math.prod(dims[s] for s in rest))
    norms = np.linalg.norm(t, axis=-1)
    nonzero = (norms > 0)[..., None]
    return np.divide(t, norms[..., None], out=np.zeros_like(t), where=nonzero), norms


def partial_contract(
    psi: PureState,
    site_vectors: Mapping[int, np.ndarray],
    tol: float = DEFAULT_TOL,
) -> Optional[Contraction]:
    """Project the given sites onto local unit vectors and renormalize the rest.

    Returns the contracted state on the remaining sites together with the
    outcome probability (squared residual norm), or None when the outcome is
    impossible (residual norm <= tol).
    """
    sites = _check_indices(site_vectors.keys(), psi.layout.sites, "site")
    if not sites:
        raise DomainError("partial_contract needs at least one site vector")
    if len(sites) == psi.layout.sites:
        raise DomainError("partial_contract must leave at least one site")
    bases = []
    for s in sites:
        v = np.asarray(site_vectors[s], dtype=np.complex128).reshape(-1)
        if v.size != psi.layout.dims[s]:
            raise DomainError(f"vector for site {s} has wrong dimension {v.size}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise DomainError(f"vector for site {s} is not a unit vector")
        bases.append(v.reshape(1, -1, 1))
    residuals, norms = _residuals(psi, sites, bases)
    norm = float(norms[0, 0])
    if norm <= tol:
        return None
    remaining = [s for s in psi.layout.site_indices() if s not in sites]
    state = PureState(SiteLayout(psi.layout.dims[s] for s in remaining), residuals[0, 0])
    return Contraction(state, norm * norm)


def measure_projective(
    psi: PureState,
    observables: Sequence[Observable],
    tol: float = DEFAULT_TOL,
) -> list:
    """Joint projective measurement of commuting nondegenerate single-site observables.

    Composing the per-site spectral projectors is equivalent to measuring the
    tensor observable with eigenvalue tuples kept distinct, so outcomes are
    indexed by tuples rather than by eigenvalue products, in row-major order
    over the observables as given.  Each outcome projects onto one product
    of eigenvectors, which is a spectral projector since every `Observable`
    is nondegenerate.  Outcomes with residual norm <= tol (probability <=
    tol^2) are dropped.  Each post-measurement state is the product of the
    chosen eigenvectors and the normalized residual, with its axes put back
    in site order.
    """
    if not observables:
        raise DomainError("measure_projective needs at least one observable")
    sites = tuple(o.site for o in observables)
    if len(set(sites)) != len(sites):
        raise DomainError(f"observables must act on distinct sites: {sites}")
    systems = [o.eigensystem() for o in observables]
    residuals, norms = _residuals(psi, sites, [vecs[None] for _, vecs in systems])
    dims = psi.layout.dims
    rest = tuple(s for s in psi.layout.site_indices() if s not in sites)
    order = np.argsort(sites + rest)
    outcomes = []
    for o in np.flatnonzero(norms[0] > tol):
        idx = np.unravel_index(o, [len(vals) for vals, _ in systems])
        factors = [vecs[:, i] for (_, vecs), i in zip(systems, idx)]
        factors.append(residuals[0, o].reshape([dims[s] for s in rest]))
        full = np.transpose(functools.reduce(np.multiply.outer, factors), order)
        values = tuple(float(vals[i]) for (vals, _), i in zip(systems, idx))
        probability = float(norms[0, o]) ** 2
        outcomes.append(MeasurementOutcome(values, probability, PureState(psi.layout, full)))
    return outcomes


# ---------------------------------------------------------------------------
# density operations


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduce to the sites in `keep`, tracing everything else out.

    The result skips the input checks that rho passed: rounding grows with
    the number of sites traced out, and must not fail a valid operator.
    """
    keep = _check_indices(keep, rho.layout.sites, "site")
    if not keep:
        raise DomainError("partial_trace needs a nonempty set of sites to keep")
    k = rho.layout.sites
    dims = rho.layout.dims
    tens = rho.matrix.reshape(dims + dims)
    ket = list(range(k))
    bra = [k + i if i in keep else i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    reduced = np.einsum(tens, ket + bra, out)
    side = math.prod(dims[s] for s in keep)
    return DensityOperator._derived(rho.layout.restrict(keep), reduced.reshape(side, side))


def purity(rho: DensityOperator) -> float:
    """tr(rho^2); equals 1 within tolerance exactly for rank-1 operators."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def partial_transpose(rho: DensityOperator, sites) -> np.ndarray:
    """Matrix of the partial transpose over the given sites."""
    sites = _check_indices(sites, rho.layout.sites, "site")
    k = rho.layout.sites
    dims = rho.layout.dims
    tens = rho.matrix.reshape(dims + dims)
    perm = list(range(2 * k))
    for s in sites:
        perm[s], perm[k + s] = perm[k + s], perm[s]
    n = rho.layout.total_dim
    return np.transpose(tens, perm).reshape(n, n)


def ppt_is_separable(rho: DensityOperator, j1, j2, tol: float = DEFAULT_TOL) -> Verdict:
    """Peres-Horodecki decision across a bipartition.

    A negative partial-transpose eigenvalue certifies entanglement in any
    dimension; a positive partial transpose certifies separability only for
    2x2 and 2x3 local dimensions, so larger systems return PPT_INCONCLUSIVE.
    """
    a, b = _check_partition(j1, j2, rho.layout.sites, "site")
    min_eig = float(np.linalg.eigvalsh(partial_transpose(rho, b))[0])
    if min_eig < -tol:
        return Verdict.ENTANGLED
    da = math.prod(rho.layout.dims[s] for s in a)
    db = math.prod(rho.layout.dims[s] for s in b)
    if (da, db) in {(2, 2), (2, 3), (3, 2)}:
        return Verdict.SEPARABLE
    return Verdict.PPT_INCONCLUSIVE


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


def basis_state(dims: Sequence[int], indices: Sequence[int]) -> PureState:
    """Computational basis state |indices...> on the given layout."""
    layout = SiteLayout(dims)
    amp = np.zeros(layout.total_dim, dtype=np.complex128)
    flat = 0
    for d, i in zip(layout.dims, indices):
        flat = flat * d + i
    amp[flat] = 1.0
    return PureState(layout, amp)


def _epr() -> PureState:
    return PureState(SiteLayout((2, 2)), [1, 0, 0, 1])


def _ghz() -> PureState:
    return PureState(SiteLayout((2, 2, 2)), [1, 0, 0, 0, 0, 0, 0, 1])


def _o2() -> PureState:
    return PureState(SiteLayout((2, 2, 2)), [2, 0, 0, 2, 2, 0, 0, -1])


def _k_state() -> PureState:
    return PureState(SiteLayout((2, 2, 2)), [0, -1, -1, 0, -1, 0, 0, 1])


BUILTIN_STATES = {
    "EPR": _epr,
    "GHZ": _ghz,
    "O2": _o2,
    "K": _k_state,
}


def builtin_state(name: str) -> PureState:
    """Named states used throughout the test corpus and the CLI."""
    try:
        return BUILTIN_STATES[name]()
    except KeyError:
        raise DomainError(
            f"unknown builtin state {name!r}; known: {sorted(BUILTIN_STATES)}"
        ) from None
