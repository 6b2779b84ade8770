"""Local-measurement disentanglement analysis of pure multipartite states.

For a subset J of sites, every joint nondegenerate projective measurement on
the complementary sites sends the state to a set of residual J-states.  The
classification of (state, J) pairs quantifies over those measurements; since
the measurement set is a continuum, quantifiers are evaluated over a fixed
finite pool of product bases (every combination of the structured bases,
then one experiment in a generic basis at every site) and results are
flagged POOL_LIMITED unless an exact factorization certificate removes the
pool dependence altogether.  The pool is a function of the dimensions of the
measured sites alone (`_pool(dims)`), so every analysis is deterministic,
and one pool per tuple of complement dimensions is built once per process
and read for every complement of that shape.

A pool holds one read-only stack of bras per measured site, in site order,
one entry per experiment holding the conjugate transpose of its basis; it
names no sites.  Each subset copies psi once, the sites outside J first,
then J's.  Whether psi factors across J is decided from that copy's J-rows
matricization by singular values alone; singular vectors are computed only
for a state that does.  Otherwise `quantum._residuals` contracts the copy's
leading axes for a chunk of experiments and every outcome at once, giving
the unnormalized residual J-states as one (experiments, outcomes, dim_J)
array and their norms; an outcome is possible iff its residual norm is
> tol, and the possible residuals alone are divided by their norms.  Each
bipartition of J is then tested for every possible outcome by
`quantum._separable_cuts` (second Schmidt coefficient <= tol), which plans
the cuts of each layout once and decides them by a closed-form projection
test, with LAPACK only inside a rounding band around tol, and the chunk's
verdicts are tallied per experiment in whole-array steps.  Residuals are
not deduplicated, since a repeated state never changes the any/all tests of
the classification.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .connective import (
    ConnectiveStructure,
    _check_indices,
    _subset_structures,
    connective_order,
)
from .errors import DomainError
from .quantum import (
    DEFAULT_TOL,
    PureState,
    _CHUNK,
    _residuals,
    _separable_cuts,
)


class IntricationClass(enum.Enum):
    GLOBALLY_ENTANGLED = "GLOBALLY_ENTANGLED"
    TOTALLY_MIXED = "TOTALLY_MIXED"
    WELL_ENTANGLED_ONLY = "WELL_ENTANGLED_ONLY"
    WELL_SEPARABLE_ONLY = "WELL_SEPARABLE_ONLY"
    WELL_ENTANGLED_AND_SEPARABLE = "WELL_ENTANGLED_AND_SEPARABLE"
    GLOBALLY_SEPARABLE_ONLY = "GLOBALLY_SEPARABLE_ONLY"
    CLEARLY_SEPARABLE_ONLY = "CLEARLY_SEPARABLE_ONLY"
    TOTALLY_SEPARATED = "TOTALLY_SEPARATED"


class Confidence(enum.Enum):
    CERTIFIED = "CERTIFIED"
    POOL_LIMITED = "POOL_LIMITED"


MIXED_CLASSES = frozenset(
    {
        IntricationClass.TOTALLY_MIXED,
        IntricationClass.WELL_ENTANGLED_ONLY,
        IntricationClass.WELL_SEPARABLE_ONLY,
        IntricationClass.WELL_ENTANGLED_AND_SEPARABLE,
    }
)

# Per-structure generator membership, keyed by classification.
_FAMILY_CLASSES = {
    "GI": {IntricationClass.GLOBALLY_ENTANGLED},
    "BIP": {
        IntricationClass.GLOBALLY_ENTANGLED,
        IntricationClass.WELL_ENTANGLED_ONLY,
        IntricationClass.WELL_ENTANGLED_AND_SEPARABLE,
    },
    "MT": {IntricationClass.GLOBALLY_ENTANGLED, IntricationClass.TOTALLY_MIXED},
    "IP": {
        IntricationClass.GLOBALLY_ENTANGLED,
        IntricationClass.WELL_ENTANGLED_ONLY,
        IntricationClass.WELL_ENTANGLED_AND_SEPARABLE,
        IntricationClass.TOTALLY_MIXED,
    },
    "ML": {IntricationClass.GLOBALLY_ENTANGLED} | MIXED_CLASSES,
    "NCS": {IntricationClass.GLOBALLY_ENTANGLED, IntricationClass.GLOBALLY_SEPARABLE_ONLY}
    | MIXED_CLASSES,
}
STRUCTURE_NAMES = tuple(_FAMILY_CLASSES)


@dataclass(frozen=True)
class Classification:
    kind: IntricationClass
    confidence: Confidence


@dataclass(frozen=True)
class DisentanglementReport:
    """Per-subset classes, the six generated structures, and their maximal order."""

    classes: Mapping[tuple, Classification]
    structures: Mapping[str, ConnectiveStructure]
    omega_c: int


def _structured_bases(dim: int) -> list:
    """Computational basis plus a Hadamard-type (d=2) or Fourier (d>2) basis."""
    bases = [np.eye(dim, dtype=np.complex128)]
    if dim == 2:
        h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
        bases.append(h)
    else:
        j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        bases.append(np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim))
    return bases


def _generic_basis(dim: int) -> np.ndarray:
    """A fixed basis in general position, from a closed formula.

    The second structured basis with row j multiplied by exp(i sqrt(2) (j+1)),
    then its first two rows turned by a real rotation of 0.4 rad (when there
    are two): unitary by construction.  It stands in for "some basis avoids the measure-zero
    product directions" without a random draw.
    """
    phases = np.exp(1j * np.sqrt(2.0) * np.arange(1, dim + 1))
    basis = _structured_bases(dim)[1] * phases[:, None]
    if dim > 1:
        c, s = np.cos(0.4), np.sin(0.4)
        basis[:2] = np.array([[c, -s], [s, c]]) @ basis[:2]
    return basis


@functools.cache
def _pool(dims: tuple) -> tuple:
    """The pool on measured sites of dimensions `dims`, in site order, as bras.

    One read-only stack per site, shape (experiments, d, d), holding the
    conjugate transpose of each basis, so that row o is the bra of basis
    vector o; experiment e measures every site in its basis at row e.  The
    experiments are every combination of the structured bases across the
    sites (row-major), then one that measures every site in its
    `_generic_basis`.  A basis stands for any nondegenerate observable with
    that eigenbasis, since eigenvalue labels never affect residual states.
    """
    combos = itertools.product(*(_structured_bases(d) for d in dims))
    stacks = tuple(
        np.stack([*column, _generic_basis(d)]).conj().swapaxes(1, 2).copy()
        for d, column in zip(dims, zip(*combos))
    )
    for stack in stacks:
        stack.setflags(write=False)
    return stacks


def _factor_on(mat: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """The J-factor of psi, as a vector over J's sites, when psi splits as
    (J-part) x (rest), else None.

    `mat` is psi's matricization with rows over J's sites and columns over
    the rest; a single column is the factor itself.  Otherwise the split is
    decided from the singular values alone (sigma_2 <= tol), and the left
    singular vector is computed only for a state that splits.
    """
    if mat.shape[1] == 1:
        return mat[:, 0]
    if np.linalg.svd(mat, compute_uv=False)[1] > tol:
        return None
    return np.linalg.svd(mat, full_matrices=False)[0][:, 0]


def _decide(ent_here, sep_here, sep_along) -> IntricationClass:
    """The class of (state, J) from its tallies over the experiments and cuts.

    `ent_here[e]` / `sep_here[e]`: some possible outcome of experiment e
    splits along no cut / along some cut of J; `sep_along[c]`: every outcome
    of every experiment splits along cut c.
    """
    all_ent = ~sep_here
    all_sep = ~ent_here
    if all_ent.all():
        return IntricationClass.GLOBALLY_ENTANGLED
    if all_sep.all():
        if sep_along.all():
            return IntricationClass.TOTALLY_SEPARATED
        if sep_along.any():
            return IntricationClass.CLEARLY_SEPARABLE_ONLY
        return IntricationClass.GLOBALLY_SEPARABLE_ONLY
    well_ent = all_ent.any()
    well_sep = all_sep.any()
    if well_ent and well_sep:
        return IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
    if well_ent:
        return IntricationClass.WELL_ENTANGLED_ONLY
    if well_sep:
        return IntricationClass.WELL_SEPARABLE_ONLY
    # every experiment has outcomes of both kinds
    return IntricationClass.TOTALLY_MIXED


def classify_on_subset(psi: PureState, j_sites, tol: float = DEFAULT_TOL) -> Classification:
    """Classify the entanglement of psi on the subset J.

    The factor test and the contraction read one copy of psi, the complement
    of J's axes first, then J's (psi itself when J is the full site set).
    Quantifiers over measurements run on `_pool` of the dimensions of the
    complement of J, one stack per site in site order.  The result is
    CERTIFIED, and no pool is read, when J is the full site set (only the
    identity measurement exists) or when psi factors across (J, complement),
    which pins the residual set to the J-factor for every conceivable
    experiment.
    Experiments are contracted in chunks of at most _CHUNK amplitudes, and
    residuals are not deduplicated: a repeated state never changes the
    any/all tests below.
    """
    j = _check_indices(j_sites, len(psi.dims))
    if len(j) < 2:
        raise DomainError("classification needs a subset with at least two sites")
    if min(psi.dims) < 2:
        raise DomainError("analysis requires every site dimension >= 2")
    dims_j = tuple(psi.dims[s] for s in j)
    complement = tuple(s for s in range(len(psi.dims)) if s not in j)
    ordered = np.ascontiguousarray(psi.tensor.transpose(complement + j))

    factor = _factor_on(ordered.reshape(-1, math.prod(dims_j)).T, tol)
    if factor is not None:
        # the one residual state of every experiment: one experiment, one outcome
        profile = _separable_cuts(factor, dims_j, tol)
        separable = profile.any(axis=1)
        kind = _decide(~separable, separable, profile.all(axis=0))
        return Classification(kind, Confidence.CERTIFIED)

    pool = _pool(tuple(psi.dims[s] for s in complement))
    count = len(pool[0])
    # per experiment: some outcome splits along no cut / along some cut
    ent_here = np.zeros(count, dtype=bool)
    sep_here = np.zeros(count, dtype=bool)
    # per cut: every outcome of every experiment splits along it (an array
    # from the first chunk on)
    sep_along = True
    step = max(1, _CHUNK // psi.amplitudes.size)
    for start in range(0, count, step):
        chunk = [b[start:start + step] for b in pool]
        residuals, norms = _residuals(ordered, chunk)
        possible = norms > tol
        profiles = _separable_cuts(residuals[possible] / norms[possible, None], dims_j, tol)
        # (experiments, outcomes): the outcome is possible and splits along some cut
        split = np.zeros_like(possible)
        split[possible] = profiles.any(axis=1)
        ent_here[start:start + step] = (possible & ~split).any(axis=1)
        sep_here[start:start + step] = split.any(axis=1)
        sep_along &= profiles.all(axis=0)
    return Classification(_decide(ent_here, sep_here, sep_along), Confidence.POOL_LIMITED)


def disentanglement_structures(psi: PureState, tol: float = DEFAULT_TOL) -> DisentanglementReport:
    """Classify every subset with >= 2 sites and generate the six structures.

    Ground labels are 1-based site numbers.
    """
    k = len(psi.dims)
    if k < 2:
        raise DomainError("disentanglement analysis needs at least two sites")
    classes, structures = _subset_structures(
        k,
        lambda j: classify_on_subset(psi, j, tol=tol),
        {name: lambda c, kinds=kinds: c.kind in kinds for name, kinds in _FAMILY_CLASSES.items()},
    )
    omega = max(connective_order(s) for s in structures.values())
    return DisentanglementReport(classes, structures, omega)
