"""Local-measurement disentanglement analysis of pure multipartite states.

For a subset J of sites, every joint nondegenerate projective measurement on
the complementary sites sends the state to a set of residual J-states.  The
classification of (state, J) pairs quantifies over those measurements; since
the measurement set is a continuum, quantifiers are evaluated over a finite
pool of product bases (structured plus seeded Haar-random ones) and results
are flagged POOL_LIMITED unless an exact factorization certificate removes
the pool dependence altogether.

A pool holds one stack of unitaries per measured site, one row per
experiment, checked for orthonormality once per stack.  For a chunk of
experiments, the contraction kernel `quantum._residuals` measures every site
outside J for every experiment and outcome at once, giving the residual
J-states as one (experiments, outcomes, dim_J) array; an outcome is possible
iff its residual norm is > tol.  Each bipartition of J is then tested for
every possible outcome with one stacked SVD (second Schmidt coefficient
<= tol).  Classification does not deduplicate residuals, since a repeated
state never changes its any/all tests; `post_states` deduplicates up to
phase from one Gram matrix (|<a|b>| > 1 - tol, the rule of
`PureState.equals_up_to_phase`), keeping the first of each class in outcome
order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .connective import (
    ConnectiveStructure,
    _bipartitions,
    _check_indices,
    _subset_structures,
    connective_order,
)
from .errors import DomainError
from .quantum import (
    DEFAULT_TOL,
    PureState,
    SiteLayout,
    _matricize,
    _residuals,
    _separable_cuts,
)

# Residual amplitudes contracted at once: classification takes the pool's
# experiments in chunks of at most this many amplitudes (at least one
# experiment), which bounds memory up to MAX_TOTAL_DIM.
_CHUNK = 1 << 16


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
class MeasurementPool:
    """Finite stand-in for the continuum of determinant experiments on a site set.

    `bases[i]` stacks one unitary per experiment for site `sites[i]`, shape
    (experiments, d, d), with the basis vectors as columns; experiment e
    measures every site in its basis at row e.  A basis stands for any
    nondegenerate observable with that eigenbasis, since eigenvalue labels
    never affect residual states.  A pool on no sites is the single identity
    experiment.
    """

    sites: tuple
    bases: tuple

    def __init__(self, sites: Iterable[int], bases: Sequence[np.ndarray]):
        sites = tuple(int(s) for s in sites)
        bases = tuple(np.array(b, dtype=np.complex128) for b in bases)
        if len(sites) != len(bases):
            raise DomainError("one basis stack per measured site is required")
        for s, b in zip(sites, bases):
            if b.ndim != 3 or b.shape[1] != b.shape[2]:
                raise DomainError(f"bases for site {s} must stack square matrices")
            if not len(b):
                raise DomainError("a measurement pool cannot be empty")
            if len(b) != len(bases[0]):
                raise DomainError("every site needs one basis per experiment")
            gram = b.conj().transpose(0, 2, 1) @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-9:
                raise DomainError(f"basis for site {s} is not orthonormal")
            b.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "bases", bases)


@dataclass(frozen=True)
class PoolConfig:
    """How to build pools: structured bases plus n_random seeded Haar bases."""

    n_random: int = 20
    seed: Optional[int] = None
    extra_bases: Optional[Mapping[int, Sequence[np.ndarray]]] = None

    def __post_init__(self):
        if self.n_random < 0:
            raise DomainError("n_random must be >= 0")
        if self.n_random > 0 and self.seed is None:
            raise DomainError("a seed is required when random bases are requested")


@dataclass(frozen=True)
class Classification:
    kind: IntricationClass
    confidence: Confidence


@dataclass(frozen=True)
class DisentanglementReport:
    """Per-subset classes, the six generated structures, and their maximal order."""

    sites: int
    classes: Mapping[tuple, Classification]
    structures: Mapping[str, ConnectiveStructure]
    omega_c: int
    pool: PoolConfig


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


def _haar_bases(rng: np.random.Generator, dims: Sequence[int], count: int) -> list:
    """`count` Haar-random unitaries per site: one array (count, d, d) per site.

    The normals are drawn in one call and consumed per experiment and per site
    as a real d x d block, then an imaginary one; one stacked QR per distinct
    dimension with the standard phase fix gives each unitary.
    """
    widths = [2 * d * d for d in dims]
    normals = rng.standard_normal(count * sum(widths)).reshape(count, -1)
    offsets = np.cumsum([0, *widths])
    gaussian = []
    for d, lo, hi in zip(dims, offsets, offsets[1:]):
        block = normals[:, lo:hi].reshape(count, 2, d, d)
        gaussian.append(block[:, 0] + 1j * block[:, 1])
    out = [None] * len(dims)
    for d in set(dims):
        positions = [i for i, di in enumerate(dims) if di == d]
        q, r = np.linalg.qr(np.concatenate([gaussian[i] for i in positions]))
        diag = np.diagonal(r, axis1=1, axis2=2)
        q = q * (diag / np.abs(diag))[:, None, :]
        for k, i in enumerate(positions):
            out[i] = q[k * count:(k + 1) * count]
    return out


def build_pool(layout: SiteLayout, sites, config: PoolConfig) -> MeasurementPool:
    """Structured product bases, caller extras, and seeded Haar-random bases.

    The structured and extra bases enter as every combination across the
    sites (row-major over the sites), followed by `n_random` Haar
    experiments.  An empty site set yields the single identity experiment,
    under which the residual-state set of any state is the state itself.
    """
    sites = _check_indices(sites, layout.sites, "site")
    if not sites:
        return MeasurementPool((), ())
    extras = config.extra_bases or {}
    options = []
    for s in sites:
        d = layout.dims[s]
        site_options = _structured_bases(d)
        for extra in extras.get(s, ()):
            extra = np.asarray(extra, dtype=np.complex128)
            if extra.shape != (d, d):
                raise DomainError(
                    f"basis for site {s} has shape {extra.shape}, site has dimension {d}"
                )
            site_options.append(extra)
        options.append(np.stack(site_options))
    grid = np.indices([len(o) for o in options]).reshape(len(sites), -1)
    bases = [o[row] for o, row in zip(options, grid)]
    if config.n_random:
        rng = np.random.default_rng([int(config.seed), *sites])
        random_bases = _haar_bases(rng, [layout.dims[s] for s in sites], config.n_random)
        bases = [np.concatenate(pair) for pair in zip(bases, random_bases)]
    return MeasurementPool(sites, bases)


def post_states(
    psi: PureState,
    j_sites,
    bases: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> list:
    """Residual J-states of psi under one experiment, deduplicated up to phase.

    `bases` holds one basis matrix (columns = basis vectors) per site outside
    J, in site order; the empty tuple is the identity experiment, which
    applies only to J = all sites and leaves psi itself.  Outcomes with
    residual norm <= tol (probability <= tol^2) are impossible and excluded.
    Two residuals are duplicates when their overlap has modulus > 1 - tol,
    read from one Gram matrix; the first of each class in outcome order is
    kept.
    """
    j = _check_indices(j_sites, psi.layout.sites, "site")
    complement = tuple(s for s in psi.layout.site_indices() if s not in j)
    experiment = MeasurementPool(complement, [np.asarray(b)[None] for b in bases])
    if not complement:
        return [psi]
    residuals, norms = _residuals(psi, complement, experiment.bases)
    vectors = residuals[0][norms[0] > tol]
    duplicate = np.abs(vectors.conj() @ vectors.T) > 1.0 - tol
    kept: list = []
    for i in range(len(vectors)):
        if not duplicate[i, kept].any():
            kept.append(i)
    layout = psi.layout.restrict(j)
    return [PureState(layout, vectors[i]) for i in kept]


def _factor_on(psi: PureState, j: tuple, tol: float) -> Optional[PureState]:
    """The J-factor of psi when psi splits as (J-part) x (rest), else None."""
    if len(j) == psi.layout.sites:
        return psi
    mat = _matricize(psi, j)
    u, s, _ = np.linalg.svd(mat)
    if len(s) >= 2 and float(s[1]) > tol:
        return None
    return PureState(SiteLayout(psi.layout.dims[site] for site in j), u[:, 0])


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


def classify_on_subset(
    psi: PureState,
    j_sites,
    pool: "MeasurementPool | PoolConfig",
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Classify the entanglement of psi on the subset J.

    Quantifiers over measurements run on the finite pool; the result is
    CERTIFIED when J is the full site set (only the identity measurement
    exists) or when psi factors across (J, complement), which pins the
    residual set to the J-factor for every conceivable experiment.
    Experiments are contracted in chunks of at most _CHUNK amplitudes, and
    residuals are not deduplicated: a repeated state never changes the
    any/all tests below.
    """
    j = _check_indices(j_sites, psi.layout.sites, "site")
    if len(j) < 2:
        raise DomainError("classification needs a subset with at least two sites")
    if any(psi.layout.dims[s] < 2 for s in psi.layout.site_indices()):
        raise DomainError("analysis requires every site dimension >= 2")
    cuts = _bipartitions(range(len(j)))

    factor = _factor_on(psi, j, tol)
    if factor is not None:
        # the one residual state of every experiment: one experiment, one outcome
        profile = _separable_cuts(factor.amplitudes, factor.layout.dims, cuts, tol)
        separable = profile.any(axis=1)
        kind = _decide(~separable, separable, profile.all(axis=0))
        return Classification(kind, Confidence.CERTIFIED)

    complement = tuple(s for s in psi.layout.site_indices() if s not in j)
    if isinstance(pool, PoolConfig):
        pool = build_pool(psi.layout, complement, pool)
    elif pool.sites != complement:
        raise DomainError(f"pool sites {pool.sites} != complement {complement} of J")

    count = len(pool.bases[0])
    dims_j = tuple(psi.layout.dims[s] for s in j)
    # per experiment: some outcome splits along no cut / along some cut
    ent_here = np.zeros(count, dtype=bool)
    sep_here = np.zeros(count, dtype=bool)
    # per cut: every outcome of every experiment splits along it
    sep_along = np.ones(len(cuts), dtype=bool)
    step = max(1, _CHUNK // psi.layout.total_dim)
    for start in range(0, count, step):
        chunk = [b[start:start + step] for b in pool.bases]
        residuals, norms = _residuals(psi, complement, chunk)
        possible = norms > tol
        owner = start + np.nonzero(possible)[0]
        profiles = _separable_cuts(residuals[possible], dims_j, cuts, tol)
        separable = profiles.any(axis=1)
        ent_here[owner[~separable]] = True
        sep_here[owner[separable]] = True
        sep_along &= profiles.all(axis=0)
    return Classification(_decide(ent_here, sep_here, sep_along), Confidence.POOL_LIMITED)


def disentanglement_structures(
    psi: PureState,
    pool: PoolConfig,
    tol: float = DEFAULT_TOL,
) -> DisentanglementReport:
    """Classify every subset with >= 2 sites and generate the six structures.

    Ground labels are 1-based site numbers.
    """
    k = psi.layout.sites
    if k < 2:
        raise DomainError("disentanglement analysis needs at least two sites")
    classes, structures = _subset_structures(
        k,
        lambda j: classify_on_subset(psi, j, pool, tol=tol),
        {name: lambda c, kinds=kinds: c.kind in kinds for name, kinds in _FAMILY_CLASSES.items()},
    )
    omega = max(connective_order(s) for s in structures.values())
    return DisentanglementReport(k, classes, structures, omega, pool)
