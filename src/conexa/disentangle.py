"""Local-measurement disentanglement analysis of pure multipartite states.

For a subset J of sites, every joint nondegenerate projective measurement on
the complementary sites sends the state to a set of residual J-states.  The
classification of (state, J) pairs quantifies over those measurements; since
the measurement set is a continuum, quantifiers are evaluated over a finite
pool of product bases (structured plus seeded Haar-random ones) and results
are flagged POOL_LIMITED unless an exact factorization certificate removes
the pool dependence altogether.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .connective import (
    ConnectiveStructure,
    GroundSet,
    _bipartitions,
    connective_order,
    generate_integral,
)
from .errors import DomainError
from .quantum import (
    DEFAULT_TOL,
    PureState,
    SiteLayout,
    _check_sites,
    _matricize,
    partial_contract,
)

PHASE_MATCH = 1.0 - 1e-9

STRUCTURE_NAMES = ("GI", "BIP", "MT", "IP", "ML", "NCS")


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


@dataclass(frozen=True)
class DeterminantExperiment:
    """A product of orthonormal local bases, one per measured site.

    Each basis is stored as a unitary matrix whose columns are the basis
    vectors; it stands for any nondegenerate observable with that eigenbasis,
    since eigenvalue labels never affect residual states.
    """

    sites: tuple
    bases: tuple
    tag: str = "STRUCTURED"

    def __init__(self, sites: Iterable[int], bases: Sequence[np.ndarray], tag: str = "STRUCTURED"):
        sites = tuple(int(s) for s in sites)
        bases = tuple(np.asarray(b, dtype=np.complex128) for b in bases)
        if len(sites) != len(bases):
            raise DomainError("one basis per measured site is required")
        for s, b in zip(sites, bases):
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise DomainError(f"basis for site {s} must be a square matrix")
            if np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))) > 1e-9:
                raise DomainError(f"basis for site {s} is not orthonormal")
        for b in bases:
            b.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "tag", tag)

    def __eq__(self, other):
        return (
            isinstance(other, DeterminantExperiment)
            and self.sites == other.sites
            and all(np.array_equal(a, b) for a, b in zip(self.bases, other.bases))
        )

    def __hash__(self):
        return hash((self.sites, tuple(b.tobytes() for b in self.bases)))


@dataclass(frozen=True)
class MeasurementPool:
    """Finite stand-in for the continuum of determinant experiments on a site set."""

    sites: tuple
    experiments: tuple

    def __init__(self, sites: Iterable[int], experiments: Sequence[DeterminantExperiment]):
        sites = tuple(int(s) for s in sites)
        experiments = tuple(experiments)
        if not experiments:
            raise DomainError("a measurement pool cannot be empty")
        for e in experiments:
            if e.sites != sites:
                raise DomainError("all experiments in a pool must share the same sites")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "experiments", experiments)


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


def _haar_basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR with the standard phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def build_pool(layout: SiteLayout, sites, config: PoolConfig) -> MeasurementPool:
    """Structured product bases, caller extras, and seeded Haar-random bases.

    An empty site set yields the single identity experiment, under which the
    residual-state set of any state is the state itself.
    """
    sites = _check_sites(layout, sites)
    if not sites:
        return MeasurementPool((), [DeterminantExperiment((), (), tag="IDENTITY")])
    per_site = []
    extras = config.extra_bases or {}
    for s in sites:
        options = _structured_bases(layout.dims[s])
        for extra in extras.get(s, ()):
            options.append(np.asarray(extra, dtype=np.complex128))
        per_site.append(options)
    experiments = [
        DeterminantExperiment(sites, combo, tag="STRUCTURED")
        for combo in itertools.product(*per_site)
    ]
    if config.n_random:
        rng = np.random.default_rng([int(config.seed), *sites])
        for _ in range(config.n_random):
            combo = [_haar_basis(rng, layout.dims[s]) for s in sites]
            experiments.append(
                DeterminantExperiment(sites, combo, tag=f"RANDOM({config.seed})")
            )
    return MeasurementPool(sites, experiments)


def post_states(
    psi: PureState,
    j_sites,
    experiment: DeterminantExperiment,
    tol: float = DEFAULT_TOL,
) -> list:
    """Residual J-states of psi under one experiment, deduplicated up to phase.

    Outcomes with probability <= tol^2 are impossible and excluded.
    """
    j = _check_sites(psi.layout, j_sites)
    if experiment.sites == ():
        if len(j) != psi.layout.sites:
            raise DomainError("the identity experiment applies only to J = all sites")
        return [psi]
    complement = tuple(s for s in psi.layout.site_indices() if s not in j)
    if experiment.sites != complement:
        raise DomainError(
            f"experiment sites {experiment.sites} != complement {complement} of J"
        )
    states: list = []
    dims = [psi.layout.dims[s] for s in experiment.sites]
    for combo in itertools.product(*(range(d) for d in dims)):
        vectors = {
            site: experiment.bases[i][:, combo[i]] for i, site in enumerate(experiment.sites)
        }
        hit = partial_contract(psi, vectors, tol=tol)
        if hit is None:
            continue
        if not any(abs(hit.state.overlap(seen)) > PHASE_MATCH for seen in states):
            states.append(hit.state)
    return states


def _separable_cuts(phi: PureState, cuts, tol: float) -> set:
    """Which of the given bipartitions (by position) split phi into a product."""
    found = set()
    for a, b in cuts:
        coeffs = np.linalg.svd(_matricize(phi, a), compute_uv=False)
        if len(coeffs) < 2 or float(coeffs[1]) <= tol:
            found.add((a, b))
    return found


def _classify_single_state(phi: PureState, cuts, tol: float) -> IntricationClass:
    """Class of (state, J) when the residual set is {phi} for every experiment."""
    seps = _separable_cuts(phi, cuts, tol)
    if not seps:
        return IntricationClass.GLOBALLY_ENTANGLED
    if len(seps) == len(cuts):
        return IntricationClass.TOTALLY_SEPARATED
    return IntricationClass.CLEARLY_SEPARABLE_ONLY


def _factor_on(psi: PureState, j: tuple, tol: float) -> Optional[PureState]:
    """The J-factor of psi when psi splits as (J-part) x (rest), else None."""
    if len(j) == psi.layout.sites:
        return psi
    mat = _matricize(psi, j)
    u, s, _ = np.linalg.svd(mat)
    if len(s) >= 2 and float(s[1]) > tol:
        return None
    return PureState(SiteLayout(psi.layout.dims[site] for site in j), u[:, 0])


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
    """
    j = _check_sites(psi.layout, j_sites)
    if len(j) < 2:
        raise DomainError("classification needs a subset with at least two sites")
    if any(psi.layout.dims[s] < 2 for s in psi.layout.site_indices()):
        raise DomainError("analysis requires every site dimension >= 2")
    cuts = _bipartitions(range(len(j)))

    factor = _factor_on(psi, j, tol)
    if factor is not None:
        return Classification(_classify_single_state(factor, cuts, tol), Confidence.CERTIFIED)

    if isinstance(pool, PoolConfig):
        complement = tuple(s for s in psi.layout.site_indices() if s not in j)
        pool = build_pool(psi.layout, complement, pool)

    all_ent = []
    all_sep = []
    has_both = []
    sep_along: dict = {cut: True for cut in cuts}
    any_ent = False
    any_sep = False
    for experiment in pool.experiments:
        outcomes = post_states(psi, j, experiment, tol=tol)
        profiles = [_separable_cuts(phi, cuts, tol) for phi in outcomes]
        ent_here = any(not p for p in profiles)
        sep_here = any(p for p in profiles)
        any_ent |= ent_here
        any_sep |= sep_here
        all_ent.append(not sep_here)
        all_sep.append(not ent_here)
        has_both.append(ent_here and sep_here)
        for cut in cuts:
            if not all(cut in p for p in profiles):
                sep_along[cut] = False

    if all(all_ent):
        kind = IntricationClass.GLOBALLY_ENTANGLED
    elif all(all_sep):
        if all(sep_along.values()):
            kind = IntricationClass.TOTALLY_SEPARATED
        elif any(sep_along.values()):
            kind = IntricationClass.CLEARLY_SEPARABLE_ONLY
        else:
            kind = IntricationClass.GLOBALLY_SEPARABLE_ONLY
    elif all(has_both):
        kind = IntricationClass.TOTALLY_MIXED
    else:
        well_ent = any(all_ent) and not all(all_ent)
        well_sep = any(all_sep) and not all(all_sep)
        if well_ent and well_sep:
            kind = IntricationClass.WELL_ENTANGLED_AND_SEPARABLE
        elif well_ent:
            kind = IntricationClass.WELL_ENTANGLED_ONLY
        elif well_sep:
            kind = IntricationClass.WELL_SEPARABLE_ONLY
        else:
            # mixed but no homogeneous experiment: every experiment mixes
            kind = IntricationClass.TOTALLY_MIXED
        assert any_ent and any_sep
    return Classification(kind, Confidence.POOL_LIMITED)


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
    classes = {
        tuple(s + 1 for s in j): classify_on_subset(psi, j, pool, tol=tol)
        for r in range(2, k + 1)
        for j in itertools.combinations(range(k), r)
    }
    ground = GroundSet(range(1, k + 1))
    structures = {}
    for name in STRUCTURE_NAMES:
        generators = [
            j_labels
            for j_labels, cls in classes.items()
            if cls.kind in _FAMILY_CLASSES[name]
        ]
        structures[name] = generate_integral(ground, generators)
    omega = max(connective_order(structures[name]) for name in STRUCTURE_NAMES)
    return DisentanglementReport(k, classes, structures, omega, pool)
