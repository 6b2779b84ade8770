"""Correlation and entanglement structures of density operators.

A reduced operator on a subset J is *completely correlated* when no
bipartition of J factorizes it, and *completely entangled* when it is
entangled across every bipartition of J.  Both predicates feed generator
families for integral connectivity structures on the site set.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .connective import (
    ConnectiveStructure,
    GroundSet,
    _bipartitions,
    connective_order,
    generate_integral,
)
from .disentangle import PoolConfig, disentanglement_structures
from .errors import DomainError
from .quantum import (
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    Verdict,
    _check_sites,
    _matricize,
    partial_trace,
    ppt_is_separable,
    purity,
)


class VerdictQuality(enum.Enum):
    EXACT = "EXACT"
    PPT_NECESSARY = "PPT_NECESSARY"


@dataclass(frozen=True)
class SubsetDensityVerdict:
    completely_correlated: bool
    completely_entangled: bool
    quality: VerdictQuality


@dataclass(frozen=True)
class DensityReport:
    """Per-subset verdicts, the corr and Sugita structures, and their max order."""

    sites: int
    subsets: Mapping[tuple, SubsetDensityVerdict]
    kappa_corr: ConnectiveStructure
    kappa_s: ConnectiveStructure
    omega_f: int


@dataclass(frozen=True)
class TotalOrder:
    omega_c: int
    omega_f: int
    omega: int


def is_completely_correlated_on(
    rho: DensityOperator, j_sites, tol: float = DEFAULT_TOL
) -> bool:
    """True when no bipartition of J factorizes the reduction of rho to J.

    If a factorization across (J1, J2) exists its factors must equal the
    corresponding reductions, so it suffices to compare against the product
    of reductions, bipartition by bipartition, in max-entry norm.
    """
    j = _check_sites(rho.layout, j_sites)
    if len(j) < 2:
        raise DomainError("correlation analysis needs at least two sites")
    reduced = partial_trace(rho, j)
    positions = tuple(range(len(j)))
    for a, b in _bipartitions(positions):
        rho_a = partial_trace(reduced, a).matrix
        rho_b = partial_trace(reduced, b).matrix
        product = _reassemble_product(rho_a, rho_b, a, b, reduced.layout.dims)
        if np.max(np.abs(product - reduced.matrix)) <= tol:
            return False
    return True


def _reassemble_product(mat_a, mat_b, sites_a, sites_b, dims) -> np.ndarray:
    """kron(mat_a, mat_b) with axes permuted back into the original site order."""
    k = len(dims)
    raw = np.kron(mat_a, mat_b)
    order = list(sites_a) + list(sites_b)
    raw_dims = tuple(dims[s] for s in order)
    tens = raw.reshape(raw_dims + raw_dims)
    inverse = [order.index(i) for i in range(k)]
    perm = inverse + [k + p for p in inverse]
    n = math.prod(dims)
    return np.transpose(tens, perm).reshape(n, n)


def is_completely_entangled_on(
    rho: DensityOperator, j_sites, tol: float = DEFAULT_TOL
) -> tuple:
    """(verdict, quality) for entanglement of the reduction across every bipartition.

    Pure reductions get an exact Schmidt-rank test; mixed ones go through the
    partial-transpose criterion, whose negative answer is only exact for 2x2
    and 2x3 splits (quality PPT_NECESSARY otherwise).
    """
    j = _check_sites(rho.layout, j_sites)
    if len(j) < 2:
        raise DomainError("entanglement analysis needs at least two sites")
    reduced = partial_trace(rho, j)
    positions = tuple(range(len(j)))
    quality = VerdictQuality.EXACT
    entangled_everywhere = True

    if abs(purity(reduced) - 1.0) <= tol:
        _, eigvecs = np.linalg.eigh(reduced.matrix)
        psi = PureState(reduced.layout, eigvecs[:, -1])
        for a, _b in _bipartitions(positions):
            coeffs = np.linalg.svd(_matricize(psi, a), compute_uv=False)
            if len(coeffs) < 2 or float(coeffs[1]) <= tol:
                entangled_everywhere = False
                break
        return entangled_everywhere, quality

    for a, b in _bipartitions(positions):
        verdict = ppt_is_separable(reduced, a, b, tol=tol)
        if verdict is Verdict.SEPARABLE:
            entangled_everywhere = False
        elif verdict is Verdict.PPT_INCONCLUSIVE:
            # positive partial transpose is only necessary for separability;
            # treat as separable but degrade the quality flag
            entangled_everywhere = False
            quality = VerdictQuality.PPT_NECESSARY
    return entangled_everywhere, quality


def density_structures(rho: DensityOperator, tol: float = DEFAULT_TOL) -> DensityReport:
    """Evaluate both predicates on every subset and generate kappa_corr, kappa_S."""
    k = rho.layout.sites
    if k < 2:
        raise DomainError("density analysis needs at least two sites")
    subsets = {}
    for r in range(2, k + 1):
        for j in itertools.combinations(range(k), r):
            corr = is_completely_correlated_on(rho, j, tol=tol)
            intr, quality = is_completely_entangled_on(rho, j, tol=tol)
            subsets[tuple(s + 1 for s in j)] = SubsetDensityVerdict(corr, intr, quality)
    ground = GroundSet(range(1, k + 1))
    kappa_corr = generate_integral(
        ground, [j for j, v in subsets.items() if v.completely_correlated]
    )
    kappa_s = generate_integral(
        ground, [j for j, v in subsets.items() if v.completely_entangled]
    )
    omega_f = max(connective_order(kappa_corr), connective_order(kappa_s))
    return DensityReport(k, subsets, kappa_corr, kappa_s, omega_f)


def total_order(psi: PureState, pool: PoolConfig, tol: float = DEFAULT_TOL) -> TotalOrder:
    """Run both pipelines on a pure state; the total order is their maximum."""
    report_c = disentanglement_structures(psi, pool, tol=tol)
    report_f = density_structures(psi.density(), tol=tol)
    return TotalOrder(
        report_c.omega_c,
        report_f.omega_f,
        max(report_c.omega_c, report_f.omega_f),
    )
