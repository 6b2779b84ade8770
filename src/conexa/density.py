"""Correlation and entanglement structures of density operators.

A reduced operator on a subset J is *completely correlated* when no
bipartition of J factorizes it, and *completely entangled* when it is
entangled across every bipartition of J.  Both predicates feed generator
families for integral connectivity structures on the site set.  An
analysis reduces rho to each site tuple once: a subset's reduction serves
both predicates and the correlation test of every subset it is a side of.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .connective import (
    ConnectiveStructure,
    _bipartitions,
    _subset_structures,
    connective_order,
)
from .disentangle import disentanglement_structures
from .errors import DomainError
from .quantum import (
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    Verdict,
    _separable_cuts,
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


def _reductions(rho: DensityOperator):
    """partial_trace of rho by sorted site tuple, each tuple reduced once."""
    return functools.cache(lambda sites: partial_trace(rho, sites))


def _completely_correlated(reduce, j: tuple, tol: float) -> bool:
    reduced = reduce(j).matrix
    k = len(j)
    for cut in _bipartitions(range(k)):
        # each side's reduction as a tensor whose axes are labelled by their
        # positions in J (ket p, bra k + p): einsum puts the product in J order
        operands = []
        for side in cut:
            rho_side = reduce(tuple(j[p] for p in side))
            operands.append(rho_side.matrix.reshape(rho_side.layout.dims * 2))
            operands.append([*side, *(k + p for p in side)])
        product = np.einsum(*operands, list(range(2 * k))).reshape(reduced.shape)
        if np.max(np.abs(product - reduced)) <= tol:
            return False
    return True


def _completely_entangled(reduced: DensityOperator, tol: float) -> tuple:
    cuts = _bipartitions(range(reduced.layout.sites))
    if abs(purity(reduced) - 1.0) <= tol:
        top = np.linalg.eigh(reduced.matrix)[1][:, -1]
        split = _separable_cuts(top, reduced.layout.dims, cuts, tol)
        return not split.any(), VerdictQuality.EXACT
    # positive partial transpose is only necessary for separability: an
    # inconclusive cut counts as separable but degrades the quality flag, so
    # the first one settles both and the remaining cuts are not tested
    entangled = True
    for a, b in cuts:
        verdict = ppt_is_separable(reduced, a, b, tol=tol)
        if verdict is Verdict.PPT_INCONCLUSIVE:
            return False, VerdictQuality.PPT_NECESSARY
        entangled = entangled and verdict is Verdict.ENTANGLED
    return entangled, VerdictQuality.EXACT


def density_structures(rho: DensityOperator, tol: float = DEFAULT_TOL) -> DensityReport:
    """Evaluate both predicates on every subset and generate kappa_corr, kappa_S."""
    k = rho.layout.sites
    if k < 2:
        raise DomainError("density analysis needs at least two sites")
    reduce = _reductions(rho)

    def verdict(j):
        corr = _completely_correlated(reduce, j, tol)
        return SubsetDensityVerdict(corr, *_completely_entangled(reduce(j), tol))

    subsets, structures = _subset_structures(k, verdict, {
        "corr": lambda v: v.completely_correlated,
        "S": lambda v: v.completely_entangled,
    })
    kappa_corr, kappa_s = structures["corr"], structures["S"]
    omega_f = max(connective_order(kappa_corr), connective_order(kappa_s))
    return DensityReport(k, subsets, kappa_corr, kappa_s, omega_f)


def total_order(psi: PureState, tol: float = DEFAULT_TOL) -> TotalOrder:
    """Run both pipelines on a pure state; the total order is their maximum."""
    report_c = disentanglement_structures(psi, tol=tol)
    report_f = density_structures(psi.density(), tol=tol)
    return TotalOrder(
        report_c.omega_c,
        report_f.omega_f,
        max(report_c.omega_c, report_f.omega_f),
    )
