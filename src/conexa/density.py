"""Correlation and entanglement structures of density operators.

A reduced operator on a subset J is *completely correlated* when no
bipartition of J factorizes it, and *completely entangled* when it is
entangled across every bipartition of J.  Both predicates feed generator
families for integral connectivity structures on the site set.  An
analysis reduces rho to each site tuple once: a subset's reduction serves
both predicates and the correlation test of every subset it is a side of.

A cut A|B of J factorizes rho_J when every entry of D = rho_J - rho_A (x) rho_B
is at most tol in modulus.  Then ||D||_F <= n tol for rho_J of dimension n,
and the Frobenius norm of a Kronecker product is the product of the norms,
so by the triangle inequality such a cut has
| ||rho_J||_F - ||rho_A||_F ||rho_B||_F | <= n tol, up to a rounding band
(`_norms_allow_product`).  Each reduction's norm is
computed once, and a cut whose norms break that bound is not tested entrywise.
The bound is only necessary: the entrywise test still decides every cut that
meets it, so every verdict is the one the entrywise test alone gives.
"""

from __future__ import annotations

import enum
import functools
import math
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
    _EPS,
    _TINY,
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    Verdict,
    _frobenius,
    _separable_cuts,
    partial_trace,
    ppt_verdicts,
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


def _norms(reduce):
    """Frobenius norm of each reduction by site tuple, each computed once."""
    return functools.cache(lambda sites: _frobenius(reduce(sites).matrix))


def _norms_allow_product(norm_j: float, norm_a: float, norm_b: float, n: int,
                         tol: float) -> bool:
    """Whether |norm_j - norm_a norm_b| <= n tol + delta for computed
    Frobenius norms: False only when the entrywise test max |rho_J - P| <= tol,
    run in floating point on P = rho_A (x) rho_B in J order, cannot pass.
    rho_J has dimension n.

    With u the unit roundoff (eps / 2): an accepted entry of the computed
    difference puts the exact one within tol (1 + 4u), and each entry of the
    computed P is one complex product a b, off by at most 3u |a| |b| (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Lemma 3.5).  Summed in
    the Frobenius norm, ||rho_J - rho_A (x) rho_B||_F <= n tol (1 + 4u) +
    3u ||rho_A||_F ||rho_B||_F, which bounds the gap of the exact norms by
    the triangle inequality.  A norm of N entries computed by vdot and sqrt
    is off by at most (N + 1) u relatively (Higham, Section 3.1), and
    N_A + N_B <= n^2 + 1; so the computed gap exceeds n tol by less than
    delta = 2 (n^2 + 8) eps (norm_j + norm_a norm_b) + 4 n eps tol, which
    also covers rounding the gap and n tol.  Entries whose squares or
    products underflow add at most n sqrt(tiny) (1 + norm_a + norm_b), also
    in delta.  A norm or bound that overflows makes the comparison inf or
    nan, and the cut is left to the entrywise test.
    """
    product = norm_a * norm_b
    delta = (2 * (n * n + 8) * _EPS * (norm_j + product) + 4 * n * _EPS * tol
             + 2 * n * math.sqrt(_TINY) * (1 + norm_a + norm_b))
    return not abs(norm_j - product) > n * tol + delta


def _product(sides, cut) -> np.ndarray:
    """rho_A (x) rho_B as a matrix in J order, from the reductions `sides` to
    the positions cut = (A, B) of J."""
    # each side's reduction as a tensor whose axes are labelled by their
    # positions in J (ket p, bra k + p): einsum puts the product in J order
    k = len(cut[0]) + len(cut[1])
    operands = []
    for rho_side, side in zip(sides, cut):
        operands.append(rho_side.matrix.reshape(rho_side.layout.dims * 2))
        operands.append([*side, *(k + p for p in side)])
    n = sides[0].matrix.shape[0] * sides[1].matrix.shape[0]
    return np.einsum(*operands, list(range(2 * k))).reshape(n, n)


def _completely_correlated(reduce, norm, j: tuple, tol: float) -> bool:
    reduced = reduce(j).matrix
    for cut in _bipartitions(range(len(j))):
        sides = [tuple(j[p] for p in side) for side in cut]
        # the norms rule out most cuts before any product is formed
        if (_norms_allow_product(norm(j), *map(norm, sides), reduced.shape[0], tol)
                and np.max(np.abs(_product([reduce(s) for s in sides], cut) - reduced)) <= tol):
            return False
    return True


def _completely_entangled(reduced: DensityOperator, tol: float) -> tuple:
    if abs(purity(reduced) - 1.0) <= tol:
        top = np.linalg.eigh(reduced.matrix)[1][:, -1]
        cuts = _bipartitions(range(reduced.layout.sites))
        split = _separable_cuts(top, reduced.layout.dims, cuts, tol)
        return not split.any(), VerdictQuality.EXACT
    # positive partial transpose is only necessary for separability: an
    # inconclusive cut counts as separable but degrades the quality flag, so
    # the first one settles both and ends the pass over the cuts
    verdicts = ppt_verdicts(reduced, tol=tol)
    if verdicts[-1] is Verdict.PPT_INCONCLUSIVE:
        return False, VerdictQuality.PPT_NECESSARY
    return all(v is Verdict.ENTANGLED for v in verdicts), VerdictQuality.EXACT


def density_structures(rho: DensityOperator, tol: float = DEFAULT_TOL) -> DensityReport:
    """Evaluate both predicates on every subset and generate kappa_corr, kappa_S."""
    k = rho.layout.sites
    if k < 2:
        raise DomainError("density analysis needs at least two sites")
    reduce = _reductions(rho)
    norm = _norms(reduce)

    def verdict(j):
        corr = _completely_correlated(reduce, norm, j, tol)
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
