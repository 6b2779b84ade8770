"""Correlation and entanglement structures of density operators.

A reduced operator on a subset J is *completely correlated* when no
bipartition of J factorizes it, and *completely entangled* when it is
entangled across every bipartition of J.  Both predicates feed generator
families for integral connectivity structures on the site set.  An
analysis reduces rho to each proper site tuple once, and the full set is rho
itself (`connective._restrictions`): a subset's reduction serves both
predicates and the correlation test of every subset it is a side of.

A cut A|B of J factorizes rho_J when every entry of D = rho_J - rho_A (x) rho_B
is at most tol in modulus.  Then ||D||_F <= n tol for rho_J of dimension n,
and the Frobenius norm of a Kronecker product is the product of the norms,
so by the triangle inequality such a cut has
| ||rho_J||_F - ||rho_A||_F ||rho_B||_F | <= n tol, up to a rounding band
(`_norms_allow_product`).  `_split_cuts` decides every cut of every subset
in one step: the norm and the dimension of each reduction sit in arrays
indexed by site mask, one array expression applies the bound to every cut
of `connective._cut_table`, and only the cuts that meet it form their
product for the entrywise test.  The bound is only necessary, so every
verdict is the one the entrywise test alone gives.  One
`np.logical_or.reduceat` over the cut verdicts gives each subset's.

Entanglement is judged on the subsets that no cut factorizes (a factoring
cut settles it, see `density_structures`): a pure reduction by the Schmidt
coefficients of its top eigenvector across each cut, and the mixed ones of
each layout together by one `quantum.ppt_entangled` call, which decides a
small layout's cuts in one stacked eigvalsh and certifies most entangled cuts
of a larger one from small principal blocks, over its leading and its
trailing sites, before it factorizes the rest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .connective import (
    ConnectiveStructure,
    _cut_table,
    _mask_positions,
    _restrictions,
    _subset_structures,
    _subsets,
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
    _frobenius,
    _separable_cuts,
    partial_trace,
    ppt_entangled,
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

    subsets: Mapping[tuple, SubsetDensityVerdict]
    kappa_corr: ConnectiveStructure
    kappa_s: ConnectiveStructure
    omega_f: int


@dataclass(frozen=True)
class TotalOrder:
    omega_c: int
    omega_f: int
    omega: int


def _norms_allow_product(norm_j, norm_a, norm_b, n, tol: float):
    """Whether |norm_j - norm_a norm_b| <= n tol + delta for computed
    Frobenius norms, elementwise over arrays: False only when the entrywise
    test max |rho_J - P| <= tol, run in floating point on P = rho_A (x) rho_B
    in J order, cannot pass.  rho_J has dimension n.

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
    with np.errstate(over="ignore", invalid="ignore"):
        product = norm_a * norm_b
        delta = (2 * (n * n + 8) * _EPS * (norm_j + product) + 4 * n * _EPS * tol
                 + 2 * n * math.sqrt(_TINY) * (1 + norm_a + norm_b))
        return np.logical_not(abs(norm_j - product) > n * tol + delta)


def _product(sides, cut) -> np.ndarray:
    """rho_A (x) rho_B as a matrix in J order, from the reductions `sides` to
    the positions cut = (A, B) of J."""
    # each side's reduction as a tensor whose axes are labelled by their
    # positions in J (ket p, bra k + p): einsum puts the product in J order
    k = len(cut[0]) + len(cut[1])
    operands = []
    for rho_side, side in zip(sides, cut):
        operands.append(rho_side.matrix.reshape(rho_side.dims * 2))
        operands.append([*side, *(k + p for p in side)])
    n = sides[0].matrix.shape[0] * sides[1].matrix.shape[0]
    return np.einsum(*operands, list(range(2 * k))).reshape(n, n)


def _split_cuts(reduce, k: int, tol: float) -> np.ndarray:
    """Bool per cut of `connective._cut_table(k)`: whether the cut (J, a, b)
    factorizes rho_J, max |rho_J - rho_a (x) rho_b| <= tol.

    The norm and the dimension of every reduction sit in arrays indexed by
    site mask, so one `_norms_allow_product` call applies the norm bound to
    every cut; only the cuts that meet it form their product.
    """
    norms, dims = np.zeros(1 << k), np.ones(1 << k)
    for mask in range(1, 1 << k):
        matrix = reduce(_mask_positions(mask)).matrix
        norms[mask], dims[mask] = _frobenius(matrix), len(matrix)
    cuts = _cut_table(k)[1]
    j, a, b = cuts
    split = _norms_allow_product(norms[j], norms[a], norms[b], dims[j], tol)
    passing = np.flatnonzero(split)
    for c, masks in zip(passing, cuts[:, passing].T.tolist()):
        sites, *sides = map(_mask_positions, masks)
        cut = [tuple(map(sites.index, side)) for side in sides]
        product = _product([reduce(side) for side in sides], cut)
        split[c] = np.max(np.abs(product - reduce(sites).matrix)) <= tol
    return split


def density_structures(rho: DensityOperator, tol: float = DEFAULT_TOL) -> DensityReport:
    """Evaluate both predicates on every subset and generate kappa_corr, kappa_S.

    A factoring cut decides that J is not completely entangled, EXACT: rho_J is
    within tol of rho_A (x) rho_B, separable along the cut.  (Closeness entrywise
    bounds the partial transpose's eigenvalues only to about dim_J tol.)  A pure
    reduction is judged by the Schmidt coefficients of its top eigenvector.
    The mixed reductions of one layout go to one `ppt_entangled` call, where
    a positive partial transpose is only necessary for separability: an
    inconclusive cut counts as separable but degrades the quality flag.
    """
    k = len(rho.dims)
    if k < 2:
        raise DomainError("density analysis needs at least two sites")
    reduce = _restrictions(rho, k, partial_trace)
    split = np.logical_or.reduceat(_split_cuts(reduce, k, tol), _cut_table(k)[0])
    entangled, layouts = {}, {}
    for (j, _), factors in zip(_subsets(k), split.tolist()):
        if factors:  # a factoring cut decides
            continue
        reduced = reduce(j)
        if abs(purity(reduced) - 1.0) <= tol:
            top = np.linalg.eigh(reduced.matrix)[1][:, -1]
            entangled[j] = not _separable_cuts(top, reduced.dims, tol).any(), True
        else:
            layouts.setdefault(reduced.dims, []).append((j, reduced))
    for stack in layouts.values():
        js, operators = zip(*stack)
        npt, exact = ppt_entangled(operators, tol)
        entangled.update(zip(js, zip(npt.tolist(), exact.tolist())))

    def verdict(j):
        if j not in entangled:
            return SubsetDensityVerdict(False, False, VerdictQuality.EXACT)
        npt, exact = entangled[j]
        quality = VerdictQuality.EXACT if exact else VerdictQuality.PPT_NECESSARY
        return SubsetDensityVerdict(True, npt, quality)

    subsets, structures = _subset_structures(k, verdict, {
        "corr": lambda v: v.completely_correlated,
        "S": lambda v: v.completely_entangled,
    })
    kappa_corr, kappa_s = structures["corr"], structures["S"]
    omega_f = max(connective_order(kappa_corr), connective_order(kappa_s))
    return DensityReport(subsets, kappa_corr, kappa_s, omega_f)


def total_order(psi: PureState, tol: float = DEFAULT_TOL) -> TotalOrder:
    """Run both pipelines on a pure state; the total order is their maximum."""
    report_c = disentanglement_structures(psi, tol=tol)
    report_f = density_structures(psi.density(), tol=tol)
    omega_c, omega_f = report_c.omega_c, report_f.omega_f
    return TotalOrder(omega_c, omega_f, max(omega_c, omega_f))
