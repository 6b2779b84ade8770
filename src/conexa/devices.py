"""Finite multilocal devices: locality taxonomy and connectivity structures.

A device is a coherent relation from question tuples to nonempty sets of
answer tuples, one slot per site.  Both structure families are read off one
scan of the deterministic realizations (selection functions inside the
relation), guarded by a configurable cap on their number.  The realizations
form an array with one axis per question that has several answers, and the
scan broadcasts over blocks of its trailing axes.  Each realization gets a dependency code: which
questions each output reads.  A realization factors along a partition of the
sites exactly when no output reads a question outside its block, so the
locality predicates (and the tensorial structures built from them) come from
the codes and the pairs the factoring realizations select; the domanial
structures are the meet of every code's domain structures, each distinct code
folded in once.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .connective import (
    ConnectiveStructure,
    _bipartitions,
    _check_indices,
    _check_labels,
    _close,
    _named,
    _restrictions,
    _subset_structures,
    _subsets,
    connective_order,
)
from .errors import DomainError, ResourceError
from .quantum import DEFAULT_TOL, PureState, _eigensystem, _residuals

# 2**20, not 10**6: the reference three-site device has exactly 4^4 * 8^4
# deterministic realizations and must stay enumerable under the default.
DEFAULT_CAP = 1 << 20

# The locality implication lattice: each notion implies the next.
_IMPLIES = (
    ("local", "quasi_local"),
    ("quasi_local", "partially_local"),
    ("local", "separable"),
    ("quasi_local", "quasi_separable"),
    ("partially_local", "partially_separable"),
    ("separable", "quasi_separable"),
    ("quasi_separable", "pseudo_separable"),
    ("pseudo_separable", "partially_separable"),
)
# Each notion's tensorial structure, generated by the sub-devices it fails
# on; report order.  `_profile` refuses a profile that breaks `_IMPLIES`, so
# where a implies b every sub-device failing b fails a, and b's structure lies
# inside a's.
_STRUCTURE_OF = {
    "partially_separable": "NPS",
    "pseudo_separable": "NOS",
    "partially_local": "NPL",
    "quasi_separable": "NQS",
    "quasi_local": "NQL",
    "separable": "NS",
    "local": "NL",
}


@dataclass(frozen=True)
class Device:
    """Question/answer label sets per site plus the relation table.

    Coherence (a nonempty answer set for every question tuple) is enforced at
    construction time.  The relation is a set of pairs, so relation keys that
    name one question tuple pool their answers; each pool is frozen in sorted
    order, so equal tables have equal reprs.  The relation is a read-only
    view, so a checked table cannot change after its checks.
    """

    questions: tuple
    results: tuple
    relation: Mapping[tuple, frozenset]

    def __init__(self, questions, results, relation):
        questions = _check_labels(questions, "question")
        results = _check_labels(results, "result")
        if len(questions) != len(results):
            raise DomainError("questions and results must list the same number of sites")
        if not questions:
            raise DomainError("a device needs at least one site")
        table: dict = {}
        for q, answers in relation.items():
            table.setdefault(tuple(q), set()).update(tuple(r) for r in answers)
        result_sets = [set(rs) for rs in results]
        for q in itertools.product(*questions):
            if q not in table or not table[q]:
                raise DomainError(f"device is not coherent: no answers for question {q}")
            for r in table[q]:
                if len(r) != len(results) or any(
                    x not in result_sets[i] for i, x in enumerate(r)
                ):
                    raise DomainError(f"answer {r} for question {q} is not well-typed")
        if len(table) != math.prod(len(qs) for qs in questions):
            raise DomainError("relation has entries outside the question product")
        object.__setattr__(self, "questions", questions)
        object.__setattr__(self, "results", results)
        relation = {q: frozenset(sorted(a)) for q, a in table.items()}
        object.__setattr__(self, "relation", types.MappingProxyType(relation))

    @classmethod
    def _derived(cls, questions: tuple, results: tuple, relation: dict) -> "Device":
        """Wrap the tables of a checked device's restriction, without the input checks."""
        device = object.__new__(cls)
        object.__setattr__(device, "questions", questions)
        object.__setattr__(device, "results", results)
        object.__setattr__(device, "relation", types.MappingProxyType(relation))
        return device

    @property
    def uplicity(self) -> int:
        return len(self.questions)

    def question_tuples(self) -> list:
        return sorted(self.relation)


@dataclass(frozen=True)
class LocalityProfile:
    """The seven locality booleans plus witnesses where one exists."""

    local: bool
    quasi_local: bool
    partially_local: bool
    separable: bool
    quasi_separable: bool
    pseudo_separable: bool
    partially_separable: bool
    separable_cut: Optional[tuple] = None
    quasi_separable_cut: Optional[tuple] = None
    partially_separable_cut: Optional[tuple] = None

    def check_implications(self) -> list:
        """Violated arrows of the locality implication lattice (empty when sound)."""
        return [
            (a, b) for a, b in _IMPLIES if getattr(self, a) and not getattr(self, b)
        ]


def sub_device(device: Device, j_sites) -> Device:
    """Restriction to J: restricted tuples related when some full pair extends them."""
    j = _check_indices(j_sites, device.uplicity)
    if not j:
        raise DomainError("sub-device needs a nonempty site set")
    questions = tuple(device.questions[s] for s in j)
    results = tuple(device.results[s] for s in j)
    relation: dict = {q: set() for q in itertools.product(*questions)}
    for q, answers in device.relation.items():
        relation[tuple(q[s] for s in j)].update(tuple(r[s] for s in j) for r in answers)
    table = {q: frozenset(sorted(answers)) for q, answers in relation.items()}
    return Device._derived(questions, results, table)


def realization_count(device: Device) -> int:
    """Number of deterministic realizations: the product of answer-set sizes."""
    return math.prod(len(v) for v in device.relation.values())


# ---------------------------------------------------------------------------
# the realization scan

# Most realizations per vectorized step of the scan; a step holds more only
# when its one question axis alone has more.
_CHUNK = 1 << 18
# Widest dependency codes, in bits, that the scan tells apart by a bool table
# over the code space (64 KiB at 16 bits); at 25 bits np.unique per block
# beats scattering into a 32 MiB table.
_TABLE_BITS = 16


def _axis_any(x: np.ndarray) -> list:
    """Per axis of the boolean array x, whether each index along it holds a
    true entry.  Each level halves the axis list with two reductions, instead
    of one reduction over all other axes per axis."""
    if x.ndim == 1:
        return [x]
    half = x.ndim // 2
    return _axis_any(x.any(axis=tuple(range(half, x.ndim)))) + _axis_any(
        x.any(axis=tuple(range(half)))
    )


def _scan(device: Device) -> tuple:
    """(coverage, codes) over the deterministic realizations.  The coverage
    matrix has one row per partition, and one column per related (question,
    answer) pair, sorted.  The partitions are the singletons followed by each
    cut of `connective._bipartitions`.  `codes` lists the distinct dependency
    codes, ascending.

    A realization is a choice index per question, so the realizations form an
    array in C order, with one axis per question that has two or more
    answers.  Its dependency code sets bit (i, j) when some pair of questions
    differing only in slot j yields different i-th outputs.  The question set
    is a full product, so the realization factors along a partition of the
    sites exactly when it sets no bit (i, j) with i and j in different blocks.
    Entry (p, c) is true when some realization factoring along partition p
    selects pair c.

    The scan loops over the leading axes and broadcasts over the trailing
    ones: at most `_CHUNK` realizations per block, but at least one axis.
    The pair tables are ORed together while they are small, so a block's
    codes take one full-size OR, or none when no table reads a leading
    question and the block-invariant `base` holds every block's codes.
    Codes of k * k <= `_TABLE_BITS` bits (k <= 4 sites) are collected in a
    bool table over the code space, indexed by intp slices of 2^15 codes;
    wider ones by `np.unique` of each block into a set.
    """
    qs = device.question_tuples()
    k = device.uplicity
    code_dtype = np.min_scalar_type((1 << k * k) - 1)
    answers = [np.array(sorted(device.relation[q])) for q in qs]
    sizes = [len(choices) for choices in answers]
    free = [qi for qi, size in enumerate(sizes) if size > 1] or [len(qs) - 1]
    lead = len(free) - 1
    while lead and math.prod(sizes[qi] for qi in free[lead - 1:]) <= _CHUNK:
        lead -= 1
    leading = free[:lead]
    axis = {qi: n for n, qi in enumerate(free[lead:])}
    block = [sizes[qi] for qi in axis]
    # A block fixes the choices of the questions with no axis in it: the
    # block index on the leading ones, 0 on those with one answer.
    fixed = [qi for qi in range(len(qs)) if qi not in axis]
    choice = [0] * len(qs)

    # Each pair of questions a < b differing in slot j alone sets the bits
    # (i, j) its two choices give, by a table of shape (sizes[a], sizes[b]).
    # A table on no leading question is the same in every block and joins
    # `grow[n]`, n the first block axis it spans, so that `base` grows one
    # axis at a time from the last, by one broadcast each.  Any other table
    # joins the rows keyed by the leading questions among a and b, one row
    # per choice of theirs, so that each block reads one row per key.
    q_pos = {q: idx for idx, q in enumerate(qs)}
    grow = [0] * len(block)
    rows = {}
    bits = [np.array([1 << (i * k + j) for i in range(k)], dtype=np.int64) for j in range(k)]
    for a, q in enumerate(qs):
        for j in range(k):
            for lab in device.questions[j]:
                b = q_pos[q[:j] + (lab,) + q[j + 1:]]
                if b <= a:
                    continue
                differ = answers[a][:, None, :] != answers[b][None, :, :]
                table = (differ @ bits[j]).astype(code_dtype)
                shape = [sizes[qi] if qi in (a, b) else 1 for qi in axis]
                key = tuple(qi for qi in (a, b) if qi in leading)
                if key:
                    rows[key] = rows.get(key, 0) | table.reshape([sizes[qi] for qi in key] + shape)
                else:
                    n = axis.get(a, axis.get(b, 0))
                    grow[n] = grow[n] | table.reshape(shape[n:])
    base = np.zeros((), dtype=code_dtype)
    for n in reversed(range(len(block))):
        base = np.bitwise_or(grow[n], base, out=np.empty(block[n:], code_dtype))
    # question qi's pairs are the columns offsets[qi]:offsets[qi + 1]; block
    # axis n's are spans[n]
    offsets = np.cumsum([0, *sizes])
    spans = [slice(offsets[qi], offsets[qi + 1]) for qi in axis]

    partitions = [tuple((s,) for s in range(k)), *_bipartitions(k)]
    crossing = [
        sum(1 << (i * k + j) for a in blocks for b in blocks if a != b for i in a for j in b)
        for blocks in partitions
    ]
    coverage = np.zeros((len(partitions), offsets[-1]), dtype=bool)
    seen = np.zeros(1 << k * k, dtype=bool) if k * k <= _TABLE_BITS else set()

    out = np.empty_like(base) if leading else None
    for idx in np.ndindex(*(sizes[qi] for qi in leading)):
        for qi, c in zip(leading, idx):
            choice[qi] = c
        add = 0
        for key, table in rows.items():
            add = add | table[tuple(choice[qi] for qi in key)]
        # one full-size OR per block, into `out`
        dep = np.bitwise_or(base, add, out=out) if rows else base
        for mask, row in zip(crossing, coverage):
            if row.all():
                continue
            hits = _axis_any((dep & mask) == 0)
            if hits[0].any():
                row[[offsets[qi] + choice[qi] for qi in fixed]] = True
                for span, hit in zip(spans, hits):
                    row[span] |= hit
        if isinstance(seen, set):
            seen.update(np.unique(dep).tolist())
        else:
            # intp indices scatter about twice as fast as uint16 ones; a
            # slice bounds the cast copy at 256 KiB
            flat = dep.reshape(-1)
            for start in range(0, flat.size, 1 << 15):
                seen[flat[start:start + (1 << 15)].astype(np.intp)] = True
    codes = sorted(seen) if isinstance(seen, set) else np.flatnonzero(seen).tolist()
    return coverage, codes


# ---------------------------------------------------------------------------
# locality predicates


def _profile(reduce, j: tuple) -> tuple:
    """(profile, codes) of the sub-device `reduce(j)` from one `_scan` along
    the singletons and every cut: the seven notions, from which pairs the
    realizations factoring along each select, and the scan's distinct
    dependency codes.  The product tests read the block sub-devices from
    `reduce` too; cuts and blocks are positions within J."""
    device = reduce(j)
    k = len(j)
    cuts = _bipartitions(k)
    coverage, codes = _scan(device)
    every, some = coverage.all(axis=1), coverage.any(axis=1)

    def product_along(blocks):
        # R(q) lies inside the product of the block sub-devices' answer sets
        # R_B(q_B), and the blocks partition the sites, so the device is their
        # tensor exactly when the sizes agree: |R(q)| = prod_B |R_B(q_B)|.
        parts = [(reduce(tuple(j[p] for p in block)), block) for block in blocks]
        return all(
            len(answers) == math.prod(
                len(part.relation[tuple(q[s] for s in block)]) for part, block in parts
            )
            for q, answers in device.relation.items()
        )

    separable_cut = next((cut for cut in cuts if product_along(cut)), None)
    quasi_separable_cut = next((cut for cut, e in zip(cuts, every[1:]) if e), None)
    partially_separable_cut = next((cut for cut, s in zip(cuts, some[1:]) if s), None)
    profile = LocalityProfile(
        local=product_along([(p,) for p in range(k)]),
        quasi_local=bool(every[0]),
        partially_local=bool(some[0]),
        separable=separable_cut is not None,
        quasi_separable=quasi_separable_cut is not None,
        pseudo_separable=bool(coverage[1:].any(axis=0).all()),
        partially_separable=partially_separable_cut is not None,
        separable_cut=separable_cut,
        quasi_separable_cut=quasi_separable_cut,
        partially_separable_cut=partially_separable_cut,
    )
    violations = profile.check_implications()
    if violations:
        raise RuntimeError(f"locality implication lattice violated: {violations}")
    return profile, codes


# ---------------------------------------------------------------------------
# domanial structures


def _domanial(k: int, codes) -> tuple:
    """(kappa_do, kappa_dp) on the points 1..k: the meets of the domain
    structures of every dependency code, each a frozenset of masks over the
    sites.

    A closure depends only on its set of generators, which many codes share
    (the dp generators ignore the bits (i, i)), so one cache closes each set
    once for both meets, and a meet is idempotent.  The fold stops once both
    meets are the discrete family (the empty set and the k singletons), the
    bottom of the meet lattice, which no code can change.
    """
    closed = functools.cache(lambda generators: _close(k, generators)[0])
    do = dp = frozenset(range(1 << k))
    for code in codes:
        if len(do) == len(dp) == k + 1:
            break
        masks = [code >> (i * k) & ((1 << k) - 1) for i in range(k)]
        do &= closed(frozenset(masks))
        dp &= closed(frozenset(m | 1 << i for i, m in enumerate(masks)))
    return ConnectiveStructure(k, do), ConnectiveStructure(k, dp)


@dataclass(frozen=True)
class DeviceOrders:
    tensorial: int
    domanial: int
    overall: int


@dataclass(frozen=True)
class DeviceReport:
    """Full-device locality profile, the nine structures (the seven tensorial
    ones, "do" and "dp"), and the max connective orders of both families."""

    profile: LocalityProfile
    structures: Mapping[str, ConnectiveStructure]
    orders: DeviceOrders


def device_structures(device: Device, cap: int = DEFAULT_CAP) -> DeviceReport:
    """Every device layer once: sub-device profiles, tensorial and domanial
    structures, and their orders.

    Every sub-device on two or more sites is profiled, the full device last;
    one restriction cache (`connective._restrictions`) serves every profile,
    so each sub-device is built once and the full one is the device.  The
    full device's one scan yields both its locality profile and the codes
    whose domain structures meet to the domanial ones.  Before any scan, a
    device of more than 7 sites is refused (its k * k-bit codes would not
    fit), and so is one with a sub-device above `cap` realizations: the first
    in `_subsets` order, named by its 1-based sites.
    """
    k = device.uplicity
    if k < 2:
        raise DomainError("device structures need uplicity >= 2")
    if k * k > 63:
        raise ResourceError("dependency scan supports at most 7 sites")
    reduce = _restrictions(device, k, sub_device)
    for j, _ in _subsets(k):
        total = realization_count(reduce(j))
        if total > cap:
            on = ",".join(str(s + 1) for s in j)
            raise ResourceError(
                f"device on sites {on} has {total} deterministic realizations, above the cap {cap}"
            )
    verdicts, structures = _subset_structures(k, lambda j: _profile(reduce, j), {
        name: lambda verdict, notion=notion: not getattr(verdict[0], notion)
        for notion, name in _STRUCTURE_OF.items()
    })
    profile, codes = verdicts[tuple(range(1, k + 1))]
    tensorial = max(connective_order(s) for s in structures.values())
    structures["do"], structures["dp"] = _domanial(k, codes)
    domanial = max(connective_order(structures["do"]), connective_order(structures["dp"]))
    orders = DeviceOrders(tensorial, domanial, max(tensorial, domanial))
    return DeviceReport(profile, structures, orders)


# ---------------------------------------------------------------------------
# devices from quantum experiments


def _format_eigenvalue(value: float) -> str:
    rounded = round(value, 9)
    if rounded == int(rounded):
        return str(int(rounded))
    return repr(float(rounded))


def derive_device(
    psi: PureState,
    menus: Sequence[Sequence[tuple]],
    recode: str = "raw",
    tol: float = DEFAULT_TOL,
) -> Device:
    """Device table of local menu measurements on a prepared state.

    `menus[i]` lists (label, hermitian matrix) choices for site i, the labels
    being the site's questions; every observable must be Hermitian and
    nondegenerate within `tol`.  Answers are eigenvalue labels (rounded to 9
    decimals), and no two eigenvalues of one observable may share one; with
    recode="raw" they are the answers, and with recode="paper" each site's
    eigenvalues are renamed by ascending index ("0", "1", ...), so a +/-1
    spectrum becomes -1 -> "0", +1 -> "1".
    """
    if recode not in ("raw", "paper"):
        raise DomainError(f"unknown recode option {recode!r}")
    k = len(psi.dims)
    if len(menus) != k:
        raise DomainError(f"expected one menu per site ({k}), got {len(menus)}")
    questions = _check_labels([[label for label, _ in menu] for menu in menus], "question")
    # per site: label -> (the eigenvalue label of each eigenvector, their bras as rows)
    systems: list = []
    for site, (labels, menu) in enumerate(zip(questions, menus)):
        by_label = {}
        for label, (_, matrix) in zip(labels, menu):
            vals, vecs = _eigensystem(matrix, tol)
            if len(vals) != psi.dims[site]:
                raise DomainError(
                    f"observable on site {site} has dimension {len(vals)}, "
                    f"site has {psi.dims[site]}"
                )
            raws = [_format_eigenvalue(v) for v in vals]
            if len(set(raws)) < len(raws):
                raise DomainError(
                    f"observable {label!r} on site {site} has two eigenvalues with one label"
                )
            by_label[label] = raws, vecs.conj().T
        systems.append(by_label)

    # per site: each eigenvalue label, ascending -> its answer
    rename = []
    for by_label in systems:
        ranked = sorted({raw for raws, _ in by_label.values() for raw in raws}, key=float)
        rename.append({raw: str(i) if recode == "paper" else raw for i, raw in enumerate(ranked)})
    results = tuple(tuple(names.values()) for names in rename)

    tuples = list(itertools.product(*questions))
    bras = [
        np.stack([by_label[q[site]][1] for q in tuples]) for site, by_label in enumerate(systems)
    ]
    _, norms = _residuals(psi.tensor, bras)
    outcomes = list(itertools.product(*map(range, psi.dims)))
    relation = {
        q: {
            tuple(rename[site][systems[site][q[site]][0][i]] for site, i in enumerate(outcomes[o]))
            for o in np.flatnonzero(possible)
        }
        for q, possible in zip(tuples, norms > tol)
    }
    return Device(questions, results, relation)


# ---------------------------------------------------------------------------
# builtin devices


def _builtin_epr() -> Device:
    return Device(
        questions=(("*",), ("*",)),
        results=(("0", "1"), ("0", "1")),
        relation={("*", "*"): {("0", "0"), ("1", "1")}},
    )


def _builtin_epr2() -> Device:
    bits = ("0", "1")
    agree = {("0", "0"), ("1", "1")}
    return Device(
        questions=(bits, bits),
        results=(bits, bits),
        relation={
            ("0", "0"): agree,
            ("1", "1"): agree,
            ("0", "1"): set(itertools.product(bits, repeat=2)),
            ("1", "0"): set(itertools.product(bits, repeat=2)),
        },
    )


def _builtin_ghz() -> Device:
    # Question bit 1 selects the X measurement, 0 the Z measurement; answers
    # code eigenvalue -1 as 0.  The all-X question yields only the four
    # odd-parity answers: the state is a +1 eigenstate of X(x)X(x)X, so the
    # product of the three X eigenvalues is always +1.
    bits = ("0", "1")
    relation = {}
    for q in itertools.product(bits, repeat=3):
        ones = [i for i, x in enumerate(q) if x == "1"]
        if len(ones) == 0:
            relation[q] = {("0", "0", "0"), ("1", "1", "1")}
        elif len(ones) == 1:
            fixed = [i for i in range(3) if i not in ones]
            relation[q] = {
                r for r in itertools.product(bits, repeat=3) if r[fixed[0]] == r[fixed[1]]
            }
        elif len(ones) == 2:
            relation[q] = set(itertools.product(bits, repeat=3))
        else:
            relation[q] = {
                r for r in itertools.product(bits, repeat=3) if r.count("1") % 2 == 1
            }
    return Device((bits,) * 3, (bits,) * 3, relation)


def _builtin_k() -> Device:
    bits = ("0", "1")
    odd = {r for r in itertools.product(bits, repeat=3) if r.count("1") % 2 == 1}
    even = {r for r in itertools.product(bits, repeat=3) if r.count("1") % 2 == 0}
    relation = {}
    for q in itertools.product(bits, repeat=3):
        ones = q.count("1")
        if ones == 3:
            relation[q] = odd
        elif ones == 1:
            relation[q] = even
        else:
            relation[q] = set(itertools.product(bits, repeat=3))
    return Device((bits,) * 3, (bits,) * 3, relation)


BUILTIN_DEVICES = {
    "EPR": _builtin_epr,
    "EPR2": _builtin_epr2,
    "GHZ": _builtin_ghz,
    "K": _builtin_k,
}


def builtin_device(name: str) -> Device:
    """Hard-coded reference device tables."""
    return _named(BUILTIN_DEVICES, name, "builtin device")()
