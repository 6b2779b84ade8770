"""Finite multilocal devices: locality taxonomy and connectivity structures.

A device is a coherent relation from question tuples to nonempty sets of
answer tuples, one slot per site.  Both structure families are read off one
scan of the deterministic realizations (selection functions inside the
relation), vectorized over chunks and guarded by a configurable cap on their
number.  Each realization gets a dependency code: which questions each output
reads.  A realization factors along a partition of the sites exactly when no
output reads a question outside its block, so the locality predicates (and
the tensorial structures built from them) come from the codes and the pairs
the factoring realizations select; the domanial structures are the meet of
every code's domain structures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .connective import (
    ConnectiveStructure,
    GroundSet,
    _bipartitions,
    _check_indices,
    _check_labels,
    connective_order,
    discrete_structure,
    generate_integral,
    indiscrete_structure,
    meet_structures,
)
from .errors import DomainError, ResourceError
from .quantum import DEFAULT_TOL, Observable, PureState, _residuals

# 2**20, not 10**6: the reference three-site device has exactly 4^4 * 8^4
# deterministic realizations and must stay enumerable under the default.
DEFAULT_CAP = 1 << 20

TENSORIAL_NAMES = ("NPS", "NOS", "NPL", "NQS", "NQL", "NS", "NL")


@dataclass(frozen=True)
class Device:
    """Question/answer label sets per site plus the relation table.

    Coherence (a nonempty answer set for every question tuple) is enforced at
    construction time.
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
        table = {}
        for q, answers in relation.items():
            q = tuple(str(x) for x in q)
            answers = frozenset(tuple(str(x) for x in r) for r in answers)
            table[q] = answers
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
        object.__setattr__(self, "relation", table)

    @property
    def uplicity(self) -> int:
        return len(self.questions)

    def question_tuples(self) -> list:
        return sorted(self.relation)

    def pairs(self) -> Iterator[tuple]:
        """All related (question, answer) pairs."""
        for q in self.question_tuples():
            for r in sorted(self.relation[q]):
                yield q, r

    def __eq__(self, other):
        return (
            isinstance(other, Device)
            and self.questions == other.questions
            and self.results == other.results
            and self.relation == other.relation
        )


@dataclass(frozen=True)
class DeterministicRealization:
    """A selection function inside a device's relation."""

    mapping: Mapping[tuple, tuple]

    def __init__(self, mapping: Mapping[tuple, tuple]):
        object.__setattr__(self, "mapping", dict(mapping))

    def __call__(self, q: tuple) -> tuple:
        return self.mapping[q]

    def __eq__(self, other):
        return isinstance(other, DeterministicRealization) and self.mapping == other.mapping


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
        arrows = [
            ("local", "quasi_local"),
            ("quasi_local", "partially_local"),
            ("local", "separable"),
            ("quasi_local", "quasi_separable"),
            ("partially_local", "partially_separable"),
            ("separable", "quasi_separable"),
            ("quasi_separable", "pseudo_separable"),
            ("pseudo_separable", "partially_separable"),
        ]
        return [
            (a, b) for a, b in arrows if getattr(self, a) and not getattr(self, b)
        ]


def sub_device(device: Device, j_sites) -> Device:
    """Restriction to J: restricted tuples related when some full pair extends them."""
    j = _check_indices(j_sites, device.uplicity, "site")
    if not j:
        raise DomainError("sub-device needs a nonempty site set")
    questions = tuple(device.questions[s] for s in j)
    results = tuple(device.results[s] for s in j)
    relation: dict = {q: set() for q in itertools.product(*questions)}
    for q, r in device.pairs():
        relation[tuple(q[s] for s in j)].add(tuple(r[s] for s in j))
    return Device(questions, results, relation)


def tensor_device(a: Device, b: Device) -> Device:
    """Cartesian-product relation; the result's sites are a's then b's."""
    questions = a.questions + b.questions
    results = a.results + b.results
    relation = {}
    for qa, answers_a in a.relation.items():
        for qb, answers_b in b.relation.items():
            relation[qa + qb] = {ra + rb for ra in answers_a for rb in answers_b}
    return Device(questions, results, relation)


def realization_count(device: Device) -> int:
    """Number of deterministic realizations: the product of answer-set sizes."""
    return math.prod(len(v) for v in device.relation.values())


def _capped_count(device: Device, cap: int) -> int:
    total = realization_count(device)
    if total > cap:
        raise ResourceError(
            f"device has {total} deterministic realizations, above the cap {cap}"
        )
    return total


def deterministic_realizations(device: Device, cap: int = DEFAULT_CAP) -> Iterator[DeterministicRealization]:
    """Stream every selection function f(q) in D(q), smallest-question order."""
    _capped_count(device, cap)
    qs = device.question_tuples()
    choice_lists = [sorted(device.relation[q]) for q in qs]
    for combo in itertools.product(*choice_lists):
        yield DeterministicRealization(dict(zip(qs, combo)))


# ---------------------------------------------------------------------------
# the realization scan

# Realizations decoded per vectorized step of the scan.
_CHUNK = 1 << 18


def _scan(device: Device, cap: int, cuts=None, early_exit=None) -> tuple:
    """(dependency codes, selected pairs per partition) over the deterministic
    realizations.

    A realization is a choice index per question.  Its dependency code sets bit
    (i, j) when some pair of questions differing only in slot j yields
    different i-th outputs.  The question set is a full product, so the
    realization factors along a partition of the sites exactly when it sets no
    bit (i, j) with i and j in different blocks.  Given `cuts`, the partitions
    are the singletons followed by each cut, and each gets the set of
    (question, answer) pairs selected by the realizations factoring along it;
    it is empty when none does.

    Work is vectorized over chunks of the mixed-radix realization space.
    `early_exit(codes)` sees the codes found so far after every chunk; the
    scan stops once it returns true (when given) and every partition selects
    every pair of the relation.
    """
    total = _capped_count(device, cap)
    qs = device.question_tuples()
    k = device.uplicity
    if k * k > 63:
        raise ResourceError("dependency scan supports at most 7 sites")
    choices = [sorted(device.relation[q]) for q in qs]
    sizes = [len(c) for c in choices]
    # Each pair of questions differing in slot j alone, with a table of the
    # bits (i, j) its two choices set, indexed by choice_a * sizes[b] + choice_b.
    answers = [np.array(choice) for choice in choices]
    q_pos = {q: idx for idx, q in enumerate(qs)}
    toggles = []
    for a, q in enumerate(qs):
        for j in range(k):
            bits = np.array([1 << (i * k + j) for i in range(k)], dtype=np.int64)
            for lab in device.questions[j]:
                b = q_pos[q[:j] + (lab,) + q[j + 1:]]
                if b > a:
                    differ = answers[a][:, None, :] != answers[b][None, :, :]
                    toggles.append((a, b, (differ * bits).sum(axis=-1).ravel()))
    strides = [math.prod(sizes[qi + 1:]) for qi in range(len(qs))]

    partitions = [] if cuts is None else [tuple((s,) for s in range(k)), *cuts]
    crossing = [
        np.int64(sum(
            1 << (i * k + j) for a in blocks for b in blocks if a != b for i in a for j in b
        ))
        for blocks in partitions
    ]
    chosen = [[np.zeros(size, dtype=bool) for size in sizes] for _ in partitions]

    found: set = set()
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        n = np.arange(lo, hi, dtype=np.int64)
        cidx = [(n // strides[qi]) % sizes[qi] for qi in range(len(qs))]
        dep = np.zeros(hi - lo, dtype=np.int64)
        for a, b, table in toggles:
            dep |= table[cidx[a] * sizes[b] + cidx[b]]
        found.update(int(c) for c in np.unique(dep))
        covered = True
        for mask, per_question in zip(crossing, chosen):
            if all(seen.all() for seen in per_question):
                continue
            factors = (dep & mask) == 0
            for qi, seen in enumerate(per_question):
                seen |= np.bincount(cidx[qi][factors], minlength=sizes[qi]) > 0
            covered = covered and all(seen.all() for seen in per_question)
        if (early_exit is None or early_exit(found)) and covered:
            break
    selected = [
        frozenset(
            (qs[qi], choices[qi][c])
            for qi, seen in enumerate(per_question)
            for c in np.flatnonzero(seen)
        )
        for per_question in chosen
    ]
    return found, selected


# ---------------------------------------------------------------------------
# locality predicates


def _is_product_along(device: Device, blocks: Sequence[tuple]) -> bool:
    """Whether the device equals the tensor of its sub-devices on the blocks.

    Each answer set R(q) lies inside the product over the blocks B of the
    sub-device answer sets R_B(q_B), because R_B(q_B) holds the B-part of
    every answer in R(q).  The blocks partition the sites, so R(q) equals that
    product exactly when the sizes agree: |R(q)| = prod_B |R_B(q_B)|.
    """
    subs = [sub_device(device, block) for block in blocks]
    return all(
        len(answers) == math.prod(
            len(sub.relation[tuple(q[s] for s in block)]) for sub, block in zip(subs, blocks)
        )
        for q, answers in device.relation.items()
    )


def _profile(device: Device, cuts: Sequence[tuple], selected: Sequence[frozenset]) -> LocalityProfile:
    """The seven notions from the pairs `_scan` selects along the singletons
    and along each cut, in that order."""
    all_pairs = set(device.pairs())
    local_pairs, *cut_pairs = selected
    separable_cut = next((cut for cut in cuts if _is_product_along(device, cut)), None)
    quasi_separable_cut = next(
        (cut for cut, pairs in zip(cuts, cut_pairs) if pairs == all_pairs), None
    )
    partially_separable_cut = next((cut for cut, pairs in zip(cuts, cut_pairs) if pairs), None)
    profile = LocalityProfile(
        local=_is_product_along(device, [(s,) for s in range(device.uplicity)]),
        quasi_local=local_pairs == all_pairs,
        partially_local=bool(local_pairs),
        separable=separable_cut is not None,
        quasi_separable=quasi_separable_cut is not None,
        pseudo_separable=set().union(*cut_pairs) == all_pairs,
        partially_separable=partially_separable_cut is not None,
        separable_cut=separable_cut,
        quasi_separable_cut=quasi_separable_cut,
        partially_separable_cut=partially_separable_cut,
    )
    violations = profile.check_implications()
    if violations:
        raise RuntimeError(f"locality implication lattice violated: {violations}")
    return profile


def locality_profile(device: Device, cap: int = DEFAULT_CAP) -> LocalityProfile:
    """Decide the seven locality notions for a coherent device of uplicity >= 2.

    Raises ResourceError when the device has more than `cap` deterministic
    realizations.
    """
    k = device.uplicity
    if k < 2:
        raise DomainError("locality analysis is defined for uplicity >= 2 only")
    cuts = _bipartitions(range(k))
    _, selected = _scan(device, cap, cuts)
    return _profile(device, cuts, selected)


# ---------------------------------------------------------------------------
# tensorial structures


def _subset_profiles(device: Device, cap: int) -> dict:
    """locality_profile of every proper sub-device on two or more sites, keyed
    by its sites."""
    k = device.uplicity
    if k < 2:
        raise DomainError("device structures need uplicity >= 2")
    return {
        j: locality_profile(sub_device(device, j), cap=cap)
        for r in range(2, k)
        for j in itertools.combinations(range(k), r)
    }


def _generate_tensorial(k: int, profiles: Mapping[tuple, LocalityProfile]) -> dict:
    """The seven structures generated by the sub-devices each notion fails on."""
    ground = GroundSet(range(1, k + 1))
    generators: dict = {name: [] for name in TENSORIAL_NAMES}
    for j, profile in profiles.items():
        labels = tuple(s + 1 for s in j)
        membership = {
            "NPS": not profile.partially_separable,
            "NOS": not profile.pseudo_separable,
            "NPL": not profile.partially_local,
            "NQS": not profile.quasi_separable,
            "NQL": not profile.quasi_local,
            "NS": not profile.separable,
            "NL": not profile.local,
        }
        for name, member in membership.items():
            if member:
                generators[name].append(labels)
    structures = {
        name: generate_integral(ground, gens) for name, gens in generators.items()
    }
    chains = [
        ("NPS", "NPL"),
        ("NPL", "NQL"),
        ("NQL", "NL"),
        ("NPS", "NOS"),
        ("NOS", "NQS"),
        ("NQS", "NS"),
        ("NS", "NL"),
        ("NQS", "NQL"),
    ]
    for fine, coarse in chains:
        if not structures[fine].connected <= structures[coarse].connected:
            raise RuntimeError(f"tensorial inclusion {fine} <= {coarse} violated")
    return structures


def tensorial_structures(device: Device, cap: int = DEFAULT_CAP) -> dict:
    """The seven structures generated by sub-device non-locality, labels 1..k."""
    profiles = _subset_profiles(device, cap)
    profiles[tuple(range(device.uplicity))] = locality_profile(device, cap=cap)
    return _generate_tensorial(device.uplicity, profiles)


# ---------------------------------------------------------------------------
# domanial structures


def dependency_domain(f: "DeterministicRealization | Mapping", i: int) -> frozenset:
    """Indices j such that toggling question j alone can change output i."""
    mapping = f.mapping if isinstance(f, DeterministicRealization) else dict(f)
    qs = sorted(mapping)
    k = len(qs[0])
    if not 0 <= i < len(next(iter(mapping.values()))):
        raise DomainError(f"output index {i} out of range")
    depends = set()
    for j in range(k):
        groups: dict = {}
        for q in qs:
            groups.setdefault(q[:j] + q[j + 1:], set()).add(mapping[q][i])
        if any(len(vals) > 1 for vals in groups.values()):
            depends.add(j)
    return frozenset(depends)


class _DomanialMeets:
    """Running meets of the per-realization domain structures, labels 1..k.

    Called with the dependency codes found so far, it folds in the new ones
    and says whether both meets have reached the discrete structure, the
    bottom of the meet lattice, past which no code can change them.
    """

    def __init__(self, k: int):
        self.k = k
        self.ground = GroundSet(range(1, k + 1))
        self.do = self.dp = indiscrete_structure(self.ground)
        self.seen: set = set()

    def __call__(self, codes: set) -> bool:
        k = self.k
        for code in codes - self.seen:
            self.seen.add(code)
            masks = [code >> (i * k) & ((1 << k) - 1) for i in range(k)]
            pointed = [m | 1 << i for i, m in enumerate(masks)]
            self.do = meet_structures([self.do, generate_integral(self.ground, masks)])
            self.dp = meet_structures([self.dp, generate_integral(self.ground, pointed)])
        bottom = discrete_structure(self.ground)
        return self.do == bottom and self.dp == bottom


def domanial_structures(device: Device, cap: int = DEFAULT_CAP) -> tuple:
    """(kappa_do, kappa_dp): meets of per-realization domain structures, labels 1..k.

    The scan may stop early once both running meets reach the discrete
    structure.
    """
    meets = _DomanialMeets(device.uplicity)
    _scan(device, cap, early_exit=meets)
    return meets.do, meets.dp


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

    One scan of the full device yields both its locality profile and the
    domanial meets; it stops once the meets are discrete and every partition
    selects every pair.  Each device scanned, the full one and every sub-device
    on two or more sites, must have at most `cap` realizations.
    """
    k = device.uplicity
    profiles = _subset_profiles(device, cap)
    cuts = _bipartitions(range(k))
    meets = _DomanialMeets(k)
    _, selected = _scan(device, cap, cuts, early_exit=meets)
    profile = profiles[tuple(range(k))] = _profile(device, cuts, selected)
    structures = _generate_tensorial(k, profiles)
    tensorial = max(connective_order(s) for s in structures.values())
    structures["do"], structures["dp"] = meets.do, meets.dp
    domanial = max(connective_order(meets.do), connective_order(meets.dp))
    orders = DeviceOrders(tensorial, domanial, max(tensorial, domanial))
    return DeviceReport(profile, structures, orders)


# ---------------------------------------------------------------------------
# devices from quantum experiments


def _format_eigenvalue(value: float) -> str:
    rounded = round(value, 9)
    if rounded == int(rounded):
        return str(int(rounded))
    return repr(rounded)


def derive_device(
    psi: PureState,
    menus: Sequence[Sequence[tuple]],
    recode: Optional[str] = None,
    tol: float = DEFAULT_TOL,
) -> Device:
    """Device table of local menu measurements on a prepared state.

    `menus[i]` lists (label, hermitian matrix) choices for site i, the labels
    being the site's questions; every observable must be Hermitian and
    nondegenerate within `tol`.  Answers are eigenvalue labels; with
    recode="paper" each site's eigenvalues are renamed by ascending index
    ("0", "1", ...), so a +/-1 spectrum becomes -1 -> "0", +1 -> "1".
    """
    if recode not in (None, "paper"):
        raise DomainError(f"unknown recode option {recode!r}")
    k = psi.layout.sites
    if len(menus) != k:
        raise DomainError(f"expected one menu per site ({k}), got {len(menus)}")
    questions = _check_labels([[label for label, _ in menu] for menu in menus], "question")
    systems: list = []
    for site, (labels, menu) in enumerate(zip(questions, menus)):
        by_label = {}
        for label, (_, matrix) in zip(labels, menu):
            obs = Observable(site, matrix, tol=tol)
            if obs.dim != psi.layout.dims[site]:
                raise DomainError(
                    f"observable on site {site} has dimension {obs.dim}, "
                    f"site has {psi.layout.dims[site]}"
                )
            by_label[label] = obs.eigensystem()
        systems.append(by_label)

    raw_results = [
        sorted({_format_eigenvalue(v) for vals, _ in by_label.values() for v in vals}, key=float)
        for by_label in systems
    ]
    if recode == "paper":
        results = tuple(tuple(str(idx) for idx in range(len(rs))) for rs in raw_results)
    else:
        results = tuple(tuple(rs) for rs in raw_results)
    # per site: label -> the answer of each eigenvector
    answers_of = [
        {
            label: [names[raws.index(_format_eigenvalue(v))] for v in vals]
            for label, (vals, _) in by_label.items()
        }
        for by_label, raws, names in zip(systems, raw_results, results)
    ]

    tuples = list(itertools.product(*questions))
    bases = [
        np.stack([by_label[q[site]][1] for q in tuples]) for site, by_label in enumerate(systems)
    ]
    _, norms = _residuals(psi, tuple(range(k)), bases)
    indices = np.indices(psi.layout.dims).reshape(k, -1).T
    relation = {
        q: {
            tuple(answers_of[site][q[site]][i] for site, i in enumerate(indices[o]))
            for o in np.flatnonzero(possible)
        }
        for q, possible in zip(tuples, norms > tol)
    }
    return Device(questions, results, relation)


# ---------------------------------------------------------------------------
# builtin devices


def _full(*label_sets) -> set:
    return set(itertools.product(*label_sets))


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
            ("0", "1"): _full(bits, bits),
            ("1", "0"): _full(bits, bits),
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
            relation[q] = _full(bits, bits, bits)
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
            relation[q] = _full(bits, bits, bits)
    return Device((bits,) * 3, (bits,) * 3, relation)


BUILTIN_DEVICES = {
    "EPR": _builtin_epr,
    "EPR2": _builtin_epr2,
    "GHZ": _builtin_ghz,
    "K": _builtin_k,
}


def builtin_device(name: str) -> Device:
    """Hard-coded reference device tables."""
    try:
        return BUILTIN_DEVICES[name]()
    except KeyError:
        raise DomainError(
            f"unknown builtin device {name!r}; known: {sorted(BUILTIN_DEVICES)}"
        ) from None
