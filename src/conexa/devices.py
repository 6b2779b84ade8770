"""Finite multilocal devices: locality taxonomy and connectivity structures.

A device is a coherent relation from question tuples to nonempty sets of
answer tuples, one slot per site.  Locality predicates are decided by
exhaustive search over deterministic realizations (selection functions inside
the relation), guarded by a configurable cap; the domanial structures take a
meet over every deterministic realization's dependency pattern, which is
enumerated in vectorized chunks so that million-realization devices stay fast.
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
    connective_order,
    discrete_structure,
    generate_integral,
    meet_structures,
)
from .errors import DomainError, ResourceError
from .quantum import DEFAULT_TOL, Observable, PureState, measure_projective

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
        questions = tuple(tuple(str(q) for q in qs) for qs in questions)
        results = tuple(tuple(str(r) for r in rs) for rs in results)
        if len(questions) != len(results):
            raise DomainError("questions and results must list the same number of sites")
        if not questions:
            raise DomainError("a device needs at least one site")
        for qs in questions:
            if not qs or len(set(qs)) != len(qs):
                raise DomainError(f"question labels must be nonempty and distinct: {qs}")
        for rs in results:
            if not rs or len(set(rs)) != len(rs):
                raise DomainError(f"result labels must be nonempty and distinct: {rs}")
        for labels in questions + results:
            if any("," in lab for lab in labels):
                raise DomainError("labels must not contain commas (reserved for JSON keys)")
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
    j = _check_device_sites(device, j_sites)
    if not j:
        raise DomainError("sub-device needs a nonempty site set")
    questions = tuple(device.questions[s] for s in j)
    results = tuple(device.results[s] for s in j)
    relation: dict = {q: set() for q in itertools.product(*questions)}
    for q, r in device.pairs():
        relation[tuple(q[s] for s in j)].add(tuple(r[s] for s in j))
    return Device(questions, results, relation)


def _check_device_sites(device: Device, sites) -> tuple:
    sites = tuple(sorted(int(s) for s in sites))
    if len(set(sites)) != len(sites):
        raise DomainError(f"duplicate site indices: {sites}")
    for s in sites:
        if not 0 <= s < device.uplicity:
            raise DomainError(f"site index {s} out of range")
    return sites


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


def deterministic_realizations(device: Device, cap: int = DEFAULT_CAP) -> Iterator[DeterministicRealization]:
    """Stream every selection function f(q) in D(q), smallest-question order."""
    total = realization_count(device)
    if total > cap:
        raise ResourceError(
            f"device has {total} deterministic realizations, above the cap {cap}"
        )
    qs = device.question_tuples()
    choice_lists = [sorted(device.relation[q]) for q in qs]
    for combo in itertools.product(*choice_lists):
        yield DeterministicRealization(dict(zip(qs, combo)))


# ---------------------------------------------------------------------------
# locality predicates


def _is_product_along(device: Device, blocks: Sequence[tuple]) -> bool:
    """Whether the device equals the tensor of its sub-devices on the blocks."""
    subs = [sub_device(device, block) for block in blocks]
    for q in device.question_tuples():
        expected = set()
        block_answers = [
            sorted(sub.relation[tuple(q[s] for s in block)])
            for sub, block in zip(subs, blocks)
        ]
        for combo in itertools.product(*block_answers):
            full = [None] * device.uplicity
            for block, part in zip(blocks, combo):
                for s, x in zip(block, part):
                    full[s] = x
            expected.add(tuple(full))
        if expected != set(device.relation[q]):
            return False
    return True


def _block_function_space(device: Device, block: tuple) -> tuple:
    """(question tuples, candidate answer tuples) for one block of sites."""
    questions = list(itertools.product(*(device.questions[s] for s in block)))
    answers = list(itertools.product(*(device.results[s] for s in block)))
    return questions, answers


def _covered_by_block_functions(device: Device, blocks: Sequence[tuple], cap: int) -> tuple:
    """(any_valid, covered_pairs) for realizations f that factor along the blocks.

    A block function assigns to each block-question a block-answer; the
    assembled realization must select inside D(q) for every q.  Valid
    realizations are enumerated exhaustively (cap-guarded) and their graphs
    unioned; enumeration stops early once the union covers the whole relation.
    """
    spaces = [_block_function_space(device, block) for block in blocks]
    size = 1
    for questions, answers in spaces:
        size *= len(answers) ** len(questions)
        if size > cap:
            raise ResourceError(
                f"local/separable search space exceeds the cap {cap}"
            )
    all_pairs = set(device.pairs())
    covered: set = set()
    any_valid = False
    qs = device.question_tuples()
    q_projections = [
        [tuple(q[s] for s in block) for q in qs] for block in blocks
    ]
    function_choices = [
        list(itertools.product(answers, repeat=len(questions)))
        for questions, answers in spaces
    ]
    block_q_index = [
        {bq: i for i, bq in enumerate(questions)} for questions, _ in spaces
    ]
    for combo in itertools.product(*function_choices):
        graph = []
        valid = True
        for qi, q in enumerate(qs):
            full = [None] * device.uplicity
            for b, block in enumerate(blocks):
                bq = q_projections[b][qi]
                answer = combo[b][block_q_index[b][bq]]
                for s, x in zip(block, answer):
                    full[s] = x
            r = tuple(full)
            if r not in device.relation[q]:
                valid = False
                break
            graph.append((q, r))
        if valid:
            any_valid = True
            covered.update(graph)
            if covered == all_pairs:
                break
    return any_valid, covered


def locality_profile(device: Device, cap: int = DEFAULT_CAP) -> LocalityProfile:
    """Decide the seven locality notions for a coherent device of uplicity >= 2."""
    k = device.uplicity
    if k < 2:
        raise DomainError("locality analysis is defined for uplicity >= 2 only")
    singletons = [(s,) for s in range(k)]
    local = _is_product_along(device, singletons)
    all_pairs = set(device.pairs())

    has_local, covered_local = _covered_by_block_functions(device, singletons, cap)
    quasi_local = covered_local == all_pairs
    partially_local = has_local

    separable_cut = None
    quasi_separable_cut = None
    partially_separable_cut = None
    pseudo_covered: set = set()
    for cut in _bipartitions(range(k)):
        if separable_cut is None and _is_product_along(device, cut):
            separable_cut = cut
        has_sep, covered = _covered_by_block_functions(device, cut, cap)
        if has_sep and partially_separable_cut is None:
            partially_separable_cut = cut
        if covered == all_pairs and quasi_separable_cut is None:
            quasi_separable_cut = cut
        pseudo_covered |= covered

    profile = LocalityProfile(
        local=local,
        quasi_local=quasi_local,
        partially_local=partially_local,
        separable=separable_cut is not None,
        quasi_separable=quasi_separable_cut is not None,
        pseudo_separable=pseudo_covered == all_pairs,
        partially_separable=partially_separable_cut is not None,
        separable_cut=separable_cut,
        quasi_separable_cut=quasi_separable_cut,
        partially_separable_cut=partially_separable_cut,
    )
    violations = profile.check_implications()
    if violations:
        raise RuntimeError(f"locality implication lattice violated: {violations}")
    return profile


# ---------------------------------------------------------------------------
# tensorial structures


def _subset_profiles(device: Device, cap: int) -> dict:
    """locality_profile of every sub-device on two or more sites, keyed by its
    sites; the full site set is profiled on the device itself."""
    k = device.uplicity
    if k < 2:
        raise DomainError("device structures need uplicity >= 2")
    return {
        j: locality_profile(device if r == k else sub_device(device, j), cap=cap)
        for r in range(2, k + 1)
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
    return _generate_tensorial(device.uplicity, _subset_profiles(device, cap))


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


def _dependency_codes(device: Device, cap: int, chunk: int = 1 << 18,
                      early_exit=None) -> set:
    """Distinct output-input dependency matrices over all deterministic realizations.

    Each realization is a choice index per question; the dependency bit (i, j)
    is set when some pair of questions differing only in slot j yields
    different i-th outputs.  Work is vectorized over chunks of the mixed-radix
    realization space.
    """
    total = realization_count(device)
    if total > cap:
        raise ResourceError(
            f"device has {total} deterministic realizations, above the cap {cap}"
        )
    qs = device.question_tuples()
    k = device.uplicity
    if k * k > 63:
        raise ResourceError("dependency scan supports at most 7 sites")
    choices = [sorted(device.relation[q]) for q in qs]
    sizes = [len(c) for c in choices]
    result_index = [
        {label: idx for idx, label in enumerate(rs)} for rs in device.results
    ]
    # answer component codes: codes[qi][i][choice]
    codes = [
        np.array(
            [[result_index[i][r[i]] for r in choice] for i in range(k)],
            dtype=np.int64,
        )
        for choice in choices
    ]
    q_pos = {q: idx for idx, q in enumerate(qs)}
    toggle_pairs: list = [[] for _ in range(k)]
    for j in range(k):
        seen = set()
        for qi, q in enumerate(qs):
            base = q[:j] + q[j + 1:]
            if (j, base) in seen:
                continue
            seen.add((j, base))
            siblings = [
                q_pos[q[:j] + (lab,) + q[j + 1:]] for lab in device.questions[j]
            ]
            for a, b in itertools.combinations(siblings, 2):
                toggle_pairs[j].append((a, b))

    strides = [0] * len(qs)
    acc = 1
    for idx in range(len(qs) - 1, -1, -1):
        strides[idx] = acc
        acc *= sizes[idx]

    found: set = set()
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        n = np.arange(lo, hi, dtype=np.int64)
        cidx = [(n // strides[qi]) % sizes[qi] for qi in range(len(qs))]
        dep = np.zeros(hi - lo, dtype=np.int64)
        for i in range(k):
            for j in range(k):
                if not toggle_pairs[j]:
                    continue
                bit = np.int64(1 << (i * k + j))
                hit = np.zeros(hi - lo, dtype=bool)
                for a, b in toggle_pairs[j]:
                    hit |= codes[a][i][cidx[a]] != codes[b][i][cidx[b]]
                dep |= np.where(hit, bit, np.int64(0))
        found.update(int(c) for c in np.unique(dep))
        if early_exit is not None and early_exit(found):
            break
    return found


def domanial_structures(device: Device, cap: int = DEFAULT_CAP) -> tuple:
    """(kappa_do, kappa_dp): meets of per-realization domain structures, labels 1..k.

    The enumeration may stop early once both running meets reach the discrete
    structure, the bottom of the meet lattice.
    """
    k = device.uplicity
    ground = GroundSet(range(1, k + 1))
    bottom = discrete_structure(ground)
    state = {"do": None, "dp": None, "seen": set()}

    def structures_for(code: int) -> tuple:
        do_sets = []
        dp_sets = []
        for i in range(k):
            mask = 0
            for j in range(k):
                if code >> (i * k + j) & 1:
                    mask |= 1 << j
            do_sets.append(mask)
            dp_sets.append(mask | (1 << i))
        return (
            generate_integral(ground, do_sets),
            generate_integral(ground, dp_sets),
        )

    def absorb(codes: set) -> bool:
        for code in codes - state["seen"]:
            state["seen"].add(code)
            s_do, s_dp = structures_for(code)
            state["do"] = s_do if state["do"] is None else meet_structures([state["do"], s_do])
            state["dp"] = s_dp if state["dp"] is None else meet_structures([state["dp"], s_dp])
        return state["do"] == bottom and state["dp"] == bottom

    _dependency_codes(device, cap, early_exit=absorb)
    return state["do"], state["dp"]


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
    structures, and their orders."""
    k = device.uplicity
    profiles = _subset_profiles(device, cap)
    structures = _generate_tensorial(k, profiles)
    tensorial = max(connective_order(s) for s in structures.values())
    structures["do"], structures["dp"] = domanial_structures(device, cap=cap)
    domanial = max(connective_order(structures["do"]), connective_order(structures["dp"]))
    orders = DeviceOrders(tensorial, domanial, max(tensorial, domanial))
    return DeviceReport(profiles[tuple(range(k))], structures, orders)


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

    `menus[i]` lists (label, hermitian matrix) choices for site i; every
    observable must be nondegenerate.  Answers are eigenvalue labels; with
    recode="paper" each site's eigenvalues are renamed by ascending index
    ("0", "1", ...), so a +/-1 spectrum becomes -1 -> "0", +1 -> "1".
    """
    if recode not in (None, "paper"):
        raise DomainError(f"unknown recode option {recode!r}")
    k = psi.layout.sites
    if len(menus) != k:
        raise DomainError(f"expected one menu per site ({k}), got {len(menus)}")
    observables: list = []
    for site, menu in enumerate(menus):
        if not menu:
            raise DomainError(f"menu for site {site} is empty")
        by_label = {
            str(label): Observable(site, matrix, nondegenerate=True) for label, matrix in menu
        }
        if len(by_label) != len(menu):
            raise DomainError(f"menu labels for site {site} are not distinct")
        observables.append(by_label)

    eigenvalues_per_site: list = [set() for _ in range(k)]
    for site, by_label in enumerate(observables):
        for obs in by_label.values():
            vals, _ = obs.eigensystem()
            eigenvalues_per_site[site].update(_format_eigenvalue(v) for v in vals)

    raw_results = [sorted(vals, key=float) for vals in eigenvalues_per_site]
    if recode == "paper":
        rename = [
            {raw: str(idx) for idx, raw in enumerate(rs)} for rs in raw_results
        ]
        results = tuple(tuple(rename[i][raw] for raw in raw_results[i]) for i in range(k))
    else:
        results = tuple(tuple(rs) for rs in raw_results)

    questions = tuple(tuple(by_label) for by_label in observables)
    relation = {}
    for q in itertools.product(*questions):
        selected = [observables[site][q[site]] for site in range(k)]
        answers = set()
        for outcome in measure_projective(psi, selected, tol=tol):
            answer = tuple(_format_eigenvalue(outcome.values[site]) for site in range(k))
            if recode == "paper":
                answer = tuple(rename[site][raw] for site, raw in enumerate(answer))
            answers.add(answer)
        relation[q] = answers
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
