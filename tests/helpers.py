"""Shared test fixtures and small independent oracles.

The oracles here deliberately re-derive expected values with direct, naive
algorithms (repeated-scan closures, explicit index loops) so that the library
code under test is never used to produce its own expected output.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from conexa.connective import ConnectiveStructure, _bipartitions
from conexa.devices import Device
from conexa.quantum import PureState


def pinned_layout(out: str) -> bytes:
    """The bytes a golden digest was pinned on: the report `out` re-rendered
    in the two-space layout reports had before they became one compact line.

    `out` must be the compact sorted-key rendering of its own parse, so the
    digest of these bytes pins `out` byte for byte."""
    parsed = json.loads(out)
    assert out == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
    return (json.dumps(parsed, sort_keys=True, indent=2, separators=(",", ": ")) + "\n").encode()


def mask(points) -> int:
    """Bitmask of a subset of the points 1..n, given by its 1-based points."""
    return sum(1 << (p - 1) for p in points)


def structure(n: int, subsets) -> ConnectiveStructure:
    """The structure on the points 1..n with the given connected subsets,
    each a tuple of 1-based points."""
    return ConnectiveStructure(n, [mask(s) for s in subsets])


def borromean(n: int) -> ConnectiveStructure:
    """Only the full set connected, on the points 1..n."""
    return structure(n, [tuple(range(1, n + 1))])


def power_set(n: int) -> ConnectiveStructure:
    return ConnectiveStructure(n, range(1 << n))


def discrete(n: int) -> ConnectiveStructure:
    return structure(n, [])


def basis_state(dims, indices) -> PureState:
    """Computational basis state |indices...> over the site dimensions `dims`."""
    amp = np.zeros(math.prod(dims), dtype=np.complex128)
    amp[np.ravel_multi_index(tuple(indices), dims)] = 1.0
    return PureState(dims, amp)


def measured_first(psi: PureState, sites) -> np.ndarray:
    """psi's tensor with the axes of `sites` first, in the order given, then
    the other sites' axes in site order: what `quantum._residuals` measures."""
    rest = [s for s in range(len(psi.dims)) if s not in sites]
    return psi.tensor.transpose(*sites, *rest)


def matricize(psi: PureState, part) -> np.ndarray:
    """psi as a matrix, rows over the sites of `part`, columns over the rest."""
    return measured_first(psi, part).reshape(math.prod(psi.dims[s] for s in part), -1)


def tensor_state(a: PureState, b: PureState) -> PureState:
    """Kronecker product; the result's sites are a's sites followed by b's."""
    return PureState(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


def tensor_device(a: Device, b: Device) -> Device:
    """Cartesian-product relation; the result's sites are a's then b's."""
    relation = {
        qa + qb: {ra + rb for ra in answers_a for rb in answers_b}
        for qa, answers_a in a.relation.items()
        for qb, answers_b in b.relation.items()
    }
    return Device(a.questions + b.questions, a.results + b.results, relation)


def oracle_sub_device(device: Device, j) -> Device:
    """Restriction to the sorted site tuple j by its definition, through the
    checking constructor: the restricted question q_J relates the restricted
    answer r_J when some related pair (q, r) of the device restricts to them."""
    questions = tuple(device.questions[s] for s in j)
    relation = {
        qj: {
            tuple(r[s] for s in j)
            for q, answers in device.relation.items()
            if tuple(q[s] for s in j) == qj
            for r in answers
        }
        for qj in itertools.product(*questions)
    }
    return Device(questions, tuple(device.results[s] for s in j), relation)


# Pinned answers of `ladder_device` (question -> (answer slot, value)): site
# 1's answer on questions 000 and 010 and site 2's on 100 and 101.  Every
# realization's site-1 output then reads site 2's question and its site-2
# output site 3's, so kappa_dp connects {1,2,3} and no scan exits early.
LADDER_PINS = {
    ("0", "0", "0"): (0, "0"), ("0", "1", "0"): (0, "1"),
    ("1", "0", "0"): (1, "0"), ("1", "0", "1"): (1, "1"),
}


def ladder_device(rng, log2_count: int) -> Device:
    """Binary 3-site device with exactly 2**log2_count deterministic
    realizations, drawn from the `random.Random` rng."""
    questions = list(itertools.product("01", repeat=3))
    while True:
        exps = [rng.randint(0, 2 if q in LADDER_PINS else 3) for q in questions]
        if sum(exps) == log2_count:
            break
    relation = {}
    for q, e in zip(questions, exps):
        slot, value = LADDER_PINS.get(q, (0, None))
        pool = [r for r in questions if value is None or r[slot] == value]
        relation[q] = set(rng.sample(pool, 1 << e))
    return Device((("0", "1"),) * 3, (("0", "1"),) * 3, relation)


def same_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """Phase-blind equality of two states with one dims: |<a|b>| = 1 within tol."""
    return a.dims == b.dims and abs(np.vdot(a.amplitudes, b.amplitudes)) > 1.0 - tol


def oracle_close(ground_size: int, masks) -> frozenset:
    """Reference closure: rescan all pairs until stable."""
    family = {0} | {1 << i for i in range(ground_size)} | set(masks)
    while True:
        additions = {
            a | b for a in family for b in family if a & b and (a | b) not in family
        }
        if not additions:
            return frozenset(family)
        family |= additions


def oracle_irreducibles(s: ConnectiveStructure) -> set:
    """Remove one member at a time and regenerate from the rest."""
    members = [m for m in s.connected if bin(m).count("1") >= 2]
    out = set()
    for k in members:
        rest = [m for m in members if m != k]
        if k not in oracle_close(s.size, rest):
            out.add(k)
    return out


def all_integral_structures(n: int):
    """Every integral structure on the points 1..n, by exhaustive closure check."""
    candidates = [m for m in range(1, 1 << n) if bin(m).count("1") >= 2]
    out = []
    for selector in itertools.product((0, 1), repeat=len(candidates)):
        family = {m for m, keep in zip(candidates, selector) if keep}
        base = family | {0} | {1 << i for i in range(n)}
        if oracle_close(n, family) == frozenset(base):
            out.append(ConnectiveStructure(n, family))
    return out


def oracle_partial_trace(matrix: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit index loops."""
    k = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(k) if i not in keep]
    side = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((side, side), dtype=complex)

    def flat(idx):
        v = 0
        for d, i in zip(dims, idx):
            v = v * d + i
        return v

    kept_ranges = [range(dims[i]) for i in keep]
    traced_ranges = [range(dims[i]) for i in traced]
    for row_kept in itertools.product(*kept_ranges):
        for col_kept in itertools.product(*kept_ranges):
            total = 0.0 + 0.0j
            for tr in itertools.product(*traced_ranges):
                row = [0] * k
                col = [0] * k
                for pos, i in zip(keep, row_kept):
                    row[pos] = i
                for pos, i in zip(keep, col_kept):
                    col[pos] = i
                for pos, i in zip(traced, tr):
                    row[pos] = i
                    col[pos] = i
                total += matrix[flat(row), flat(col)]
            r = 0
            for d, i in zip([dims[i] for i in keep], row_kept):
                r = r * d + i
            c = 0
            for d, i in zip([dims[i] for i in keep], col_kept):
                c = c * d + i
            out[r, c] = total
    return out


def oracle_partial_transpose(matrix: np.ndarray, dims, sites) -> np.ndarray:
    """Partial transpose by explicit index loops."""
    k = len(dims)
    n = matrix.shape[0]
    out = np.zeros_like(matrix)

    def unflat(v):
        idx = []
        for d in reversed(dims):
            idx.append(v % d)
            v //= d
        return list(reversed(idx))

    def flat(idx):
        v = 0
        for d, i in zip(dims, idx):
            v = v * d + i
        return v

    for r in range(n):
        for c in range(n):
            ri, ci = unflat(r), unflat(c)
            for s in sites:
                ri[s], ci[s] = ci[s], ri[s]
            out[flat(ri), flat(ci)] = matrix[r, c]
    return out


def horodecki_2x4(b: float) -> np.ndarray:
    """P. Horodecki's 2x4 state for 0 < b < 1: PPT and entangled
    (Phys. Lett. A 232, 333, 1997)."""
    m = np.zeros((8, 8))
    for i in range(3):
        m[i, i] = m[i + 5, i + 5] = m[i, i + 5] = m[i + 5, i] = b
    m[3, 3] = b
    m[4, 4] = m[7, 7] = (1 + b) / 2
    m[4, 7] = m[7, 4] = np.sqrt(1 - b * b) / 2
    return m / (7 * b + 1)


def tiles_upb(a: float) -> np.ndarray:
    """The 3x3 state of the tiles UPB (Bennett et al., PRL 82, 5385, 1999) with
    weight a against white noise: PPT for every a, entangled at a = 1."""
    e = np.eye(3)
    products = [
        (e[0], e[0] - e[1]), (e[0] - e[1], e[2]), (e[2], e[1] - e[2]),
        (e[1] - e[2], e[0]), (e.sum(0), e.sum(0)),
    ]
    upb = np.eye(9)
    for x, y in products:
        v = np.kron(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
        upb -= np.outer(v, v)
    return a * upb / 4 + (1 - a) * np.eye(9) / 9


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar-random n x n unitary: QR of a complex normal matrix, phases fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng: np.random.Generator, dims, rank: int) -> np.ndarray:
    """Rank-`rank` density matrix over `dims` from complex normal vectors."""
    n = int(np.prod(dims))
    vecs = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    mat = vecs @ vecs.conj().T
    return mat / np.trace(mat).real


def oracle_factorizes(reduced: np.ndarray, dims, a, tol: float = 1e-9) -> bool:
    """Whether the operator `reduced` over `dims` is the product of its
    reductions to the positions a and to the rest within tol entrywise, all
    by index loops."""
    k = len(dims)
    b = [p for p in range(k) if p not in a]
    rho_a = oracle_partial_trace(reduced, dims, list(a))
    rho_b = oracle_partial_trace(reduced, dims, b)
    order = list(a) + b
    raw = np.kron(rho_a, rho_b)
    tens = raw.reshape([dims[p] for p in order] * 2)
    inverse = [order.index(i) for i in range(k)]
    perm = inverse + [k + p for p in inverse]
    side = int(np.prod(dims))
    product = np.transpose(tens, perm).reshape(side, side)
    return bool(np.max(np.abs(product - reduced)) <= tol)


def oracle_completely_correlated(matrix: np.ndarray, dims, sites, tol: float = 1e-9) -> bool:
    """Reduced-product comparison across every bipartition, all by index loops."""
    sites = sorted(sites)
    reduced = oracle_partial_trace(matrix, dims, sites)
    sub_dims = [dims[s] for s in sites]
    positions = range(len(sites))
    return not any(
        oracle_factorizes(reduced, sub_dims, a, tol)
        for r in range(1, len(sites))
        for a in itertools.combinations(positions, r)
        if 0 in a
    )


def oracle_completely_entangled(matrix: np.ndarray, dims, sites, tol: float = 1e-9) -> tuple:
    """(verdict, quality name) for entanglement of the reduction across every cut.

    A reduction that some cut factorizes within tol is decided by that cut:
    not entangled, EXACT.  Otherwise a pure reduction (tr r^2 = 1 within tol) is tested with one SVD per cut
    of its top eigenvector; a mixed one with the smallest eigenvalue of the
    partial transpose per cut, whose positivity decides separability only
    for 2x2 and 2x3 cuts and cuts with a side of dimension 1, and flags the
    verdict PPT_NECESSARY otherwise.
    """
    if not oracle_completely_correlated(matrix, dims, sites, tol):
        return False, "EXACT"
    sites = sorted(sites)
    reduced = oracle_partial_trace(matrix, dims, sites)
    sub_dims = [dims[s] for s in sites]
    positions = range(len(sites))
    cuts = [a for r in range(1, len(sites)) for a in itertools.combinations(positions, r) if 0 in a]
    if abs(np.trace(reduced @ reduced).real - 1.0) <= tol:
        top = np.linalg.eigh(reduced)[1][:, -1].reshape(sub_dims)
        for a in cuts:
            rows = int(np.prod([sub_dims[p] for p in a]))
            mat = np.transpose(top, list(a) + [p for p in positions if p not in a]).reshape(rows, -1)
            s = np.linalg.svd(mat, compute_uv=False)
            if len(s) < 2 or s[1] <= tol:
                return False, "EXACT"
        return True, "EXACT"
    verdict, quality = True, "EXACT"
    for a in cuts:
        b = [p for p in positions if p not in a]
        min_eig = np.linalg.eigvalsh(oracle_partial_transpose(reduced, sub_dims, b))[0]
        if min_eig >= -tol:
            verdict = False
            sides = {int(np.prod([sub_dims[p] for p in a])), int(np.prod([sub_dims[p] for p in b]))}
            if 1 not in sides and sides not in ({2}, {2, 3}):
                quality = "PPT_NECESSARY"
    return verdict, quality


def oracle_locality_profile(device) -> dict:
    """The ten `LocalityProfile` fields by enumerating every realization.

    Reads only `device.questions` and `device.relation`.  A realization
    factors along blocks when, on each block, questions with equal block
    projections get answers with equal block projections.  The device is a
    product along blocks when each answer set is the product of the block
    projections of all answers.  Cuts are anchored at site 0, smaller first
    block first, in `itertools.combinations` order.
    """
    k = len(device.questions)
    relation = device.relation
    qs = sorted(relation)
    pairs = {(q, r) for q in qs for r in relation[q]}

    def project(t, block):
        return tuple(t[s] for s in block)

    def factors(f, blocks):
        for block in blocks:
            seen = {}
            for q in qs:
                part = project(f[q], block)
                if seen.setdefault(project(q, block), part) != part:
                    return False
        return True

    def is_product(blocks):
        restricted = [{} for _ in blocks]
        for q, r in pairs:
            for b, block in enumerate(blocks):
                restricted[b].setdefault(project(q, block), set()).add(project(r, block))
        for q in qs:
            options = [restricted[b][project(q, block)] for b, block in enumerate(blocks)]
            expected = set()
            for parts in itertools.product(*options):
                r = [None] * k
                for block, part in zip(blocks, parts):
                    for s, x in zip(block, part):
                        r[s] = x
                expected.add(tuple(r))
            if expected != set(relation[q]):
                return False
        return True

    realizations = list(oracle_realizations(device))

    def selected(blocks):
        return {(q, f[q]) for f in realizations if factors(f, blocks) for q in qs}

    cuts = [
        (a, tuple(s for s in range(k) if s not in a))
        for size in range(1, k)
        for a in itertools.combinations(range(k), size)
        if 0 in a
    ]
    local_pairs = selected([(s,) for s in range(k)])
    cut_pairs = [selected(cut) for cut in cuts]
    separable_cut = next((c for c in cuts if is_product(c)), None)
    quasi_cut = next((c for c, p in zip(cuts, cut_pairs) if p == pairs), None)
    partial_cut = next((c for c, p in zip(cuts, cut_pairs) if p), None)
    return {
        "local": is_product([(s,) for s in range(k)]),
        "quasi_local": local_pairs == pairs,
        "partially_local": bool(local_pairs),
        "separable": separable_cut is not None,
        "quasi_separable": quasi_cut is not None,
        "pseudo_separable": set().union(*cut_pairs) == pairs,
        "partially_separable": partial_cut is not None,
        "separable_cut": separable_cut,
        "quasi_separable_cut": quasi_cut,
        "partially_separable_cut": partial_cut,
    }


def oracle_realizations(device):
    """Every deterministic realization, a dict question -> answer in
    `device.relation`, with the smallest question varying slowest."""
    qs = sorted(device.relation)
    for combo in itertools.product(*(sorted(device.relation[q]) for q in qs)):
        yield dict(zip(qs, combo))


def oracle_dependency_domain(f: dict, i: int) -> frozenset:
    """Slots j such that changing question j alone can change output i of f."""
    qs = sorted(f)
    depends = set()
    for j in range(len(qs[0])):
        groups = {}
        for q in qs:
            groups.setdefault(q[:j] + q[j + 1:], set()).add(f[q][i])
        if any(len(values) > 1 for values in groups.values()):
            depends.add(j)
    return frozenset(depends)


def oracle_domanial(device) -> tuple:
    """(kappa_do, kappa_dp) as meets over every deterministic realization f.

    f's do structure is generated by the dependency domain of each output,
    its dp structure by each domain together with the output's own site.
    """
    k = len(device.questions)
    do = dp = None
    for f in oracle_realizations(device):
        masks = [sum(1 << j for j in oracle_dependency_domain(f, i)) for i in range(k)]
        f_do = oracle_close(k, masks)
        f_dp = oracle_close(k, [m | 1 << i for i, m in enumerate(masks)])
        do, dp = (f_do, f_dp) if do is None else (do & f_do, dp & f_dp)
    return ConnectiveStructure(k, do), ConnectiveStructure(k, dp)


def oracle_cut_plan(dims) -> tuple:
    """(runs, cuts): the runs of sites that the principal blocks are taken
    from, as (start, stop) pairs, and per cut (a, b) of
    `_bipartitions(len(dims))`, worked out on its own, (sides, group,
    inners).

    The trailing sites T are the longest run at the end whose dimensions
    multiply to at most 8; when T is not every site, the leading sites L,
    the longest run at the start whose dimensions multiply to at most 8,
    follow it.  sides = (da, db), the products of the dimensions on a and on
    b.  group is None when a side has dimension 1, else (r, positions,
    flipped): r the least side dimension, the positions of the shorter side
    first (a on a tie) and flipped iff da > db.  inners holds one entry per
    run: the positions within the run of b's sites of dimension >= 2 in it
    when the cut has a group and b holds some but not all of the run's sites
    of dimension >= 2, else None.  When T is not every site, a block only
    certifies, and a block transposed on the run's other sites of dimension
    >= 2 is its transpose, with the same eigenvalues: there the positions
    are those of the run's other such sites when b holds the first one.
    """
    k = len(dims)
    lead = min(t for t in range(k + 1) if math.prod(dims[t:]) <= 8)
    runs = [(lead, k)]
    if lead:
        stop = 0
        while math.prod(dims[:stop + 1]) <= 8:
            stop += 1
        runs.append((0, stop))
    cuts = []
    for a, b in _bipartitions(k):
        da, db = math.prod(dims[p] for p in a), math.prod(dims[p] for p in b)
        group = None
        inners = [None] * len(runs)
        if da > 1 and db > 1:
            group = (da, a + b, False) if da <= db else (db, b + a, True)
            for i, (start, stop) in enumerate(runs):
                wide = [p for p in range(start, stop) if dims[p] > 1]
                inner = tuple(p - start for p in b if p in wide)
                if lead and wide and wide[0] - start in inner:
                    inner = tuple(p - start for p in wide if p - start not in inner)
                if inner and len(inner) < len(wide):
                    inners[i] = inner
        cuts.append(((da, db), group, tuple(inners)))
    return runs, cuts


def _oracle_separable(tensor: np.ndarray, part, tol: float) -> bool:
    """Second Schmidt coefficient of `tensor` across `part` vs the other axes."""
    rest = [a for a in range(tensor.ndim) if a not in part]
    rows = int(np.prod([tensor.shape[a] for a in part]))
    mat = np.transpose(tensor, list(part) + rest).reshape(rows, -1)
    return float(np.linalg.svd(mat, compute_uv=False)[1]) <= tol


def oracle_classify(amplitudes, dims, j, experiments, tol: float = 1e-9) -> tuple:
    """(class name, confidence name) of a pure state on the sites `j`.

    `experiments` lists, per experiment, one basis matrix (columns = basis
    vectors) per site outside `j`, in site order.  Each outcome is contracted
    on its own, one local bra at a time; outcomes with residual norm <= tol
    are impossible.  Every residual is tested across every bipartition of `j`
    (anchored at its first site) with one SVD.  The verdict is certified when
    `j` is every site or the state factors across `j` and the other sites,
    since then every experiment leaves the same J-factor.
    """
    dims = tuple(dims)
    j = sorted(j)
    complement = [s for s in range(len(dims)) if s not in j]
    psi = np.asarray(amplitudes, dtype=complex).reshape(dims)
    positions = range(len(j))
    cuts = [a for r in range(1, len(j)) for a in itertools.combinations(positions, r) if 0 in a]

    def profile(tensor):
        return {a for a in cuts if _oracle_separable(tensor, a, tol)}

    def single_state_class(tensor):
        seps = profile(tensor)
        if not seps:
            return "GLOBALLY_ENTANGLED"
        if len(seps) == len(cuts):
            return "TOTALLY_SEPARATED"
        return "CLEARLY_SEPARABLE_ONLY"

    if not complement:
        return single_state_class(psi), "CERTIFIED"
    mat = np.transpose(psi, j + complement).reshape(int(np.prod([dims[s] for s in j])), -1)
    u, s, _ = np.linalg.svd(mat)
    if float(s[1]) <= tol:
        return single_state_class(u[:, 0].reshape([dims[s] for s in j])), "CERTIFIED"

    per_experiment = []
    for bases in experiments:
        profiles = []
        for outcome in itertools.product(*(range(dims[s]) for s in complement)):
            residual = psi
            for site, basis, o in reversed(list(zip(complement, bases, outcome))):
                residual = np.tensordot(residual, np.conj(basis[:, o]), axes=([site], [0]))
            norm = np.linalg.norm(residual)
            if norm > tol:
                profiles.append(profile(residual / norm))
        per_experiment.append(profiles)

    outcomes = [p for profiles in per_experiment for p in profiles]
    all_entangled = [all(not p for p in profiles) for profiles in per_experiment]
    all_separable = [all(p for p in profiles) for profiles in per_experiment]
    if all(all_entangled):
        kind = "GLOBALLY_ENTANGLED"
    elif all(all_separable):
        along = [a for a in cuts if all(a in p for p in outcomes)]
        if len(along) == len(cuts):
            kind = "TOTALLY_SEPARATED"
        elif along:
            kind = "CLEARLY_SEPARABLE_ONLY"
        else:
            kind = "GLOBALLY_SEPARABLE_ONLY"
    elif any(all_entangled) and any(all_separable):
        kind = "WELL_ENTANGLED_AND_SEPARABLE"
    elif any(all_entangled):
        kind = "WELL_ENTANGLED_ONLY"
    elif any(all_separable):
        kind = "WELL_SEPARABLE_ONLY"
    else:
        kind = "TOTALLY_MIXED"
    return kind, "POOL_LIMITED"


def _product_projector(dims, vectors) -> np.ndarray:
    """Kronecker product over all sites of |v><v| (measured) or the identity."""
    out = np.ones((1, 1), dtype=complex)
    for site, d in enumerate(dims):
        v = vectors.get(site)
        factor = np.eye(d) if v is None else np.outer(v, np.conj(v))
        out = np.kron(out, factor)
    return out


def oracle_measure(amplitudes, dims, observables, tol: float = 1e-9) -> list:
    """(eigenvalue indices, values, probability, post-state) of every possible joint outcome.

    `observables` lists (site, hermitian matrix) pairs.  Outcomes run in
    row-major order over the observables as given, each site's eigenvalues
    ascending; each applies the full product projector to the state.  An
    outcome is possible when its probability is > tol**2.
    """
    psi = np.asarray(amplitudes, dtype=complex)
    systems = [(site, *np.linalg.eigh(np.asarray(m, dtype=complex))) for site, m in observables]
    out = []
    for idx in itertools.product(*(range(len(vals)) for _, vals, _ in systems)):
        vectors = {site: vecs[:, i] for (site, _, vecs), i in zip(systems, idx)}
        post = _product_projector(dims, vectors) @ psi
        prob = float(np.vdot(post, post).real)
        if prob > tol * tol:
            values = tuple(float(vals[i]) for (_, vals, _), i in zip(systems, idx))
            out.append((idx, values, prob, post / np.sqrt(prob)))
    return out


def oracle_device_relation(amplitudes, dims, menus, tol: float = 1e-9) -> dict:
    """Question tuple -> the eigenvalue-index tuples of its possible outcomes.

    `menus[i]` lists (label, hermitian matrix) choices for site i; index i in
    an answer slot is the i-th ascending eigenvalue of the chosen observable.
    """
    out = {}
    for choice in itertools.product(*menus):
        observables = [(site, m) for site, (_, m) in enumerate(choice)]
        q = tuple(label for label, _ in choice)
        out[q] = {idx for idx, *_ in oracle_measure(amplitudes, dims, observables, tol)}
    return out


def oracle_marginal(prob, positions) -> dict:
    """Marginal table of a probability dict by one scan, summing in table order."""
    out = {}
    for t, p in prob.items():
        key = tuple(t[i] for i in positions)
        out[key] = out.get(key, 0) + p
    return out


def oracle_index(outcomes, prob) -> tuple:
    """(rows, weights, scale, exact) of a table by one scan in table order.

    `rows` are the outcome-index tuples of the nonzero entries in order of
    first occurrence, entries naming one row summed.  A table with no float
    entry is exact: each row's weight is its probability times the lcm
    `scale` of the entries' denominators, an int.  Otherwise each weight is
    the float sum of the row's entries, and the scale is 1.0.
    """
    exact = not any(isinstance(p, float) for p in prob.values())
    scale = math.lcm(*(Fraction(p).denominator for p in prob.values())) if exact else 1.0
    sums = {}
    for t, p in prob.items():
        if p:
            row = tuple(labels.index(x) for labels, x in zip(outcomes, t))
            sums[row] = sums.get(row, 0) + (p * scale if exact else float(p))
    return list(sums), [int(w) if exact else w for w in sums.values()], scale, exact


def oracle_independent(outcomes, prob, part_a, part_b, tol=0) -> bool:
    """Whether the blocks part_a and part_b of a table are independent.

    Walks the full outcome product of the union.  An outcome whose marginals
    both have mass but which the joint law gives none is a dependence, whatever
    the tolerance; every other outcome must have joint mass within `tol` of
    the product of its marginals.  Exact tables (Fraction entries) take tol 0.
    """
    union = sorted(set(part_a) | set(part_b))
    part_a, part_b = sorted(part_a), sorted(part_b)
    joint = oracle_marginal(prob, union)
    marg_a, marg_b = oracle_marginal(prob, part_a), oracle_marginal(prob, part_b)
    for combo in itertools.product(*(outcomes[i] for i in union)):
        ta = tuple(combo[union.index(i)] for i in part_a)
        tb = tuple(combo[union.index(i)] for i in part_b)
        if (combo in joint) != (ta in marg_a and tb in marg_b):
            return False
        if abs(joint.get(combo, 0) - marg_a.get(ta, 0) * marg_b.get(tb, 0)) > tol:
            return False
    return True


def oracle_rv_inseparable(outcomes, prob, tol=0) -> set:
    """1-based label tuples of the subfamilies of two or more variables that no
    bipartition splits into independent blocks."""
    k = len(outcomes)
    out = set()
    for r in range(2, k + 1):
        for j in itertools.combinations(range(k), r):
            cuts = [a for size in range(1, r) for a in itertools.combinations(j, size)]
            if not any(
                oracle_independent(outcomes, prob, a, [p for p in j if p not in a], tol)
                for a in cuts
            ):
                out.add(tuple(p + 1 for p in j))
    return out
