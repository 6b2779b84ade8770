"""Seeded benchmark inputs and the oracle facts that outputs are checked against.

Nothing here imports conexa: every state, operator, device table and joint
distribution is built from the workload seed with Python's own `random`
module and written as the JSON the CLI reads, so the bytes a comparison sees
do not depend on the program under test.  Oracles are naive on purpose
(repeated-scan closure, remove-one irreducibles, exhaustive enumeration).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("states", "mixed", "devices", "rvs")


@dataclass
class Item:
    """One CLI call.  `argv` names input files as "@<name>"; `expect` holds
    oracle facts for the output checks."""

    name: str
    size_class: str
    argv: list
    expect: dict = field(default_factory=dict)


@dataclass
class Corpus:
    """A workload's items, in run order.

    `largest` names the size class at the top of the ladder.  `pass_s` is the
    time one pass takes at the reference speed of `calibrate.py` (its
    `corpus_s`); a run makes `round(--seconds / pass_s)` passes, so both
    sides of a comparison time the same executions whatever their speed.
    """

    items: list
    warmup: Item
    largest: str
    files: dict
    pass_s: float

    def digest(self) -> str:
        """sha256 over every input file and every argv, in a fixed order."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        for item in [self.warmup] + self.items:
            h.update(json.dumps([item.name, item.argv]).encode() + b"\n")
        return h.hexdigest()


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# structure oracles over bitmasks of 0..n-1


def close(n: int, masks) -> frozenset:
    """Smallest family holding the masks, the empty set and the singletons,
    closed under union of two members with a common point."""
    family = {0} | {1 << i for i in range(n)} | set(masks)
    while True:
        fresh = {a | b for a in family for b in family if a & b and (a | b) not in family}
        if not fresh:
            return frozenset(family)
        family |= fresh


def irreducibles(n: int, family) -> list:
    """Members of size >= 2 that the other members do not regenerate."""
    members = [m for m in family if m.bit_count() >= 2]
    return sorted(
        (k for k in members if k not in close(n, [m for m in members if m != k])),
        key=lambda m: (m.bit_count(), m),
    )


def integral_structures(n: int) -> list:
    """Every integral structure on n points, as frozensets of masks."""
    candidates = [m for m in range(1, 1 << n) if m.bit_count() >= 2]
    base = {0} | {1 << i for i in range(n)}
    out = []
    for keep in itertools.product((0, 1), repeat=len(candidates)):
        family = frozenset(base | {m for m, k in zip(candidates, keep) if k})
        if close(n, family) == family:
            out.append(family)
    return out


def masks_to_labels(n: int, family) -> list:
    """Connected sets as sorted lists of 1-based string labels."""
    return sorted(
        [str(i + 1) for i in range(n) if m >> i & 1] for m in family
    )


# ---------------------------------------------------------------------------
# quantum inputs


def _haar_vector(rng: random.Random, dim: int) -> list:
    v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


def _kron(a: list, b: list) -> list:
    return [x * y for x in a for y in b]


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _state_json(dims, amps) -> bytes:
    return _dump({"dims": list(dims), "amplitudes": [_pair(z) for z in amps]})


def _mixed_matrix(rng: random.Random, dim: int, rank: int) -> list:
    """sum_k p_k |v_k><v_k| with Haar v_k and random weights; exactly Hermitian."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(rank)]
    total = sum(weights)
    terms = [(w / total, _haar_vector(rng, dim)) for w in weights]
    mat = [[0j] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            z = sum(p * v[i] * v[j].conjugate() for p, v in terms)
            if i == j:
                z = complex(z.real, 0.0)
            mat[i][j] = z
            mat[j][i] = z.conjugate()
    return mat


def _kron_matrix(a: list, b: list) -> list:
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def _density_json(dims, mat) -> bytes:
    return _dump({"dims": list(dims), "matrix": [[_pair(z) for z in row] for row in mat]})


def _states(rng: random.Random, seed: int) -> Corpus:
    files, items = {}, []
    pool = ["--seed", str(seed)]
    mix = [(3, 8), (4, 8), (5, 6), (6, 3)]
    for n, count in mix:
        for c in range(count):
            name = f"state-n{n}-{c}.json"
            files[name] = _state_json([2] * n, _haar_vector(rng, 2**n))
            items.append(Item(name, f"n{n}", ["analyze-state", "--file", "@" + name] + pool))
    for a, b in [(2, 2), (2, 3), (3, 2)]:
        name = f"product-{a}x{b}.json"
        amps = _kron(_haar_vector(rng, 2**a), _haar_vector(rng, 2**b))
        files[name] = _state_json([2] * (a + b), amps)
        blocks = [list(range(1, a + 1)), list(range(a + 1, a + b + 1))]
        items.append(Item(name, "product", ["analyze-state", "--file", "@" + name] + pool,
                          {"blocks": blocks, "block_structures": ["GI"]}))
    for builtin in ("EPR", "GHZ", "O2", "K"):
        items.append(Item(builtin, "builtin", ["analyze-state", "--builtin", builtin] + pool))
    warmup = Item("warmup", "builtin", ["analyze-state", "--builtin", "GHZ"] + pool)
    return Corpus(items, warmup, "n6", files, 7.8)


def _mixed(rng: random.Random, seed: int) -> Corpus:
    files, items = {}, []
    layouts = [((2,) * 4, 2, 3), ((2,) * 5, 2, 5), ((2,) * 6, 2, 6), ((2,) * 7, 2, 3),
               ((3, 2, 2), 2, 1), ((2, 3, 2, 2), 3, 1), ((3, 3, 2, 2), 2, 1)]
    for dims, rank, count in layouts:
        size_class = f"n{len(dims)}" if set(dims) == {2} else "qutrit"
        for c in range(count):
            name = "rho-" + "".join(map(str, dims)) + f"-r{rank}-{c}.json"
            files[name] = _density_json(dims, _mixed_matrix(rng, math.prod(dims), rank))
            items.append(Item(name, size_class, ["analyze-density", "--file", "@" + name]))
    for dims_a, dims_b in [((2, 2), (2, 2)), ((2, 2, 2), (2, 2)), ((3, 2), (2, 2))]:
        name = "product-" + "".join(map(str, dims_a)) + "x" + "".join(map(str, dims_b)) + ".json"
        mat = _kron_matrix(_mixed_matrix(rng, math.prod(dims_a), 2),
                           _mixed_matrix(rng, math.prod(dims_b), 2))
        files[name] = _density_json(dims_a + dims_b, mat)
        a = len(dims_a)
        blocks = [list(range(1, a + 1)), list(range(a + 1, a + len(dims_b) + 1))]
        items.append(Item(name, "product", ["analyze-density", "--file", "@" + name],
                          {"blocks": blocks, "block_structures": ["corr", "S"]}))
    warmup = Item("warmup", "builtin", ["analyze-density", "--builtin", "GHZ"])
    return Corpus(items, warmup, "n7", files, 2.35)


# ---------------------------------------------------------------------------
# device tables


def _table(rng: random.Random, sites: int, answers: int, sizes: list) -> dict:
    """Device JSON with binary questions; sizes[i] answers for the i-th question tuple."""
    questions = [["0", "1"]] * sites
    results = [[str(a) for a in range(answers)]] * sites
    q_tuples = list(itertools.product("01", repeat=sites))
    r_tuples = ["".join(r) for r in itertools.product(results[0], repeat=sites)]
    relation = {
        "".join(q): sorted(rng.sample(r_tuples, size)) for q, size in zip(q_tuples, sizes)
    }
    return {"questions": questions, "results": results, "relation": relation}


# Two answers are pinned: site 1's on questions 000/010 and site 2's on 100/101
# (question -> (answer slot, value)).  In every deterministic realization site
# 1's answer then depends on site 2's question and site 2's answer on site 3's,
# so each pointed domain structure connects {1,2,3}: kappa_dp never reaches
# the discrete structure, the domanial scan has no early exit, and its cost
# follows the realization count rather than the luck of the scan order.
PINNED = {"000": (0, "0"), "010": (0, "1"), "100": (1, "0"), "101": (1, "1")}


def _ladder_table(rng: random.Random, log2_count: int) -> dict:
    """Binary 3-site table with exactly 2**log2_count deterministic realizations."""
    questions = ["".join(q) for q in itertools.product("01", repeat=3)]
    while True:
        exps = [rng.randint(0, 2 if q in PINNED else 3) for q in questions]
        if sum(exps) == log2_count:
            break
    relation = {}
    for q, e in zip(questions, exps):
        slot, value = PINNED.get(q, (0, None))
        pool = [r for r in questions if value is None or r[slot] == value]
        relation[q] = sorted(rng.sample(pool, 1 << e))
    return {"questions": [["0", "1"]] * 3, "results": [["0", "1"]] * 3, "relation": relation}


def _tensor_table(a: dict, b: dict) -> dict:
    return {
        "questions": a["questions"] + b["questions"],
        "results": a["results"] + b["results"],
        "relation": {
            qa + qb: sorted(ra + rb for ra in ans_a for rb in ans_b)
            for qa, ans_a in a["relation"].items()
            for qb, ans_b in b["relation"].items()
        },
    }


def _realizations(table: dict) -> int:
    return math.prod(len(v) for v in table["relation"].values())


def _devices(rng: random.Random, seed: int) -> Corpus:
    files, items = {}, []

    def add(name, size_class, table, expect=None):
        files[name] = _dump(table)
        expect = dict(expect or {}, realizations=_realizations(table))
        items.append(Item(name, size_class, ["analyze-device", "--file", "@" + name], expect))

    for builtin, menus in (("GHZ", "ZX"), ("K", "Xp,Zp")):
        items.append(Item(f"derive-{builtin}", "derive",
                          ["derive-device", "--builtin-state", builtin, "--menus", menus,
                           "--recode", "paper"], {"same_as_builtin": builtin}))
    for builtin in ("EPR", "EPR2", "GHZ", "K"):
        expect = {"pinned": {"NL": [[1, 2, 3]], "do": []}} if builtin == "K" else {}
        items.append(Item(f"builtin-{builtin}", "builtin",
                          ["analyze-device", "--builtin", builtin], expect))
    # Four 2^18 tables put the median of the largest class inside a group of
    # like items; 2^20 is the cap, where every unpinned answer is allowed.
    for idx, log2_count in enumerate((10, 11, 12, 13, 14, 15, 16, 18, 18, 18, 18, 20)):
        size_class = "ge2^18" if log2_count >= 18 else "lt2^18"
        add(f"binary-{idx}-2^{log2_count}.json", size_class, _ladder_table(rng, log2_count),
            {"contains": {"dp": [[1, 2, 3]]}})
    for c in range(4):
        sizes = [4, 4, 4, 4, 3, 3, 3, 3]
        rng.shuffle(sizes)
        add(f"ternary-{c}.json", "ternary", _table(rng, 3, 3, sizes))
    one_site = _table(rng, 1, 2, rng.sample([1, 2], 2))
    two_site = _table(rng, 2, 2, rng.sample([1, 2, 2, 3], 4))
    add("product-1x2.json", "product", _tensor_table(one_site, two_site), {"separable": True})
    add("product-2x1.json", "product", _tensor_table(two_site, one_site), {"separable": True})
    # Two-site products are as cheap as the builtins; six of them balance the
    # slow items above the ladder, so the median item falls mid-ladder.
    for c in range(6):
        a, b = (_table(rng, 1, 2, rng.sample([1, 2], 2)) for _ in range(2))
        add(f"product-1x1-{c}.json", "product", _tensor_table(a, b), {"separable": True})
    warmup = Item("warmup", "builtin", ["analyze-device", "--builtin", "EPR2"])
    return Corpus(items, warmup, "ge2^18", files, 6.2)


# ---------------------------------------------------------------------------
# random-variable families


def _parity_family(n: int, generators: list) -> dict:
    """Distribution JSON realizing the structure generated by `generators`.

    Each generator gets independent fair bits on all but its last member and
    their parity on the last; a point's variable is the string of its bits
    across the generators holding it, or one free bit if none does.
    """
    members = [[i for i in range(n) if g >> i & 1] for g in generators]
    lone = [i for i in range(n) if not any(g >> i & 1 for g in generators)]
    width = [sum(1 for m in members if i in m) or 1 for i in range(n)]
    free = sum(len(m) - 1 for m in members) + len(lone)
    prob = {}
    for bits in itertools.product("01", repeat=free):
        cursor = 0
        parts = [[] for _ in range(n)]
        for m in members:
            chosen = bits[cursor:cursor + len(m) - 1]
            cursor += len(m) - 1
            for i, b in zip(m, chosen):
                parts[i].append(b)
            parts[m[-1]].append(str(chosen.count("1") % 2))
        for i in lone:
            parts[i].append(bits[cursor])
            cursor += 1
        prob[",".join("".join(p) for p in parts)] = f"1/{2 ** free}"
    outcomes = [["".join(c) for c in itertools.product("01", repeat=w)] for w in width]
    return {"outcomes": outcomes, "prob": prob}


def brunnian_family(k: int, modulus: int) -> dict:
    """k iid uniform variables over Z/nZ and their sum: only the whole family is connected."""
    alphabet = [str(v) for v in range(modulus)]
    prob = {
        ",".join(map(str, values + (sum(values) % modulus,))): f"1/{modulus ** k}"
        for values in itertools.product(range(modulus), repeat=k)
    }
    return {"outcomes": [alphabet] * (k + 1), "prob": prob}


def _five_point_sample(rng: random.Random, count: int) -> list:
    """Distinct 5-point structures with 5 irreducibles and 8 free parity bits,
    so that every sampled table has 2**8 rows."""
    chosen = []
    while len(chosen) < count:
        gens = [sum(1 << i for i in rng.sample(range(5), rng.randint(2, 3)))
                for _ in range(rng.randint(4, 7))]
        family = close(5, gens)
        irr = irreducibles(5, family)
        covered = sum(1 for i in range(5) if any(g >> i & 1 for g in irr))
        free = sum(g.bit_count() - 1 for g in irr) + 5 - covered
        if len(irr) == 5 and free == 8 and family not in chosen:
            chosen.append(family)
    return chosen


def _rvs(rng: random.Random, seed: int) -> Corpus:
    files, items = {}, []

    def add(name, size_class, n, table, family):
        files[name] = _dump(table)
        items.append(Item(name, size_class, ["analyze-rvs", "--file", "@" + name],
                          {"structure": masks_to_labels(n, family)}))

    for n in (3, 4):
        for idx, family in enumerate(integral_structures(n)):
            add(f"parity-{n}pt-{idx}.json", f"{n}pt", n,
                _parity_family(n, irreducibles(n, family)), family)
    for k, modulus in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        add(f"brunnian-{k}-{modulus}.json", "brunnian", k + 1,
            brunnian_family(k, modulus), close(k + 1, [(1 << (k + 1)) - 1]))
    for idx, family in enumerate(_five_point_sample(rng, 16)):
        add(f"parity-5pt-{idx}.json", "5pt", 5, _parity_family(5, irreducibles(5, family)),
            family)
    files["warmup.json"] = _dump(brunnian_family(2, 2))
    warmup = Item("warmup", "brunnian", ["analyze-rvs", "--file", "@warmup.json"])
    return Corpus(items, warmup, "5pt", files, 8.6)


BUILDERS = {"states": _states, "mixed": _mixed, "devices": _devices, "rvs": _rvs}


def build(workload: str, seed: int) -> Corpus:
    """The workload's corpus; equal (workload, seed) give byte-identical inputs."""
    rng = random.Random(f"conexa-benchmark/{workload}/{seed}")
    return BUILDERS[workload](rng, seed)
