"""JSON encodings for every value type, with canonical ordering for golden files.

The `*_from_dict` decoders are the one place that turns outside input into
values.  A malformed document makes them raise whatever its shape provokes
(KeyError, TypeError, ValueError, ...), and two table keys naming one tuple,
or device answers that are not a list of strings, a DomainError; the CLI's
loader reports any of these as a DomainError naming the file.  A
distribution table is decoded into label columns, not tuples.
"""

from __future__ import annotations

import itertools
import json
from array import array
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .connective import ConnectiveStructure
from .devices import Device
from .errors import DomainError
from .quantum import DEFAULT_TOL, DensityOperator, PureState
from .randvars import FiniteJointDistribution


def make_key_joiner(label_sets: Sequence[Sequence[str]]):
    """Uniform key policy for one table: concatenation only when every label
    in every slot is a single character, comma-joined otherwise."""
    compact = all(len(lab) == 1 for labels in label_sets for lab in labels)
    if compact:
        return "".join
    return ",".join


def _split_keys(keys, arity: int, distinct: bool = True) -> list:
    """The label tuple of each key: split at commas when the key holds one or
    `arity` is 1, into single characters otherwise.

    A key that does not split into `arity` labels is refused, and so, when
    `distinct`, is a key naming the tuple of an earlier, different key.  The
    keys are split and checked in one pass, so the first offending key is
    the one named.
    """
    parts, seen = [], {}
    for key in keys:
        p = tuple(key.split(",")) if arity == 1 or "," in key else tuple(key)
        if len(p) != arity:
            raise DomainError(f"key {key!r} does not split into {arity} labels")
        if distinct and seen.setdefault(p, key) != key:
            raise DomainError(f"keys {seen[p]!r} and {key!r} both name {p}")
        parts.append(p)
    return parts


# ---------------------------------------------------------------------------
# connectivity structures


def structure_to_dict(structure: ConnectiveStructure) -> dict:
    return {
        "ground": [str(p) for p in range(1, structure.size + 1)],
        "connected": [[str(p + 1) for p in m] for m in structure.members()],
    }


# ---------------------------------------------------------------------------
# quantum states


def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _complex_array(data, ndim: int) -> np.ndarray:
    """Complex array of `ndim` >= 1 dimensions from nested lists of [re, im] pairs.

    The lists of each level must share one length and the pairs have length
    2.  Their numbers fill one float buffer, viewed as complex, which takes
    numbers only, as complex(re, im) does: a numeric string or null is an
    error, not a number, and an integer beyond float range overflows.
    """
    level, shape = [data], []
    for _ in range(ndim + 1):
        lengths = set(map(len, level))
        if len(lengths) != 1:
            raise ValueError(f"nested lists of unequal lengths {sorted(lengths)}")
        shape += lengths
        level = list(itertools.chain.from_iterable(level))
    if shape[-1] != 2:
        raise ValueError(f"complex entries must be [re, im] pairs, not of length {shape[-1]}")
    return np.frombuffer(array("d", level), dtype=np.complex128).reshape(shape[:-1])


def state_to_dict(psi: PureState) -> dict:
    return {
        "dims": list(psi.dims),
        "amplitudes": [_complex_pair(z) for z in psi.amplitudes],
    }


def state_from_dict(data: Mapping) -> PureState:
    return PureState(data["dims"], _complex_array(data["amplitudes"], 1))


def density_to_dict(rho: DensityOperator) -> dict:
    return {
        "dims": list(rho.dims),
        "matrix": [[_complex_pair(z) for z in row] for row in rho.matrix],
    }


def density_from_dict(data: Mapping, tol: float = DEFAULT_TOL) -> DensityOperator:
    return DensityOperator(data["dims"], _complex_array(data["matrix"], 2), tol=tol)


def menus_from_dict(data: Sequence) -> list:
    """Per-site menus, each a list of {"label", "matrix"} entries, as the
    (label, matrix) lists `devices.derive_device` takes."""
    return [
        [(entry["label"], _complex_array(entry["matrix"], 2)) for entry in site_entries]
        for site_entries in data
    ]


# ---------------------------------------------------------------------------
# devices


def device_to_dict(device: Device) -> dict:
    join_q = make_key_joiner(device.questions)
    join_r = make_key_joiner(device.results)
    relation = {}
    for q in device.question_tuples():
        order = {
            r: tuple(device.results[i].index(x) for i, x in enumerate(r))
            for r in device.relation[q]
        }
        relation[join_q(q)] = [join_r(r) for r in sorted(order, key=order.get)]
    return {
        "questions": [list(qs) for qs in device.questions],
        "results": [list(rs) for rs in device.results],
        "relation": relation,
    }


def device_from_dict(data: Mapping) -> Device:
    k = len(data["questions"])
    table = data["relation"]
    for key, answers in table.items():
        if not isinstance(answers, list) or not all(isinstance(r, str) for r in answers):
            raise DomainError(f"answers of question {key!r} are not a list of strings")
    relation = {
        q: set(_split_keys(answers, k, distinct=False))
        for q, answers in zip(_split_keys(table, k), table.values())
    }
    return Device(data["questions"], data["results"], relation)


# ---------------------------------------------------------------------------
# joint distributions


def _prob_to_json(p) -> object:
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return float(p)


def distribution_to_dict(dist: FiniteJointDistribution) -> dict:
    join = make_key_joiner(dist.outcomes)
    label_index = [{x: i for i, x in enumerate(labels)} for labels in dist.outcomes]
    entries = sorted(dist.prob.items(), key=lambda e: tuple(map(dict.get, label_index, e[0])))
    return {
        "outcomes": [list(rs) for rs in dist.outcomes],
        "prob": {join(t): _prob_to_json(p) for t, p in entries},
    }


def distribution_from_dict(data: Mapping, tol: float = DEFAULT_TOL) -> FiniteJointDistribution:
    """The table as label columns: one split of the joined keys for comma
    keys, and `_split_keys` for any other table, a faulty one included.  Each
    distinct probability string is parsed once by `Fraction` ("p/q", a decimal
    or an integer), so its entries share one value; every other JSON value is
    passed on as it is, for the table to check."""
    k = len(data["outcomes"])
    table = data["prob"]
    keys, values = list(table), list(table.values())
    commas = set(map(str.count, keys, itertools.repeat(",")))
    if keys and commas == {k - 1}:
        labels = ",".join(keys).split(",")
    else:
        labels = list(itertools.chain.from_iterable(_split_keys(keys, k)))
    columns = [labels[v::k] for v in range(k)]
    strings = dict.fromkeys(v for v in values if type(v) is str)
    parsed = dict(zip(strings, map(Fraction, strings)))
    values = [parsed[v] if type(v) is str else v for v in values]
    return FiniteJointDistribution._from_columns(
        data["outcomes"], columns, values, tol, lambda i: tuple(c[i] for c in columns)
    )


# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic rendering: one line of sorted-key JSON with "," and ":"
    separators, ASCII escapes, NaN and the infinities as `json` spells them,
    and a trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
