"""JSON encodings for every value type, with canonical ordering for golden files.

The `*_from_dict` decoders are the one place that turns outside input into
values.  A malformed document makes them raise whatever its shape provokes
(KeyError, TypeError, ValueError, ...), and two table keys naming one tuple
a DomainError; the CLI's loader reports any of these as a DomainError naming
the file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .connective import ConnectiveStructure, GroundSet
from .devices import Device
from .errors import DomainError
from .quantum import DEFAULT_TOL, DensityOperator, PureState, SiteLayout
from .randvars import FiniteJointDistribution


def make_key_joiner(label_sets: Sequence[Sequence[str]]):
    """Uniform key policy for one table: concatenation only when every label
    in every slot is a single character, comma-joined otherwise."""
    compact = all(len(lab) == 1 for labels in label_sets for lab in labels)
    if compact:
        return "".join
    return ",".join


def split_key(key: str, arity: int) -> tuple:
    if "," in key:
        parts = tuple(key.split(","))
    elif arity == 1:
        parts = (key,)
    else:
        parts = tuple(key)
    if len(parts) != arity:
        raise DomainError(f"key {key!r} does not split into {arity} labels")
    return parts


def _split_keys(table: Mapping, arity: int) -> dict:
    """The table keyed by split_key, refusing two keys that split alike."""
    keys = {}
    for key in table:
        parts = split_key(key, arity)
        if keys.setdefault(parts, key) != key:
            raise DomainError(f"keys {keys[parts]!r} and {key!r} both name {parts}")
    return {parts: table[key] for parts, key in keys.items()}


# ---------------------------------------------------------------------------
# connectivity structures


def structure_to_dict(structure: ConnectiveStructure) -> dict:
    return {
        "ground": [str(lab) for lab in structure.ground.labels],
        "connected": [
            [str(lab) for lab in labels] for labels in structure.member_labels()
        ],
    }


def structure_from_dict(data: Mapping) -> ConnectiveStructure:
    ground = GroundSet(data["ground"])
    return ConnectiveStructure(
        ground, [ground.mask_of(subset) for subset in data["connected"]]
    )


# ---------------------------------------------------------------------------
# quantum states


def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _complex_array(data, ndim: int) -> np.ndarray:
    """Complex array of `ndim` >= 1 dimensions from nested lists of [re, im] pairs.

    Each entry is complex(re, im), which takes numbers only: a numeric
    string is an error, not a number.
    """
    def decode(x, depth):
        if depth == 1:
            return [complex(re, im) for re, im in x]
        return [decode(y, depth - 1) for y in x]

    return np.array(decode(data, ndim), dtype=np.complex128)


def state_to_dict(psi: PureState) -> dict:
    return {
        "dims": list(psi.layout.dims),
        "amplitudes": [_complex_pair(z) for z in psi.amplitudes],
    }


def state_from_dict(data: Mapping) -> PureState:
    return PureState(SiteLayout(data["dims"]), _complex_array(data["amplitudes"], 1))


def density_to_dict(rho: DensityOperator) -> dict:
    return {
        "dims": list(rho.layout.dims),
        "matrix": [[_complex_pair(z) for z in row] for row in rho.matrix],
    }


def density_from_dict(data: Mapping, tol: float = DEFAULT_TOL) -> DensityOperator:
    return DensityOperator(SiteLayout(data["dims"]), _complex_array(data["matrix"], 2), tol=tol)


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
    relation = {
        q: {split_key(r, k) for r in answers}
        for q, answers in _split_keys(data["relation"], k).items()
    }
    return Device(data["questions"], data["results"], relation)


# ---------------------------------------------------------------------------
# joint distributions


def _prob_to_json(p) -> object:
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return float(p)


def _prob_from_json(value):
    if isinstance(value, bool):
        raise DomainError(f"probability {json.dumps(value)} is a boolean, not a number")
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


def distribution_to_dict(dist: FiniteJointDistribution) -> dict:
    join = make_key_joiner(dist.outcomes)
    label_index = [{x: i for i, x in enumerate(labels)} for labels in dist.outcomes]
    entries = sorted(dist.prob.items(), key=lambda e: tuple(map(dict.get, label_index, e[0])))
    return {
        "outcomes": [list(rs) for rs in dist.outcomes],
        "prob": {join(t): _prob_to_json(p) for t, p in entries},
    }


def distribution_from_dict(data: Mapping, tol: float = DEFAULT_TOL) -> FiniteJointDistribution:
    k = len(data["outcomes"])
    prob = {t: _prob_from_json(value) for t, value in _split_keys(data["prob"], k).items()}
    return FiniteJointDistribution(data["outcomes"], prob, tol=tol)


# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
