"""JSON round trips and canonical-ordering stability."""

from fractions import Fraction

import numpy as np
import pytest

from conexa.devices import builtin_device
from conexa.errors import DomainError
from conexa.quantum import builtin_state, partial_trace
from conexa.randvars import FiniteJointDistribution, brunnian_family
from conexa.serialize import (
    canonical_json,
    density_from_dict,
    density_to_dict,
    device_from_dict,
    device_to_dict,
    distribution_from_dict,
    distribution_to_dict,
    make_key_joiner,
    split_key,
    state_from_dict,
    state_to_dict,
    structure_from_dict,
    structure_to_dict,
)

from helpers import structure


def test_key_join_and_split():
    assert make_key_joiner([("0", "1")] * 2)(("0", "1")) == "01"
    assert make_key_joiner([("-1", "1")] * 2)(("-1", "1")) == "-1,1"
    # one multi-character label in any slot comma-joins every key of the table
    assert make_key_joiner([("0", "1"), ("0", "10")])(("0", "1")) == "0,1"
    assert split_key("01", 2) == ("0", "1")
    assert split_key("-1,1", 2) == ("-1", "1")
    with pytest.raises(DomainError):
        split_key("011", 2)


def test_structure_round_trip_and_order():
    s = structure(3, [(2, 3), (1, 2, 3)])
    data = structure_to_dict(s)
    assert data["connected"] == [
        [],
        ["1"],
        ["2"],
        ["3"],
        ["2", "3"],
        ["1", "2", "3"],
    ]
    back = structure_from_dict(data)
    assert structure_to_dict(back) == data


def test_state_round_trip():
    psi = builtin_state("O2")
    back = state_from_dict(state_to_dict(psi))
    assert back.layout == psi.layout
    assert np.allclose(back.amplitudes, psi.amplitudes)


def test_density_round_trip():
    rho = partial_trace(builtin_state("GHZ").density(), [0, 1])
    back = density_from_dict(density_to_dict(rho))
    assert np.allclose(back.matrix, rho.matrix)


def test_device_round_trip_all_builtins():
    for name in ("EPR", "EPR2", "GHZ", "K"):
        dev = builtin_device(name)
        assert device_from_dict(device_to_dict(dev)) == dev


def test_device_json_shape():
    data = device_to_dict(builtin_device("EPR"))
    assert data["relation"] == {"**": ["00", "11"]}


def test_device_round_trip_with_multichar_labels():
    from conexa.devices import derive_device
    from conexa.quantum import pauli_z

    raw = derive_device(builtin_state("EPR"), [[("*", pauli_z())]] * 2)
    data = device_to_dict(raw)
    assert data["relation"] == {"**": ["-1,-1", "1,1"]}
    assert device_from_dict(data) == raw


def test_distribution_round_trip_rational():
    dist = brunnian_family(2, 2)
    data = distribution_to_dict(dist)
    assert data["prob"]["000"] == "1/4"
    back = distribution_from_dict(data)
    assert back == dist
    assert all(isinstance(p, Fraction) for p in back.prob.values())


def test_distribution_keys_follow_the_declared_outcome_order():
    # labels declared out of lexicographic order, entries given in neither order
    dist = FiniteJointDistribution(
        (("b", "a"), ("1", "0")),
        {("a", "0"): Fraction(1, 4), ("b", "0"): Fraction(1, 4),
         ("a", "1"): Fraction(1, 4), ("b", "1"): Fraction(1, 4)},
    )
    assert list(distribution_to_dict(dist)["prob"]) == ["b1", "b0", "a1", "a0"]


def test_distribution_accepts_floats():
    data = {
        "outcomes": [["0", "1"]],
        "prob": {"0": 0.5, "1": 0.5},
    }
    dist = distribution_from_dict(data)
    assert abs(float(sum(dist.prob.values())) - 1.0) < 1e-12


def test_canonical_json_is_stable():
    payload = {"b": 1, "a": [3, 2]}
    assert canonical_json(payload) == canonical_json({"a": [3, 2], "b": 1})
    assert canonical_json(payload).endswith("\n")
