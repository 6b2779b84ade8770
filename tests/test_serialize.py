"""JSON round trips and canonical-ordering stability."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conexa import serialize
from conexa.connective import ConnectiveStructure
from conexa.devices import builtin_device
from conexa.errors import DomainError
from conexa.quantum import builtin_state, partial_trace
from conexa.randvars import FiniteJointDistribution, brunnian_family
from conexa.serialize import (
    _complex_array,
    _split_keys,
    canonical_json,
    density_from_dict,
    density_to_dict,
    device_from_dict,
    device_to_dict,
    distribution_from_dict,
    distribution_to_dict,
    make_key_joiner,
    state_from_dict,
    state_to_dict,
    structure_to_dict,
)

from helpers import mask, structure


def test_key_join_and_split():
    assert make_key_joiner([("0", "1")] * 2)(("0", "1")) == "01"
    assert make_key_joiner([("-1", "1")] * 2)(("-1", "1")) == "-1,1"
    # one multi-character label in any slot comma-joins every key of the table
    assert make_key_joiner([("0", "1"), ("0", "10")])(("0", "1")) == "0,1"
    assert _split_keys(["01"], 2) == [("0", "1")]
    assert _split_keys(["-1,1"], 2) == [("-1", "1")]
    with pytest.raises(DomainError):
        _split_keys(["011"], 2)
    # a whole table's keys split by the same rule
    assert _split_keys({"ab": 1, "b,a": 2}, 2) == [("a", "b"), ("b", "a")]
    assert _split_keys({"ab": 1, "b": 2}, 1) == [("ab",), ("b",)]


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
    back = ConnectiveStructure(
        len(data["ground"]), [mask(map(int, subset)) for subset in data["connected"]]
    )
    assert structure_to_dict(back) == data


def test_state_round_trip():
    psi = builtin_state("O2")
    back = state_from_dict(state_to_dict(psi))
    assert back.dims == psi.dims
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


@pytest.mark.parametrize("questions, relation, key", [
    # an answer set is a JSON list of strings: a list of label lists and a
    # bare string are refused alike, on one site or on several
    pytest.param([["0"], ["0"]], {"00": [["0", "0"]]}, "00", id="label list, two sites"),
    pytest.param([["0"]], {"0": [["0"]]}, "0", id="label list, one site"),
    pytest.param([["0"], ["0"]], {"00": "00"}, "00", id="string"),
    pytest.param([["0", "1"]], {"0": ["0"], "1": "1"}, "1", id="string after a list"),
])
def test_device_answers_must_be_lists_of_strings(questions, relation, key):
    data = {"questions": questions, "results": [["0", "1"]] * len(questions), "relation": relation}
    with pytest.raises(DomainError) as caught:
        device_from_dict(data)
    assert str(caught.value) == f"answers of question {key!r} are not a list of strings"


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


def test_distribution_integer_entries_stay_exact():
    data = {"outcomes": [["0", "1"], ["0", "1"]], "prob": {"00": "1/2", "11": "1/2", "01": 0}}
    dist = distribution_from_dict(data)
    assert dist.exact
    assert dist.prob == {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)}
    assert all(type(p) is Fraction for p in dist.prob.values())


@pytest.mark.parametrize("text", ["2/4", " 1/2", "0.25", "1e-1", "01/06", "3", "-1/2"])
def test_probability_strings_decode_as_fractions_do(text, monkeypatch):
    # every probability string is read by `Fraction`, "p/q" or not, once:
    # the table receives that one value for both of its entries
    read, received = [], []
    monkeypatch.setattr(serialize, "Fraction", lambda s: read.append(s) or Fraction(s))
    monkeypatch.setattr(FiniteJointDistribution, "_from_columns", classmethod(
        lambda cls, outcomes, columns, values, *rest: received.extend(values)))
    distribution_from_dict({"outcomes": [["0", "1"]], "prob": {"0": text, "1": text}})
    assert read == [text]
    assert type(received[0]) is Fraction and received[0] == Fraction(text)
    assert received[1] is received[0]


@pytest.mark.parametrize("value, message", [
    ("-1/4", "probability -1/4 for ('1',) is not >= 0"),
    ("-0.25", "probability -1/4 for ('1',) is not >= 0"),
    (True, "probability True for ('1',) is a boolean, not a number"),
])
def test_repeated_bad_probability_names_its_first_entry(value, message):
    # each distinct string is parsed once, and each value is checked by the
    # table, which names its first entry
    data = {"outcomes": [["0", "1", "2"]], "prob": {"0": "1/2", "1": value, "2": value}}
    with pytest.raises(DomainError) as caught:
        distribution_from_dict(data)
    assert str(caught.value) == message


_BITS = [["0", "1"], ["0", "1"]]


@pytest.mark.parametrize("outcomes, prob, message", [
    # a key naming no outcome and a negative value: the earlier entry is named
    (_BITS, {"0,2": "1/2", "1,1": "-1/2", "0,0": "1"},
     "outcome tuple ('0', '2') is not well-typed"),
    (_BITS, {"1,1": "-1/2", "0,2": "1/2", "0,0": "1"},
     "probability -1/2 for ('1', '1') is not >= 0"),
    (_BITS, {"02": "1/2", "11": "-1/2"}, "outcome tuple ('0', '2') is not well-typed"),
    # a boolean after a valid entry, before an entry naming no outcome
    (_BITS, {"00": "1/2", "11": True, "22": "1/2"},
     "probability True for ('1', '1') is a boolean, not a number"),
    # aliased keys, even after a negative value: every key is split first
    ([["a", "b"]] * 2, {"ab": "1/2", "a,b": "1/2"},
     "keys 'ab' and 'a,b' both name ('a', 'b')"),
    ([["a", "b"]] * 2, {"ab": "-1/2", "ba": "1", "a,b": "1/2"},
     "keys 'ab' and 'a,b' both name ('a', 'b')"),
    # a wrong-arity key in a comma table, also where the label counts add up
    (_BITS, {"0,0": "1/2", "0,1": "-1/2", "0,1,1": "1/2"},
     "key '0,1,1' does not split into 2 labels"),
    ([["0", "1"]] * 3, {"0,0,0,0": "1/2", "0,0": "1/2"},
     "key '0,0,0,0' does not split into 3 labels"),
])
def test_first_faulty_entry_is_named(outcomes, prob, message):
    with pytest.raises(DomainError) as caught:
        distribution_from_dict({"outcomes": outcomes, "prob": prob})
    assert str(caught.value) == message


@pytest.mark.parametrize("prob, message", [
    ({("0", "2"): Fraction(1, 2), ("1", "1"): Fraction(-1, 2)},
     "outcome tuple ('0', '2') is not well-typed"),
    ({("1", "1"): -0.5, ("0", "2"): Fraction(1, 2)},
     "probability -0.5 for ('1', '1') is not >= 0"),
    ({("0", "0"): Fraction(1, 2), ("1", "1"): True, ("2", "2"): Fraction(1, 2)},
     "probability True for ('1', '1') is a boolean, not a number"),
    # a key of another arity names no outcome, in entry order
    ({("0",): Fraction(1, 2), ("1", "1"): Fraction(-1, 2)},
     "outcome tuple ('0',) is not well-typed"),
    ({("1", "1"): Fraction(-1, 2), ("0", "1", "1"): 1},
     "probability -1/2 for ('1', '1') is not >= 0"),
])
def test_constructor_names_the_first_faulty_entry(prob, message):
    with pytest.raises(DomainError) as caught:
        FiniteJointDistribution(_BITS, prob)
    assert str(caught.value) == message


def test_canonical_json_is_stable():
    payload = {"b": 1, "a": [3, 2]}
    assert canonical_json(payload) == canonical_json({"a": [3, 2], "b": 1})
    assert canonical_json(payload).endswith("\n")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# Leaves include escaped and non-ASCII strings, ints past 64 bits, -0.0, NaN
# and the infinities; each dict has keys of one type, as sorting needs.
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(1 << 80), 1 << 80)
    | st.floats() | st.sampled_from([-0.0, 0.0]) | st.text()
    | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "\u00e9", "\u2028", "\U0001f600"]),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
        | st.dictionaries(st.integers(-300, 300), children, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
    ),
    max_leaves=16,
)


@settings(max_examples=120)
@given(_json_trees)
def test_canonical_json_renders_the_bytes_of_json_dumps(tree):
    # one line: every newline in a string is escaped
    assert canonical_json(tree) == _dumps(tree)
    assert canonical_json(tree).count("\n") == 1


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}, "b": []}, [[], {}], {None: 1}, {True: [0]}, {False: None},
    {1.5: "x"}, {-0.0: "z"}, {10: 1, 9: 2}, float("nan"), [float("-inf")], 1 << 100,
])
def test_canonical_json_edge_cases(tree):
    assert canonical_json(tree) == _dumps(tree)


@pytest.mark.parametrize("tree", [{1: 2, "a": 3}, {(1, 2): 3}, {"a": {1, 2}}, [np.int64(1)]])
def test_canonical_json_refuses_what_json_refuses(tree):
    with pytest.raises(TypeError):
        _dumps(tree)
    with pytest.raises(TypeError):
        canonical_json(tree)


@pytest.mark.parametrize("keys, message", [
    (["ab", "a,b"], "keys 'ab' and 'a,b' both name ('a', 'b')"),
    (["ab", "abc", "a,b"], "key 'abc' does not split into 2 labels"),
    (["ab", "a,b", "abc"], "keys 'ab' and 'a,b' both name ('a', 'b')"),
    (["a,b,c"], "key 'a,b,c' does not split into 2 labels"),
])
def test_split_keys_names_the_first_faulty_key(keys, message):
    # the whole table is split at once; a fault is then named as a scan in
    # key order meets it first
    with pytest.raises(DomainError) as caught:
        _split_keys(dict.fromkeys(keys, 1), 2)
    assert str(caught.value) == message


@pytest.mark.parametrize("data, ndim", [
    ([["1", 0]], 1),              # numeric string
    ([[None, 0]], 1),             # null
    ([[1, 0], [0]], 1),           # ragged
    ([[1, 0, 0]], 1),             # a pair of three entries
    ([[10**400, 0]], 1),          # overflows a float
    ([[1, 0], [0, -1]], 2),       # a matrix of numbers, not of pairs
])
def test_complex_array_refuses_what_complex_refuses(data, ndim):
    with pytest.raises((TypeError, ValueError, OverflowError)):
        _complex_array(data, ndim)


def test_complex_array_takes_numbers_as_complex_does():
    data = [[[1, 0], [True, -0.0]], [[2**70, 0.5], [-3, 1e-300]]]
    got = _complex_array(data, 2)
    want = np.array([[complex(*pair) for pair in row] for row in data])
    assert got.dtype == np.complex128 and got.shape == (2, 2)
    assert got.tobytes() == want.tobytes()
