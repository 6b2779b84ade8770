"""CLI contract: reports, exit codes, determinism, schema validity."""

import hashlib
import itertools
import json
import math
import random
import re
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conexa import cli, devices, quantum, randvars
from conexa.cli import main
from conexa.connective import (
    ConnectiveStructure,
    _restrictions,
    _subset_structures,
    _subsets,
    connective_order,
)
from conexa.serialize import (
    canonical_json,
    density_to_dict,
    device_to_dict,
    distribution_to_dict,
    state_to_dict,
    structure_to_dict,
)
from conexa.devices import builtin_device
from conexa.quantum import DensityOperator, PureState, builtin_state
from conexa.randvars import realize_structure

from helpers import (
    ladder_device,
    mask,
    pinned_layout,
    random_density_matrix,
    random_state_vector,
    tensor_device,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out: str) -> dict:
    return json.loads(out)


def validate_schema(report: dict) -> None:
    schema = json.loads(
        resources.files("conexa").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(report, schema)


def test_analyze_state_ghz(capsys):
    code, out, _ = run_cli(capsys, "analyze-state", "--builtin", "GHZ")
    assert code == 0
    report = load_report(out)
    validate_schema(report)
    result = report["result"]
    assert result["orders"]["omega_c"] == 1
    gi = result["structures"]["GI"]["connected"]
    assert gi == [[], ["1"], ["2"], ["3"], ["1", "2", "3"]]
    assert result["classes"]["123"]["class"] == "GLOBALLY_ENTANGLED"
    assert "seed" not in report and "samples" not in report["parameters"]


def test_ten_site_subset_keys_are_comma_joined(tmp_path, capsys):
    # the site label "10" has two characters, so every subset key of the
    # table is comma-joined: "1,2" and "1,10", never "12"
    path = tmp_path / "basis10.json"
    path.write_text(json.dumps({"dims": [2] * 10, "amplitudes": [[1, 0]] + [[0, 0]] * 1023}))
    code, out, err = run_cli(capsys, "analyze-state", "--file", str(path),
                             "--structures", "GI")
    assert (code, err) == (0, "")
    classes = load_report(out)["result"]["classes"]
    assert len(classes) == 2**10 - 10 - 1 and {"1,2", "1,10", "9,10"} <= set(classes)
    assert all("," in key for key in classes)


def test_analyze_state_structure_filter(capsys):
    code, out, _ = run_cli(
        capsys, "analyze-state", "--builtin", "EPR", "--structures", "GI,MT"
    )
    assert code == 0
    report = load_report(out)
    assert sorted(report["result"]["structures"]) == ["GI", "MT"]


_STRUCTURE_NAMES = "['BIP', 'GI', 'IP', 'ML', 'MT', 'NCS']"


@pytest.mark.parametrize("names", ["", " ", "GI,"], ids=repr)
def test_analyze_state_empty_structure_name_exits_2(names, capsys):
    # an empty name is an unknown name, also when it is the whole option
    code, out, err = run_cli(capsys, "analyze-state", "--builtin", "EPR", "--structures", names)
    assert (code, out) == (2, "")
    assert err == f"error: unknown structure name ''; known: {_STRUCTURE_NAMES}\n"


def test_analyze_state_checks_structure_names_before_the_analysis(capsys, monkeypatch):
    def analysis(*args, **kwargs):
        raise AssertionError("the state was analyzed")

    monkeypatch.setattr(cli, "disentanglement_structures", analysis)
    code, out, err = run_cli(capsys, "analyze-state", "--builtin", "GHZ", "--structures", "FOO")
    assert (code, out) == (2, "")
    assert err == f"error: unknown structure name 'FOO'; known: {_STRUCTURE_NAMES}\n"


def test_analyze_state_requires_seed(capsys):
    # no seed is required: the pool is fixed, and --seed is parsed and ignored
    for command in ("analyze-state", "order"):
        reports = set()
        for seed in ([], ["--seed", "1"], ["--seed", "2"]):
            code, out, err = run_cli(capsys, command, "--builtin", "O2", *seed)
            assert (code, err) == (0, "")
            reports.add(out)
        assert len(reports) == 1, command


def test_analyze_density_ghz(capsys):
    code, out, _ = run_cli(capsys, "analyze-density", "--builtin", "GHZ")
    assert code == 0
    report = load_report(out)
    validate_schema(report)
    result = report["result"]
    assert result["structures"]["S"]["connected"] == [
        [],
        ["1"],
        ["2"],
        ["3"],
        ["1", "2", "3"],
    ]
    assert result["orders"]["omega_f"] == 1
    assert result["subsets"]["123"]["quality"] == "EXACT"


def test_analyze_density_from_file(tmp_path, capsys):
    from conexa.quantum import partial_trace
    from conexa.serialize import density_to_dict

    rho = partial_trace(builtin_state("GHZ").density(), [0, 1])
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(density_to_dict(rho)))
    code, out, _ = run_cli(capsys, "analyze-density", "--file", str(path))
    assert code == 0
    report = load_report(out)
    validate_schema(report)
    subsets = report["result"]["subsets"]
    assert subsets["12"]["completely_correlated"] is True
    assert subsets["12"]["completely_entangled"] is False


def test_analyze_density_does_not_revalidate_reductions(tmp_path, capsys):
    # anti-Hermitian entries of 0.45e-9 pass the constructor's 1e-9 bound;
    # tracing out the last five qubits sums 32 of them into one entry
    from conexa.quantum import DensityOperator, partial_trace
    from conexa.serialize import density_to_dict

    matrix = np.eye(64, dtype=complex) / 64
    t = np.arange(32)
    matrix[t, 32 + t] += 0.45e-9
    matrix[32 + t, t] -= 0.45e-9
    rho = DensityOperator((2,) * 6, matrix)
    assert abs(partial_trace(rho, [0]).matrix[0, 1] - 32 * 0.45e-9) < 1e-15
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(density_to_dict(rho)))
    code, out, err = run_cli(capsys, "analyze-density", "--file", str(path))
    assert (code, err) == (0, "")
    assert load_report(out)["result"]["orders"]["omega_f"] == 0


def test_analyze_density_checks_dims_once(tmp_path, capsys, monkeypatch):
    # the file's dims are checked where the operator is built; every
    # reduction takes its dims from it unchecked
    from conexa import quantum
    from conexa.serialize import density_to_dict

    matrix = random_density_matrix(np.random.default_rng(3), (2,) * 5, 2)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(density_to_dict(DensityOperator((2,) * 5, matrix))))
    calls = []
    check = quantum._check_dims
    monkeypatch.setattr(quantum, "_check_dims", lambda dims: calls.append(dims) or check(dims))
    code, _, err = run_cli(capsys, "analyze-density", "--file", str(path))
    assert (code, err) == (0, "")
    assert calls == [[2] * 5]


def test_analyze_device_builtin_k(capsys):
    code, out, _ = run_cli(capsys, "analyze-device", "--builtin", "K")
    assert code == 0
    report = load_report(out)
    validate_schema(report)
    result = report["result"]
    assert result["realizations"] == 1048576
    assert result["structures"]["NL"]["connected"] == [
        [],
        ["1"],
        ["2"],
        ["3"],
        ["1", "2", "3"],
    ]
    assert result["structures"]["do"]["connected"] == [[], ["1"], ["2"], ["3"]]
    assert result["orders"]["ludic"].startswith("excluded")


def test_analyze_device_cap_exit_code(capsys):
    # cap below the 256 realizations of each pair sub-device, checked first
    code, _, err = run_cli(capsys, "analyze-device", "--builtin", "K", "--cap", "10")
    assert code == 3
    assert "cap" in err
    # cap between the pair sub-devices and the full device: the error names
    # the full device's realization count
    code, _, err = run_cli(capsys, "analyze-device", "--builtin", "K", "--cap", "10000")
    assert code == 3
    assert "1048576" in err


def test_analyze_device_cap_bounds_realizations(tmp_path, capsys):
    """The cap bounds the realizations of each scanned device: 20,736 for this
    table, although one cut's block functions number 9^4 * 9 = 59,049."""
    rng = np.random.default_rng(17)
    questions = (("0", "1"),) * 3
    results = (("0", "1", "2"),) * 3
    answers = list(itertools.product(*results))
    sizes = rng.permutation([4, 4, 4, 4, 3, 3, 3, 3])
    relation = {
        q: {answers[i] for i in rng.choice(len(answers), size=int(size), replace=False)}
        for q, size in zip(itertools.product(*questions), sizes)
    }
    dev = devices.Device(questions, results, relation)
    assert devices.realization_count(dev) == 20736
    path = tmp_path / "ternary.json"
    path.write_text(json.dumps(device_to_dict(dev)))
    code, out, _ = run_cli(capsys, "analyze-device", "--file", str(path), "--cap", "30000")
    assert code == 0
    assert load_report(out)["result"]["realizations"] == 20736
    code, _, err = run_cli(capsys, "analyze-device", "--file", str(path), "--cap", "20000")
    assert code == 3
    assert "20736" in err


def _pooled_device_file(tmp_path):
    """A sub-device pools the answers of every extension: this 4-site device
    has 32 realizations, and its sub-device on sites 1, 2, 3 about 10^12."""
    rng = random.Random(15)
    relation = {}
    for n, q in enumerate(itertools.product("012", repeat=4)):
        answers = {tuple(rng.choice("01") for _ in range(4)) for _ in range(1 + (n % 16 == 0))}
        relation["".join(q)] = ["".join(r) for r in answers]
    path = tmp_path / "pooled.json"
    path.write_text(json.dumps(
        {"questions": [["0", "1", "2"]] * 4, "results": [["0", "1"]] * 4, "relation": relation}
    ))
    return path


_POOLED_REFUSAL = (
    "resource error: device on sites 1,2,3 has 1057916215296 deterministic "
    "realizations, above the cap 1048576\n"
)


def test_analyze_device_cap_names_the_refused_sub_device(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze-device", "--file", str(_pooled_device_file(tmp_path)))
    assert (code, err) == (3, _POOLED_REFUSAL)


def test_analyze_device_checks_every_count_before_any_scan(tmp_path, capsys, monkeypatch):
    """The six pair sub-devices of the pooled table fit the cap, and none of
    them is scanned before sites 1, 2, 3 are refused."""
    def scan(device, *args, **kwargs):
        raise AssertionError("a sub-device was scanned")

    monkeypatch.setattr(devices, "_scan", scan)
    code, _, err = run_cli(capsys, "analyze-device", "--file", str(_pooled_device_file(tmp_path)))
    assert (code, err) == (3, _POOLED_REFUSAL)


def test_analyze_device_refuses_eight_sites_before_any_scan(tmp_path, capsys, monkeypatch):
    """An 8-site table exits 3 on the site limit, with none of its 246
    sub-devices of 2 to 7 sites scanned first."""
    scanned = []
    original = devices._scan

    def counted(device, *args, **kwargs):
        scanned.append(device.uplicity)
        return original(device, *args, **kwargs)

    monkeypatch.setattr(devices, "_scan", counted)
    relation = {"".join(q): ["".join(q)] for q in itertools.product("01", repeat=8)}
    path = tmp_path / "eight.json"
    path.write_text(json.dumps(
        {"questions": [["0", "1"]] * 8, "results": [["0", "1"]] * 8, "relation": relation}
    ))
    code, _, err = run_cli(capsys, "analyze-device", "--file", str(path))
    assert code == 3
    assert err == "resource error: dependency scan supports at most 7 sites\n"
    assert scanned == []


def test_analyze_device_with_more_questions_than_array_dimensions(tmp_path, capsys):
    """81 question tuples, above numpy's 64 array dimensions: a local
    deterministic device whose outputs are the question parities."""
    relation = {
        "".join(q): ["".join(str(int(x) % 2) for x in q)]
        for q in itertools.product("012", repeat=4)
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"questions": [["0", "1", "2"]] * 4, "results": [["0", "1"]] * 4, "relation": relation}
    ))
    code, out, _ = run_cli(capsys, "analyze-device", "--file", str(path))
    assert code == 0
    result = load_report(out)["result"]
    assert result["profile"]["local"]
    assert result["orders"]["overall"] == 0


def test_analyze_rvs_from_file(tmp_path, capsys):
    path = tmp_path / "xor.json"
    path.write_text(
        json.dumps(
            {
                "outcomes": [["0", "1"], ["0", "1"], ["0", "1"]],
                "prob": {"000": "1/4", "011": "1/4", "101": "1/4", "110": "1/4"},
            }
        )
    )
    code, out, _ = run_cli(capsys, "analyze-rvs", "--file", str(path))
    assert code == 0
    report = load_report(out)
    validate_schema(report)
    result = report["result"]
    assert result["structure"]["connected"] == [
        [],
        ["1"],
        ["2"],
        ["3"],
        ["1", "2", "3"],
    ]
    assert result["order"] == 1
    assert result["raw_generators"] == [["1", "2", "3"]]


def test_derive_device_matches_builtin_k(capsys):
    code, out, _ = run_cli(
        capsys,
        "derive-device",
        "--builtin-state",
        "K",
        "--menus",
        "Xp,Zp",
        "--recode",
        "paper",
    )
    assert code == 0
    report = load_report(out)
    validate_schema(report)
    assert report["result"]["device"] == device_to_dict(builtin_device("K"))


def test_derive_device_matches_builtin_ghz(capsys):
    code, out, _ = run_cli(
        capsys, "derive-device", "--builtin-state", "GHZ", "--menus", "ZX",
        "--recode", "paper",
    )
    assert code == 0
    report = load_report(out)
    assert report["result"]["device"] == device_to_dict(builtin_device("GHZ"))


def test_order_command(capsys):
    code, out, _ = run_cli(capsys, "order", "--builtin", "O2")
    assert code == 0
    report = load_report(out)
    validate_schema(report)
    assert report["result"] == {"omega": 2, "omega_c": 1, "omega_f": 2}


def test_builtin_listing_and_emission(capsys):
    code, out, _ = run_cli(capsys, "builtin", "--list")
    assert code == 0
    report = load_report(out)
    assert report["result"]["states"] == ["EPR", "GHZ", "K", "O2"]
    assert report["result"]["devices"] == ["EPR", "EPR2", "GHZ", "K"]

    code, out, _ = run_cli(capsys, "builtin", "--state", "GHZ")
    assert code == 0
    assert load_report(out)["result"]["state"] == state_to_dict(builtin_state("GHZ"))


@pytest.mark.parametrize("request_args, payload", [
    (("--list",), ["states: EPR GHZ K O2", "devices: EPR EPR2 GHZ K"]),
    (("--state", "GHZ"), [json.dumps(state_to_dict(builtin_state("GHZ")), sort_keys=True)]),
    (("--device", "K"), [json.dumps(device_to_dict(builtin_device("K")), sort_keys=True)]),
], ids=["list", "state", "device"])
def test_builtin_text_output_holds_its_payload(capsys, request_args, payload):
    code, out, _ = run_cli(capsys, "builtin", *request_args, "--format", "text")
    assert code == 0
    assert out.splitlines() == ["conexa 0.1.0 -- builtin", *payload]


def test_malformed_json_exit_code_and_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 2], "amplitudes": [[1, 0],')
    code, _, err = run_cli(capsys, "analyze-state", "--file", str(path))
    assert code == 2
    assert "line" in err and "column" in err


_ONE_SITE_DEVICE = {"questions": [["0", "1"]], "results": [["0", "1"]],
                    "relation": {"0": ["0"], "1": ["1"]}}

# (argv, JSON text of a file to append to argv or None, message) for each
# refusal of a valid file or of a command line: no path precedes the message
REFUSALS = {
    "one-site device": (["analyze-device", "--file"], json.dumps(_ONE_SITE_DEVICE),
                        "device structures need uplicity >= 2"),
    "unknown builtin device": (["analyze-device", "--builtin", "FOO"], None,
                               "unknown builtin device 'FOO'; known: ['EPR', 'EPR2', 'GHZ', 'K']"),
    "unknown builtin state": (["analyze-state", "--builtin", "W"], None,
                              "unknown builtin state 'W'; known: ['EPR', 'GHZ', 'K', 'O2']"),
    "one-site state": (["analyze-state", "--file"],
                       json.dumps({"dims": [2], "amplitudes": [[1, 0], [0, 0]]}),
                       "disentanglement analysis needs at least two sites"),
    "a site of dimension 1": (["analyze-state", "--file"],
                              json.dumps({"dims": [1, 2, 2], "amplitudes": [[1, 0]] * 4}),
                              "analysis requires every site dimension >= 2"),
    # the first unknown structure name is refused, as the first unknown menu token is
    "unknown structure name": (["analyze-state", "--builtin", "GHZ", "--structures", "FOO,GI,BAR"],
                               None, f"unknown structure name 'FOO'; known: {_STRUCTURE_NAMES}"),
    # an empty value names a source like any other value
    "empty --file": (["analyze-state", "--file", ""], None, "no such file: "),
    "empty --builtin": (["analyze-state", "--builtin", ""], None,
                        "unknown builtin state ''; known: ['EPR', 'GHZ', 'K', 'O2']"),
    "empty builtin --state": (["builtin", "--state", ""], None,
                              "unknown builtin state ''; known: ['EPR', 'GHZ', 'K', 'O2']"),
    "empty builtin --device": (["builtin", "--device", ""], None,
                               "unknown builtin device ''; known: ['EPR', 'EPR2', 'GHZ', 'K']"),
    "unknown menu token": (["derive-device", "--builtin-state", "EPR", "--menus", "Q"], None,
                           "unknown observable token 'Q'; known: ['X', 'Xp', 'Z', 'Zp']"),
    "empty menus shorthand": (["derive-device", "--builtin-state", "EPR", "--menus", ""], None,
                              "--menus is empty; give a menus file or tokens among "
                              "['X', 'Xp', 'Z', 'Zp']"),
}


@pytest.mark.parametrize("kind", list(REFUSALS))
def test_refusals_exit_2(kind, tmp_path, capsys):
    argv, text, message = REFUSALS[kind]
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [*argv, str(path)]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_byte_identical_reports(capsys):
    args = ("analyze-state", "--builtin", "GHZ")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first == canonical_json(json.loads(first))


# sha256 of the `analyze-state` reports in their pinned layout
# (`helpers.pinned_layout`).  K is left out: its pairs are classified
# GLOBALLY_ENTANGLED (POOL_LIMITED) although a Y-basis measurement of site 3
# separates them, and exact one-site-complement classification is meant to
# change that report.
GOLDEN_STATE_REPORTS = {
    ("--builtin", "EPR"): "e075b05bbd83a898829f77e57126e6fff70d9b29207c9d98b43d98bca8c4c546",
    ("--builtin", "GHZ"): "dfc7cdcf918dfcff77f1e2094b23c84f0e841bcbb474c59dcf082d6d53a5e5f9",
    ("--builtin", "O2"): "a15a9302342e776dee8a85311c7a5b64c9729fa563de50ae776e2d10a10d3378",
    (11, (2, 2, 2, 2)): "c3e403edf22a132da8985764547893a8b7b6781244f8448f8a7bcf3212578320",
    (12, (3, 2, 3)): "3b56d49f81b46f75d826ce61c8aa87c0b19793f63793e436c5c81f5cf78524af",
}


@pytest.mark.parametrize("source", list(GOLDEN_STATE_REPORTS), ids=str)
def test_analyze_state_reports_pinned(source, tmp_path, capsys):
    if source[0] == "--builtin":
        argv = list(source)
    else:
        seed, dims = source
        psi = PureState(dims, random_state_vector(np.random.default_rng(seed), math.prod(dims)))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(psi)))
        argv = ["--file", str(path)]
    code, out, _ = run_cli(capsys, "analyze-state", *argv)
    assert code == 0
    assert hashlib.sha256(pinned_layout(out)).hexdigest() == GOLDEN_STATE_REPORTS[source]


# Structures realized as random-variable families for the analyze-rvs goldens.
REALIZED = {
    "brunnian 3": ConnectiveStructure(3, [mask((1, 2, 3))]),
    "pair and triple 4": ConnectiveStructure(4, [mask((1, 2)), mask((2, 3, 4))]),
    "chain 5": ConnectiveStructure(5, [mask((1, 2, 3)), mask((3, 4)), mask((4, 5))]),
}


# Seeded operators for the mixed-path analyze-density goldens, built from
# default_rng(19): a rank-2 5-qubit operator, and rho_A (x) rho_B on (2, 3)
# and (2, 2), whose factorizing cut passes the norm bound and takes the
# full product test; and a rank-4 4-qubit operator from default_rng(5).
SEEDED_DENSITIES = {
    "rank-2 5-qubit": lambda rng: ((2,) * 5, random_density_matrix(rng, (2,) * 5, 2)),
    "product 23x22": lambda rng: ((2, 3, 2, 2), np.kron(
        random_density_matrix(rng, (2, 3), 2), random_density_matrix(rng, (2, 2), 2)
    )),
    # the (2, 2, 2) reductions, one stacked PPT call, hold entangled EXACT
    # triples beside a PPT_NECESSARY one
    "rank-4 4-qubit": lambda _: ((2,) * 4, random_density_matrix(
        np.random.default_rng(5), (2,) * 4, 4)),
}

# sha256 of the reports of the other engines in their pinned layout:
# analyze-density and order on the builtin states, analyze-density on
# SEEDED_DENSITIES, analyze-device on the builtin devices and on a seeded
# ladder table of 2^18 realizations, analyze-rvs on the REALIZED families.
# K is left out of `order` for the reason given above.
GOLDEN_REPORTS = {
    ("analyze-density", "EPR"): "9bba03901656ad592f6113cbc9d7d9f1c99379e226e991b17665babe3a65af54",
    ("analyze-density", "GHZ"): "2dde1bb94d06f6410c2b84a72a885f05abcdc91b2ced92cc38c8f1f77f44a0f8",
    ("analyze-density", "O2"): "81b7156ac88e3b7de87869da90cd109e2b3b93abc19dcec072a14d2e0b44329f",
    ("analyze-density", "K"): "2dde1bb94d06f6410c2b84a72a885f05abcdc91b2ced92cc38c8f1f77f44a0f8",
    ("analyze-density", "rank-2 5-qubit"):
        "768443e1c19d1a1214d31d2aeac64560c1d511880982668bf5e1ad4d2f4bc77f",
    ("analyze-density", "product 23x22"):
        "e8e6c9b4357c81a9bd54e568afa33b65111394ca99a7789319d612692fa8322a",
    ("analyze-density", "rank-4 4-qubit"):
        "89b2db0883a2510307edf2142caa4e3a4d506ac6e9e24e71892c0f2cf32bfa43",
    ("order", "EPR"): "344367186f409220408276ecad6f40ece801aa14628de6827ae77ba030049db6",
    ("order", "GHZ"): "344367186f409220408276ecad6f40ece801aa14628de6827ae77ba030049db6",
    ("order", "O2"): "feb8ea0c687514ea17fd886d55c0715284e37b9a44e67a6dbd19891627559f40",
    ("analyze-device", "EPR"): "e21afb2128784bdd7d5e31b966adae6d9c7ae3d5385ae5af09c67bcc03b7d422",
    ("analyze-device", "EPR2"): "368169c710a3ace4115a20c72f604068d2e91280399219cdd84ce82c21b264a0",
    ("analyze-device", "GHZ"): "a34bc31cc08ad74f8addaf8ca60dc635d6ac3ff9216ccd47b8dac5c51831c109",
    ("analyze-device", "K"): "65b986c757a4547b085a29dff9c4b1bb85ca98e11f9e93a1a66126bc67c3eabf",
    ("analyze-device", "ladder 2^18"):
        "3887bc10ad47b0ebfe2104efbd3a8dfed93e989a9406adf6af57ea1dd6d0653d",
    ("analyze-rvs", "brunnian 3"):
        "bd5ed7ce77509dbe4c05b7d84876f681b23ca79cc69952ca1d171423d7c96cb5",
    ("analyze-rvs", "pair and triple 4"):
        "7b3196e3a1b668ca006746b6d7f804459e69b5e86c7fce2ace90429a18654f97",
    ("analyze-rvs", "chain 5"): "20e6924fef533dfe191821b4bafc5f2631d12e2546a03e45f22b388023da86bb",
}


def _golden_argv(command, name, tmp_path) -> list:
    if command == "analyze-rvs":
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(distribution_to_dict(realize_structure(REALIZED[name]))))
        return [command, "--file", str(path)]
    if name == "ladder 2^18":
        path = tmp_path / "device.json"
        path.write_text(json.dumps(device_to_dict(ladder_device(random.Random(5), 18))))
        return [command, "--file", str(path)]
    if name in SEEDED_DENSITIES:
        dims, matrix = SEEDED_DENSITIES[name](np.random.default_rng(19))
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(density_to_dict(DensityOperator(dims, matrix))))
        return [command, "--file", str(path)]
    return [command, "--builtin", name]


@pytest.mark.parametrize("source", list(GOLDEN_REPORTS), ids=str)
def test_engine_reports_pinned(source, tmp_path, capsys):
    code, out, _ = run_cli(capsys, *_golden_argv(*source, tmp_path))
    assert code == 0
    assert hashlib.sha256(pinned_layout(out)).hexdigest() == GOLDEN_REPORTS[source]


@pytest.mark.parametrize("command, dims", [("analyze-state", (2,) * 6),
                                           ("analyze-density", (2,) * 5)])
def test_each_layout_is_planned_once(command, dims, tmp_path, capsys):
    # the kernels miss the cut-plan cache once per distinct dims tuple of the
    # subsets judged, however many subsets, chunks and kernels share it: a
    # seeded Haar state, and a seeded rank-1 operator whose full set takes the
    # rank test and whose reductions take the PPT test
    rng = np.random.default_rng(7)
    if command == "analyze-state":
        payload = state_to_dict(PureState(dims, random_state_vector(rng, math.prod(dims))))
    else:
        payload = density_to_dict(DensityOperator(dims, random_density_matrix(rng, dims, 1)))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    quantum._cut_plan.cache_clear()
    code, _, _ = run_cli(capsys, command, "--file", str(path))
    assert code == 0
    judged = {tuple(dims[s] for s in j) for j, _ in _subsets(len(dims))}
    assert quantum._cut_plan.cache_info().misses == len(judged)


XOR_RVS = {
    "outcomes": [["0", "1"], ["0", "1"], ["0", "1"]],
    "prob": {"000": "1/4", "011": "1/4", "101": "1/4", "110": "1/4"},
}


# One call of every command, and analyze-state on a two-site state too;
# "@xor.json" names a written XOR_RVS file.
COMMAND_ARGVS = [
    ("analyze-state", "--builtin", "EPR"),
    ("analyze-state", "--builtin", "GHZ"),
    ("analyze-density", "--builtin", "GHZ"),
    ("analyze-device", "--builtin", "K"),
    ("analyze-rvs", "--file", "@xor.json"),
    ("derive-device", "--builtin-state", "GHZ", "--menus", "ZX"),
    ("order", "--builtin", "O2"),
    ("builtin", "--list"),
    ("builtin", "--state", "GHZ"),
    ("builtin", "--device", "K"),
]


def _command(argv, tmp_path) -> list:
    (tmp_path / "xor.json").write_text(json.dumps(XOR_RVS))
    return [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
def test_text_format_prints_every_result_key(tmp_path, capsys, argv):
    """Each key of the JSON result is a `key:` line of the text output, or
    its value is one JSON line there (the emitted state or device); values
    are JSON, so no line holds a Python repr outside a string."""
    argv = _command(argv, tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    result = load_report(out)["result"]
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    for key, value in result.items():
        assert any(
            line.startswith(f"{key}:") or line == json.dumps(value, sort_keys=True)
            for line in lines
        ), key
    for line in lines:
        bare = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        assert "'" not in bare and not re.search(r"\b(True|False|None)\b", bare), line


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
def test_json_report_is_one_line(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *_command(argv, tmp_path))
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert out == canonical_json(json.loads(out))


def test_analyze_device_runs_each_layer_once(capsys, monkeypatch):
    """One realization scan per device: the full device's scan feeds both its
    locality profile and the domanial meets."""
    scanned = []
    original = devices._scan

    def counted(device, *args, **kwargs):
        scanned.append(device.uplicity)
        return original(device, *args, **kwargs)

    monkeypatch.setattr(devices, "_scan", counted)
    code, _, _ = run_cli(capsys, "analyze-device", "--builtin", "K")
    assert code == 0
    # the three pair sub-devices, then the full device
    assert scanned == [2, 2, 2, 3]


def _random_devices():
    rng = np.random.default_rng(11)
    for k, count in ((2, 3), (3, 2)):
        answers = list(itertools.product("01", repeat=k))
        for _ in range(count):
            relation = {}
            for q in itertools.product("01", repeat=k):
                picks = rng.choice(len(answers), size=int(rng.integers(1, 3)), replace=False)
                relation[q] = {answers[i] for i in picks}
            yield devices.Device((("0", "1"),) * k, (("0", "1"),) * k, relation)


def _labels(cut):
    return None if cut is None else [[s + 1 for s in part] for part in cut]


def test_analyze_device_matches_separate_layers(tmp_path, capsys):
    """The one-pass report equals the one assembled from each layer on its own."""
    cases = [(["--builtin", name], builtin_device(name)) for name in ("EPR", "EPR2", "GHZ", "K")]
    epr = builtin_device("EPR")
    separable = tensor_device(epr, epr)
    for i, dev in enumerate([separable, *_random_devices()]):
        path = tmp_path / f"dev{i}.json"
        path.write_text(json.dumps(device_to_dict(dev)))
        cases.append((["--file", str(path)], dev))
    for argv, dev in cases:
        code, out, _ = run_cli(capsys, "analyze-device", *argv)
        assert code == 0
        result = load_report(out)["result"]
        # the tensorial layer from a profile of each sub-device, the domanial
        # one from the codes of its own scan of the full device
        reduce = _restrictions(dev, dev.uplicity, devices.sub_device)
        profiles, structures = _subset_structures(
            dev.uplicity, lambda j: devices._profile(reduce, j)[0], {
                name: lambda p, notion=notion: not getattr(p, notion)
                for notion, name in devices._STRUCTURE_OF.items()
            })
        profile = profiles[tuple(range(1, dev.uplicity + 1))]
        tensorial = max(connective_order(s) for s in structures.values())
        _, codes = devices._scan(dev)
        structures["do"], structures["dp"] = devices._domanial(dev.uplicity, codes)
        domanial = max(connective_order(structures["do"]), connective_order(structures["dp"]))
        expected = {
            "uplicity": dev.uplicity,
            "realizations": devices.realization_count(dev),
            "profile": {
                "local": profile.local,
                "quasi_local": profile.quasi_local,
                "partially_local": profile.partially_local,
                "separable": profile.separable,
                "quasi_separable": profile.quasi_separable,
                "pseudo_separable": profile.pseudo_separable,
                "partially_separable": profile.partially_separable,
                "separable_cut": _labels(profile.separable_cut),
                "quasi_separable_cut": _labels(profile.quasi_separable_cut),
                "partially_separable_cut": _labels(profile.partially_separable_cut),
            },
            "structures": {name: structure_to_dict(s) for name, s in structures.items()},
            "orders": {
                "tensorial": tensorial,
                "domanial": domanial,
                "overall": max(tensorial, domanial),
                "ludic": "excluded (out of scope)",
            },
        }
        assert result == expected, argv
        report = devices.device_structures(dev)
        assert report.profile == profile
        assert report.structures == structures


def _identity4(entry01=(0.0, 0.0)):
    """I/4 on two qubits as JSON pairs, with `entry01` at (0, 1) only."""
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][1] = list(entry01)
    return rows


def _overflowing_asymmetry(rows):
    """`rows` (JSON pairs) with 1e308 in the top right corner and -1e308 in
    the bottom left."""
    rows[0][-1], rows[-1][0] = [1e308, 0.0], [-1e308, 0.0]
    return rows


_AMPS = [[1, 0], [0, 0], [0, 0], [1, 0]]
_BITS = [["0", "1"], ["0", "1"]]

# (command argv before the file, JSON text) for each kind of malformed input;
# NaN and 1e400 are written as JSON number literals that Python's parser reads
MALFORMED_INPUTS = {
    "one-element amplitude pair": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2, 2], "amplitudes": [[1, 0], [0], [0, 0], [1, 0]]}),
    ),
    "numeric-string amplitude": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2, 2], "amplitudes": [["1", 0], *_AMPS[1:]]}),
    ),
    "three-entry density pair": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [2, 2], "matrix": _identity4((0.0, 0.0, 0.0))}),
    ),
    "missing amplitudes": (["analyze-state", "--file"], '{"dims": [2, 2]}'),
    "non-integer dims": (
        ["analyze-state", "--file"],
        json.dumps({"dims": ["x"], "amplitudes": [[1, 0], [0, 0]]}),
    ),
    "NaN amplitude": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2, 2], "amplitudes": [[float("nan"), 0], *_AMPS[1:]]}),
    ),
    "overflowing amplitude": (
        ["analyze-state", "--file"],
        '{"dims": [2, 2], "amplitudes": [[1e400, 0], [0, 0], [0, 0], [1, 0]]}',
    ),
    "density as a list": (["analyze-density", "--file"], json.dumps(_identity4())),
    "NaN density entry": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [2, 2], "matrix": _identity4((float("nan"), 0.0))}),
    ),
    "non-numeric probability": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": _BITS, "prob": {"00": "x", "11": "1/2"}}),
    ),
    "zero-denominator probability": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": _BITS, "prob": {"00": "1/0", "11": "1/2"}}),
    ),
    "boolean probability": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": _BITS, "prob": {"0,0": True}}),
    ),
    "NaN probability": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": _BITS, "prob": {"00": float("nan"), "01": 0.5, "10": 0.5}}),
    ),
    "missing relation": (
        ["analyze-device", "--file"],
        json.dumps({"questions": [["*"], ["*"]], "results": _BITS}),
    ),
    "relation as a list": (
        ["analyze-device", "--file"],
        json.dumps({"questions": [["*"], ["*"]], "results": _BITS, "relation": []}),
    ),
    "string dims": (
        ["analyze-state", "--file"],
        json.dumps({"dims": ["2", 2], "amplitudes": _AMPS}),
    ),
    "boolean dims": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [True, 2, 2], "matrix": _identity4()}),
    ),
    "float dims (state)": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2.0, 2], "amplitudes": _AMPS}),
    ),
    "float dims (density)": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [2.0, 2], "matrix": _identity4()}),
    ),
    "zero dims (state)": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2, 0], "amplitudes": _AMPS}),
    ),
    "zero dims (density)": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [0, 2, 2], "matrix": _identity4()}),
    ),
    "dims over the cap (state)": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2] * 15, "amplitudes": _AMPS}),
    ),
    "dims over the cap (density)": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [2] * 15, "matrix": _identity4()}),
    ),
    "fractional dims": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2, 2.7], "amplitudes": _AMPS}),
    ),
    "device label sets as strings": (
        ["analyze-device", "--file"],
        json.dumps({"questions": ["01", "01"], "results": _BITS,
                    "relation": {q: ["00", "11"] for q in ("00", "01", "10", "11")}}),
    ),
    "distribution label sets as strings": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": ["01", "01"], "prob": {"00": "1/2", "11": "1/2"}}),
    ),
    "menu matrix of numbers": (
        ["derive-device", "--builtin-state", "EPR", "--menus"],
        json.dumps([[{"label": "z", "matrix": [[1, 0], [0, -1]]}]] * 2),
    ),
    "device labels as numbers": (
        ["analyze-device", "--file"],
        json.dumps({"questions": [[0], [0]], "results": _BITS,
                    "relation": {"00": ["00", "11"]}}),
    ),
    "device answers as label lists": (
        ["analyze-device", "--file"],
        json.dumps({"questions": [["*"], ["*"]], "results": _BITS,
                    "relation": {"**": [["0", "0"], ["1", "1"]]}}),
    ),
    "distribution labels as numbers": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": [[0, 1], [0, 1]], "prob": {"00": "1/2", "11": "1/2"}}),
    ),
    "aliased outcome keys": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": [["a", "b"], ["a", "b"]],
                    "prob": {"ab": "1/2", "ba": "1/2", "a,b": "1/2"}}),
    ),
    "aliased question keys": (
        ["analyze-device", "--file"],
        json.dumps({"questions": _BITS, "results": _BITS,
                    "relation": {"00": ["00"], "01": ["01"], "10": ["10"], "11": ["11"],
                                 "0,1": ["00"]}}),
    ),
    "repeated JSON key": (
        ["analyze-rvs", "--file"],
        '{"outcomes": [["0", "1"], ["0", "1"]], "prob": {"00": "1/2", "11": "1/4", "11": "1/2"}}',
    ),
    "menu label as a number": (
        ["derive-device", "--builtin-state", "EPR", "--menus"],
        json.dumps([[{"label": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]] * 2),
    ),
    # every entry finite, but the eigenvalue 2e308 is not
    "menu spectrum overflows": (
        ["derive-device", "--builtin-state", "EPR", "--menus"],
        json.dumps([[{"label": "*", "matrix": [[[1e308, 0]] * 2] * 2}]] * 2),
    ),
    # every entry finite, but the Hermitian check's difference 2e308 is not
    "density asymmetry overflows": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [2, 2], "matrix": _overflowing_asymmetry(_identity4())}),
    ),
    "menu asymmetry overflows": (
        ["derive-device", "--builtin-state", "EPR", "--menus"],
        json.dumps([[{"label": "*", "matrix": _overflowing_asymmetry(
            [[[0.0, 0.0]] * 2, [[0.0, 0.0]] * 2])}]] * 2),
    ),
    "amplitude count off the dims": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2, 2], "amplitudes": _AMPS[:3]}),
    ),
    "density matrix of the wrong shape": (
        ["analyze-density", "--file"],
        json.dumps({"dims": [2], "matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}),
    ),
    "menu observable not square": (
        ["derive-device", "--builtin-state", "EPR", "--menus"],
        json.dumps([[{"label": "*", "matrix": [[[1, 0], [0, 0], [0, 0]],
                                               [[0, 0], [1, 0], [0, 0]]]}]] * 2),
    ),
    "menus for the wrong number of sites": (
        ["derive-device", "--builtin-state", "EPR", "--menus"],
        json.dumps([[{"label": "*", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]]),
    ),
    "more question lists than result lists": (
        ["analyze-device", "--file"],
        json.dumps({"questions": [["0"], ["0"]], "results": [["0"]], "relation": {}}),
    ),
    "device with no sites": (
        ["analyze-device", "--file"],
        json.dumps({"questions": [], "results": [], "relation": {}}),
    ),
    "relation entry outside the question product": (
        ["analyze-device", "--file"],
        json.dumps({"questions": [["0"], ["0"]], "results": [["0"], ["0"]],
                    "relation": {"00": ["00"], "01": ["00"]}}),
    ),
    "distribution with no variables": (
        ["analyze-rvs", "--file"],
        json.dumps({"outcomes": [], "prob": {}}),
    ),
    "nesting too deep to decode": (["analyze-rvs", "--file"], "[" * 100000 + "]" * 100000),
}


@pytest.mark.parametrize("kind", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2(kind, tmp_path, capsys):
    argv, text = MALFORMED_INPUTS[kind]
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(path) in err


@pytest.mark.parametrize("relation, message", [
    ({"**": [["0", "0"], ["1", "1"]]}, "answers of question '**' are not a list of strings"),
    ({"***": ["00"]}, "key '***' does not split into 2 labels"),
])
def test_decoder_faults_name_the_file(relation, message, tmp_path, capsys):
    # a fault the decoder finds is reported after the file's path, as every
    # other fault of a file is
    path = tmp_path / "device.json"
    path.write_text(json.dumps({"questions": [["*"], ["*"]], "results": _BITS,
                                "relation": relation}))
    code, out, err = run_cli(capsys, "analyze-device", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


def test_boolean_probability_names_its_entry(tmp_path, capsys):
    # JSON true is refused by the table, which names its entry
    argv, text = MALFORMED_INPUTS["boolean probability"]
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run_cli(capsys, *argv, str(path)) == (
        2, "", f"error: {path}: probability True for ('0', '0') is a boolean, not a number\n"
    )


@pytest.mark.parametrize("kind", ["float dims (state)", "float dims (density)", "boolean dims"])
def test_bad_dims_name_the_dims_rule(kind, tmp_path, capsys):
    # a dimension that is no integer breaks the dims rule, not a conversion
    argv, text = MALFORMED_INPUTS[kind]
    path = tmp_path / "input.json"
    path.write_text(text)
    dims = tuple(json.loads(text)["dims"])
    assert run_cli(capsys, *argv, str(path)) == (
        2, "", f"error: {path}: site dimensions must be integers >= 1: {dims}\n"
    )


@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
def test_unreadable_input_file_exits_2(kind, tmp_path, capsys):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not UTF-8":
        path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "analyze-state", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if kind == "missing":
        assert err == f"error: no such file: {path}\n"


def _prob_file(path, keys) -> None:
    """An rv file over 16 bits whose prob object lists `keys` in order, each
    at probability 0, repeats included."""
    entries = ", ".join(f'"{key}": 0' for key in keys)
    path.write_text(f'{{"outcomes": {json.dumps([["0", "1"]] * 16)}, "prob": {{{entries}}}}}')


def test_repeated_key_of_a_long_object_is_named_in_one_pass(tmp_path, capsys):
    # the last of 40,000 keys repeats the first: named in one pass over the
    # keys, in well under a second; a rescan per key would take about a minute
    keys = [format(i, "016b") for i in range(40_000)]
    path = tmp_path / "rvs.json"
    _prob_file(path, keys + keys[:1])
    start = time.perf_counter()
    result = run_cli(capsys, "analyze-rvs", "--file", str(path))
    assert time.perf_counter() - start < 10
    assert result == (
        2, "", f"error: malformed JSON in {path}: key {keys[0]!r} repeats in one object\n"
    )


def test_earliest_repeat_in_document_order_is_named(tmp_path, capsys):
    # of the keys a, b, b, a, b is the first to repeat, though a is listed first
    path = tmp_path / "rvs.json"
    keys = [format(i, "016b") for i in range(2)]
    _prob_file(path, [keys[0], keys[1], keys[1], keys[0]])
    assert run_cli(capsys, "analyze-rvs", "--file", str(path)) == (
        2, "", f"error: malformed JSON in {path}: key {keys[1]!r} repeats in one object\n"
    )


def test_zero_denominator_probability_message(tmp_path, capsys):
    path = tmp_path / "rvs.json"
    path.write_text(json.dumps({"outcomes": _BITS, "prob": {"00": "1/0", "11": "1/2"}}))
    code, out, err = run_cli(capsys, "analyze-rvs", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: malformed input in {path}: ZeroDivisionError: Fraction(1, 0)\n"


def test_analyze_density_tol_reaches_input_check(tmp_path, capsys):
    # I/4 with 1e-8 at (0, 1) alone: Hermitian within 1e-6, not within 1e-9
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": _identity4((1e-8, 0.0))}))
    code, _, err = run_cli(capsys, "analyze-density", "--file", str(path), "--tol", "1e-9")
    assert code == 2
    assert "not Hermitian" in err
    code, out, err = run_cli(capsys, "analyze-density", "--file", str(path), "--tol", "1e-6")
    assert (code, err) == (0, "")
    assert load_report(out)["result"]["orders"]["omega_f"] == 0


def test_analyze_density_tol_zero_accepts_a_rounded_operator(tmp_path, capsys):
    # the seeded rank-2 5-qubit operator: its trace and least eigenvalue miss
    # 1 and 0 by rounding alone, which the input checks' band absorbs
    argv = _golden_argv("analyze-density", "rank-2 5-qubit", tmp_path)
    code, out, err = run_cli(capsys, *argv, "--tol", "0")
    assert (code, err) == (0, "")
    assert load_report(out)["tolerance"] == 0


@pytest.mark.parametrize("tol", ["0", "1e-9"])
def test_analyze_density_refuses_an_eigenvalue_beyond_rounding(tol, tmp_path, capsys):
    # diag(1/4 + 1e-6, 1/4, 1/2, -1e-6): unit trace, least eigenvalue -1e-6
    rows = _identity4()
    for i, value in enumerate((0.25 + 1e-6, 0.25, 0.5, -1e-6)):
        rows[i][i] = [value, 0.0]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
    code, out, err = run_cli(capsys, "analyze-density", "--file", str(path), "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: density matrix has a significantly negative eigenvalue\n"


def test_derive_device_tol_reaches_menu_observables(tmp_path, capsys):
    # Z with a 1e-8 off-diagonal asymmetry: an observable within 1e-6 only
    z = [[[1, 0], [1e-8, 0]], [[0, 0], [-1, 0]]]
    path = tmp_path / "menus.json"
    path.write_text(json.dumps([[{"label": "*", "matrix": z}]] * 2))
    argv = ["derive-device", "--builtin-state", "EPR", "--menus", str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "not Hermitian" in err
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-6")
    assert (code, err) == (0, "")
    _, expected, _ = run_cli(capsys, "derive-device", "--builtin-state", "EPR", "--menus", "Z",
                             "--tol", "1e-6")
    assert out == expected


def test_derive_device_reads_a_menus_file_of_any_name(tmp_path, capsys):
    # a value with a dot or a path separator names a file, whatever its
    # suffix; shorthand tokens hold neither
    menus = json.dumps([[{"label": "*", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]] * 2)
    outs = []
    for name in ("menus.json", "menus.txt"):
        path = tmp_path / name
        path.write_text(menus)
        code, out, err = run_cli(capsys, "derive-device", "--builtin-state", "EPR", "--menus",
                                 str(path))
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(capsys, "derive-device", "--builtin-state", "EPR", "--menus",
                             str(missing))
    assert (code, out, err) == (2, "", f"error: no such file: {missing}\n")


def test_overflowing_norm_reports_like_the_unscaled_state(tmp_path, capsys):
    # every entry is finite, but the squared norm of EPR scaled by 1e300 is
    # not, and that of EPR scaled by 1e-300 underflows to 0; only the zero
    # vector is refused
    reports = []
    for scale in (1, 1e300, 1e-13, 1e-300, 0):
        path = tmp_path / f"epr{scale}.json"
        amplitudes = [[scale * re, 0.0] for re, _ in _AMPS]
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amplitudes}))
        code, out, err = run_cli(capsys, "analyze-state", "--file", str(path))
        assert (code, err) == ((2, f"error: {path}: state vector is zero\n") if scale == 0
                               else (0, ""))
        reports.append(out)
    assert reports[0] == reports[1] == reports[2] == reports[3]
    assert reports[4] == ""
    assert load_report(reports[1])["result"]["classes"]["12"]["class"] == "GLOBALLY_ENTANGLED"


# Each command that takes --tol, with the rest of a valid command line; the
# tolerance is refused before any input is read.
TOL_COMMANDS = {
    "analyze-state": ["--builtin", "GHZ"],
    "analyze-density": ["--builtin", "GHZ"],
    "analyze-rvs": ["--file", "dist.json"],
    "derive-device": ["--builtin-state", "EPR", "--menus", "Z"],
    "order": ["--builtin", "EPR"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "abc"])
@pytest.mark.parametrize("command", list(TOL_COMMANDS))
def test_tol_must_be_finite_and_non_negative(command, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, *TOL_COMMANDS[command], f"--tol={value}"])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert f"argument --tol: must be a finite number >= 0, got '{value}'" in captured.err


@pytest.mark.parametrize("value", ["0", "-5", "x", "1.5"])
def test_cap_must_be_a_positive_integer(value, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["analyze-device", "--builtin", "K", f"--cap={value}"])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert f"argument --cap: must be an integer >= 1, got '{value}'" in captured.err


# Arguments that exclude each other, two given, before any is read: each
# command's two input sources, and two of builtin's requests.
BOTH_INPUTS = {
    "analyze-state": ["analyze-state", "--builtin", "GHZ", "--file", "state.json"],
    "analyze-density": ["analyze-density", "--builtin", "GHZ", "--file", "state.json"],
    "analyze-device": ["analyze-device", "--builtin", "K", "--file", "device.json"],
    "order": ["order", "--builtin", "GHZ", "--file", "state.json"],
    "derive-device": [
        "derive-device", "--builtin-state", "GHZ", "--state", "state.json", "--menus", "ZX"
    ],
    "builtin --state --device": ["builtin", "--state", "GHZ", "--device", "K"],
    "builtin --list --state": ["builtin", "--list", "--state", "GHZ"],
    "builtin --list --device": ["builtin", "--list", "--device", "K"],
}


@pytest.mark.parametrize("case", list(BOTH_INPUTS))
def test_input_sources_are_mutually_exclusive(case, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(BOTH_INPUTS[case])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert "not allowed with argument" in captured.err


# Each input-taking command with no input source, and the parser's line for it
NO_INPUT = {
    "analyze-state": (["analyze-state"], "one of the arguments --file --builtin is required"),
    "analyze-density": (["analyze-density"], "one of the arguments --file --builtin is required"),
    "analyze-device": (["analyze-device"], "one of the arguments --file --builtin is required"),
    "analyze-rvs": (["analyze-rvs"], "the following arguments are required: --file"),
    "derive-device": (["derive-device", "--menus", "ZX"],
                      "one of the arguments --state --builtin-state is required"),
    "order": (["order"], "one of the arguments --file --builtin is required"),
    "builtin": (["builtin"], "one of the arguments --list --state --device is required"),
}


@pytest.mark.parametrize("command", list(NO_INPUT))
def test_no_input_source_exits_2_from_the_parser(command, capsys):
    argv, line = NO_INPUT[command]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(f"\nconexa {command}: error: {line}\n")


def test_derive_device_refuses_two_eigenvalues_with_one_label(tmp_path, capsys):
    # diag(0, 4e-10) is nondegenerate within 1e-12, but both eigenvalues
    # round to the answer label "0"
    def diag(a, b):
        return [[[a, 0], [0, 0]], [[0, 0], [b, 0]]]

    path = tmp_path / "menus.json"
    path.write_text(json.dumps([[{"label": "a", "matrix": diag(0, 4e-10)}],
                                [{"label": "a", "matrix": diag(0, 1)}]]))
    argv = ["derive-device", "--builtin-state", "EPR", "--menus", str(path), "--tol", "1e-12"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: observable 'a' on site 0 has two eigenvalues with one label\n"


@pytest.mark.parametrize("value, label", [(0.5, "0.5"), (2**0.5, "1.414213562")])
def test_derive_device_names_non_integer_eigenvalues(value, label, tmp_path, capsys):
    # diag(v, -v) on both EPR sites: each answer is its eigenvalue rounded to
    # 9 decimals as a plain decimal, and the answers sort by value
    path = tmp_path / "menus.json"
    matrix = [[[value, 0], [0, 0]], [[0, 0], [-value, 0]]]
    path.write_text(json.dumps([[{"label": "h", "matrix": matrix}]] * 2))
    argv = ["derive-device", "--builtin-state", "EPR", "--menus", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    report = load_report(out)
    validate_schema(report)
    device = report["result"]["device"]
    assert device["results"] == [["-" + label, label]] * 2
    assert device["relation"] == {"hh": [f"-{label},-{label}", f"{label},{label}"]}


def test_analyze_rvs_tol_reaches_float_tables(tmp_path, capsys):
    # |p - m1 m2| = 0.05 everywhere: dependent at the default tolerance only
    path = tmp_path / "dist.json"
    prob = {"00": 0.3, "01": 0.2, "10": 0.2, "11": 0.3}
    path.write_text(json.dumps({"outcomes": _BITS, "prob": prob}))
    structures = {}
    for tol in ("0", "1e-9", "0.5"):
        code, out, err = run_cli(capsys, "analyze-rvs", "--file", str(path), "--tol", tol)
        assert (code, err) == (0, "")
        report = load_report(out)
        assert report["tolerance"] == float(tol)
        structures[tol] = report["result"]["structure"]["connected"]
    dependent = [[], ["1"], ["2"], ["1", "2"]]
    assert structures == {"0": dependent, "1e-9": dependent, "0.5": [[], ["1"], ["2"]]}


@pytest.mark.parametrize("offset, code", [(0.0, 0), (1e-12, 2)])
def test_analyze_rvs_tol_zero_accepts_a_rounded_sum(offset, code, tmp_path, capsys):
    # ten entries of 0.1 sum to 0.9999999999999999 in floats: rounding alone,
    # which the sum check's band absorbs; an entry off by 1e-12 is beyond it
    prob = {f"{a}{b}": 0.1 for a in "01234" for b in "01"}
    prob["00"] += offset
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"outcomes": [list("01234"), ["0", "1"]], "prob": prob}))
    status, out, err = run_cli(capsys, "analyze-rvs", "--file", str(path), "--tol", "0")
    assert status == code
    if code:
        assert out == "" and err.startswith(f"error: {path}: probabilities sum to 1.00000000000")
        assert err.endswith(", not 1 within 0.0\n")
    else:
        assert err == "" and load_report(out)["tolerance"] == 0


def test_analyze_rvs_refuses_too_many_variables_before_the_sweep(tmp_path, capsys, monkeypatch):
    # 25 binary variables, all 0 or all 1: the sweep would build every one of
    # the 2^25 subsets before any structure refused its ground
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(randvars, "_sweep", no_sweep)
    path = tmp_path / "dist.json"
    prob = {"0" * 25: "1/2", "1" * 25: "1/2"}
    path.write_text(json.dumps({"outcomes": [["0", "1"]] * 25, "prob": prob}))
    code, out, err = run_cli(capsys, "analyze-rvs", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: ground size 25 is not in 1..24\n"
