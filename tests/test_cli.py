"""CLI contract: reports, exit codes, determinism, schema validity."""

import hashlib
import itertools
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conexa import devices
from conexa.cli import main
from conexa.connective import GroundSet, brunnian_structure, connective_order, generate_integral
from conexa.serialize import (
    canonical_json,
    device_to_dict,
    distribution_to_dict,
    state_to_dict,
    structure_to_dict,
)
from conexa.devices import builtin_device
from conexa.quantum import PureState, SiteLayout, builtin_state
from conexa.randvars import realize_structure

from helpers import random_state_vector


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
    rho = DensityOperator(SiteLayout((2,) * 6), matrix)
    assert abs(partial_trace(rho, [0]).matrix[0, 1] - 32 * 0.45e-9) < 1e-15
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(density_to_dict(rho)))
    code, out, err = run_cli(capsys, "analyze-density", "--file", str(path))
    assert (code, err) == (0, "")
    assert load_report(out)["result"]["orders"]["omega_f"] == 0


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
    # cap below the 256 realizations of each pair sub-device, scanned first
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


def test_malformed_json_exit_code_and_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 2], "amplitudes": [[1, 0],')
    code, _, err = run_cli(capsys, "analyze-state", "--file", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_builtin_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze-state", "--builtin", "W")
    assert code == 2
    assert "unknown builtin" in err


def test_byte_identical_reports(capsys):
    args = ("analyze-state", "--builtin", "GHZ")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first == canonical_json(json.loads(first))


# sha256 of the canonical `analyze-state` reports.  K is left out: its
# pairs are classified GLOBALLY_ENTANGLED (POOL_LIMITED) although a Y-basis
# measurement of site 3 separates them, and exact one-site-complement
# classification is meant to change that report.
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
        layout = SiteLayout(dims)
        psi = PureState(layout, random_state_vector(np.random.default_rng(seed), layout.total_dim))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(psi)))
        argv = ["--file", str(path)]
    code, out, _ = run_cli(capsys, "analyze-state", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STATE_REPORTS[source]


# Structures realized as random-variable families for the analyze-rvs goldens.
REALIZED = {
    "brunnian 3": brunnian_structure(3),
    "pair and triple 4": generate_integral(GroundSet(range(4)), [(0, 1), (1, 2, 3)]),
    "chain 5": generate_integral(GroundSet(range(5)), [(0, 1, 2), (2, 3), (3, 4)]),
}

# sha256 of the canonical reports of the other engines: analyze-density and
# order on the builtin states, analyze-device on the builtin
# devices, analyze-rvs on the REALIZED families.  K is left out of `order`
# for the reason given above.
GOLDEN_REPORTS = {
    ("analyze-density", "EPR"): "9bba03901656ad592f6113cbc9d7d9f1c99379e226e991b17665babe3a65af54",
    ("analyze-density", "GHZ"): "2dde1bb94d06f6410c2b84a72a885f05abcdc91b2ced92cc38c8f1f77f44a0f8",
    ("analyze-density", "O2"): "81b7156ac88e3b7de87869da90cd109e2b3b93abc19dcec072a14d2e0b44329f",
    ("analyze-density", "K"): "2dde1bb94d06f6410c2b84a72a885f05abcdc91b2ced92cc38c8f1f77f44a0f8",
    ("order", "EPR"): "344367186f409220408276ecad6f40ece801aa14628de6827ae77ba030049db6",
    ("order", "GHZ"): "344367186f409220408276ecad6f40ece801aa14628de6827ae77ba030049db6",
    ("order", "O2"): "feb8ea0c687514ea17fd886d55c0715284e37b9a44e67a6dbd19891627559f40",
    ("analyze-device", "EPR"): "e21afb2128784bdd7d5e31b966adae6d9c7ae3d5385ae5af09c67bcc03b7d422",
    ("analyze-device", "EPR2"): "368169c710a3ace4115a20c72f604068d2e91280399219cdd84ce82c21b264a0",
    ("analyze-device", "GHZ"): "a34bc31cc08ad74f8addaf8ca60dc635d6ac3ff9216ccd47b8dac5c51831c109",
    ("analyze-device", "K"): "65b986c757a4547b085a29dff9c4b1bb85ca98e11f9e93a1a66126bc67c3eabf",
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
    return [command, "--builtin", name]


@pytest.mark.parametrize("source", list(GOLDEN_REPORTS), ids=str)
def test_engine_reports_pinned(source, tmp_path, capsys):
    code, out, _ = run_cli(capsys, *_golden_argv(*source, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[source]


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "analyze-state", "--builtin", "EPR", "--format", "text"
    )
    assert code == 0
    assert "structures:" in out
    assert "omega" in out or "orders" in out


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
    separable = devices.tensor_device(epr, epr)
    for i, dev in enumerate([separable, *_random_devices()]):
        path = tmp_path / f"dev{i}.json"
        path.write_text(json.dumps(device_to_dict(dev)))
        cases.append((["--file", str(path)], dev))
    for argv, dev in cases:
        code, out, _ = run_cli(capsys, "analyze-device", *argv)
        assert code == 0
        result = load_report(out)["result"]
        profile = devices.locality_profile(dev)
        structures = dict(devices.tensorial_structures(dev))
        tensorial = max(connective_order(s) for s in structures.values())
        structures["do"], structures["dp"] = devices.domanial_structures(dev)
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


_AMPS = [[1, 0], [0, 0], [0, 0], [1, 0]]
_BITS = [["0", "1"], ["0", "1"]]

# (command argv before the file, JSON text) for each kind of malformed input;
# NaN and 1e400 are written as JSON number literals that Python's parser reads
MALFORMED_INPUTS = {
    "one-element amplitude pair": (
        ["analyze-state", "--file"],
        json.dumps({"dims": [2, 2], "amplitudes": [[1, 0], [0], [0, 0], [1, 0]]}),
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


def test_overflowing_norm_reports_like_the_unscaled_state(tmp_path, capsys):
    # every entry is finite, but the squared norm of EPR scaled by 1e300 is not
    reports = []
    for scale in (1, 1e300):
        path = tmp_path / f"epr{scale}.json"
        amplitudes = [[scale * re, 0.0] for re, _ in _AMPS]
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amplitudes}))
        code, out, err = run_cli(capsys, "analyze-state", "--file", str(path))
        assert (code, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]
    assert load_report(reports[1])["result"]["classes"]["12"]["class"] == "GLOBALLY_ENTANGLED"


def test_analyze_rvs_tol_reaches_float_tables(tmp_path, capsys):
    # |p - m1 m2| = 0.05 everywhere: dependent at the default tolerance only
    path = tmp_path / "dist.json"
    prob = {"00": 0.3, "01": 0.2, "10": 0.2, "11": 0.3}
    path.write_text(json.dumps({"outcomes": _BITS, "prob": prob}))
    structures = {}
    for tol in ("1e-9", "0.5"):
        code, out, err = run_cli(capsys, "analyze-rvs", "--file", str(path), "--tol", tol)
        assert (code, err) == (0, "")
        report = load_report(out)
        assert report["tolerance"] == float(tol)
        structures[tol] = report["result"]["structure"]["connected"]
    assert structures == {"1e-9": [[], ["1"], ["2"], ["1", "2"]], "0.5": [[], ["1"], ["2"]]}
