"""Output checks, run outside the timed region.

Every report is validated against the program's `report.schema.json` and
then against facts the benchmark derives itself: structures are closed under
union-with-common-point, the six disentanglement and seven tensorial
structures nest as the paper's inclusion chains say, and each item's oracle
facts (see `corpus.Item.expect`) hold.
"""

from __future__ import annotations

import json

STATE_CHAINS = [("GI", "BIP", "IP"), ("GI", "MT", "IP"), ("IP", "ML", "NCS")]
DEVICE_CHAINS = [("NPS", "NPL", "NQL", "NL"), ("NPS", "NOS", "NQS", "NS", "NL"), ("NQS", "NQL")]


def _sets(structure: dict) -> set:
    return {frozenset(s) for s in structure["connected"]}


def _closure_problem(name: str, structure: dict):
    family = _sets(structure)
    points = {frozenset([p]) for p in structure["ground"]}
    if not (points | {frozenset()}) <= family:
        return f"{name}: empty set or a singleton is missing"
    for a in family:
        for b in family:
            if a & b and (a | b) not in family:
                return f"{name}: {sorted(a)} and {sorted(b)} meet but their union is missing"
    return None


def _chain_problems(structures: dict, chains) -> list:
    out = []
    for chain in chains:
        for fine, coarse in zip(chain, chain[1:]):
            if not _sets(structures[fine]) <= _sets(structures[coarse]):
                out.append(f"inclusion {fine} <= {coarse} fails")
    return out


def _labels(sets) -> set:
    return {frozenset(str(p) for p in s) for s in sets}


def check_report(item, report: dict, validator, builtin_devices: dict) -> list:
    """Problems found in one report; empty when it passes."""
    errors = sorted(validator.iter_errors(report), key=lambda e: list(e.path))
    if errors:
        return [f"schema: {errors[0].message}"]
    result = report["result"]
    problems = []
    structures = dict(result.get("structures", {}))
    if "structure" in result:
        structures["rv"] = result["structure"]
    for name, structure in structures.items():
        problem = _closure_problem(name, structure)
        if problem:
            problems.append(problem)
    command = report["command"]
    if command == "analyze-state":
        problems += _chain_problems(structures, STATE_CHAINS)
    elif command == "analyze-device":
        problems += _chain_problems(structures, DEVICE_CHAINS)

    expect = item.expect
    for name in expect.get("block_structures", ()):
        blocks = [frozenset(str(p) for p in b) for b in expect["blocks"]]
        for s in _sets(structures[name]):
            if all(s & b for b in blocks):
                problems.append(f"{name}: {sorted(s)} meets both product blocks")
    if "structure" in expect and _sets(result["structure"]) != _labels(expect["structure"]):
        problems.append("rv structure differs from the closure oracle")
    if expect.get("separable") and not result["profile"]["separable"]:
        problems.append("product table not reported separable")
    if "realizations" in expect and result["realizations"] != expect["realizations"]:
        problems.append(f"realizations {result['realizations']} != {expect['realizations']}")
    for name, sets in expect.get("pinned", {}).items():
        if {s for s in _sets(structures[name]) if len(s) >= 2} != _labels(sets):
            problems.append(f"{name} differs from its pinned value")
    for name, sets in expect.get("contains", {}).items():
        if not _labels(sets) <= _sets(structures[name]):
            problems.append(f"{name} lacks a planted connected set")
    if "same_as_builtin" in expect:
        if result["device"] != builtin_devices[expect["same_as_builtin"]]:
            problems.append(f"derived table differs from builtin {expect['same_as_builtin']}")
    return problems


def load_validator(schema_path):
    import jsonschema

    with open(schema_path, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.Draft7Validator(schema)
