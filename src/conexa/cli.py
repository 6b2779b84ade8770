"""Batch command-line front-end.

Every command prints a single report (JSON by default) to standard output and
exits 0 on success, 2 on a domain/input error, 3 on a cap/resource error.
Input files are read by one loader, `_load`, through the decoders in
`serialize`, so a malformed file exits 2 like any other bad input.  Reports
embed the tool version and the tolerances, so identical inputs produce
byte-identical output.  Measurement pools are fixed, so no analysis draws
random numbers; `--seed` of `analyze-state` and `order` is still accepted
and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import __version__
from .connective import connective_order
from .density import density_structures, total_order
from .devices import (
    BUILTIN_DEVICES,
    DEFAULT_CAP,
    builtin_device,
    derive_device,
    device_structures,
    realization_count,
)
from .disentangle import STRUCTURE_NAMES, disentanglement_structures
from .errors import DomainError, ResourceError
from .quantum import (
    DEFAULT_TOL,
    BUILTIN_STATES,
    builtin_state,
    pauli_x,
    pauli_x_binary,
    pauli_z,
    pauli_z_binary,
)
from .randvars import rv_analysis
from .serialize import (
    canonical_json,
    density_from_dict,
    device_from_dict,
    device_to_dict,
    distribution_from_dict,
    make_key_joiner,
    menus_from_dict,
    state_from_dict,
    state_to_dict,
    structure_to_dict,
)

MENU_TOKENS = {
    "Z": pauli_z,
    "X": pauli_x,
    "Zp": pauli_z_binary,
    "Xp": pauli_x_binary,
}


def _load(path: str, decode):
    """decode(the JSON document in `path`), with every fault of the file a DomainError."""

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeated = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise DomainError(f"malformed JSON in {path}: key {repeated!r} repeats in one object")
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise DomainError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return decode(data)
    except DomainError:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        reason = " ".join(f"{type(exc).__name__}: {exc}".split())
        raise DomainError(f"malformed input in {path}: {reason}") from None


def _input(path, name, builtin, decode, hint: str):
    """builtin(name) when a builtin is named, else the decoded file at `path`."""
    if name:
        return builtin(name)
    if path:
        return _load(path, decode)
    raise DomainError(hint)


def _envelope(command: str, args, result: dict) -> dict:
    return {
        "tool": "conexa",
        "version": __version__,
        "command": command,
        "tolerance": getattr(args, "tol", None),
        "parameters": {
            "cap": getattr(args, "cap", None),
            "recode": getattr(args, "recode", None),
        },
        "result": result,
    }


def _structure_lines(name: str, data: dict) -> str:
    parts = ["{" + ",".join(subset) + "}" for subset in data["connected"]]
    return f"  {name}: " + " ".join(parts)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
        return
    result = report["result"]
    print(f"conexa {report['version']} -- {report['command']}")
    for key in ("classes", "subsets", "profile"):
        if key in result:
            print(f"{key}:")
            for sub, val in sorted(result[key].items()):
                print(f"  {sub}: {val}")
    if "structures" in result:
        print("structures:")
        for name, data in result["structures"].items():
            print(_structure_lines(name, data))
    if "structure" in result:
        print("structure:")
        print(_structure_lines("rv", result["structure"]))
    if "device" in result:
        print(json.dumps(result["device"], sort_keys=True))
    if "orders" in result:
        print("orders: " + json.dumps(result["orders"], sort_keys=True))
    for key in ("omega_c", "omega_f", "omega", "order", "realizations"):
        if key in result:
            print(f"{key}: {result[key]}")


def _subset_key(sites: int):
    """Key of a subset of the sites: one key policy over the labels "1".."k"."""
    join = make_key_joiner([[str(s) for s in range(1, sites + 1)]])
    return lambda j: join(str(x) for x in j)


def _cmd_analyze_state(args) -> dict:
    psi = _input(args.file, args.builtin, builtin_state, state_from_dict,
                 "provide --file or --builtin")
    report = disentanglement_structures(psi, tol=args.tol)
    selected = STRUCTURE_NAMES
    if args.structures:
        selected = tuple(name.strip() for name in args.structures.split(","))
        unknown = [n for n in selected if n not in STRUCTURE_NAMES]
        if unknown:
            raise DomainError(f"unknown structure names {unknown}; known: {STRUCTURE_NAMES}")
    key = _subset_key(psi.layout.sites)
    return {
        "dims": list(psi.layout.dims),
        "classes": {
            key(j): {"class": cls.kind.value, "confidence": cls.confidence.value}
            for j, cls in report.classes.items()
        },
        "structures": {
            name: structure_to_dict(report.structures[name]) for name in selected
        },
        "orders": {"omega_c": report.omega_c},
    }


def _cmd_analyze_density(args) -> dict:
    rho = _input(args.file, args.builtin, lambda name: builtin_state(name).density(),
                 lambda data: density_from_dict(data, tol=args.tol),
                 "provide --file or --builtin")
    report = density_structures(rho, tol=args.tol)
    key = _subset_key(rho.layout.sites)
    return {
        "dims": list(rho.layout.dims),
        "subsets": {
            key(j): {
                "completely_correlated": v.completely_correlated,
                "completely_entangled": v.completely_entangled,
                "quality": v.quality.value,
            }
            for j, v in report.subsets.items()
        },
        "structures": {
            "corr": structure_to_dict(report.kappa_corr),
            "S": structure_to_dict(report.kappa_s),
        },
        "orders": {"omega_f": report.omega_f},
    }


def _cmd_analyze_device(args) -> dict:
    device = _input(args.file, args.builtin, builtin_device, device_from_dict,
                    "provide --file or --builtin")
    report = device_structures(device, cap=args.cap)
    orders = report.orders
    return {
        "uplicity": device.uplicity,
        "realizations": realization_count(device),
        "profile": {
            name: _cut_json(value) if name.endswith("_cut") else value
            for name, value in dataclasses.asdict(report.profile).items()
        },
        "structures": {name: structure_to_dict(s) for name, s in report.structures.items()},
        "orders": {
            "tensorial": orders.tensorial,
            "domanial": orders.domanial,
            "overall": orders.overall,
            "ludic": "excluded (out of scope)",
        },
    }


def _cut_json(cut):
    if cut is None:
        return None
    return [[s + 1 for s in part] for part in cut]


def _cmd_analyze_rvs(args) -> dict:
    dist = _input(args.file, None, None, lambda data: distribution_from_dict(data, tol=args.tol),
                  "provide --file with a joint-distribution JSON")
    report = rv_analysis(dist, tol=args.tol)
    return {
        "variables": dist.variables,
        "structure": structure_to_dict(report.structure),
        "raw_generators": [[str(x) for x in j] for j in report.raw_generators],
        "raw_family_closed": report.raw_family_closed,
        "order": connective_order(report.structure),
    }


def _parse_menu_tokens(spec: str, sites: int) -> list:
    """Shorthand like "ZX" or "Zp,Xp": the same menu at every site.

    Multi-observable menus are labelled "0", "1", ...; a single-observable
    menu is labelled "*".
    """
    if "," in spec:
        tokens = [t.strip() for t in spec.split(",")]
    else:
        tokens = list(spec)
    matrices = []
    for token in tokens:
        if token not in MENU_TOKENS:
            raise DomainError(f"unknown observable token {token!r}; known: {sorted(MENU_TOKENS)}")
        matrices.append(MENU_TOKENS[token]())
    if len(matrices) == 1:
        menu = [("*", matrices[0])]
    else:
        menu = [(str(i), m) for i, m in enumerate(matrices)]
    return [list(menu) for _ in range(sites)]


def _cmd_derive_device(args) -> dict:
    psi = _input(args.state, args.builtin_state, builtin_state, state_from_dict,
                 "provide --state or --builtin-state")
    if args.menus.endswith(".json"):
        menus = _load(args.menus, menus_from_dict)
    else:
        menus = _parse_menu_tokens(args.menus, psi.layout.sites)
    recode = args.recode if args.recode != "raw" else None
    device = derive_device(psi, menus, recode=recode, tol=args.tol)
    return {"device": device_to_dict(device)}


def _cmd_order(args) -> dict:
    psi = _input(args.file, args.builtin, builtin_state, state_from_dict,
                 "provide --file or --builtin")
    orders = total_order(psi, tol=args.tol)
    return {
        "omega_c": orders.omega_c,
        "omega_f": orders.omega_f,
        "omega": orders.omega,
    }


def _cmd_builtin(args) -> dict:
    if args.list:
        return {
            "states": sorted(BUILTIN_STATES),
            "devices": sorted(BUILTIN_DEVICES),
        }
    if args.state:
        return {"state": state_to_dict(builtin_state(args.state))}
    if args.device:
        return {"device": device_to_dict(builtin_device(args.device))}
    raise DomainError("provide --list, --state or --device")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conexa",
        description="Connectivity structures of quantum states, devices and random variables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_tol=True, with_seed=False, with_cap=False):
        if with_tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if with_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="ignored: measurement pools are fixed")
        if with_cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("analyze-state", help="disentanglement structures of a pure state")
    p.add_argument("--file")
    p.add_argument("--builtin")
    p.add_argument("--structures", help="comma list among GI,BIP,MT,IP,ML,NCS")
    add_common(p, with_seed=True)
    p.set_defaults(fn=_cmd_analyze_state)

    p = sub.add_parser("analyze-density", help="correlation and Sugita structures")
    p.add_argument("--file")
    p.add_argument("--builtin")
    add_common(p)
    p.set_defaults(fn=_cmd_analyze_density)

    p = sub.add_parser("analyze-device", help="locality profile and device structures")
    p.add_argument("--file")
    p.add_argument("--builtin")
    add_common(p, with_tol=False, with_cap=True)
    p.set_defaults(fn=_cmd_analyze_device)

    p = sub.add_parser("analyze-rvs", help="structure of a random-variable family")
    p.add_argument("--file")
    add_common(p)
    p.set_defaults(fn=_cmd_analyze_rvs)

    p = sub.add_parser("derive-device", help="device table of menu measurements on a state")
    p.add_argument("--state")
    p.add_argument("--builtin-state")
    p.add_argument("--menus", required=True,
                   help="menu JSON path or shorthand tokens (Z, X, Zp, Xp)")
    p.add_argument("--recode", choices=("paper", "raw"), default="raw")
    add_common(p)
    p.set_defaults(fn=_cmd_derive_device)

    p = sub.add_parser("order", help="connective orders of a pure state")
    p.add_argument("--file")
    p.add_argument("--builtin")
    add_common(p, with_seed=True)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("builtin", help="emit a builtin state or device")
    p.add_argument("--list", action="store_true")
    p.add_argument("--state")
    p.add_argument("--device")
    add_common(p, with_tol=False)
    p.set_defaults(fn=_cmd_builtin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    _emit(_envelope(args.command, args, result), args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
