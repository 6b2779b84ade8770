"""Batch command-line front-end.

Every command prints a single report (JSON by default) to standard output and
exits 0 on success, 2 on a domain/input error, 3 on a cap/resource error.
The argument parser requires exactly one input source per command, so no
command checks for one itself.  Input files are read by one loader, `_load`,
through the decoders in `serialize`, so a malformed file exits 2 like any
other bad input.  Reports embed the tool version and the tolerances, so
identical inputs produce byte-identical output.  Measurement pools are fixed,
so no analysis draws random numbers; `--seed` of `analyze-state` and `order`
is still accepted and ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .connective import _named, connective_order
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
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DomainError(f"malformed JSON in {path}: key {key!r} repeats in one object")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise DomainError(f"no such file: {path}") from None
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read {path}: byte {exc.start} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DomainError(f"malformed JSON in {path}: nested too deeply to decode") from None
    try:
        return decode(data)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        reason = " ".join(f"{type(exc).__name__}: {exc}".split())
        raise DomainError(f"malformed input in {path}: {reason}") from None


def _input(path, name, builtin, decode):
    """builtin(name) when a builtin is named, else the decoded file at `path`;
    the parser requires exactly one of the two."""
    return builtin(name) if name is not None else _load(path, decode)


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


def _sets(subsets) -> str:
    return " ".join("{" + ",".join(subset) + "}" for subset in subsets)


def _structure_lines(name: str, data: dict) -> str:
    return f"  {name}: " + _sets(data["connected"])


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
                print(f"  {sub}: {json.dumps(val, sort_keys=True)}")
    if "structures" in result:
        print("structures:")
        for name, data in result["structures"].items():
            print(_structure_lines(name, data))
    if "structure" in result:
        print("structure:")
        print(_structure_lines("rv", result["structure"]))
    if "raw_generators" in result:
        print("raw_generators: " + _sets(result["raw_generators"]))
    for key in ("dims", "states", "devices"):
        if key in result:
            print(f"{key}: " + " ".join(str(x) for x in result[key]))
    for key in ("state", "device"):
        if key in result:
            print(json.dumps(result[key], sort_keys=True))
    if "orders" in result:
        print("orders: " + json.dumps(result["orders"], sort_keys=True))
    scalars = ("uplicity", "variables", "omega_c", "omega_f", "omega", "order", "realizations",
               "raw_family_closed")
    for key in scalars:
        if key in result:
            print(f"{key}: {json.dumps(result[key], sort_keys=True)}")


def _subset_key(sites: int):
    """Key of a subset of the sites: one key policy over the labels "1".."k"."""
    join = make_key_joiner([[str(s) for s in range(1, sites + 1)]])
    return lambda j: join(str(x) for x in j)


def _cmd_analyze_state(args) -> dict:
    psi = _input(args.file, args.builtin, builtin_state, state_from_dict)
    selected = STRUCTURE_NAMES if args.structures is None else tuple(
        name.strip() for name in args.structures.split(","))
    for name in selected:
        _named(dict.fromkeys(STRUCTURE_NAMES), name, "structure name")
    report = disentanglement_structures(psi, tol=args.tol)
    key = _subset_key(len(psi.dims))
    return {
        "dims": list(psi.dims),
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
                 lambda data: density_from_dict(data, tol=args.tol))
    report = density_structures(rho, tol=args.tol)
    key = _subset_key(len(rho.dims))
    return {
        "dims": list(rho.dims),
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
    device = _input(args.file, args.builtin, builtin_device, device_from_dict)
    report = device_structures(device, cap=args.cap)
    orders = report.orders
    return {
        "uplicity": device.uplicity,
        "realizations": realization_count(device),
        "profile": {
            name: _cut_json(value) if name.endswith("_cut") else value
            for name, value in vars(report.profile).items()
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
    dist = _load(args.file, lambda data: distribution_from_dict(data, tol=args.tol))
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
    if not spec:
        raise DomainError(
            f"--menus is empty; give a menus file or tokens among {sorted(MENU_TOKENS)}")
    if "," in spec:
        tokens = [t.strip() for t in spec.split(",")]
    else:
        tokens = list(spec)
    matrices = [_named(MENU_TOKENS, token, "observable token")() for token in tokens]
    if len(matrices) == 1:
        menu = [("*", matrices[0])]
    else:
        menu = [(str(i), m) for i, m in enumerate(matrices)]
    return [list(menu) for _ in range(sites)]


def _cmd_derive_device(args) -> dict:
    psi = _input(args.state, args.builtin_state, builtin_state, state_from_dict)
    derive = functools.partial(derive_device, psi, recode=args.recode, tol=args.tol)
    # no menu token holds a dot or a path separator: a value with one is a
    # file, derived inside the decode step so a fault of a menu names it
    if {".", "/", os.sep} & set(args.menus):
        device = _load(args.menus, lambda data: derive(menus_from_dict(data)))
    else:
        device = derive(_parse_menu_tokens(args.menus, len(psi.dims)))
    return {"device": device_to_dict(device)}


def _cmd_order(args) -> dict:
    psi = _input(args.file, args.builtin, builtin_state, state_from_dict)
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
    if args.state is not None:
        return {"state": state_to_dict(builtin_state(args.state))}
    return {"device": device_to_dict(builtin_device(args.device))}


def _bounded(parse, low, rule: str):
    """An argparse type: the finite value >= low that `parse` reads, else exit 2 naming `rule`."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return check


_tolerance = _bounded(float, 0, "a finite number >= 0")
_cap = _bounded(int, 1, "an integer >= 1")


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
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if with_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="ignored: measurement pools are fixed")
        if with_cap:
            p.add_argument("--cap", type=_cap, default=DEFAULT_CAP)

    def add_input(p, path="--file", builtin="--builtin"):
        # exactly one input source: giving none or both exits 2 from the parser
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(path)
        group.add_argument(builtin)

    p = sub.add_parser("analyze-state", help="disentanglement structures of a pure state")
    add_input(p)
    p.add_argument("--structures", help="comma list among GI,BIP,MT,IP,ML,NCS")
    add_common(p, with_seed=True)
    p.set_defaults(fn=_cmd_analyze_state)

    p = sub.add_parser("analyze-density", help="correlation and Sugita structures")
    add_input(p)
    add_common(p)
    p.set_defaults(fn=_cmd_analyze_density)

    p = sub.add_parser("analyze-device", help="locality profile and device structures")
    add_input(p)
    add_common(p, with_tol=False, with_cap=True)
    p.set_defaults(fn=_cmd_analyze_device)

    p = sub.add_parser("analyze-rvs", help="structure of a random-variable family")
    p.add_argument("--file", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_analyze_rvs)

    p = sub.add_parser("derive-device", help="device table of menu measurements on a state")
    add_input(p, "--state", "--builtin-state")
    p.add_argument("--menus", required=True,
                   help="menus JSON file (any value with a dot or a path separator) "
                        "or shorthand tokens (Z, X, Zp, Xp)")
    p.add_argument("--recode", choices=("paper", "raw"), default="raw")
    add_common(p)
    p.set_defaults(fn=_cmd_derive_device)

    p = sub.add_parser("order", help="connective orders of a pure state")
    add_input(p)
    add_common(p, with_seed=True)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("builtin", help="emit a builtin state or device")
    # exactly one request: giving none or two exits 2 from the parser
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--state")
    group.add_argument("--device")
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
