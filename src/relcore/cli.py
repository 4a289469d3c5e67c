"""Command-line front end.

Exit codes: 0 success (or witness found), 1 definite negative answer,
2 usage or input error, or standard output closed by its reader.  All JSON
output is printed with sorted keys so identical inputs produce
byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .atoms import DLO, Atom, AtomSample, make_sample
from .definable import (
    DefStructure,
    Sort,
    classify_signed_lex,
    enumerate_invariant_orders,
    full_power_def,
    point_orbits,
    sample,
    unlabelled_growth,
)
from .errors import RelcoreError, parsing
from .finstruct import (
    FinStructure,
    compute_core,
    disjoint_union,
    enumerate_endos,
    find_hom,
    full_power,
    is_core,
)
from . import gallery
from .verify import SUITES, run_suite


class CliError(Exception):
    pass


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError(f"{path} does not hold a JSON object")
    return data


def _parse_atoms_spec(base, spec: str) -> AtomSample:
    spec = spec.strip()
    if spec.isdigit():
        with parsing("atom count"):
            count = int(spec)
        return make_sample(base, count)
    atoms = tuple(Atom.parse(part) for part in spec.split(","))
    return AtomSample(base, atoms)


def _load(token: str):
    """A structure: a JSON file (definable when it has "sorts"), a gallery
    object gallery:NAME, or gallery:NAME@K (the sample of a definable
    gallery object on K default atoms)."""
    if not token.startswith("gallery:"):
        data = _load_json(token)
        return (DefStructure if "sorts" in data else FinStructure).from_json(data)
    name = token[len("gallery:"):]
    base_name, at, count = name.partition("@")
    d = gallery.lookup_definable(base_name)
    if at:
        if d is None or not count.isdigit():
            raise CliError(f"cannot sample gallery object {name!r}")
        with parsing("atom count"):
            k = int(count)
        return sample(d, make_sample(d.base, k)).structure
    found = d or gallery.lookup_finite(name)
    if found is None:
        raise CliError(f"no gallery object named {name!r}")
    return found


def _load_definable(token: str) -> DefStructure:
    d = _load(token)
    if not isinstance(d, DefStructure):
        raise CliError(f"{token} is not a definable structure")
    return d


def _load_finite(token: str) -> FinStructure:
    s = _load(token)
    if not isinstance(s, FinStructure):
        raise CliError(f"{token} holds a definable structure; sample it first")
    return s


def _sample_json(result) -> dict:
    d = result.structure.to_json()
    d["points"] = [
        {"sort": p.sort, "atoms": [str(a) for a in p.atoms]} for p in result.points
    ]
    return d


def cmd_sample(args) -> int:
    d = _load_definable(args.structure)
    atoms = _parse_atoms_spec(d.base, args.atoms)
    _emit(_sample_json(sample(d, atoms)))
    return 0


def cmd_hom(args) -> int:
    src = _load_finite(args.source)
    dst = _load_finite(args.target)
    h = find_hom(src, dst, args.mode)
    if h is None:
        print("none")
        return 1
    _emit(h.to_json())
    return 0


def cmd_core(args) -> int:
    s = _load_finite(args.structure)
    res = compute_core(s)
    _emit(
        {
            "core": res.core.to_json(),
            "retraction": list(res.retraction.mapping),
            "kept_elements": list(res.old_ids),
            "was_core": res.was_core,
        }
    )
    return 0


def cmd_is_core(args) -> int:
    s = _load_finite(args.structure)
    answer = is_core(s)
    _emit({"is_core": answer})
    return 0 if answer else 1


def cmd_endos(args) -> int:
    s = _load_finite(args.structure)
    endos = enumerate_endos(s, args.limit)
    _emit({"count": len(endos), "endomorphisms": [list(h.mapping) for h in endos]})
    return 0


def cmd_power(args) -> int:
    structure = _load(args.structure)
    power = full_power_def if isinstance(structure, DefStructure) else full_power
    _emit(power(structure, args.d).to_json())
    return 0


def cmd_union(args) -> int:
    a = _load_finite(args.left)
    b = _load_finite(args.right)
    _emit(disjoint_union(a, b).to_json())
    return 0


def cmd_orbits(args) -> int:
    d = _load_definable(args.structure)
    descriptors = point_orbits(d, args.n)
    _emit({"n": args.n, "count": len(descriptors), "orbits": descriptors})
    return 0


def cmd_growth(args) -> int:
    d = _load_definable(args.structure)
    # n < 1 still goes through unlabelled_growth, which rejects it
    values = []
    for n in range(1, args.n + 1) if args.n >= 1 else [args.n]:
        try:
            values.append(unlabelled_growth(d, n, args.mode))
        except RelcoreError as exc:
            # the levels below n stand: print them, and name n on stderr
            if values:
                print(",".join(map(str, values)))
            raise CliError(f"growth at n = {n}: {exc}") from exc
    print(",".join(map(str, values)))
    return 0


def cmd_classify_orders(args) -> int:
    # the orders read only the sort's dimension, so Jord_d's 2d^2 clauses
    # (increasing_tuple_structure) are left unbuilt
    orders = enumerate_invariant_orders(DefStructure(DLO, (Sort("t", args.d),), ()))
    out = []
    for order in orders:
        slex = classify_signed_lex(order, args.d)
        entry = {"signed_lex": slex.to_json() if slex else None}
        if args.emit_orbits:
            entry["orbits"] = list(order)
        out.append(entry)
    _emit({"d": args.d, "count": len(orders), "orders": out})
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise CliError(f"unknown suite {args.suite!r}; known: {', '.join(SUITES)} or 'all'")
    reports = [run_suite(name, seed=args.seed) for name in names]
    for report in reports:
        for check in report.checks:
            print(f"[{report.suite}] {check.id}: {check.status} ({check.details})")
    payload = {
        "report_version": 1,
        "overall": "pass" if all(r.overall == "pass" for r in reports) else "fail",
        "suites": [r.to_json() for r in reports],
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0 if payload["overall"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcore",
        description="Exact computation with finite and orbit-finite relational structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a definable structure on a finite atom set")
    p.add_argument("structure", help="definable-structure file or gallery:NAME")
    p.add_argument("--atoms", required=True, help="atom count or comma list like 0,1/2,3:1")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("hom", help="search for a homomorphism / embedding / isomorphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--mode", choices=["hom", "embedding", "iso"], default="hom")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("core", help="compute the core with its retraction")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_core)

    p = sub.add_parser("is-core", help="decide whether a structure is a core")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_is_core)

    p = sub.add_parser("endos", help="enumerate endomorphisms")
    p.add_argument("structure")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_endos)

    p = sub.add_parser("power", help="full power of a structure")
    p.add_argument("structure")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("union", help="disjoint union of two finite structures")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_union)

    p = sub.add_parser("orbits", help="orbits of n-tuples of points")
    p.add_argument("structure")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("growth", help="growth sequence of subset classes up to --n")
    p.add_argument("structure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["base", "homogeneous", "reversal"], default="base")
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("classify-orders", help="invariant orders on increasing tuples")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--emit-orbits", action="store_true")
    p.set_defaults(fn=cmd_classify_orders)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; the interpreter flushes stdout again at exit, so
        # point it at devnull first (the recipe in the docs of Python's signal
        # module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (CliError, RelcoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # nested JSON and formulas; every search is a loop
        print("error: input nested too deeply for the interpreter", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
