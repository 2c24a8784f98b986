"""Command-line front end.

Exit codes: 0 = in core / core non-empty (result written), 1 = blocked /
core empty (certificate written for verify), 2 = usage or format error,
or an input file that cannot be read or an output file that cannot be
written, 3 = method inapplicable or a resource cap was exceeded, 4 =
internal fault (a broken invariant or the recursion limit; never a
verdict).
Result JSON goes to stdout (and ``--out`` when given); diagnostics go to
stderr as a single ``error: <reason>`` line.

:func:`main` builds the argument parser on its first call and reuses it
for every later call in the process (building one costs far more than a
parse).  A parse keeps no state on the parser, so reuse is safe, also
after a usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import exhaustive, generators, serialize
from .engines import METHODS, solve, verify
from .errors import InputError, InvariantError, MethodError, ResourceLimitError
from .games import DEFAULT_BUDGET

BUDGET_HELP = (
    "work cap, exit 3 past it: matchings the oracle enumerates; for const, lattice "
    "nodes its frontier walk visits and coalitions its block search visits, each "
    "phase on its own; couples ignores it"
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    """``text`` to ``out``, when given, then to stdout: an unwritable
    ``out`` exits 2 with nothing on stdout."""
    if out:
        _write(out, text)
    sys.stdout.write(text)


def _verify(args) -> int:
    inst = serialize.instance_from_json(_read(args.instance))
    m = serialize.matching_from_json(_read(args.matching))
    cert = verify(inst, m, args.core, args.method, args.budget).certificate
    _emit(serialize.certificate_to_json(args.core, cert), args.out)
    return 0 if cert is None else 1


def _solve(args) -> int:
    inst = serialize.instance_from_json(_read(args.instance))
    found = solve(inst, args.core, args.method, args.budget).matching
    if found is None:
        sys.stderr.write(f"error: {args.core} core is empty\n")
        return 1
    _emit(serialize.matching_to_json(found), args.out)
    return 0


def _gen(args) -> int:
    if args.kind == "example1":
        gen = generators.gen_example1()
    elif args.kind == "random":
        inst = generators.gen_random(args.n, args.class_cap, args.edge_prob, args.seed)
        gen = generators.GeneratedInstance(inst, {})
    elif args.kind in ("x3c-weak", "x3c-strong"):
        if not args.input:
            raise InputError(f"gen {args.kind} requires --input with an exact-cover file")
        x3c = serialize.x3c_from_json(_read(args.input))
        gen = (
            generators.gen_x3c_weak(x3c)
            if args.kind == "x3c-weak"
            else generators.gen_x3c_strong(x3c)
        )
    elif args.kind == "sat-weak":
        if not args.input:
            raise InputError("gen sat-weak requires --input with a clause file")
        clauses = serialize.clauses_from_json(_read(args.input))
        gen = generators.gen_3sat_weak_emptiness(clauses)
    else:  # pragma: no cover - argparse limits the choices
        raise InputError(f"unknown generator {args.kind}")
    _emit(serialize.instance_to_json(gen.instance), args.out)
    if args.matching_out:
        if gen.matching is None:
            raise InputError(f"generator {args.kind} does not produce a matching")
        _write(args.matching_out, serialize.matching_to_json(gen.matching))
    if args.map_out:
        _write(args.map_out, serialize.name_map_to_json(gen.name_map))
    return 0


def _oracle(args) -> int:
    inst = serialize.instance_from_json(_read(args.instance))
    if args.what == "core":
        result = exhaustive.oracle_core(inst, args.core, cap=args.budget)
        payload = {
            "kind": args.core,
            "in_core_vectors": [list(v) for v in result.in_core],
            "empty": result.empty,
        }
    else:
        payload = {"matchings": exhaustive.count_matchings(inst.graph, cap=args.budget)}
    _emit(serialize.to_json(payload), args.out)
    return 0


def _add_common(p, with_matching: bool) -> None:
    p.add_argument("--core", choices=("weak", "strong"), required=True)
    p.add_argument("--instance", required=True)
    if with_matching:
        p.add_argument("--matching", required=True)
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntumatch",
        description="Exact core solvers for partitioned matching games "
        "with non-transferable utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="test core membership of a matching")
    _add_common(p_verify, with_matching=True)
    p_verify.set_defaults(func=_verify)

    p_solve = sub.add_parser("solve", help="find a core matching if one exists")
    _add_common(p_solve, with_matching=False)
    p_solve.set_defaults(func=_solve)

    p_empty = sub.add_parser(
        "core-empty", help="decide core emptiness (alias of solve)"
    )
    _add_common(p_empty, with_matching=False)
    p_empty.set_defaults(func=_solve)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    p_gen.add_argument(
        "kind", choices=("example1", "x3c-weak", "x3c-strong", "sat-weak", "random")
    )
    p_gen.add_argument("--input", default=None, help="JSON input for reductions")
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--class-cap", type=int, default=2)
    p_gen.add_argument("--edge-prob", type=float, default=0.3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--matching-out", default=None)
    p_gen.add_argument("--map-out", default=None)
    p_gen.set_defaults(func=_gen)

    p_oracle = sub.add_parser("oracle", help="exhaustive ground-truth queries")
    p_oracle.add_argument("what", choices=("core", "matchings"))
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--core", choices=("weak", "strong"), default="weak")
    p_oracle.add_argument("--out", default=None)
    p_oracle.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p_oracle.set_defaults(func=_oracle)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(argv)
        budget = getattr(args, "budget", 1)
        if budget < 1:  # a work cap below one is a usage error, not a verdict
            parser.error(f"argument --budget: must be at least 1, got {budget}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: input: {exc}\n")
        return 2
    except MethodError as exc:
        sys.stderr.write(f"error: method: {exc}\n")
        return 3
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: resource: {exc}\n")
        return 3
    except (InvariantError, RecursionError) as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
