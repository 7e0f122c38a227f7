"""Command line interface.

All results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
0 for success (including a passing check), 1 for a mathematical failure
(a failed suite row or a rank deficit), 2 for usage errors such as
malformed grammar or an --out file that cannot be written.  Identical
invocations with identical seeds produce byte-identical output.

The default truncation degree for `expand` is 2, overridable by the
BRAIDCERT_DEGREE environment variable or the --degree flag.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache
from typing import Any, Sequence

from .braids import artin_action, parse_braid, permutation
from .certify import certificate, torus_pairings
from .chains import is_degenerate, pair, parse_cycle, torus_cycle
from .cochains import GroupElement, hbar_cochain, tau1
from .magnus import MagnusExpansion
from .suites import SUITES, run_suite
from .tensors import ExteriorElement
from .words import format_word, parse_word

DEGREE_ENV = "BRAIDCERT_DEGREE"


def _emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _default_degree() -> int:
    raw = os.environ.get(DEGREE_ENV)
    if raw is None:
        return 2
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{DEGREE_ENV} must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValueError(f"{DEGREE_ENV} must be at least 2, got {value}")
    return value


@cache  # built on the first call, not at import; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcert",
        description="Exact expansion cocycles on braid groups and independence certificates.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    # accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name: str, **kwargs: Any) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("expand", help="expansion of a free group word")
    p.add_argument("--n", type=int, required=True, help="free group rank")
    p.add_argument("--degree", type=int, default=None, help="truncation degree (default 2)")
    p.add_argument("word", help="word grammar: x<k> and x<k>^-1 tokens")

    p = add_parser("tau1", help="the crossed homomorphism on a braid")
    p.add_argument("--n", type=int, required=True, help="strand count")
    p.add_argument("braid", help="braid grammar: s<k>, A(i,j), twist(k)")

    p = add_parser("xi", help="the free group automorphism of a braid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("braid")

    p = add_parser("perm", help="underlying permutation of a braid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("braid")

    p = add_parser("braid-eq", help="decide equality of two braid words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("left")
    p.add_argument("right")

    p = add_parser("hbar", help="evaluate a contracted composite cochain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True, help="cochain degree")
    p.add_argument("--exterior", action="store_true", help="project into Lambda^p")
    p.add_argument("braids", nargs="+", help="one braid per cochain argument")

    p = add_parser("pair", help="pair a cochain with a cycle")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=int, help="pair with the degree-p cochain")
    group.add_argument("--partition", help="pair with the partition cochain, e.g. '2,1'")
    p.add_argument(
        "--form", choices=("exterior", "tensor"), default="exterior",
        help="value shape for --p (partitions take only exterior)",
    )
    p.add_argument("cycle", help="cycle grammar: torus:... or cross:{size:...}...")

    p = add_parser("independence", help="build an independence certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True, help="exterior degree")
    p.add_argument("--catalog-depth", type=int, default=3)
    p.add_argument("--out", help="also write the certificate JSON to this file")

    p = add_parser("check", help="run a named self-check suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:  # GrammarError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "expand":
        degree = args.degree if args.degree is not None else _default_degree()
        if degree < 2:
            raise ValueError("--degree must be at least 2")
        theta = MagnusExpansion.standard(args.n, degree)
        word = parse_word(args.word, args.n)
        _emit(theta.value(word).to_json_dict())
        return 0

    if args.command == "tau1":
        theta = MagnusExpansion.standard(args.n, 2)
        g = GroupElement(parse_braid(args.braid, args.n))
        _emit(tau1(theta, g).to_json_dict())
        return 0

    if args.command == "xi":
        beta = parse_braid(args.braid, args.n)
        _emit(
            {
                "n": args.n,
                "images": [format_word(w) for w in artin_action(beta).images],
                "inverse_images": [
                    format_word(w) for w in artin_action(beta.inverse()).images
                ],
            }
        )
        return 0

    if args.command == "perm":
        beta = parse_braid(args.braid, args.n)
        perm = permutation(beta)
        _emit(
            {
                "n": args.n,
                "permutation": list(perm),
                "pure": perm == tuple(range(1, args.n + 1)),
            }
        )
        return 0

    if args.command == "braid-eq":
        left = GroupElement(parse_braid(args.left, args.n))
        right = GroupElement(parse_braid(args.right, args.n))
        _emit({"n": args.n, "equal": left == right})
        return 0

    if args.command == "hbar":
        theta = MagnusExpansion.standard(args.n, 2)
        cochain = hbar_cochain(theta, args.p, exterior=args.exterior)
        if len(args.braids) != args.p:
            raise ValueError(
                f"degree {args.p} needs {args.p} braid arguments, got {len(args.braids)}"
            )
        elems = [
            GroupElement(parse_braid(text, args.n)) for text in args.braids
        ]
        value = cochain(*elems)
        _emit(value.to_json_dict())
        return 0

    if args.command == "pair":
        theta = MagnusExpansion.standard(args.n, 2)
        if args.partition is None:
            if args.p < 1:
                raise ValueError("degree must be at least 1")
            parts = (args.p,)
        elif args.form == "tensor":
            raise ValueError("--form tensor needs --p: partition values are exterior")
        else:
            fields = [x.strip() for x in args.partition.split(",")]
            if not all(x.isascii() and x.isdigit() for x in fields):
                raise ValueError(f"bad partition {args.partition!r}")
            parts = tuple(int(x) for x in fields)
        elems = parse_cycle(args.cycle, args.n)
        if args.form == "tensor":
            value = pair(hbar_cochain(theta, args.p), torus_cycle(elems))
        elif sum(parts) != len(elems):
            raise ValueError(f"cochain degree {sum(parts)} vs chain degree {len(elems)}")
        elif is_degenerate(elems):
            value = ExteriorElement.zero(args.n, len(elems))
        else:
            value = torus_pairings(theta, elems, [parts])[0]
        _emit(value.to_json_dict())
        return 0

    if args.command == "independence":
        # --out is opened before any work is done, so an unwritable path fails
        # at once; an existing file is emptied only once the certificate exists
        try:
            fh = open(args.out, "a", encoding="utf-8") if args.out else None
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from None
        with fh or contextlib.nullcontext():
            cert = certificate(
                args.n, args.q, catalog_depth=args.catalog_depth, seed=args.seed
            )
            text = json.dumps(cert.to_json_dict(), indent=2) + "\n"
            if fh:
                fh.seek(0)
                fh.truncate()
                fh.write(text)
        sys.stdout.write(text)
        if not cert.passed:
            print(
                f"rank deficit: {cert.rank} of {cert.expected_rank}", file=sys.stderr
            )
            return 1
        return 0

    if args.command == "check":
        report = run_suite(args.suite, seed=args.seed)
        _emit(report.to_json_dict())
        if not report.passed:
            print(f"suite {args.suite} failed", file=sys.stderr)
            return 1
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
