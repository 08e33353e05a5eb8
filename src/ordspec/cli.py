"""Batch command-line interface.

Subcommands expose the spectrum generator lists, prime graphs, coclique
search, the matrix-group oracles, and the verification suite.  Output is
plain text by default; --format structured emits the canonical JSON used
by the parsers, and round-trips bit-exactly.

Exit codes: 0 success, 1 verification-check failure, 2 usage error,
3 domain error (unsupported or excluded parameters), 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import spectra
from .errors import OrdspecError, UsageError
from .spectra import FAMILIES, FULL, PPRIME

ORACLE_GROUPS = {
    "Sp4": ("Sp", 4),
    "Sp6": ("Sp", 6),
    "SU4": ("SU", 4),
    "GO4plus": ("GOplus", 4),
}

# verify subcommand -> (check kind, help, choices of its string-valued keys)
VERIFY_COMMANDS = {
    "diff": ("diff", "spectrum difference items i..vi",
             {"item": ("i", "ii", "iii", "iv", "v", "vi")}),
    "adjacency": ("adjacency", "adjacency bounds",
                  {"which": ("adj_s", "adj_o", "adj_p"), "family": FAMILIES}),
    "coclique-witness": ("coclique", "coclique constructions",
                         {"case": ("n_odd", "n_even", "dplus")}),
    "go8": ("go8", "the S8(q)/GO8-(q) spectrum equality", {}),
}


def cmd_spectrum(args) -> int:
    group = spectra.group_id(args.family, args.n, args.q)
    spec = spectra.spectrum_of_part(group, args.part)
    if args.format == "text":
        print(" ".join(str(g) for g in spec.gens))
    else:
        print(spectra.serialize(spec))
    return 0


def cmd_graph(args) -> int:
    from . import primegraph

    group = spectra.group_id(args.family, args.n, args.q)
    graph = primegraph.build_graph(group, part=args.part)
    if args.format == "text":
        print("vertices:", " ".join(str(v) for v in graph.vertices))
        print("edges:", " ".join(f"{r}-{s}" for r, s in graph.edges))
    else:
        print(primegraph.export_graph(graph))
    return 0


def cmd_coclique(args) -> int:
    from . import primegraph

    group = spectra.group_id(args.family, args.n, args.q)
    graph = primegraph.build_graph(group, part=args.part)
    found = primegraph.find_cocliques(graph, args.size)
    if args.format == "text":
        for combo in found:
            print("{" + ",".join(str(v) for v in combo) + "}")
    else:
        print(json.dumps(
            {"label": graph.label, "size": args.size,
             "cocliques": [list(c) for c in found]},
            sort_keys=True, separators=(",", ":"),
        ))
    return 0


def _emit_reports(reports, fmt: str) -> int:
    from . import verify

    if fmt == "text":
        for rep in reports:
            print(verify.summary(rep))
        passed = sum(1 for r in reports if r.passed)
        print(f"checks: {len(reports)}  passed: {passed}  "
              f"failed: {len(reports) - passed}")
    else:
        for rep in reports:
            print(verify.serialize_report(rep))
    return 0 if verify.suite_passed(reports) else 1


def _check_keys(kind: str) -> tuple:
    from . import verify

    return verify.CHECKS[kind][0]


def cmd_verify(args) -> int:
    from . import verify

    keys = _check_keys(args.kind)
    entry = {"kind": args.kind, **{key: getattr(args, key) for key in keys}}
    return _emit_reports([verify.run_check(entry)], args.format)


def cmd_verify_suite(args) -> int:
    from . import verify

    if args.grid:
        try:
            with open(args.grid, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read grid file {args.grid}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"grid file {args.grid} is not JSON: {exc}") from exc
    else:
        config = verify.default_config()
    return _emit_reports(verify.run_suite(config), args.format)


def cmd_oracle_enumerate(args) -> int:
    from . import oracle

    family, dim = ORACLE_GROUPS[args.group]
    cap = oracle.DEFAULT_CAP if args.cap is None else args.cap
    order, centre, spec = oracle.enumerate_group(family, dim, args.q, cap=cap)
    print(f"order={order} spectrum=" + " ".join(str(g) for g in spec.gens))
    return 0


def cmd_oracle_sample(args) -> int:
    from . import oracle

    family, dim = ORACLE_GROUPS[args.group]
    gens = oracle.standard_generators(family, dim, args.q)
    centre = oracle.central_scalars(family, dim, args.q)
    orders = oracle.sample_orders(gens, args.count, args.seed, centre)
    print("orders=" + " ".join(str(o) for o in orders))
    return 0


def cmd_oracle_twisted(args) -> int:
    from . import oracle

    print(f"order={oracle.twisted_order_b_gamma(args.q)}")
    return 0


def _add_group_args(sub) -> None:
    sub.add_argument("family", choices=FAMILIES)
    sub.add_argument("n", type=int)
    sub.add_argument("q", type=int)


def _add_common_flags(sub, part: bool = True) -> None:
    if part:
        sub.add_argument("--part", choices=(FULL, PPRIME), default=FULL)
    sub.add_argument("--format", choices=("text", "structured"), default="text")


def build_parser(verify_flags: bool = True) -> argparse.ArgumentParser:
    """The full parser.  Without verify_flags the verify checks get no
    flags, so that commands other than verify never import verify."""
    parser = argparse.ArgumentParser(
        prog="ordspec",
        description="Element-order spectra and prime graphs of finite "
        "simple symplectic and orthogonal groups, with matrix-group "
        "oracles and a verification suite.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    sub = top.add_parser("spectrum", help="reduced generator list of a spectrum")
    _add_group_args(sub)
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_spectrum)

    sub = top.add_parser("graph", help="prime graph of a group")
    _add_group_args(sub)
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_graph)

    sub = top.add_parser("coclique", help="all cocliques of a given size")
    _add_group_args(sub)
    sub.add_argument("--size", type=int, required=True)
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_coclique)

    ver = top.add_parser("verify", help="run verification checks")
    vsub = ver.add_subparsers(dest="check", required=True)

    for name, (kind, text, choices) in VERIFY_COMMANDS.items():
        sub = vsub.add_parser(name, help=text)
        # one flag per grid key of the check kind, in the kind's key order
        for key in _check_keys(kind) if verify_flags else ():
            if key in choices:
                sub.add_argument(f"--{key}", choices=choices[key], required=True)
            else:
                sub.add_argument(f"--{key}", type=int, required=True)
        _add_common_flags(sub, part=False)
        sub.set_defaults(func=cmd_verify, kind=kind)

    sub = vsub.add_parser("suite", help="run a check grid (default: built-in)")
    sub.add_argument("--grid", help="JSON config file")
    _add_common_flags(sub, part=False)
    sub.set_defaults(func=cmd_verify_suite)

    orc = top.add_parser("oracle", help="matrix-group brute force")
    osub = orc.add_subparsers(dest="op", required=True)

    sub = osub.add_parser("enumerate", help="close a matrix group, report "
                          "order and coset-order spectrum")
    sub.add_argument("group", choices=sorted(ORACLE_GROUPS))
    sub.add_argument("q", type=int)
    sub.add_argument("--cap", type=int)  # None: oracle.DEFAULT_CAP
    sub.set_defaults(func=cmd_oracle_enumerate)

    sub = osub.add_parser("sample", help="orders of random generator words "
                          "modulo the scalar centre")
    sub.add_argument("group", choices=sorted(ORACLE_GROUPS))
    sub.add_argument("q", type=int)
    sub.add_argument("--count", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_oracle_sample)

    sub = osub.add_parser("twisted", help="order of the twisted element "
                          "(B gamma) over GF(q^2)")
    sub.add_argument("q", type=int)
    sub.set_defaults(func=cmd_oracle_twisted)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(verify_flags=argv[:1] == ["verify"]).parse_args(argv)
    try:
        return args.func(args)
    except OrdspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the downstream reader (head, less...) closed the pipe; redirect
        # stdout so the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
