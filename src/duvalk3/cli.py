"""Command-line interface.

Exit codes: 0 success; 2 domain rejection or failed verification; 64 usage
error; 65 catalog data error; 66 catalog file unreadable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .ade import (
    ADEType, Basket, cartan_matrix, form_signature, plumbing_form, sigma_k3, standard_dynkin_graph,
)
from .catalog import ParseError, InvariantViolation, embedded_catalog, load_catalog, verify_row
from .search import DEFAULT_MAX_WEIGHT, enumerate_k3_hypersurfaces, stabilized_enumeration
from .wps import HypersurfaceFamily, Weights, basket, quasismooth, well_formed

EX_OK = 0
EX_REJECT = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66

CATALOG_ENV = "DUVALK3_CATALOG"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _reject(message: str) -> int:
    print(f"rejected: {message}", file=sys.stderr)
    return EX_REJECT


def _cmd_basket(args: argparse.Namespace) -> int:
    w = Weights(tuple(args.weights))
    if not well_formed(w):
        return _reject(f"{w} is not well-formed (a weight triple shares a factor)")
    family = HypersurfaceFamily(w, args.degree)
    if not quasismooth(family):
        return _reject(f"{family} is not quasismooth")
    try:
        b = basket(family)
        # the K3 formula holds only at d = sum(a_i); the basket holds at any degree
        sigma = sigma_k3(b) if family.is_canonical_trivial else "-"
    except ValueError as exc:  # NotDuVal, BoundViolation or a point past RANK_CAP
        return _reject(str(exc))
    if args.format == "tsv":
        print("\t".join((str(family), b.tokens(), str(sigma))))
    else:
        print(f"family: {family}")
        print(f"basket: {b.tokens() if b.entries else '(empty)'}")
        print(f"sigma:  {sigma}")
    return EX_OK


def _cmd_sigma(args: argparse.Namespace) -> int:
    try:
        b = Basket.parse(" ".join(args.tokens))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        sigma = sigma_k3(b, args.q)
    except ValueError as exc:
        return _reject(str(exc))
    print(sigma)
    return EX_OK


def _cmd_plumbing(args: argparse.Namespace) -> int:
    try:
        t = ADEType.parse(args.type)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    if args.cartan:
        form = cartan_matrix(t)
        what = f"Cartan matrix of {t}"
    else:
        form = plumbing_form(standard_dynkin_graph(t, args.euler_weight))
        what = f"plumbing form of {t} (Euler weight {args.euler_weight})"
    print(what)
    for row in form.entries:
        print("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    s = form_signature(form)
    print(
        f"signature: ({s.positives}, {s.negatives}, {s.zeros}), "
        f"sigma = {s.sigma}"
    )
    return EX_OK


def _cmd_table_verify(args: argparse.Namespace) -> int:
    path = args.catalog
    if path is None:  # an empty --catalog is a path; an empty variable is unset
        path = os.environ.get(CATALOG_ENV) or None
    if path is None:
        rows = embedded_catalog()
    else:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                rows = load_catalog(fh.read())
        except OSError as exc:
            print(f"cannot open catalog: {exc}", file=sys.stderr)
            return EX_NOINPUT
        except (ParseError, InvariantViolation, UnicodeDecodeError) as exc:
            print(f"catalog error: {exc}", file=sys.stderr)
            return EX_DATAERR
    mismatched = 0
    for row in rows:
        report = verify_row(row)
        if report.ok:
            print(f"ok        {row.name}")
        else:
            mismatched += 1
            print(f"MISMATCH  {row.name}")
            for check in report.mismatches():
                print(
                    f"          {check.field}: stored {check.expected}, "
                    f"recomputed {check.actual}"
                )
    realized = sorted({row.sigma for row in rows})
    print(
        f"verified {len(rows)} rows: {len(rows) - mismatched} ok, "
        f"{mismatched} mismatched; signatures {_format_set(realized)}"
    )
    return EX_OK if mismatched == 0 else EX_REJECT


def _cmd_bsy(args: argparse.Namespace) -> int:
    from .threefolds import KawamataDiagram, SurfaceModel, bsy_check  # loaded on first use

    try:
        b = Basket.parse(args.basket)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    if args.q != 1 and (b.entries or args.fiber_q):
        flag = "--basket" if b.entries else "--fiber-q"
        print(f"error: {flag} is only meaningful for --q 1", file=sys.stderr)
        return EX_USAGE
    try:
        fiber = SurfaceModel(b, args.fiber_q) if args.q == 1 else None
        diagram = KawamataDiagram(args.q, args.degree, fiber)
        report = bsy_check(diagram)
    except ValueError as exc:
        return _reject(str(exc))
    for line in report.lines():
        print(line)
    return EX_OK if report.passed else EX_REJECT


def _format_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _cmd_search(args: argparse.Namespace) -> int:
    if args.stabilize:
        families, bound = stabilized_enumeration(start=args.max_weight)
    else:
        families = enumerate_k3_hypersurfaces(args.max_weight)
        bound = args.max_weight
    if args.target is not None:
        families = [fam for fam in families if fam.sigma == args.target]
    sep = "\t" if args.format == "tsv" else " | "
    for fam in families:
        print(fam.to_row().format(sep))
    realized = sorted({fam.sigma for fam in families})
    print(
        f"# families: {len(families)} | max weight: {bound} | "
        f"signatures: {_format_set(realized)}"
    )
    return EX_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared: never mutate it (parsing does not)."""
    parser = _Parser(
        prog="duvalk3",
        description=(
            "Exact signatures, L-classes and Hodge L-classes of du Val K3 "
            "surfaces and product-covered Calabi-Yau 3-folds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basket", help="singularity basket and signature of a family")
    p.add_argument("weights", nargs=4, type=_positive_int, metavar="WEIGHT")
    p.add_argument("--degree", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_basket)

    p = sub.add_parser("sigma", help="signature of a du Val basket")
    p.add_argument("tokens", nargs="+", metavar="TOKEN", help="e.g. 5A_1 or '4A_1 A_2'")
    p.add_argument("--q", type=int, choices=(0, 1, 2), default=0,
                   help="surface irregularity (default 0)")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("plumbing", help="plumbing intersection form of an ADE tree")
    p.add_argument("type", metavar="TYPE", help="e.g. A_5, D4, E_8")
    p.add_argument("--euler-weight", type=int, default=-2)
    p.add_argument("--cartan", action="store_true", help="print the Cartan matrix instead")
    p.set_defaults(func=_cmd_plumbing)

    p = sub.add_parser("table", help="operations on the realization table")
    table_sub = p.add_subparsers(dest="table_command", required=True)
    pv = table_sub.add_parser("verify", help="recompute every row and report mismatches")
    pv.add_argument("--catalog", metavar="PATH",
                    help=f"catalog file (default: ${CATALOG_ENV} or embedded table)")
    pv.set_defaults(func=_cmd_table_verify)

    p = sub.add_parser("bsy", help="compare Hodge and topological 3-fold classes")
    p.add_argument("--q", type=int, choices=(1, 2, 3), required=True,
                   help="irregularity of the 3-fold")
    p.add_argument("--basket", default="", help="fiber basket tokens (q=1 only)")
    p.add_argument("--degree", type=_positive_int, default=1, help="cover degree")
    p.add_argument("--fiber-q", type=int, choices=(0, 1, 2), default=0,
                   help="irregularity of the surface fiber (q=1 only)")
    p.set_defaults(func=_cmd_bsy)

    p = sub.add_parser("search", help="enumerate weighted K3 hypersurface families")
    p.add_argument("--target", type=int, help="emit only families with this signature")
    p.add_argument("--max-weight", type=_positive_int, default=DEFAULT_MAX_WEIGHT)
    p.add_argument("--stabilize", action="store_true",
                   help="raise the bound until the family count stabilizes")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility and ignored; the search is serial")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else EX_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
