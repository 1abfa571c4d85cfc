"""Command-line front end: triangle export, identity verification, object
enumeration, and determinant reports.

Four subcommands:

    table      emit a weighted triangle as csv, json, or an OEIS-style b-file
    verify     run one (or all) of the identity suites and report pass/fail/skip
    enumerate  print canonical renderings of combinatorial objects
    det        print a Hankel-style matrix, its determinant, and the closed form

`table` builds the nested recurrence (a StirlingTable with method
"recurrence"), which takes every catalog pair but b-stirling in O(N^2) ring
operations; the definition tables that `verify` and `det` read stay the
independent path.

`verify` only parses its arguments and renders lines: the identities, their
cells and probes, and the sweep loop live in `wstirling.identities`, which the
acceptance gate runs too.

Each command imports only what it uses, because every CLI process pays for its
imports: the top level has ring, weights and stirling (all `table` needs), `det`
adds matrices, `enumerate` tableaux and combinat, and `verify` identities, which
loads a layer only when a suite first reads it: the recurrences none, genfunc
genfunc, the orthogonality, convolution, lu and determinants suites matrices,
and the tableaux and combinatorial suites tableaux and combinat.  The parser
needs only SUITES and ring.ENUMERATION_CAP.

Exit codes are a stable contract: 0 success, 1 a verified identity failed,
2 usage error, 3 resource or cap error (an enumeration cap, a non-integer
b-file entry, a computed exponent outside the ring's range, a product past
the ring's term-pair budget, or a request too large for memory or for this
platform), 141 stdout closed by its reader (the status a shell reports for a
process killed by SIGPIPE; `| head` does it).
Commands return 0 or 1 and raise everything else; main alone turns an error
into its code and an `error:` line on stderr, argparse's own exits included,
and a closed stdout into 141 with nothing on stderr.  Output is
byte-deterministic for identical invocations: iteration orders are fixed, the
round-trip identity seeds each cell's sequence from the cell, and JSON is
dumped with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import stirling
from .ring import (ENUMERATION_CAP, EnumerationCapExceeded, ExponentOverflow, TermBudgetExceeded,
                   is_constant, render)
from .weights import CATALOG, UndefinedIndex, UnknownBuiltin, WeightPair, builtin


class UsageError(ValueError):
    """Bad flag combination or unusable parameters; maps to exit code 2."""


class NonIntegerEntry(ValueError):
    """A b-file entry is not an integer; maps to exit code 3."""


RESOURCE_LIMITS = (EnumerationCapExceeded, ExponentOverflow, TermBudgetExceeded, NonIntegerEntry)

SUITES = ("recurrences", "genfunc", "orthogonality", "convolution", "lu",
          "determinants", "tableaux", "combinatorial")


def load_weights(text: str) -> WeightPair:
    """Accepts builtin:NAME or @path-to-json; anything else is a usage error."""
    if text.startswith("builtin:"):
        try:
            return builtin(text[len("builtin:"):])
        except UnknownBuiltin as exc:
            raise UsageError(str(exc)) from exc
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read weight spec {path}: {exc}") from exc
        try:
            return WeightPair.from_json(raw, label="@" + path)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise UsageError(f"invalid weight spec {path}: {exc}") from exc
    raise UsageError(f"weights must look like builtin:NAME or @file.json, got {text!r}")


def _parse_range(text: str) -> list:
    """Inclusive integer range written as LO:HI."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"range must look like LO:HI, got {text!r}")
    try:
        low, high = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"range bounds must be integers, got {text!r}") from exc
    if low > high:
        raise UsageError(f"empty range {text!r}")
    return list(range(low, high + 1))


# -- table -------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.nmax < 0:
        raise UsageError("--nmax must be nonnegative")
    pair = load_weights(args.weights)
    table = stirling.StirlingTable(pair, args.kind, args.alpha, args.beta, method="recurrence")
    rows = [table.row(n) for n in range(args.nmax + 1)]
    if args.format == "csv":
        print(";".join(",".join(render(v) for v in row) for row in rows))
        return 0
    if args.format == "json":
        payload = {"params": {"kind": args.kind, "label": pair.label,
                              "weights": pair.to_dict(), "alpha": args.alpha,
                              "beta": args.beta, "nmax": args.nmax},
                   "rows": [[render(v) for v in row] for row in rows]}
        print(json.dumps(payload, sort_keys=True))
        return 0
    # b-file: "index value" with a row-major linear index, integers only
    lines = []
    for index, v in enumerate(entry for row in rows for entry in row):
        if not is_constant(v):
            raise NonIntegerEntry(
                f"b-file output needs integer entries; entry {index} is {render(v)}")
        lines.append(f"{index} {render(v)}")
    print("\n".join(lines))
    return 0


# -- det ---------------------------------------------------------------------------


def cmd_det(args) -> int:
    from . import matrices

    if args.r < 0 or args.s < 0:
        raise UsageError("--r and --s must be nonnegative")
    pair = load_weights(args.weights)
    hankel = (args.kind, args.r, args.s, args.alpha, args.beta, pair)
    matrix = matrices.hankel_matrix(*hankel)
    det = matrices.determinant(matrix)
    formula = matrices.det_formula(*hankel)
    print(f"matrix (dim {args.r + 1}):")
    print(matrix.render())
    print(f"det={render(det)}")
    print(f"formula={render(formula)}")
    equal = det == formula
    print("EQUAL" if equal else "DIFFER")
    return 0 if equal else 1


# -- enumerate ---------------------------------------------------------------------


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"--object {args.object} needs {flag}")


def _parse_tops(text: str) -> tuple:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--tops must be comma-separated integers, got {text!r}") from exc


def cmd_enumerate(args) -> int:
    from . import combinat, tableaux

    cap = args.cap
    if cap < 0:
        raise UsageError("--cap must be nonnegative")
    try:
        if args.object in ("T", "Td"):
            _require(args, "r", "s")
            fn = tableaux.enumerate_T if args.object == "T" else tableaux.enumerate_Td
            objects = fn(args.alpha, args.beta, args.r, args.s, cap=cap)
        elif args.object == "zero-one":
            _require(args, "tops", "column_sum")
            pair = load_weights(args.weights)
            shape = tableaux.BTableau.from_tops(_parse_tops(args.tops), args.column_sum)
            objects = combinat.enumerate_01v(shape, pair, cap=cap, rows=args.rows)
        elif args.object in ("partitions", "permutations"):
            _require(args, "n", "k")
            pair = load_weights(args.weights)
            if not combinat.colors_by_v(pair):
                raise combinat.NonCombinatorialWeights(
                    f"{args.object} color with v only, so they need a combinatorial "
                    "pair with w = 1")
            fn = (combinat.enumerate_part if args.object == "partitions"
                  else combinat.enumerate_perm)
            objects = fn(args.n, args.k, pair.v, cap=cap)
        else:  # signed-partitions
            _require(args, "n", "k")
            objects = combinat.enumerate_signed_partitions(args.n, args.k, cap=cap)
    except RESOURCE_LIMITS:
        raise
    except (combinat.NonCombinatorialWeights, combinat.InvalidColorBudget,
            UndefinedIndex) as exc:
        raise UsageError(f"weights do not define this object family: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for obj in objects:
        print(obj.render())
    print(f"count={len(objects)}")
    return 0


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import identities

    if args.nmax < 0:
        raise UsageError("--nmax must be nonnegative")
    arange = _parse_range(args.alpha_range)
    brange = _parse_range(args.beta_range)
    if args.weights is None:
        pairs = [builtin(name) for name in CATALOG]
        scope = f"catalog({len(pairs)})"
    else:
        pairs = [load_weights(args.weights)]
        scope = pairs[0].label
    print(f"verify: suite={args.suite} nmax={args.nmax} "
          f"alpha=[{arange[0]}..{arange[-1]}] beta=[{brange[0]}..{brange[-1]}] "
          f"weights={scope}")
    suites = SUITES if args.suite == "all" else (args.suite,)
    grid = [(a, b) for a in arange for b in brange]
    tally = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for identity, label, checked, skipped, failure in identities.verify(
            suites, pairs, args.nmax, grid):
        status = "FAIL" if failure is not None else "SKIP" if checked == 0 else "PASS"
        tally[status] += 1
        print(f"{status} {identity.suite}/{identity.name} weights={label} "
              f"checked={checked} skipped={skipped}")
        if failure is not None:
            print(f"  counterexample: {failure}")
    print(f"result: {sum(tally.values())} identities, {tally['PASS']} passed, "
          f"{tally['FAIL']} failed, {tally['SKIP']} skipped")
    return 0 if tally["FAIL"] == 0 else 1


# -- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstirling",
        description="Exact weighted Stirling-type tables, identity checks, "
                    "and object enumeration.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a triangle as csv, json, or b-file")
    table.add_argument("--kind", choices=stirling.KINDS, default="second")
    table.add_argument("--weights", default="builtin:classical")
    table.add_argument("--alpha", type=int, default=0)
    table.add_argument("--beta", type=int, default=0)
    table.add_argument("--nmax", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    table.set_defaults(func=cmd_table, undefined_on="triangle")

    verify = sub.add_parser("verify", help="run identity suites")
    verify.add_argument("--suite", choices=SUITES + ("all",), required=True)
    verify.add_argument("--nmax", type=int, default=6)
    verify.add_argument("--weights", default=None)
    verify.add_argument("--alpha-range", default="-1:1",
                        help="inclusive LO:HI; write a negative LO as --alpha-range=-3:-2")
    verify.add_argument("--beta-range", default="-1:1",
                        help="inclusive LO:HI; write a negative LO as --beta-range=-3:-2")
    verify.set_defaults(func=cmd_verify)

    enum = sub.add_parser("enumerate", help="print canonical object renderings")
    enum.add_argument("--object", required=True,
                      choices=("T", "Td", "zero-one", "partitions",
                               "permutations", "signed-partitions"))
    enum.add_argument("--alpha", type=int, default=0)
    enum.add_argument("--beta", type=int, default=0)
    enum.add_argument("--r", type=int, default=None)
    enum.add_argument("--s", type=int, default=None)
    enum.add_argument("--n", type=int, default=None)
    enum.add_argument("--k", type=int, default=None)
    enum.add_argument("--tops", default=None,
                      help="comma-separated top row for --object zero-one")
    enum.add_argument("--column-sum", type=int, default=None)
    enum.add_argument("--rows", type=int, default=0,
                      help="grid rows for a width-0 zero-one tableau")
    enum.add_argument("--weights", default="builtin:classical")
    enum.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    enum.set_defaults(func=cmd_enumerate)

    det = sub.add_parser("det", help="Hankel-style determinant report")
    det.add_argument("--kind", choices=stirling.KINDS, default="second")
    det.add_argument("--r", type=int, required=True)
    det.add_argument("--s", type=int, required=True)
    det.add_argument("--weights", default="builtin:classical")
    det.add_argument("--alpha", type=int, default=0)
    det.add_argument("--beta", type=int, default=0)
    det.set_defaults(func=cmd_det, undefined_on="matrix")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's last flush cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
    except UsageError as exc:
        code, message = 2, str(exc)
    except UndefinedIndex as exc:
        code, message = 2, f"weights are undefined on the requested {args.undefined_on}: {exc}"
    except RESOURCE_LIMITS as exc:
        code, message = 3, str(exc)
    except MemoryError:
        code, message = 3, "out of memory"
    except OverflowError:  # a size past what a list or range can hold here
        code, message = 3, "request too large for this platform"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
