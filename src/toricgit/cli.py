"""Command-line front end: build objects, run verification checks, compute
quotients, and analyze stabilizer configurations.

Exit codes: 0 success / all checks pass; 1 a check or comparison failed;
2 bad arguments or parse failure; 3 I/O failure; 4 the configuration's n is above
the ``stab --brute-force-max`` size bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from . import jsonio
from .degeneration import (build_bundle, build_symmetric, checks_for, product_polyhedron,
                           run_check, symmetric_orbit, verify)
from .git import EmptyQuotientError, Linearization, quotient_polyhedron, split_quotient
from .jsonio import dumps

# ``stab`` and the comparison_fuzz check import the stabilizer stack (stabilizers,
# stab_backends, groups) themselves: ``build`` and ``verify`` never run it

FUZZ_CHECK = "comparison_fuzz"
DEFAULT_BRUTE_FORCE_MAX = 9
BUILD_OBJECTS = ("expanded", "product", "symmetric", "permutahedron")


def _report_line(rep) -> str:
    return dumps({"tool_version": __version__, "n": rep.n, "check": rep.check,
                  "status": rep.status, "witness": rep.witness,
                  "elapsed_ms": round(rep.elapsed_ms, 3)})


def cmd_build(args) -> int:
    n = args.n
    obj = args.object
    bounds = {"expanded": (1, 5), "product": (1, 5),
              "symmetric": (2, 6), "permutahedron": (2, 6)}
    lo, hi = bounds[obj]
    if not lo <= n <= hi:
        print(f"error: --n must be in [{lo}, {hi}] for {obj}", file=sys.stderr)
        return 2
    if obj == "expanded":
        text = dumps(jsonio.polyhedron_to_json(build_bundle(n).family_polyhedron))
    elif obj == "product":
        text = dumps(jsonio.polyhedron_to_json(product_polyhedron(n)))
    elif obj == "permutahedron":
        text = dumps(jsonio.polyhedron_to_json(symmetric_orbit(build_symmetric(n))[1]))
    else:  # dumps of the payload, its keys in sorted order, the fan's text from its rays
        sym = build_symmetric(n)
        cones, perm, respoly = symmetric_orbit(sym)
        parts = {"chamber": dumps(jsonio.cone_to_json(sym.chamber)),
                 "fan": jsonio.fan_to_json(n + 1, cones), "n": str(n),
                 "permutahedron": dumps(jsonio.polyhedron_to_json(perm)),
                 "product_cone": dumps(jsonio.cone_to_json(sym.product_cone)),
                 "resolution_polyhedron": dumps(jsonio.polyhedron_to_json(respoly))}
        text = "{" + ",".join(f'"{k}": {v}' for k, v in parts.items()) + "}"
    if args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)
    return 0


def _out_path(s: str) -> str:
    """--out's path, "-" for stdout; an empty path is a usage error (exit 2)."""
    if not s:
        raise argparse.ArgumentTypeError("an output path must not be empty")
    return s


def _int_option(s: str) -> int:
    """An option's integer, read as a file's integer field is: an optional
    sign and ASCII digits, so "1_0", "٣" and " 7 " are usage errors (exit 2)."""
    try:
        return jsonio._json_int(s, "its value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fuzz_settings() -> tuple[int, int]:
    """(DEGEN_SEED, DEGEN_FUZZ_TRIALS) from the environment, read as
    ``_int_option`` reads an option."""
    seed = jsonio._json_int(os.environ.get("DEGEN_SEED", "0"), "DEGEN_SEED")
    trials = jsonio._json_int(os.environ.get("DEGEN_FUZZ_TRIALS", "200"), "DEGEN_FUZZ_TRIALS")
    if trials < 1:
        # zero trials would report a pass without checking anything
        raise ValueError(f"DEGEN_FUZZ_TRIALS must be at least 1, got {trials}")
    return seed, trials


def _run_fuzz(n: int) -> tuple[bool, dict]:
    import random
    from .stabilizers import random_configuration, verify_comparison
    seed, trials = _fuzz_settings()
    # a str seed is hashed with sha512, so the stream is the same in every process
    rng = random.Random(f"{seed}/{n}" if seed else n)
    for t in range(trials):
        c = random_configuration(n, rng)
        rep = verify_comparison(c)
        if not rep.passed:
            return False, {"trial": t, "config": jsonio.configuration_to_json(c),
                            "torus": jsonio.group_to_json(rep.torus_side),
                            "sym": jsonio.group_to_json(rep.sym_side)}
    return True, {"trials": trials}


def cmd_verify(args) -> int:
    n, check = args.n, args.check
    try:  # checks_for decides the other check names, "" among them, and their n ranges
        if check is not None and args.all:
            raise ValueError("give either --check or --all")
        if check == FUZZ_CHECK:
            if not 1 <= n <= 7:
                raise ValueError(f"{FUZZ_CHECK} supports 1 <= n <= 7")
            _fuzz_settings()
            selected = [FUZZ_CHECK]
        else:
            selected = checks_for(n, check)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    for chk in selected:
        rep = run_check(chk, n, _run_fuzz) if chk == FUZZ_CHECK else verify(n, chk)
        print(_report_line(rep), flush=True)
        reports.append(rep)
    npass = sum(rep.status == "pass" for rep in reports)
    for rep in reports:
        print(f"  {rep.check}: {rep.status}", file=sys.stderr)
    print(f"{npass}/{len(reports)} checks passed at n={n}", file=sys.stderr)
    return 0 if npass == len(reports) else 1


def cmd_quotient(args) -> int:
    try:
        with open(args.polyhedron) as fh:
            poly = jsonio.polyhedron_from_json(json.load(fh))
        with open(args.alpha) as fh:
            alpha = jsonio.matrix_from_json(json.load(fh))
        b = [jsonio.parse_rational(x) for x in args.b.split(",")]
        lin = Linearization(alpha, b)
        if lin.source_rank() != poly.ambient_rank:
            raise ValueError("alpha source rank does not match the polyhedron")
        if not poly.recession.is_pointed():
            raise ValueError("the recession cone must be pointed (no lineality)")
    except (OSError, ValueError, RecursionError) as exc:  # json.load: too deep
        print(f"error: {exc}", file=sys.stderr)
        return 2
    q = quotient_polyhedron(poly, lin)
    if q.is_empty():
        print(dumps({"empty": True}), flush=True)
        return 0
    try:
        polytopal, conical = split_quotient(poly, lin)
    except EmptyQuotientError:
        # conv(points) misses the slice: the split does not apply to this input
        polytopal = conical = None
    try:  # an int longer than sys.get_int_max_str_digits() has no str()
        text = dumps({"quotient": jsonio.polyhedron_to_json(q),
                      "polytopal": polytopal and jsonio.polyhedron_to_json(polytopal),
                      "conical": conical and jsonio.cone_to_json(conical)})
    except ValueError as exc:
        print(f"error: the quotient cannot be printed: {exc}", file=sys.stderr)
        return 2
    print(text, flush=True)
    return 0


def cmd_stab(args) -> int:
    from .groups import cycle_notation
    from .stabilizers import verify_comparison
    try:
        with open(args.config) as fh:
            config = jsonio.configuration_from_json(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:  # json.load: too deep
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.n > args.brute_force_max:
        print(f"error: n={config.n} exceeds --brute-force-max {args.brute_force_max}",
              file=sys.stderr)
        return 4
    rep = verify_comparison(config)  # one pass over the shift groups
    print(dumps({
        "torus": jsonio.group_to_json(rep.torus_side),
        "stab_order": rep.stab_order,
        "stab_generators": [cycle_notation(p)
                            for p in rep.sym.stab.first_in_cycle_notation_order(50)],
        "stab0_order": rep.stab0_order,
        "stab0_blocks": rep.sym.stab0_young.blocks_one_based(),
        "quotient": jsonio.group_to_json(rep.sym_side),
        "comparison": "PASS" if rep.passed else "FAIL",
    }), flush=True)
    return 0 if rep.passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused by
    the later calls in this process: ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="toricgit",
        description="Exact polyhedral computations and verification for toric "
                    "GIT quotients of expanded degenerations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write one combinatorial object as JSON")
    p_build.add_argument("--n", type=_int_option, required=True)
    p_build.add_argument("--object", required=True, choices=BUILD_OBJECTS)
    p_build.add_argument("--out", type=_out_path, default="-", help="output path (default stdout)")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--n", type=_int_option, required=True)
    p_verify.add_argument("--check", default=None,
                          help=f"one check (default: all at this n), or {FUZZ_CHECK}")
    p_verify.add_argument("--all", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_quot = sub.add_parser("quotient", help="quotient a polyhedron by a linearization")
    p_quot.add_argument("polyhedron", help="polyhedron JSON file")
    p_quot.add_argument("alpha", help="projection matrix JSON file")
    p_quot.add_argument("b", help="comma-separated rational shift, e.g. '2/3,4/3'")
    p_quot.set_defaults(func=cmd_quotient)

    p_stab = sub.add_parser("stab", help="stabilizer analysis of a configuration")
    p_stab.add_argument("config", help="configuration JSON file")
    p_stab.add_argument("--brute-force-max", type=_int_option, default=DEFAULT_BRUTE_FORCE_MAX,
                        help="a size bound, not a brute-force scan: a configuration "
                             "with a larger n exits 4 (default %(default)s)")
    p_stab.set_defaults(func=cmd_stab)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a word that starts with "-" as an option unless it is an
    # int or a decimal, so a negative rational shift ("-1/2,3/4") goes after "--"
    neg = [i for i, a in enumerate(argv) if a[:1] == "-" and (a[1:2].isdigit() or a[1:2] == ".")]
    if argv[:1] == ["quotient"] and neg and "--" not in argv:
        argv.insert(neg[0], "--")
    args = _parser().parse_args(argv)
    try:  # the commands read their inputs themselves (exit 2) and flush what they print
        return args.func(args)
    except OSError as exc:  # so this is output that could not be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # a full or closed stdout: drop what it holds, or exit flushes it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
