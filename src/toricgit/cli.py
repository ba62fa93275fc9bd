"""Command-line front end: build objects, run verification checks, compute
quotients, and analyze stabilizer configurations.

Exit codes: 0 success / all checks pass; 1 a check or comparison failed;
2 bad arguments or parse failure; 3 I/O failure; 4 the configuration's n is above
the ``stab --brute-force-max`` size bound.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import __version__
from . import jsonio
from .degeneration import (VERIFY_CHECKS, VERIFY_MAX_N, build_bundle,
                           build_symmetric, checks_for, product_polyhedron, verify)
from .git import EmptyQuotientError, Linearization, quotient_polyhedron, split_quotient
from .groups import cycle_notation
from .jsonio import dumps
from .stabilizers import check_stability, random_configuration, verify_comparison

FUZZ_CHECK = "comparison_fuzz"
DEFAULT_BRUTE_FORCE_MAX = 9
BUILD_OBJECTS = ("expanded", "product", "symmetric", "permutahedron")


def _report_line(check: str, n: int, status: str, witness, elapsed_ms: float) -> str:
    return dumps({"tool_version": __version__, "n": n, "check": check,
                  "status": status, "witness": witness,
                  "elapsed_ms": round(elapsed_ms, 3)})


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
        payload = jsonio.polyhedron_to_json(build_bundle(n).family_polyhedron)
    elif obj == "product":
        payload = jsonio.polyhedron_to_json(product_polyhedron(n))
    elif obj == "permutahedron":
        payload = jsonio.polyhedron_to_json(build_symmetric(n).permutohedron)
    else:
        sym = build_symmetric(n)
        payload = {
            "n": n,
            "chamber": jsonio.cone_to_json(sym.chamber),
            "product_cone": jsonio.cone_to_json(sym.product_cone),
            "fan": [jsonio.cone_to_json(c, with_facets=False)
                    for c in sorted(sym.fan.maximal_cones, key=lambda c: c.key())],
            "permutahedron": jsonio.polyhedron_to_json(sym.permutohedron),
            "resolution_polyhedron": jsonio.polyhedron_to_json(sym.resolution_polyhedron),
        }
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(dumps(payload) + "\n")
    else:
        print(dumps(payload), flush=True)
    return 0


def _fuzz_settings() -> tuple[int, int]:
    """(DEGEN_SEED, DEGEN_FUZZ_TRIALS) from the environment."""
    try:
        seed = int(os.environ.get("DEGEN_SEED", "0"))
        trials = int(os.environ.get("DEGEN_FUZZ_TRIALS", "200"))
    except ValueError as exc:
        raise ValueError("DEGEN_SEED and DEGEN_FUZZ_TRIALS must be integers: "
                         f"{exc}") from None
    if trials < 1:
        # zero trials would report a pass without checking anything
        raise ValueError(f"DEGEN_FUZZ_TRIALS must be at least 1, got {trials}")
    return seed, trials


def _run_fuzz(n: int) -> tuple[str, dict]:
    seed, trials = _fuzz_settings()
    # a str seed is hashed with sha512, so the stream is the same in every process
    rng = random.Random(f"{seed}/{n}" if seed else n)
    for t in range(trials):
        c = random_configuration(n, rng)
        rep = verify_comparison(c)
        if not rep.passed:
            return "fail", {"trial": t, "config": jsonio.configuration_to_json(c),
                            "torus": jsonio.group_to_json(rep.torus_side),
                            "sym": jsonio.group_to_json(rep.sym_side)}
    return "pass", {"trials": trials}


def _run_one_check(n: int, check: str):
    if check == FUZZ_CHECK:
        t0 = time.perf_counter()
        try:
            status, witness = _run_fuzz(n)
        except Exception as exc:
            status, witness = "error", {"exception": repr(exc)}
        ms = (time.perf_counter() - t0) * 1000.0
        return check, n, status, witness, ms
    rep = verify(n, check)
    return rep.check, rep.n, rep.status, rep.witness, rep.elapsed_ms


def cmd_verify(args) -> int:
    n = args.n
    if args.check and args.all:
        print("error: give either --check or --all", file=sys.stderr)
        return 2
    if args.check:
        if args.check == FUZZ_CHECK:
            if not 1 <= n <= 7:
                print(f"error: {FUZZ_CHECK} supports 1 <= n <= 7", file=sys.stderr)
                return 2
            try:
                _fuzz_settings()
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            selected = [FUZZ_CHECK]
        else:
            if args.check not in VERIFY_CHECKS:
                print(f"error: unknown check {args.check!r}; choose from "
                      f"{', '.join(VERIFY_CHECKS + (FUZZ_CHECK,))}", file=sys.stderr)
                return 2
            if not 1 <= n <= VERIFY_MAX_N or args.check not in checks_for(n):
                print(f"error: check {args.check} is not available at n={n}",
                      file=sys.stderr)
                return 2
            selected = [args.check]
    else:
        if not 1 <= n <= VERIFY_MAX_N:
            print(f"error: --n must be in [1, {VERIFY_MAX_N}] for verify", file=sys.stderr)
            return 2
        selected = checks_for(n)
    results = []
    for chk in selected:
        check, nn, status, witness, ms = _run_one_check(n, chk)
        print(_report_line(check, nn, status, witness, ms), flush=True)
        results.append((check, status))
    npass = sum(1 for _, s in results if s == "pass")
    for check, status in results:
        print(f"  {check}: {status}", file=sys.stderr)
    print(f"{npass}/{len(results)} checks passed at n={n}", file=sys.stderr)
    return 0 if npass == len(results) else 1


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
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
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
        parts = {"polytopal": None, "conical": None}
    else:
        parts = {"polytopal": jsonio.polyhedron_to_json(polytopal),
                 "conical": jsonio.cone_to_json(conical)}
    print(dumps({"quotient": jsonio.polyhedron_to_json(q), **parts}), flush=True)
    return 0


def cmd_stab(args) -> int:
    try:
        with open(args.config) as fh:
            config = jsonio.configuration_from_json(json.load(fh))
        if not check_stability(config):
            raise ValueError("configuration is not semistable: per-component "
                             "multiplicities must equal the fiber degrees")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toricgit",
        description="Exact polyhedral computations and verification for toric "
                    "GIT quotients of expanded degenerations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write one combinatorial object as JSON")
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--object", required=True, choices=BUILD_OBJECTS)
    p_build.add_argument("--out", default="-", help="output path (default stdout)")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--check", default=None)
    p_verify.add_argument("--all", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_quot = sub.add_parser("quotient", help="quotient a polyhedron by a linearization")
    p_quot.add_argument("polyhedron", help="polyhedron JSON file")
    p_quot.add_argument("alpha", help="projection matrix JSON file")
    p_quot.add_argument("b", help="comma-separated rational shift, e.g. '2/3,4/3'")
    p_quot.set_defaults(func=cmd_quotient)

    p_stab = sub.add_parser("stab", help="stabilizer analysis of a configuration")
    p_stab.add_argument("config", help="configuration JSON file")
    p_stab.add_argument("--brute-force-max", type=int, default=DEFAULT_BRUTE_FORCE_MAX,
                        help="a size bound, not a brute-force scan: a configuration "
                             "with a larger n exits 4 (default %(default)s)")
    p_stab.set_defaults(func=cmd_stab)

    args = parser.parse_args(argv)
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
