"""Command-line front end: build objects, run verification checks, compute
quotients, and analyze stabilizer configurations.

The arguments are read against one table, ``COMMANDS``, by ``read_args``,
with no parser built; a usage error is one ``error:`` line on stderr.

Exit codes: 0 success / all checks pass; 1 a check or comparison failed;
2 bad arguments or parse failure; 3 I/O failure; 4 the configuration's n is above
the ``stab --brute-force-max`` size bound.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from . import jsonio
from .degeneration import (build_bundle, build_symmetric, checks_for, product_polyhedron,
                           run_check, symmetric_orbit, verify)
from .git import Linearization, quotient_polyhedron, split_quotient
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
    else:  # dumps of the payload, its keys in sorted order, the fan's text from its indices
        sym = build_symmetric(n)
        fan, perm, respoly = symmetric_orbit(sym)
        parts = {"chamber": dumps(jsonio.cone_to_json(sym.chamber)),
                 "fan": jsonio.fan_to_json(n + 1, *fan), "n": str(n),
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
        raise ValueError("an output path must not be empty")
    return s


def _int_option(s: str) -> int:
    """An option's integer, read as a file's integer field is: an optional
    sign and ASCII digits, so "1_0", "٣" and " 7 " are usage errors (exit 2)."""
    return jsonio._json_int(s, "its value")


def _bound(s: str) -> int:
    """--brute-force-max's bound, an ``_int_option`` of at least 1: every n
    is, so a lower bound would refuse every configuration (exit 2)."""
    bound = _int_option(s)
    if bound < 1:
        raise ValueError(f"its value must be at least 1, not {bound}")
    return bound


def _object(s: str) -> str:
    if s not in BUILD_OBJECTS:
        raise ValueError(f"invalid choice: {s!r} (choose from {', '.join(BUILD_OBJECTS)})")
    return s


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
    polytopal, conical = split_quotient(poly, lin, q) or (None, None)
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


# name: (function, positionals, {option: reader, None for a flag}, {option: default},
#        what --help prints); an option with no default is required
COMMANDS = {
    "build": (cmd_build, (), {"--n": _int_option, "--object": _object, "--out": _out_path},
              {"--out": "-"},
              f"--n N --object {'|'.join(BUILD_OBJECTS)} [--out PATH]: write its JSON"),
    "verify": (cmd_verify, (), {"--n": _int_option, "--check": str, "--all": None},
               {"--check": None, "--all": False}, "--n N [--check CHECK | --all]: run checks"),
    "quotient": (cmd_quotient, ("polyhedron", "alpha", "b"), {}, {},
                 "POLYHEDRON ALPHA B: the quotient by alpha, shifted by b (such as -2/3,4/3)"),
    "stab": (cmd_stab, ("config",), {"--brute-force-max": _bound},
             {"--brute-force-max": DEFAULT_BRUTE_FORCE_MAX},
             "CONFIG [--brute-force-max N]: stabilizers; an n above N exits 4"),
}


class EarlyExit(Exception):
    """(text, exit code) of an ``argv`` that runs no command: the help or the
    version on stdout (0), or one usage error line on stderr (2)."""


def _resolve(word: str, options) -> tuple:
    """(the option ``word`` names, exactly or as a unique prefix, or None;
    the value after its "=", or None)."""
    key, eq, value = word.partition("=")
    hits = [o for o in options if o == key] or [o for o in options if o.startswith(key)]
    if len(hits) > 1:
        raise EarlyExit(f"error: ambiguous option: {key} could match {', '.join(hits)}", 2)
    return (hits[0] if hits else None), (value if eq else None)


def read_args(argv) -> tuple[str, dict]:
    """(command, {field: value}) of ``argv``, read against ``COMMANDS`` as
    argparse read it, except that a word is an option only when it is "-h"
    or starts with "--", so a negative shift such as "-1/2,3/4" is a value."""
    argv, i, name, options, fields, words, late = list(argv), 0, None, {}, {}, [], None
    known = ("-h", "--help", "--version")  # the options before the command
    while i < len(argv):
        word, i = argv[i], i + 1
        is_option = word == "-h" or word[:2] == "--" and word != "--"
        if name is None and not is_option:
            if word not in COMMANDS:
                raise EarlyExit(f"error: {word!r} is not a command: {', '.join(COMMANDS)}", 2)
            name, options, fields = word, COMMANDS[word][2], dict(COMMANDS[word][3])
            known = ("-h", "--help", *options)
            for w in argv[i:argv.index("--", i) if "--" in argv[i:] else None]:
                if w[:2] == "--":  # argparse rejects an ambiguous prefix before it reads a word
                    _resolve(w, known)
        elif word == "--":
            words += argv[i:]
            break
        elif not is_option:
            words.append(word)
        else:
            option, value = _resolve(word, known)
            reader = options.get(option)
            if option is None:  # reported after the last word, so a later -h still answers
                late = late or f"unrecognized argument: {word}"
            elif reader is None and value is not None:
                raise EarlyExit(f"error: argument {option}: ignored explicit argument {value!r}", 2)
            elif option == "--version":
                raise EarlyExit(__version__, 0)
            elif option in ("-h", "--help"):
                raise EarlyExit("usage:\n" + "\n".join(f"  toricgit {c} {COMMANDS[c][4]}"
                                                       for c in ([name] if name else COMMANDS)), 0)
            elif reader is None:
                fields[option] = True
            else:
                if value is None:
                    if i == len(argv) or argv[i] == "-h" or argv[i][:2] == "--":
                        raise EarlyExit(f"error: argument {option}: expected one argument", 2)
                    value, i = argv[i], i + 1
                try:
                    fields[option] = reader(value)
                except ValueError as exc:
                    raise EarlyExit(f"error: argument {option}: {exc}", 2) from None
    positionals = COMMANDS[name][1] if name else ("COMMAND",)
    missing = [o for o in options if o not in fields] + list(positionals[len(words):])
    extra = words[len(positionals):]
    late = (late or missing and f"the following arguments are required: {', '.join(missing)}"
            or extra and f"unrecognized arguments: {' '.join(extra)}")
    if late:
        raise EarlyExit(f"error: {late}", 2)
    return name, {**{o[2:].replace("-", "_"): v for o, v in fields.items()},
                  **dict(zip(positionals, words))}


def main(argv=None) -> int:
    try:  # the commands read their inputs themselves (exit 2) and flush what they print
        name, fields = read_args(sys.argv[1:] if argv is None else argv)
        return COMMANDS[name][0](SimpleNamespace(**fields))
    except EarlyExit as stop:  # the help or the version (exit 0), or a usage error (exit 2)
        print(stop.args[0], file=sys.stderr if stop.args[1] else sys.stdout)
        return stop.args[1]
    except OSError as exc:  # so this is output that could not be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # a full or closed stdout: drop what it holds, or exit flushes it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
