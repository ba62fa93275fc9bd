"""Workload definitions: inputs made from the seed, the timed operations, and
the output gate each operation must pass.

A workload's ``setup(seed, workdir)`` imports the ``toricgit`` entry points it
drives and builds its inputs; it returns the list of operations of one pass.
An operation is a ``(label, call, gate)`` triple: ``call()`` runs the timed
work and returns its raw output, ``gate(output)`` runs untimed afterwards and
returns ``None`` when the output is correct, else a one-line reason.

Only this module and ``tracer.py`` know the package's names; nothing here is
imported by the package itself.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

# stab-fuzz: comparisons per n in one pass.  n <= 7 is the comparison_fuzz
# range of the CLI.  Equal counts put the median among the n=6 comparisons
# and the tail among the n=7 ones.
FUZZ_SIZES = {5: 200, 6: 200, 7: 200}
# stab-large: seeded random configurations per n in one pass, at the
# brute-force bound (DEFAULT_BRUTE_FORCE_MAX = 9).  The n=9 ones hold the
# middle of the 18 operations, so the median is one of them whatever the seed.
LARGE_RANDOM = {8: 4, 9: 8}
# stab-large draws with a larger |Stab| are drawn again.  One point of
# multiplicity 9 (|Stab| = 9!) makes one comparison take about 16 s and would
# set the time of the whole pass; the fixed degenerate fibers cover the
# large-|Stab| regime on every seed instead.
LARGE_RANDOM_MAX_STAB = 5040
# Random configurations are drawn to a fixed |Stab| profile: the number of
# configurations with each |Stab| comes from this many reference draws per
# configuration (see ``random_configurations``).
PROFILE_POOL = 5
# stab-large: one-component degenerate fibers; Stab is the Young subgroup of
# the multiplicities, so it is large and every element is trivial-angle.
DEGENERATE = ((8,), (7, 1), (4, 4), (5, 4))


def run_cli(argv):
    """``cli.main(argv)`` with stdout and stderr captured: (exit code, stdout)."""
    from toricgit import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(line: str) -> tuple[str, str]:
    """(check, digest) of one ``verify`` report line, ``elapsed_ms`` removed."""
    rep = json.loads(line)
    rep.pop("elapsed_ms")
    return rep["check"], sha256(json.dumps(rep, sort_keys=True))


# ---------------------------------------------------------------------------
# gates


def verify_gate(output) -> str | None:
    rc, text = output
    if rc != 0:
        return f"exit code {rc}"
    expected = EXPECTED["verify-n4"]
    seen = {}
    for line in text.splitlines():
        check, digest = report_digest(line)
        if json.loads(line)["status"] != "pass":
            return f"{check}: status is not pass"
        seen[check] = digest
    if seen != expected:
        bad = sorted(k for k in set(seen) | set(expected) if seen.get(k) != expected.get(k))
        return f"report lines differ from the recorded digests: {bad}"
    return None


def build_gate(name: str):
    def gate(output) -> str | None:
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        if sha256(text) != EXPECTED["build"][name]:
            return f"{name}: JSON differs from the recorded sha256"
        return None
    return gate


def _young_blocks(mults) -> list[list[int]]:
    blocks, start = [], 1
    for m in mults:
        if m >= 2:
            blocks.append(list(range(start, start + m)))
        start += m
    return blocks


def stab_gate(known: dict | None = None):
    """``toricgit stab`` output: exit 0, PASS, |Stab| = |Stab0| * |quotient|,
    and the ``known`` invariants when given."""
    def gate(output) -> str | None:
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        rep = json.loads(text)
        if rep["comparison"] != "PASS":
            return "comparison is not PASS"
        q = 1
        for f in rep["quotient"]["invariant_factors"]:
            q *= f
        if rep["stab_order"] != rep["stab0_order"] * q:
            return "|Stab| != |Stab0| * |quotient|"
        for key, want in (known or {}).items():
            got = rep["torus"]["invariant_factors"] if key == "torus" else rep[key]
            if got != want:
                return f"{key} is {got}, expected {want}"
        return None
    return gate


def fuzz_gate(rep) -> str | None:
    if not rep.passed:
        return "comparison failed"
    if rep.stab_order != rep.stab0_order * rep.sym_side.order():
        return "|Stab| != |Stab0| * |quotient|"
    return None


# ---------------------------------------------------------------------------
# inputs


def order_nine_example():
    """The worked order-9 configuration of the acceptance suite."""
    from toricgit.stabilizers import CycleConfiguration, PointRecord, UnitValue
    pts = []
    for comp, gen, lbl in [(1, (1, 0, 0), "a"), (1, (0, 1, 0), "b"), (2, (0, 0, 1), "c")]:
        for j in range(3):
            pts.append(PointRecord(component=comp,
                                   position=UnitValue(root=Fraction(j, 3), generic=gen),
                                   a1_label=lbl, multiplicity=1))
    return CycleConfiguration(n=9, I_t=(1, 7, 10), points=tuple(pts))


def order_six_example():
    """The worked order-6 configuration of the acceptance suite."""
    from toricgit.stabilizers import CycleConfiguration, PointRecord, UnitValue
    pts = [PointRecord(component=1, position=UnitValue(root=Fraction(j, 3), generic=(1,)),
                       a1_label="a", multiplicity=2) for j in range(3)]
    return CycleConfiguration(n=6, I_t=(1, 7), points=tuple(pts))


def degenerate_fiber(mults):
    """One component (empty zero set), one generic point per multiplicity."""
    from toricgit.stabilizers import CycleConfiguration, PointRecord, UnitValue
    k = len(mults)
    pts = [PointRecord(component=0,
                       position=UnitValue(root=Fraction(0),
                                          generic=tuple(int(i == j) for j in range(k))),
                       a1_label="a", multiplicity=m)
           for i, m in enumerate(mults)]
    return CycleConfiguration(n=sum(mults), I_t=(), points=tuple(pts))


def stab_order(c) -> int:
    """|Stab| of a configuration without the S_n search: the trivial-angle
    part permutes repeated slots of one point (prod of mult!), and the
    quotient is the torus stabilizer."""
    from toricgit.stabilizers import torus_stabilizer
    order = torus_stabilizer(c).order()
    for p in c.points:
        order *= factorial(p.multiplicity)
    return order


def random_configurations(rng, n: int, count: int, max_stab: int | None = None):
    """``count`` seeded ``random_configuration(n, rng)`` draws with the same
    |Stab| profile for every seed.

    A comparison's cost grows with |Stab|, whose distribution has a long
    tail: at n=7 one draw in a hundred has |Stab| = 5040 and takes 5x longer
    than the next class.  A plain sample puts a seed-dependent number of
    draws there, and the pass time and tail latency jump with it.  So the
    count per |Stab| is fixed, as the largest-remainder share of
    ``PROFILE_POOL * count`` draws from ``random.Random(n)``; the seeded draws
    fill those quotas in the order they come.
    """
    from toricgit.stabilizers import random_configuration

    def draws(r):
        while True:
            c = random_configuration(n, r)
            order = stab_order(c)
            if max_stab is None or order <= max_stab:
                yield order, c

    pool = Counter(order for order, _ in islice(draws(random.Random(n)),
                                                PROFILE_POOL * count))
    quota = {k: v // PROFILE_POOL for k, v in pool.items()}
    by_remainder = sorted(pool, key=lambda k: (-(pool[k] % PROFILE_POOL), k))
    for k in by_remainder[:count - sum(quota.values())]:
        quota[k] += 1
    out = []
    for order, c in draws(rng):
        if quota.get(order):
            quota[order] -= 1
            out.append(c)
            if len(out) == count:
                return out


# ---------------------------------------------------------------------------
# workloads


def setup_verify(seed, workdir):
    from toricgit import cli  # noqa: F401  (the import is part of set-up)
    argv = ["verify", "--n", "4", "--all"]
    return [("verify-n4", lambda: run_cli(argv), verify_gate)]


def setup_build_symmetric(seed, workdir):
    from toricgit import cli  # noqa: F401
    argv = ["build", "--n", "6", "--object", "symmetric"]
    return [("symmetric6", lambda: run_cli(argv), build_gate("symmetric6"))]


def setup_stab_fuzz(seed, workdir):
    from toricgit import stabilizers
    rng = random.Random(seed)
    ops = []
    for n, count in FUZZ_SIZES.items():
        for i, c in enumerate(random_configurations(rng, n, count)):
            # looked up at call time, so that a traced pass sees the wrapper
            ops.append((f"fuzz-n{n}-{i}", lambda c=c: stabilizers.verify_comparison(c),
                        fuzz_gate))
    return ops


def setup_stab_large(seed, workdir):
    from toricgit import jsonio
    rng = random.Random(seed)
    cases = [("order9", order_nine_example(),
              {"torus": [3, 3], "stab_order": 9, "stab0_order": 1}),
             ("order6", order_six_example(),
              {"torus": [3], "stab0_blocks": [[1, 2], [3, 4], [5, 6]]})]
    for mults in DEGENERATE:
        order = 1
        for m in mults:
            order *= factorial(m)
        cases.append(("degenerate-" + "-".join(map(str, mults)), degenerate_fiber(mults),
                      {"stab_order": order, "stab0_order": order,
                       "stab0_blocks": _young_blocks(mults)}))
    for n, count in LARGE_RANDOM.items():
        for i, c in enumerate(random_configurations(rng, n, count, LARGE_RANDOM_MAX_STAB)):
            cases.append((f"random-n{n}-{i}", c, None))
    ops = []
    for label, config, known in cases:
        path = os.path.join(workdir, label + ".json")
        with open(path, "w") as fh:
            json.dump(jsonio.configuration_to_json(config), fh)
        ops.append((label, lambda p=path: run_cli(["stab", p]), stab_gate(known)))
    return ops


WORKLOADS = {
    "verify-n4": setup_verify,
    "build-symmetric6": setup_build_symmetric,
    "stab-fuzz": setup_stab_fuzz,
    "stab-large": setup_stab_large,
}
