import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import argparse_oracle, matrix_to_json, orbit_fan_by_cone_dd
from toricgit import cli, jsonio
from toricgit.cones import Cone
from toricgit.degeneration import build_bundle, checks_for, product_ray_vectors
from toricgit.stabilizers import random_configuration


def run_cli(args, env=None, stdout=subprocess.PIPE):
    e = dict(os.environ)
    e.update(env or {})
    return subprocess.run([sys.executable, "-m", "toricgit.cli"] + args,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=e)


def run_main(args):
    """``cli.main(args)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    return rc, out.getvalue(), err.getvalue()


def test_build_permutahedron_n2():
    r = run_cli(["build", "--n", "2", "--object", "permutahedron"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["vertices"] == [["0"], ["1"]]


def test_build_product_recession_rays():
    r = run_cli(["build", "--n", "2", "--object", "product"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    # the polyhedron facet normals are exactly the labeled product-cone rays
    normals = {tuple(int(x) for x in f["normal"]) for f in obj["facets"]}
    assert normals == set(product_ray_vectors(2, 2))
    assert len(obj["vertices"]) == 9


def test_build_bad_n():
    assert run_cli(["build", "--n", "0", "--object", "expanded"]).returncode == 2
    assert run_cli(["build", "--n", "9", "--object", "product"]).returncode == 2
    assert run_cli(["build", "--n", "2", "--object", "nonsense"]).returncode == 2


def test_build_io_failure():
    r = run_cli(["build", "--n", "2", "--object", "permutahedron",
                 "--out", "/nonexistent-dir/x.json"])
    assert r.returncode == 3


def test_build_out_empty_is_a_usage_error():
    # a usage error, as for --n 1_0: exit 2 with nothing written and one line
    r = run_cli(["build", "--n", "2", "--object", "expanded", "--out", ""])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: argument --out: an output path must not be empty\n"


def test_build_symmetric_out_file_is_stdout(tmp_path):
    # the fan's text is joined from its rays: the same bytes on both routes
    out = tmp_path / "sym.json"
    rc, text, err = run_main(["build", "--n", "4", "--object", "symmetric"])
    assert rc == 0, err
    assert run_main(["build", "--n", "4", "--object", "symmetric", "--out", str(out)]) == \
        (0, "", "")
    assert out.read_text() == text


def test_build_roundtrip(tmp_path):
    out = tmp_path / "expanded.json"
    r = run_cli(["build", "--n", "2", "--object", "expanded", "--out", str(out)])
    assert r.returncode == 0
    with open(out) as fh:
        obj = json.load(fh)
    poly = jsonio.polyhedron_from_json(obj)
    assert poly == build_bundle(2).family_polyhedron
    assert jsonio.polyhedron_to_json(poly) == obj


def test_verify_all_n2():
    r = run_cli(["verify", "--n", "2", "--all"])
    assert r.returncode == 0
    lines = [json.loads(l) for l in r.stdout.splitlines()]
    assert len(lines) == 7
    assert all(l["status"] == "pass" for l in lines)
    assert all(l["tool_version"] for l in lines)


def test_verify_report_in_check_order():
    r = run_cli(["verify", "--n", "2", "--all"])
    assert r.returncode == 0
    lines = [json.loads(l) for l in r.stdout.splitlines()]
    assert [l["check"] for l in lines] == checks_for(2)  # one line per check, in order


def test_verify_single_check_report():
    r = run_cli(["verify", "--n", "2", "--check", "unstable_locus"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    rays = rep["witness"]["rays"]
    assert len(rays) == 12
    margins = {(tuple(x["I"]), x["j"]): x["margin"] for x in rays}
    assert margins[((1,), 1)] == "0"
    assert margins[((), 1)] == "2/3"
    assert margins[((1, 2), 1)] == "2/3"


def test_verify_prints_each_status_and_the_count_on_stderr():
    # stderr is one "  check: status" line per check, in order, then the count
    assert run_main(["verify", "--n", "1", "--all"])[::2] == (
        0, "  conical_part: pass\n  pb_vertices: pass\n  unstable_locus: pass\n"
           "  base_recovery: pass\n4/4 checks passed at n=1\n")


def test_verify_bad_args():
    # checks_for decides the first three, the fifth and the last, the CLI the others
    for args in (["--n", "99", "--all"], ["--n", "2", "--check", "bogus"],
                 ["--n", "1", "--check", "normal_fan"],
                 ["--n", "2", "--all", "--check", "pb_vertices"], ["--n", "0", "--all"],
                 ["--n", "8", "--check", "comparison_fuzz"], ["--n", "2", "--check", ""]):
        rc, out, err = run_main(["verify", *args])
        assert rc == 2, args
        assert out == "", args
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


@pytest.mark.parametrize("args", [["--all"], ["--check", "pb_vertices"]])
def test_verify_above_cap_exits_2(args):
    # n = 12 is the largest verified n: checks_for caps verify there, although
    # the symmetric model, a base point and its certificate, has no cap
    r = run_cli(["verify", "--n", "13", *args])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_verify_fuzz_seeded():
    env = {"DEGEN_SEED": "42", "DEGEN_FUZZ_TRIALS": "15"}
    r = run_cli(["verify", "--n", "3", "--check", "comparison_fuzz"], env=env)
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["status"] == "pass" and rep["witness"]["trials"] == 15
    r2 = run_cli(["verify", "--n", "3", "--check", "comparison_fuzz"], env=env)
    assert json.loads(r2.stdout)["witness"] == rep["witness"]


@pytest.mark.parametrize("env", [{"DEGEN_SEED": "seven"}, {"DEGEN_FUZZ_TRIALS": "1.5"},
                                 {"DEGEN_FUZZ_TRIALS": "-5"}, {"DEGEN_FUZZ_TRIALS": "0"}])
def test_verify_fuzz_bad_env(env):
    r = run_cli(["verify", "--n", "3", "--check", "comparison_fuzz"], env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("value", ["1_0", "٣", " 7 "])
@pytest.mark.parametrize("name", ["DEGEN_SEED", "DEGEN_FUZZ_TRIALS"])
def test_verify_fuzz_env_is_an_ascii_integer(name, value):
    # int() would read these as 10, 3 and 7
    r = run_cli(["verify", "--n", "2", "--check", "comparison_fuzz"], env={name: value})
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {name} must be an integer, not {value!r}\n"


@pytest.mark.parametrize("value", ["1_0", "٣", " 7 "])
@pytest.mark.parametrize("args", [["build", "--object", "expanded", "--n"],
                                  ["verify", "--check", "comparison_fuzz", "--n"],
                                  ["stab", "config.json", "--brute-force-max"]])
def test_integer_options_are_ascii_integers(args, value):
    # a usage error: exit 2 before any command runs, one line in argparse's wording
    r = run_cli([*args, value])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: argument {args[-1]}: its value must be an integer, not {value!r}\n"


def test_quotient_command(tmp_path):
    b = build_bundle(1)
    ppath = tmp_path / "poly.json"
    apath = tmp_path / "alpha.json"
    ppath.write_text(jsonio.dumps(jsonio.polyhedron_to_json(b.family_polyhedron)))
    apath.write_text(jsonio.dumps(matrix_to_json(b.lin_family.alpha)))
    r = run_cli(["quotient", str(ppath), str(apath), "1/2"])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert len(obj["quotient"]["vertices"]) == 1
    assert len(obj["conical"]["rays"]) == 2
    # mismatched b length
    r = run_cli(["quotient", str(ppath), str(apath), "1/2,1/3"])
    assert r.returncode == 2
    # unparsable file
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli(["quotient", str(bad), str(apath), "1/2"]).returncode == 2


def test_quotient_reads_an_integral_rational_alpha_as_int(tmp_path):
    # α entries "0", "2/2", "-4/4" are the integers 0, 1, -1: the same bytes
    # as the integer file, the n = 1 family's single vertex (-1/2, 1/2)
    ppath = tmp_path / "poly.json"
    ppath.write_text(jsonio.dumps(jsonio.polyhedron_to_json(build_bundle(1).family_polyhedron)))
    outs = []
    for row in (["0", "1", "-1"], ["0", "2/2", "-4/4"]):
        apath = tmp_path / "alpha.json"
        apath.write_text(json.dumps({"rows": 1, "cols": 3, "entries": [row]}))
        rc, out, _ = run_main(["quotient", str(ppath), str(apath), "1/2"])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["quotient"]["vertices"] == [["-1/2", "1/2"]]


def test_quotient_takes_a_negative_rational_shift_as_b(tmp_path):
    # a word is an option only when it is "-h" or starts with "--", so a
    # negative shift is b with no "--" before it, and the same bytes with one
    ppath, apath = tmp_path / "poly.json", tmp_path / "alpha.json"
    ppath.write_text(jsonio.dumps(jsonio.polyhedron_to_json(build_bundle(1).family_polyhedron)))
    apath.write_text(json.dumps({"rows": 1, "cols": 3, "entries": [["0", "1", "-1"]]}))
    for b in ("-1/2", "-3/2", "-1"):
        rc, out, err = run_main(["quotient", str(ppath), str(apath), b])
        assert (rc, err) == (0, "")
        assert out == run_main(["quotient", "--", str(ppath), str(apath), b])[1]
        assert json.loads(out)["quotient"]["vertices"] == [["0", "0"]]
    # a negative list is b too: of the wrong length here, so one error line
    rc, out, err = run_main(["quotient", str(ppath), str(apath), "-1/2,3/4"])
    assert (rc, out) == (2, "")
    assert err == "error: b must live in the target of alpha\n"


def test_quotient_empty(tmp_path):
    square = {"ambient_rank": 2,
              "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
              "recession": {"ambient_rank": 2, "rays": [], "lineality": []}}
    alpha = {"rows": 1, "cols": 2, "entries": [["1", "0"]]}
    p = tmp_path / "sq.json"
    a = tmp_path / "al.json"
    p.write_text(json.dumps(square))
    a.write_text(json.dumps(alpha))
    r = run_cli(["quotient", str(p), str(a), "-5"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"empty": True}


def test_quotient_recession_lineality(tmp_path):
    # the recession cone contains the line R·e1; slicing along it used to
    # end in an AssertionError traceback
    poly = {"ambient_rank": 2, "vertices": [["0", "0"]],
            "recession": {"ambient_rank": 2, "rays": [["1", "0"], ["-1", "0"], ["0", "1"]],
                          "lineality": []}}
    p = tmp_path / "lin.json"
    a = tmp_path / "al.json"
    p.write_text(json.dumps(poly))
    a.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["0", "1"]]}))
    r = run_cli(["quotient", str(p), str(a), "-1"])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def malformed_inputs(tmp_path):
    """CLI argument lists that must exit 2 with one ``error:`` line: a zero
    denominator and a non-object JSON value for each of ``quotient`` and
    ``stab``, a polyhedron whose recession cone has lineality, a scalar where
    a list belongs (``points``, ``generic``, ``vertices``), a configuration
    with n = 0, an α that is not an integer matrix or not surjective, a JSON
    file nested 100 000 lists deep for each of ``quotient`` and ``stab``,
    which ``json.load`` reads by recursion, a shift "1e5000", which is no
    rational string, and a quotient whose vertex has a denominator of more
    digits than ``str()`` of an int may print: its two inputs have 2917 and
    2537 digits, under that limit (4300 by default), and their product
    over it."""
    b = build_bundle(1)
    poly = tmp_path / "poly.json"
    alpha = tmp_path / "alpha.json"
    poly.write_text(jsonio.dumps(jsonio.polyhedron_to_json(b.family_polyhedron)))
    alpha.write_text(jsonio.dumps(matrix_to_json(b.lin_family.alpha)))
    listed = tmp_path / "list.json"
    listed.write_text("[1,2]")
    zero_root = tmp_path / "zero_root.json"
    zero_root.write_text(json.dumps({"n": 1, "I_t": [], "points": [
        {"component": 0, "root": "1/0", "generic": [1], "a1": "a", "mult": 1}]}))
    lineality = tmp_path / "lineality.json"
    lineality.write_text(json.dumps({
        "ambient_rank": 2, "vertices": [["0", "0"]],
        "recession": {"ambient_rank": 2, "rays": [["1", "0"], ["-1", "0"], ["0", "1"]],
                      "lineality": []}}))
    slice_alpha = tmp_path / "slice_alpha.json"
    slice_alpha.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["0", "1"]]}))
    rational_alpha = tmp_path / "rational_alpha.json"
    rational_alpha.write_text(json.dumps({"rows": 1, "cols": 3, "entries": [["0", "1/2", "-1"]]}))
    flat_alpha = tmp_path / "flat_alpha.json"
    flat_alpha.write_text(json.dumps({"rows": 2, "cols": 3,
                                      "entries": [["0", "1", "-1"], ["0", "-2", "2"]]}))
    # a scalar where a list belongs, and a configuration of degree zero
    scalar_points = tmp_path / "scalar_points.json"
    scalar_points.write_text(json.dumps({"n": 1, "I_t": [], "points": 5}))
    scalar_generic = tmp_path / "scalar_generic.json"
    scalar_generic.write_text(json.dumps({"n": 1, "I_t": [], "points": [
        {"component": 0, "root": "0", "generic": 5, "a1": "a", "mult": 1}]}))
    scalar_vertices = tmp_path / "scalar_vertices.json"
    scalar_vertices.write_text(json.dumps({"ambient_rank": 2, "vertices": 5}))
    degree_zero = tmp_path / "degree_zero.json"
    degree_zero.write_text(json.dumps({"n": 0, "I_t": [], "points": []}))
    # an a1 label that is not a string
    a1_list = tmp_path / "a1_list.json"
    a1_list.write_text(json.dumps({"n": 1, "I_t": [], "points": [
        {"component": 0, "root": "0", "generic": [1], "a1": ["x"], "mult": 1}]}))
    a1_int = tmp_path / "a1_int.json"
    a1_int.write_text(json.dumps({"n": 1, "I_t": [], "points": [
        {"component": 0, "root": "0", "generic": [1], "a1": 1, "mult": 1}]}))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    long_vertex = tmp_path / "long_vertex.json"
    long_vertex.write_text(json.dumps({"ambient_rank": 2,
                                       "vertices": [[f"1/{11 ** 2800}", "0"], ["0", "1"]]}))
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["1", "1"]]}))
    return {"zero denominator": ["quotient", str(poly), str(alpha), "1/0"],
            "polyhedron list": ["quotient", str(listed), str(alpha), "1/2"],
            "zero root": ["stab", str(zero_root)],
            "configuration list": ["stab", str(listed)],
            "lineality": ["quotient", str(lineality), str(slice_alpha), "-1"],
            "scalar points": ["stab", str(scalar_points)],
            "scalar generic": ["stab", str(scalar_generic)],
            "scalar vertices": ["quotient", str(scalar_vertices), str(slice_alpha), "1"],
            "degree zero": ["stab", str(degree_zero)],
            "a1 list": ["stab", str(a1_list)],
            "a1 int": ["stab", str(a1_int)],
            "rational alpha": ["quotient", str(poly), str(rational_alpha), "1/2"],
            "non-surjective alpha": ["quotient", str(poly), str(flat_alpha), "1/2,1"],
            "deep nesting quotient": ["quotient", str(deep), str(alpha), "0"],
            "deep nesting stab": ["stab", str(deep)],
            "exponent shift": ["quotient", str(poly), str(alpha), "1e5000"],
            "unprintable quotient": ["quotient", str(long_vertex), str(ones), f"-1/{7 ** 3000}"]}


@pytest.mark.parametrize("name", ["zero denominator", "polyhedron list", "zero root",
                                  "configuration list", "scalar points", "scalar generic",
                                  "scalar vertices", "degree zero", "a1 list", "a1 int",
                                  "rational alpha", "non-surjective alpha",
                                  "deep nesting quotient", "deep nesting stab",
                                  "exponent shift", "unprintable quotient"])
def test_malformed_input_exits_2(tmp_path, name):
    r = run_cli(malformed_inputs(tmp_path)[name])
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


# cli.main on each argument list read from stdin, in one interpreter
MAIN_ON_EACH = """
import contextlib, io, json, sys
from toricgit import cli
if __debug__:
    sys.exit("assert statements are on")
results = []
for args in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    results.append((rc, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""


def test_malformed_input_exits_2_without_asserts(tmp_path):
    # python -O strips assert statements: no input check may rest on one
    cases = malformed_inputs(tmp_path)
    r = subprocess.run([sys.executable, "-O", "-c", MAIN_ON_EACH],
                       input=json.dumps(list(cases.values())), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    results = json.loads(r.stdout)
    assert len(results) == len(cases)
    for name, (rc, out, err) in zip(cases, results):
        assert rc == 2, (name, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, name


entries = st.sampled_from(["0", "1", "-1", "2", "2/2", 3, -2] * 4 + ["-3/2", "1/2"])
# "±1e5000" is no rational string; read as 10^5000, it reaches a slice far out
# along a recession ray, whose vertex then has no str() (exit 1 before)
shifts = st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "3"] * 4 + ["1/0", "x"]
                         + ["1e5000", "-1e5000"] * 2)


@st.composite
def quotient_inputs(draw):
    """(polyhedron, alpha, b) for ``toricgit quotient``: a small polyhedron
    of rank 1 to 3 with up to four vertices and three rays, an α of up to
    two rows, its size declared right or wrong, and a shift b that may
    have the wrong length or a bad entry."""
    d = draw(st.integers(1, 3))
    point = st.lists(st.sampled_from(["0", "1", "-1", "1/2", "2", "-3/2"]),
                     min_size=d, max_size=d)
    ray = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    poly = {"ambient_rank": d, "vertices": draw(st.lists(point, max_size=4)),
            "recession": {"ambient_rank": d, "rays": draw(st.lists(ray, max_size=3))}}
    k = draw(st.sampled_from([1, 1, 2, 2, 0]))
    cols = draw(st.sampled_from([d] * 8 + [d + 1, d - 1]))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=k, max_size=k))
    alpha = {"rows": draw(st.sampled_from([k] * 8 + [k + 1])), "cols": cols, "entries": rows}
    b = draw(st.lists(shifts, min_size=max(k, 1),
                      max_size=max(k, 1) + draw(st.sampled_from([0] * 8 + [1]))))
    return poly, alpha, ",".join(b)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(case=quotient_inputs())
def test_quotient_exits_0_or_2_in_process(tmp_path_factory, case):
    # whatever parses, quotient prints one JSON line (exit 0) or one error
    # line (exit 2), and raises nothing
    poly, alpha, b = case
    where = tmp_path_factory.mktemp("quotient")
    p, a = where / "poly.json", where / "alpha.json"
    p.write_text(json.dumps(poly))
    a.write_text(json.dumps(alpha))
    rc, out, err = run_main(["quotient", str(p), str(a), b])  # b may start with "-"
    event(f"exit {rc} {err.strip()[:40]}")
    assert rc in (0, 2)
    if rc == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and out.count("\n") == 1
        json.loads(out)


@st.composite
def stab_inputs(draw):
    """The JSON of a ``toricgit stab`` configuration file and extra flags: a
    random semistable configuration at n = 1..5, as it is or with one field
    dropped, retyped or changed, or no configuration object at all."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    config = jsonio.configuration_to_json(random_configuration(n, rng))
    bad = st.sampled_from([None, "x", "1/0", -1, 0, 2.5, True, [], {}, [1.5], 99])
    kind = draw(st.sampled_from(["valid"] * 4 + ["drop", "retype", "point", "whole"]))
    if kind == "drop":
        del config[draw(st.sampled_from(sorted(config)))]
    elif kind == "retype":
        config[draw(st.sampled_from(sorted(config)))] = draw(bad)
    elif kind == "point" and config["points"]:
        point = draw(st.sampled_from(config["points"]))
        field = draw(st.sampled_from(sorted(point)))
        if draw(st.booleans()):
            point[field] = draw(bad)
        else:
            del point[field]
    elif kind == "whole":
        config = draw(bad)
    return config, draw(st.sampled_from([[], [], ["--brute-force-max", "2"]]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=stab_inputs())
def test_stab_exits_0_1_2_or_4_in_process(tmp_path_factory, case):
    # whatever the configuration file holds, stab prints one JSON line (exit
    # 0 or 1), one error line (exit 2, or 4 above the size bound), and
    # raises nothing
    config, flags = case
    path = tmp_path_factory.mktemp("stab") / "config.json"
    path.write_text(json.dumps(config))
    rc, out, err = run_main(["stab", str(path)] + flags)
    event(f"exit {rc} {err.strip()[:40]}")
    assert rc in (0, 1, 2, 4)
    if rc in (2, 4):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and out.count("\n") == 1
        assert json.loads(out)["comparison"] == ("PASS" if rc == 0 else "FAIL")


def test_quotient_split_not_applicable(tmp_path):
    # P = {0} + cone(e1, e2), x + y = 3: the quotient is a segment, but
    # conv(points) = {0} misses the slice, so the P_b + σ̄^∨ split does not apply
    poly = {"ambient_rank": 2, "vertices": [["0", "0"]],
            "recession": {"ambient_rank": 2, "rays": [["1", "0"], ["0", "1"]],
                          "lineality": []}}
    p = tmp_path / "orthant.json"
    a = tmp_path / "al.json"
    p.write_text(json.dumps(poly))
    a.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["1", "1"]]}))
    r = run_cli(["quotient", str(p), str(a), "-3"])
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["polytopal"] is None and obj["conical"] is None
    assert len(obj["quotient"]["vertices"]) == 2


def test_quotient_prints_no_false_split(tmp_path):
    # P = conv{(0,0), (0,4)} + cone{(1,1)}, y = 3: Q = [0, 3], but P_b = {0}
    # and σ̄^∨ = {0}, whose sum is not Q, so no split is printed
    poly = {"ambient_rank": 2, "vertices": [["0", "0"], ["0", "4"]],
            "recession": {"ambient_rank": 2, "rays": [["1", "1"]], "lineality": []}}
    p = tmp_path / "segment.json"
    a = tmp_path / "al.json"
    p.write_text(json.dumps(poly))
    a.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [["0", "1"]]}))
    r = run_cli(["quotient", str(p), str(a), "-3"])
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["polytopal"] is None and obj["conical"] is None
    assert obj["quotient"]["vertices"] == [["0"], ["3"]]


EX1 = {"n": 9, "I_t": [1, 7, 10], "points":
       [{"component": 1, "root": f"{j}/3", "generic": [1, 0, 0], "a1": "a", "mult": 1}
        for j in range(3)] +
       [{"component": 1, "root": f"{j}/3", "generic": [0, 1, 0], "a1": "b", "mult": 1}
        for j in range(3)] +
       [{"component": 2, "root": f"{j}/3", "generic": [0, 0, 1], "a1": "c", "mult": 1}
        for j in range(3)]}

EX2 = {"n": 6, "I_t": [1, 7], "points":
       [{"component": 1, "root": f"{j}/3", "generic": [1], "a1": "a", "mult": 2}
        for j in range(3)]}


def test_stab_example_one(tmp_path):
    cfg = tmp_path / "ex1.json"
    cfg.write_text(json.dumps(EX1))
    r = run_cli(["stab", str(cfg)])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["torus"] == {"invariant_factors": [3, 3]}
    assert obj["quotient"] == {"invariant_factors": [3, 3]}
    assert obj["comparison"] == "PASS"
    assert obj["stab_order"] == 9 and obj["stab0_order"] == 1


def test_stab_example_two(tmp_path):
    cfg = tmp_path / "ex2.json"
    cfg.write_text(json.dumps(EX2))
    r = run_cli(["stab", str(cfg)])
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["torus"] == {"invariant_factors": [3]}
    assert obj["quotient"] == {"invariant_factors": [3]}
    assert obj["stab0_blocks"] == [[1, 2], [3, 4], [5, 6]]
    assert obj["comparison"] == "PASS"


def test_stab_bound_exceeded(tmp_path):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({
        "n": 12, "I_t": [],
        "points": [{"component": 0, "root": "0", "generic": [1], "a1": "a", "mult": 12}]}))
    assert run_cli(["stab", str(cfg), "--brute-force-max", "9"]).returncode == 4


@pytest.mark.parametrize("value", ["-1", "0"])
def test_stab_bound_below_1_is_a_usage_error(tmp_path, value):
    # every n is at least 1, so such a bound would refuse every configuration
    # (exit 4); it is an error in the arguments, reported before the file is read
    r = run_cli(["stab", str(tmp_path / "absent.json"), "--brute-force-max", value])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: argument --brute-force-max: its value must be at least 1, " \
                       f"not {value}\n"


def test_stab_bound_1_still_reads(tmp_path):
    point = {"component": 0, "root": "0", "generic": [], "a1": "a", "mult": 1}
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"n": 1, "I_t": [], "points": [point]}))
    r = run_cli(["stab", str(cfg), "--brute-force-max", "1"])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["comparison"] == "PASS"
    cfg.write_text(json.dumps({"n": 2, "I_t": [], "points": [{**point, "mult": 2}]}))
    r = run_cli(["stab", str(cfg), "--brute-force-max", "1"])
    assert (r.returncode, r.stdout) == (4, "")
    assert r.stderr == "error: n=2 exceeds --brute-force-max 1\n"


def test_stab_order_beyond_len_limit(tmp_path):
    # |Stab| = 21! exceeds what len() can return; the orders are exact ints
    from math import factorial
    cfg = tmp_path / "fold21.json"
    cfg.write_text(json.dumps({
        "n": 21, "I_t": [],
        "points": [{"component": 0, "root": "0", "generic": [], "a1": "a", "mult": 21}]}))
    r = run_cli(["stab", str(cfg), "--brute-force-max", "30"])
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["stab_order"] == obj["stab0_order"] == factorial(21)
    assert obj["comparison"] == "PASS" and len(obj["stab_generators"]) == 50


def test_stab_parse_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("not json")
    assert run_cli(["stab", str(cfg)]).returncode == 2


def test_stab_not_semistable(tmp_path):
    # fiber_degrees(2, (1, 3)) == [0, 2, 0], but the points sit on components 1 and 2
    cfg = tmp_path / "unstable.json"
    cfg.write_text(json.dumps({"n": 2, "I_t": [1, 3], "points": [
        {"component": 1, "root": "0", "generic": [1], "a1": "a", "mult": 1},
        {"component": 2, "root": "1/2", "generic": [1], "a1": "a", "mult": 1}]}))
    r = run_cli(["stab", str(cfg)])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("command, field, doc", [
    ("stab", "n", {"I_t": [], "points": []}),
    ("stab", "points", {"n": 1, "I_t": []}),
    ("stab", "component", {"n": 1, "I_t": [], "points": [{"root": "0", "mult": 1}]}),
    ("quotient", "entries", {"rows": 1, "cols": 3}),
    ("quotient", "ambient_rank", {"vertices": [["0", "0", "0"]]}),
    ("quotient", "ambient_rank", {"ambient_rank": 3, "vertices": [["0", "0", "0"]],
                                  "recession": {"rays": []}}),
])
def test_missing_field_is_named(tmp_path, command, field, doc):
    # a required field that the input file lacks exits 2 with one error line
    # that names it, not with the bare KeyError text "error: 'n'"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if command == "stab":
        args = ["stab", str(path)]
    else:
        b = build_bundle(1)
        poly, alpha = tmp_path / "poly.json", tmp_path / "alpha.json"
        poly.write_text(jsonio.dumps(jsonio.polyhedron_to_json(b.family_polyhedron)))
        alpha.write_text(jsonio.dumps(matrix_to_json(b.lin_family.alpha)))
        args = ["quotient", str(path if field == "ambient_rank" else poly),
                str(path if field == "entries" else alpha), "1/2"]
    rc, out, err = run_main(args)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"has no {field!r} field" in err


@pytest.mark.parametrize("command, what, value, doc", [
    ("stab", "n", "x", {"n": "x", "points": []}),
    ("quotient", "rows", "1x", {"rows": "1x", "cols": 3, "entries": [["0", "1", "-1"]]}),
    ("quotient", "a ray entry", "1/2",
     {"ambient_rank": 3, "vertices": [["0", "0", "0"]],
      "recession": {"ambient_rank": 3, "rays": [["1/2", "0", "0"]]}}),
])
def test_malformed_integer_is_named(tmp_path, command, what, value, doc):
    # an integer field holding a string that is not an optional sign and
    # ASCII digits exits 2 with one error line that names the field, not
    # with int()'s "invalid literal" text
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if command == "stab":
        args = ["stab", str(path)]
    else:
        b = build_bundle(1)
        poly, alpha = tmp_path / "poly.json", tmp_path / "alpha.json"
        poly.write_text(jsonio.dumps(jsonio.polyhedron_to_json(b.family_polyhedron)))
        alpha.write_text(jsonio.dumps(matrix_to_json(b.lin_family.alpha)))
        args = ["quotient", str(poly if what == "rows" else path),
                str(path if what == "rows" else alpha), "1/2"]
    rc, out, err = run_main(args)
    assert (rc, out) == (2, "")
    assert err == f"error: {what} must be an integer, not {value!r}\n"


# modules that only stab and the comparison_fuzz check run
STABILIZER_STACK = ("toricgit.stabilizers", "toricgit.groups", "toricgit.stab_backends",
                    "dataclasses", "inspect")


def test_cli_import_leaves_the_stabilizer_stack_unloaded(tmp_path):
    # build and verify start without the stabilizer stack (a module that the
    # interpreter loaded before, from site say, does not count); stab and
    # comparison_fuzz import it themselves, each in a fresh interpreter
    r = subprocess.run([sys.executable, "-c",
                        "import sys\nbefore = set(sys.modules)\nimport toricgit.cli\n"
                        f"print(sorted((set(sys.modules) - before) & set({STABILIZER_STACK!r})))"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
    cfg = tmp_path / "ex1.json"
    cfg.write_text(json.dumps(EX1))
    r = run_cli(["stab", str(cfg)])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["comparison"] == "PASS"
    r = run_cli(["verify", "--n", "4", "--check", "comparison_fuzz"],
                env={"DEGEN_FUZZ_TRIALS": "5"})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["status"] == "pass"


def test_verify_loads_no_argument_parser_modules():
    # the CLI reads its arguments from its table: a fresh interpreter's verify
    # loads none of argparse, gettext or locale (one that site loaded before
    # does not count)
    r = subprocess.run([sys.executable, "-c",
                        "import contextlib, io, sys\nbefore = set(sys.modules)\n"
                        "import toricgit.cli\nwith contextlib.redirect_stdout(io.StringIO()), "
                        "contextlib.redirect_stderr(io.StringIO()):\n"
                        "    rc = toricgit.cli.main(['verify', '--n', '2', '--all'])\n"
                        "print(rc, sorted((set(sys.modules) - before)"
                        " & {'argparse', 'gettext', 'locale'}))"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0 []\n"


def _outcome(argv) -> tuple[int, str, str]:
    """``run_main(argv)`` with ``elapsed_ms`` blanked."""
    rc, out, err = run_main(argv)
    return rc, re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out), err


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path):
    # a usage error, --version, a quotient with a negative shift, a stab and
    # a verify: each answers alike when the others ran before it in the same
    # process, and the caller's argv is left as it was
    ppath, apath, cfg = tmp_path / "poly.json", tmp_path / "alpha.json", tmp_path / "ex1.json"
    ppath.write_text(jsonio.dumps(jsonio.polyhedron_to_json(build_bundle(1).family_polyhedron)))
    apath.write_text(json.dumps({"rows": 1, "cols": 3, "entries": [["0", "1", "-1"]]}))
    cfg.write_text(json.dumps(EX1))
    calls = [["verify", "--n", "1_0"], ["--version"],
             ["quotient", str(ppath), str(apath), "-1/2"], ["stab", str(cfg)],
             ["verify", "--n", "2", "--all"]]
    first = [_outcome(argv) for argv in calls]
    assert [rc for rc, _, _ in first] == [2, 0, 0, 0, 0]
    assert "argument --n" in first[0][2] and first[1][1] == f"{cli.__version__}\n"
    for _ in range(2):  # the sequence, twice over
        for argv, want in zip(calls, first):
            before = list(argv)
            assert _outcome(argv) == want, argv
            assert argv == before


USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["bogus", "--n", "2"],
    "unknown option": ["verify", "--n", "2", "--bogus"],
    "ambiguous prefix": ["build", "--n", "2", "--object", "expanded", "--o", "x"],
    "missing required option": ["build", "--n", "2"],
    "missing value": ["verify", "--all", "--n"],
    "value that is an option": ["verify", "--check", "--all", "--n", "2"],
    "bad int": ["verify", "--n", "1_0", "--all"],
    "bad choice": ["build", "--n", "2", "--object", "cube"],
    "empty out": ["build", "--n", "2", "--object", "expanded", "--out="],
    "too many positionals": ["stab", "a.json", "b.json"],
    "too few positionals": ["quotient", "p.json", "alpha.json"],
    "value to a flag": ["verify", "--n", "2", "--all=yes"],
}


@pytest.mark.parametrize("kind", sorted(USAGE_ERRORS))
def test_usage_error_is_one_line(kind):
    # exit 2 before any command runs: main returns it (no SystemExit), and
    # stderr holds one error line, with no usage line before it
    argv = USAGE_ERRORS[kind]
    rc, out, err = run_main(argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    r = run_cli(argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", err)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["verify", "-h"],
                                  ["stab", "--bogus", "--help"], ["build", "--n", "2", "-h"]])
def test_help_prints_usage_and_exits_0(argv):
    rc, out, err = run_main(argv)
    assert (rc, err) == (0, "")
    assert out.startswith("usage:\n  toricgit ")
    assert all(f"toricgit {c} " in out for c in (cli.COMMANDS if len(argv) == 1 else argv[:1]))


# words of the argv drawn for the reader against argparse: options, their
# unique and ambiguous prefixes (--o is --object or --out), and values
OPTION_WORDS = ["--n", "--object", "--out", "--check", "--all", "--brute-force-max",
                "--brute", "--obj", "--o", "--ch", "--a", "--b", "--bogus",
                "--help", "--he", "--version", "--ver"]
VALUE_WORDS = ["4", "1_0", "-3", "", "-1/2,3/4", *cli.BUILD_OBJECTS, "x.json", "bogus"]
# what each command needs, with values it takes: its required options and a
# "" for each positional
NEEDS = {"build": {"--n": ["4", "-3"], "--object": list(cli.BUILD_OBJECTS)},
         "verify": {"--n": ["4"]}, "quotient": {"": ["x.json", "-1/2,3/4", "-3", "4"]},
         "stab": {"": ["x.json", "4"]}, "bogus": {}}


@st.composite
def argvs(draw):
    """An argv of: maybe a top-level word, maybe a command word, what that
    command needs (each value drawn mostly from the values it takes), a few
    more options, values and "-h", all in any order, maybe one "--", and
    maybe an option with no value last.  An option comes with its value as
    two words or as "--opt=value", whole or as a prefix."""
    argv = draw(st.sampled_from([[]] * 12 + [["-h"], ["--version"], ["--ver"], ["--bogus"]]))
    command = draw(st.sampled_from([*NEEDS, None]))
    needs = NEEDS.get(command, {})
    values, words = st.sampled_from(VALUE_WORDS), st.sampled_from(OPTION_WORDS)

    def item(option, value):
        return [option, value] if draw(st.integers(0, 3)) else [f"{option}={value}"]

    items = []
    for option, good in needs.items():
        for _ in range(3 if command == "quotient" else 1):
            v = draw(st.sampled_from(good * 6 + VALUE_WORDS))
            items.append(item(draw(st.sampled_from([option, option[:5]])), v) if option else [v])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        kind = draw(st.integers(0, 9))
        items.append(item(draw(words), draw(values)) if kind < 4 else [draw(words)] if kind < 7
                     else ["-h"] if kind == 7 else [draw(values)])
    items = draw(st.permutations(items))
    if draw(st.integers(0, 3)) == 0:
        items.insert(draw(st.integers(0, len(items))), ["--"])
    last = draw(st.sampled_from([[]] * 12 + [[o] for o in OPTION_WORDS[:6]]))
    return argv + ([command] if command else []) + [w for i in items for w in i] + last


def _read_otherwise(argv) -> bool:
    """Whether the reader reads ``argv`` otherwise than argparse by design:
    a word such as "-1/2,3/4" (a dash and a digit, not an argparse number)
    before any "--" is a value to the reader and an option to argparse,
    and the "--" that ``argparse_oracle`` puts before a quotient's first such
    word or negative int makes every later word a positional, "--help" too."""
    dashed = [i for i, w in enumerate(argv) if w[:1] == "-" and w[1:2].isdigit()]
    if argv[:1] == ["quotient"] and dashed and "--" not in argv:
        return any(w == "-h" or w[:2] == "--" for w in argv[dashed[0]:])
    stop = argv.index("--") if "--" in argv else len(argv)
    return any(not re.fullmatch(r"-[0-9]+", argv[i]) for i in dashed if i < stop)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(argv=argvs())
@example(argv=["build", "-h", "--o", "x"])  # an ambiguous prefix is an error before -h
@example(argv=["verify", "--n", "4", "--all", "--n=-3"])  # the last --n wins
@example(argv=["verify", "--n", "4", "--check", "--all"])  # --check has no value
def test_reader_answers_as_argparse(argv):
    # where argparse parses, the reader gives the same fields; where it exits,
    # the reader exits with the same code (0 for the help and --version, 2
    # with one error line), and stderr wording is the only other difference.
    # argparse reported a "--" that no positional took as an unrecognized
    # argument; the reader drops a trailing "--", so the oracle reads argv
    # without it
    oracle_argv = argv[:-1] if argv[-1:] == ["--"] else argv
    if _read_otherwise(oracle_argv):
        event("read otherwise by design")
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            want = vars(argparse_oracle(oracle_argv))
        except SystemExit as exc:
            want = exc.code
    try:
        name, fields = cli.read_args(argv)
        got = {"command": name, **fields}
    except cli.EarlyExit as stop:
        text, got = stop.args
        assert got == 0 or text.startswith("error: ") and "\n" not in text, text
    event("parses" if isinstance(want, dict) else f"exit {want}")
    assert got == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_build_symmetric_fan_matches_per_cone_dd_oracle(n):
    # the fan printed from the walk's ray tuples is what cone_to_json writes
    # for the cones of the per-cone DD orbit fan, in key order
    rc, out, err = run_main(["build", "--n", str(n), "--object", "symmetric"])
    assert rc == 0, err
    assert json.loads(out)["fan"] == [jsonio.cone_to_json(c, with_facets=False)
                                      for c in sorted(orbit_fan_by_cone_dd(n), key=Cone.key)]


def test_build_determinism():
    a = run_cli(["build", "--n", "3", "--object", "product"]).stdout
    b = run_cli(["build", "--n", "3", "--object", "product"]).stdout
    assert a == b


def test_config_roundtrip(tmp_path):
    c = jsonio.configuration_from_json(EX1)
    again = jsonio.configuration_from_json(jsonio.configuration_to_json(c))
    assert c == again


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("sink", ["full disk", "closed pipe"])
@pytest.mark.parametrize("command", ["build", "verify", "stab", "quotient"])
def test_write_failure_exits_3(tmp_path, command, sink):
    # a stdout that takes no output is an I/O failure (exit 3), not a failed
    # check (exit 1) and not a traceback; stdout is buffered, as by default,
    # so the output it still holds must not fail again at exit
    b = build_bundle(1)
    files = {name: tmp_path / f"{name}.json" for name in ("config", "poly", "alpha")}
    files["config"].write_text(json.dumps(EX2))
    files["poly"].write_text(jsonio.dumps(jsonio.polyhedron_to_json(b.family_polyhedron)))
    files["alpha"].write_text(jsonio.dumps(matrix_to_json(b.lin_family.alpha)))
    args = {"build": ["build", "--n", "2", "--object", "permutahedron"],
            "verify": ["verify", "--n", "2", "--all"],
            "stab": ["stab", str(files["config"])],
            "quotient": ["quotient", str(files["poly"]), str(files["alpha"]), "1/2"]}[command]
    buffered = {"PYTHONUNBUFFERED": ""}
    if sink == "full disk":
        with open("/dev/full", "w") as out:
            r = run_cli(args, env=buffered, stdout=out)
    else:  # the reader is gone before the first line
        read, write = os.pipe()
        os.close(read)
        try:
            r = run_cli(args, env=buffered, stdout=write)
        finally:
            os.close(write)
    assert r.returncode == 3
    assert r.stderr.startswith("error: cannot write output") and r.stderr.count("\n") == 1
