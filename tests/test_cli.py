import json
import os
import subprocess
import sys

import pytest

from oracles import matrix_to_json
from toricgit import jsonio
from toricgit.degeneration import build_bundle, checks_for, product_ray_vectors


def run_cli(args, env=None, flags=(), stdout=subprocess.PIPE):
    e = dict(os.environ)
    e.update(env or {})
    return subprocess.run([sys.executable, *flags, "-m", "toricgit.cli"] + args,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=e)


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
    assert normals == set(product_ray_vectors(2))
    assert len(obj["vertices"]) == 9


def test_build_bad_n():
    assert run_cli(["build", "--n", "0", "--object", "expanded"]).returncode == 2
    assert run_cli(["build", "--n", "9", "--object", "product"]).returncode == 2
    assert run_cli(["build", "--n", "2", "--object", "nonsense"]).returncode == 2


def test_build_io_failure():
    r = run_cli(["build", "--n", "2", "--object", "permutahedron",
                 "--out", "/nonexistent-dir/x.json"])
    assert r.returncode == 3


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


def test_verify_bad_args():
    assert run_cli(["verify", "--n", "99", "--all"]).returncode == 2
    assert run_cli(["verify", "--n", "2", "--check", "bogus"]).returncode == 2
    assert run_cli(["verify", "--n", "1", "--check", "normal_fan"]).returncode == 2


@pytest.mark.parametrize("args", [["--all"], ["--check", "pb_vertices"]])
def test_verify_above_cap_exits_2(args):
    # n = 7 is the largest verified n: at n = 8 the symmetric model's orbit
    # fan would have 8! = 40320 maximal cones
    r = run_cli(["verify", "--n", "8", *args])
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
    a list belongs (``points``, ``generic``, ``vertices``) and a
    configuration with n = 0."""
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
            "a1 int": ["stab", str(a1_int)]}


@pytest.mark.parametrize("name", ["zero denominator", "polyhedron list", "zero root",
                                  "configuration list", "scalar points", "scalar generic",
                                  "scalar vertices", "degree zero", "a1 list", "a1 int"])
def test_malformed_input_exits_2(tmp_path, name):
    r = run_cli(malformed_inputs(tmp_path)[name])
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_malformed_input_exits_2_without_asserts(tmp_path):
    # python -O strips assert statements: no input check may rest on one
    for name, args in malformed_inputs(tmp_path).items():
        r = run_cli(args, flags=("-O",))
        assert r.returncode == 2, (name, r.stderr)
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, name


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
