"""The JSON parsers behind ``toricgit quotient`` and ``toricgit stab`` reject
every malformed value with ValueError, which the CLI turns into exit 2 with
one ``error:`` line; a missing field is a ValueError that names it."""

import contextlib
import io
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (configuration_from_json_by_entries, fan_text_by_one_dumps,
                     parse_rational_by_fraction)
from toricgit import cli, jsonio
from toricgit.cones import Cone
from toricgit.degeneration import build_symmetric, symmetric_fan, symmetric_polyhedra
from toricgit.polyhedra import LatticePolyhedron
from toricgit.stabilizers import random_configuration

PARSERS = [jsonio.configuration_from_json, jsonio.polyhedron_from_json,
           jsonio.matrix_from_json, jsonio.cone_from_json]

# the keys the parsers read, so that generated objects reach past the first lookup
KEYS = ["n", "I_t", "points", "component", "root", "generic", "a1", "mult",
        "ambient_rank", "vertices", "recession", "rays", "lineality",
        "rows", "cols", "entries"]

scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
           | st.floats() | st.sampled_from(["0", "1", "-2", "1/2", "1/0", "x", ""])
           | st.text(max_size=3))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS + ["?"]), inner, max_size=4)),
    max_leaves=8)


def field(good):
    """A well-typed value for one field, or any JSON value."""
    return good | json_values


small = st.integers(-1, 3)
rational = st.sampled_from(["0", "1/2", "-1", "2/3", 1, 0])
int_rows = st.lists(st.lists(field(small), max_size=3), max_size=3)

point_record = st.fixed_dictionaries(
    {"component": field(small), "root": field(rational),
     "generic": field(st.lists(field(small), max_size=3)), "mult": field(small)},
    optional={"a1": field(st.text(max_size=2))})
configuration = st.fixed_dictionaries(
    {"n": field(small), "points": field(st.lists(field(point_record), max_size=3))},
    optional={"I_t": field(st.lists(field(small), max_size=3))})
cone = st.fixed_dictionaries(
    {"ambient_rank": field(small)},
    optional={"rays": field(int_rows), "lineality": field(int_rows)})
polyhedron = st.fixed_dictionaries(
    {"ambient_rank": field(small)},
    optional={"vertices": field(st.lists(st.lists(field(rational), max_size=3),
                                         max_size=3)),
              "recession": field(cone)})
matrix = st.fixed_dictionaries(
    {"rows": field(small), "cols": field(small),
     "entries": field(st.lists(st.lists(field(rational), max_size=3), max_size=3))})


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(obj=json_values | configuration | polyhedron | matrix | cone)
@example(obj={"n": 1, "I_t": [], "points": 5})
@example(obj={"n": 1, "I_t": [], "points": [{"component": 0, "generic": 5}]})
@example(obj={"ambient_rank": 2, "vertices": 5})
@example(obj={"n": 0, "I_t": [], "points": []})
@example(obj={"n": None, "points": []})
@example(obj={"n": 1, "points": [{"component": 0, "mult": []}]})
@example(obj={"n": 1, "points": [{"component": 0, "a1": ["x"]}]})
@example(obj={"n": 1, "points": [{"component": 0, "a1": 1}]})
def test_parsers_raise_only_value_error(obj):
    for parse in PARSERS:
        try:
            parse(obj)
        except ValueError:
            continue
        if parse is jsonio.configuration_from_json:
            # an accepted point record carries its label as a string, or none
            assert all(isinstance(p.get("a1", ""), str) for p in obj["points"])


def read_or_error(read, obj):
    """What ``read`` makes of ``obj``: its value, or its ValueError's text."""
    try:
        return read(obj)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(obj=json_values | configuration)
@example(obj={"n": 2, "points": [{"component": 0, "generic": [1]},
                                 {"component": 0, "generic": ["1", 0, "-0"], "root": "1/2"}]})
@example(obj={"n": 1, "I_t": [1, "2", True], "points": [{"component": 0, "mult": 0},
                                                         {"component": 0, "root": "x"}]})
def test_configuration_reader_matches_entry_by_entry_oracle(obj):
    # the same configuration, or the same ValueError text, on every value
    # the parsers' strategies draw
    assert read_or_error(jsonio.configuration_from_json, obj) == \
        read_or_error(configuration_from_json_by_entries, obj)


def test_configuration_reader_matches_oracle_on_seeded_configurations():
    # well-formed files: each drawn configuration is read back equal to itself
    # by both readers, with its integers spelt as JSON ints and as strings and
    # its generic vectors cut ragged
    rng = random.Random(54)
    for n in range(1, 10):
        for _ in range(8):
            c = random_configuration(n, rng)
            obj = jsonio.configuration_to_json(c)
            spelt = {**obj, "I_t": [str(i) for i in obj["I_t"]],
                     "points": [{**p, "generic": [str(x) for x in p["generic"]],
                                 "mult": str(p["mult"])} for p in obj["points"]]}
            ragged = {**obj, "points": [{**p, "generic": p["generic"][:-1] if x else p["generic"]}
                                        for x, p in enumerate(obj["points"])]}
            for o in (obj, spelt):
                assert jsonio.configuration_from_json(o) == \
                    configuration_from_json_by_entries(o) == c, (n, o)
            assert read_or_error(jsonio.configuration_from_json, ragged) == \
                read_or_error(configuration_from_json_by_entries, ragged), (n, ragged)


def test_configuration_reader_builds_each_record_once(monkeypatch):
    # a ragged file's records are padded as they are read: one PointRecord
    # and one UnitValue per record, none built again by CycleConfiguration
    from toricgit import stabilizers
    built = []
    for cls in (stabilizers.PointRecord, stabilizers.UnitValue):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, real=real: built.append(type(self).__name__)
                            or real(self))
    c = jsonio.configuration_from_json({"n": 3, "points": [
        {"component": 0, "generic": [1]}, {"component": 0, "generic": [0, 1, 0]},
        {"component": 0, "generic": []}]})
    assert [p.position.generic for p in c.points] == [(1, 0, 0), (0, 1, 0), (0, 0, 0)]
    assert Counter(built) == {"PointRecord": 3, "UnitValue": 3}
    built.clear()
    configuration_from_json_by_entries({"n": 2, "points": [
        {"component": 0, "generic": [1]}, {"component": 0, "generic": [0, 1]}]})
    assert Counter(built) == {"PointRecord": 4, "UnitValue": 4}  # the spy sees a rebuild


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(value=st.text(alphabet="0123456789+-/ ._e\u0663", max_size=7) | st.integers() | scalars)
@example(value="-06/4")
@example(value="+0/007")
def test_rational_reader_matches_fraction_oracle(value):
    # the Fraction built from the match's two ints is the one Fraction(str) parses
    assert read_or_error(jsonio.parse_rational, value) == \
        read_or_error(parse_rational_by_fraction, value)


@pytest.mark.parametrize("field", [{"mult": 1.5}, {"mult": True}, {"component": 0.0},
                                   {"root": True}, {"generic": [1.5]}, {"generic": "1"},
                                   {"a1": ["x"]}, {"a1": 1}])
def test_wrongly_typed_point_field_is_rejected(field):
    # a float or boolean is not an integer, and a string is not a list of digits
    record = {"component": 0, "root": "0", "generic": [1], "mult": 1, **field}
    with pytest.raises(ValueError):
        jsonio.configuration_from_json({"n": 1, "points": [record]})


@pytest.mark.parametrize("size", [{"rows": True}, {"cols": 2.0}, {"rows": 1.0},
                                  {"cols": None}, {"rows": True, "cols": 2.0}])
def test_wrongly_typed_matrix_size_is_rejected(size):
    # rows and cols are read like every other integer field: no bool or float
    obj = {"rows": 1, "cols": 2, "entries": [["1", "0"]], **size}
    with pytest.raises(ValueError, match="must be an integer"):
        jsonio.matrix_from_json(obj)


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 7 ", "7\n", "", "+", "-", "+-1",
                                  "0x10", "1e3", "1.0", "1/2", "\u00b2"])
def test_integer_strings_are_a_sign_and_ascii_digits(text):
    # int() reads "1_0" as 10, the Arabic-Indic "٣" as 3 and " 7 " as 7;
    # the parsers take an optional sign and ASCII digits only, and say which
    # field held what
    with pytest.raises(ValueError, match=re.escape(f"mult must be an integer, not {text!r}")):
        jsonio.configuration_from_json({"n": 1, "points": [{"component": 0, "mult": text}]})


@pytest.mark.parametrize("value", ["1_0", "\u0663", " 1/2 ", "1/2\n", "1e3", "1e5000", "1.5",
                                   "", "/2", "1/", "1/-2", "-1/+2", "1//2", "0x10", "\u00b2",
                                   "1/0", "-2/000", 1.5, 2.0, True, None, ["1"]])
def test_rational_strings_are_a_sign_ascii_digits_and_one_slash(value):
    # Fraction() reads "1_0" as 10, "٣" as 3, " 1/2 " as 1/2 and "1e5000"
    # as 10^5000; the parser takes an int or an optional sign, ASCII digits
    # and an optional "/" with ASCII digits not all 0 only
    shown = repr(value) if isinstance(value, str) else type(value).__name__
    with pytest.raises(ValueError, match=re.escape(f"not {shown}")):
        jsonio.parse_rational(value)


def test_rational_strings_are_read():
    assert [jsonio.parse_rational(s) for s in ["+3/4", "-06/4", "007", "1/01", 5, -2]] == \
        [Fraction(3, 4), Fraction(-3, 2), 7, 1, 5, -2]


def test_integer_strings_with_a_sign_or_leading_zeros_are_read():
    m = jsonio.matrix_from_json({"rows": "+1", "cols": "002", "entries": [["1", "0"]]})
    assert (m.rows, m.cols) == (1, 2)
    c = jsonio.cone_from_json({"ambient_rank": "2", "rays": [["-2", "+01"], [0, 1]]})
    assert c.rays == ((-2, 1), (0, 1))


def _rays(normals, cones):
    """The ray tuples of the cones that index ``normals``."""
    return [tuple(normals[i] for i in c) for c in cones]


def test_fan_to_json_encodes_each_ray_once(monkeypatch):
    # the fan of build --object symmetric shares its rays across its cones
    real, encoded = jsonio.dumps, []

    def spy(obj):
        encoded.append(obj)
        return real(obj)

    monkeypatch.setattr(jsonio, "dumps", spy)
    normals, cones = [(0, 1), (1, -2), (3, 0)], [bytes([0, 1]), bytes([1, 2])]
    text = jsonio.fan_to_json(2, normals, cones)
    assert sorted(x for x in encoded if isinstance(x, list)) == \
        [["0", "1"], ["1", "-2"], ["3", "0"]]
    assert text == fan_text_by_one_dumps(2, [((0, 1), (1, -2)), ((1, -2), (3, 0))])
    cone = Cone(2, [(1, 0), (1, 1)])
    assert jsonio.cone_to_json(cone) == {"ambient_rank": 2, "rays": [["1", "0"], ["1", "1"]],
                                         "lineality": [], "facets": [["0", "1"], ["1", "-1"]]}


def test_fan_text_matches_one_dumps_oracle():
    # the symmetric models' fans, and seeded fans of random normals with
    # negative and multi-digit entries, indexed by bytes that share and
    # repeat indices, with empty cones and none
    for n in range(2, 7):
        normals, cones = symmetric_fan(build_symmetric(n))
        assert jsonio.fan_to_json(n + 1, normals, cones) == \
            fan_text_by_one_dumps(n + 1, _rays(normals, cones)), n
    rng = random.Random(7)
    for trial in range(200):
        rank = rng.randint(1, 12)
        normals = [tuple(rng.randint(-10 ** rng.randint(0, 4), 10 ** rng.randint(0, 4))
                         for _ in range(rank)) for _ in range(rng.randint(1, 8))]
        cones = [bytes(rng.randrange(len(normals)) for _ in range(rng.randint(0, 5)))
                 for _ in range(rng.randint(0, 6))]
        assert jsonio.fan_to_json(rank, normals, cones) == \
            fan_text_by_one_dumps(rank, _rays(normals, cones)), trial


def _by_one_dumps(p) -> str:
    """The polyhedron route that the row texts replaced: one ``dumps`` of
    ``polyhedron_to_json``, its vertex rows nested lists of strings."""
    return jsonio.dumps(jsonio.polyhedron_to_json(p))


def test_polyhedron_row_texts_match_one_dumps_oracle():
    # the symmetric polyhedra, whose resolution rows are spliced from the
    # permutohedron's, and seeded polyhedra with negative and fractional
    # vertices, rank 0 and the empty polyhedron among them
    for n in range(2, 7):
        perm, respoly = symmetric_polyhedra(build_symmetric(n))
        assert jsonio.padded_polyhedra_text(perm, respoly) == \
            (_by_one_dumps(perm), _by_one_dumps(respoly)), n
        assert jsonio.polyhedron_text(perm) == _by_one_dumps(perm), n
    rng = random.Random(11)
    polys = [LatticePolyhedron(0, [()]), LatticePolyhedron(2, [])]
    for _ in range(40):
        rank = rng.randint(1, 3)
        pts = [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(rank))
               for _ in range(rng.randint(1, 5))]
        rays = [tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rng.randint(0, 2))]
        polys.append(LatticePolyhedron(rank, pts, Cone(rank, rays)))
    for trial, p in enumerate(polys):
        assert jsonio.polyhedron_text(p) == _by_one_dumps(p), trial


def test_build_symmetric_encodes_each_row_once(monkeypatch):
    # the resolution polyhedron's rows are spliced from the permutohedron's
    # texts, and no vertex list goes through dumps
    real_entries, real_dumps, rows, dumped = jsonio._vertex_entries, jsonio.dumps, [], []

    def entries(p):
        out = real_entries(p)
        rows.extend(out)
        return out

    def dumps(obj):
        dumped.append(obj)
        return real_dumps(obj)

    monkeypatch.setattr(jsonio, "_vertex_entries", entries)
    monkeypatch.setattr(jsonio, "dumps", dumps)
    for n in range(2, 7):
        rows.clear()
        dumped.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["build", "--n", str(n), "--object", "symmetric"]) == 0
        assert len(rows) == factorial(n), n
        assert not [x for x in dumped if isinstance(x, dict) and x.get("vertices") is not None]


def _keys(rng) -> list[str]:
    # letters with no "n", "u" or "l", so that no key spells null
    return rng.sample(["".join(rng.choices("abcxyz_", k=rng.randint(1, 6)))
                       for _ in range(8)], rng.randint(0, 6))


def _json_value(rng, depth: int = 0):
    kind = rng.randrange(5 if depth < 2 else 3)
    if kind == 0:
        return rng.randint(-10 ** 6, 10 ** 6)
    if kind == 1:
        return "".join(rng.choices('abc0-/"\\é{}', k=rng.randint(0, 4)))
    if kind == 2:
        return rng.choice([True, False, 1.5, []])
    if kind == 3:
        return [_json_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {k: _json_value(rng, depth + 1) for k in _keys(rng)}


def test_splice_matches_dumps():
    # seeded objects, any subset of whose top-level values is given as its
    # dumps text; the text holds braces, quotes and escapes, as the spliced
    # JSON may
    rng = random.Random(5)
    for trial in range(300):
        obj = {k: _json_value(rng) for k in _keys(rng)}
        texts = {k: jsonio.dumps(v) for k, v in obj.items() if rng.random() < 0.5}
        rest = {k: v for k, v in obj.items() if k not in texts}
        assert jsonio.splice(rest, **texts) == jsonio.dumps(obj), trial
    for bad in ({"a": None}, {"a": ["null"]}, {"a": {"b": None}}):
        with pytest.raises(ValueError, match="no null"):
            jsonio.splice(bad, c="1")


def test_matrix_entries_are_read_as_integers():
    # an entry is read as a rational and kept only when it is an integer
    m = jsonio.matrix_from_json({"rows": "1", "cols": 3, "entries": [["4/2", -3, "0"]]})
    assert m.entries == ((2, -3, 0),) and all(type(x) is int for x in m.entries[0])
    with pytest.raises(ValueError, match="alpha must be an integer matrix"):
        jsonio.matrix_from_json({"rows": 1, "cols": 2, "entries": [["1/2", "0"]]})


def test_missing_a1_label_defaults_to_empty():
    c = jsonio.configuration_from_json({"n": 1, "points": [{"component": 0}]})
    assert c.points[0].a1_label == ""
