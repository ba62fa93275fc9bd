"""Canonical JSON encodings for every value the CLI reads or writes.

Rationals are strings "p/q" (or "p" when the denominator is 1); all lists
are emitted in canonical (sorted) order so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .cones import Cone
from .linalg import Matrix, frac
from .polyhedra import LatticePolyhedron

if TYPE_CHECKING:  # the stabilizer stack loads only when a configuration is read
    from .groups import FiniteAbelianGroup
    from .stabilizers import CycleConfiguration


def rational_str(x) -> str:
    return str(x if type(x) is int else frac(x))  # a Fraction prints as "p" or "p/q"


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_rational(s) -> Fraction:
    """A JSON integer, or a string of a sign, ASCII digits and "/" with ASCII
    digits, the sign and "/" optional; ValueError otherwise ("1e3", "1/0")."""
    if type(s) is int:
        return Fraction(s)
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        shown = repr(s) if isinstance(s, str) else type(s).__name__
        raise ValueError(f"a rational must be an integer or a string like '-3/4', not {shown}")
    num, den = match.groups()  # the Fraction of two ints: no second parse of s
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _json_object(obj, what: str, *required: str) -> dict:
    """``obj`` itself, or ValueError when it is not a JSON object or lacks
    one of the ``required`` fields, which the error names."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} field")
    return obj


def _json_list(obj, what: str) -> list:
    """``obj`` itself, or ValueError when it is not a JSON list."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON list, not {type(obj).__name__}")
    return obj


def _json_int(x, what: str) -> int:
    """A JSON integer, or a string of an optional sign and ASCII digits;
    ValueError naming ``what`` for anything else ("1_0", floats, booleans)."""
    if type(x) is int or isinstance(x, str) and _INTEGER.fullmatch(x):
        return int(x)
    shown = repr(x) if isinstance(x, str) else type(x).__name__
    raise ValueError(f"{what} must be an integer, not {shown}")


def _json_ints(obj, what: str, entry: str) -> tuple[int, ...]:
    """A JSON list of integers as one tuple, read entry by entry only if needed."""
    xs = _json_list(obj, what)
    return tuple(xs) if set(map(type, xs)) <= {int} else tuple(_json_int(x, entry) for x in xs)


def _json_str(x, what: str) -> str:
    """A JSON string, or ValueError for anything else."""
    if not isinstance(x, str):
        raise ValueError(f"{what} must be a string, not {type(x).__name__}")
    return x


def _json_rows(obj, what: str, parse) -> list[tuple]:
    """A JSON list of lists, each entry read by ``parse``."""
    return [tuple(parse(x) for x in _json_list(row, what))
            for row in _json_list(obj, what)]


def _integral(s) -> int:
    """A matrix entry, read as a rational ("4/2" reads as 2), or ValueError
    when it is not an integer: the only matrix the CLI reads is α."""
    x = parse_rational(s)
    if x.denominator != 1:
        raise ValueError("alpha must be an integer matrix")
    return x.numerator


def matrix_from_json(obj: dict) -> Matrix:
    """The integer ``Matrix`` of ``obj``; integrality is decided here, once."""
    _json_object(obj, "a matrix", "entries", "rows", "cols")
    m = Matrix(_json_rows(obj["entries"], "matrix entries", _integral))
    if m.rows != _json_int(obj["rows"], "rows") or m.cols != _json_int(obj["cols"], "cols"):
        raise ValueError("matrix shape does not match the declared size")
    return m


def _str_rows(vs) -> list[list[str]]:
    """Vectors of ints and Fractions as lists of strings, as ``rational_str``
    writes them (a Fraction prints as "p" or "p/q")."""
    return [[str(x) for x in v] for v in vs]


def cone_to_json(c: Cone, with_facets: bool = True) -> dict:
    out = {"ambient_rank": c.ambient_rank, "rays": _str_rows(c.rays),
           "lineality": _str_rows(c.lineality_basis)}
    if with_facets:
        out["facets"] = _str_rows(c.facets)
    return out


def fan_to_json(rank: int, normals, cones) -> str:
    """``dumps`` of the pointed cones of rank ``rank`` whose rays are the
    ``normals`` that each of ``cones``, a bytes, indexes, as ``cone_to_json``
    writes them with no facets: each normal is encoded once, and the
    entries are joined by index from those pieces."""
    texts = [dumps([str(x) for x in r]) for r in normals]
    # dumps escapes a NUL, so the one in its text is the slot's
    head, tail = splice({"ambient_rank": rank, "lineality": []}, rays="\0").split("\0")
    return _list_text([f"[{','.join(map(texts.__getitem__, c))}]" for c in cones], head, tail)


def cone_from_json(obj: dict) -> Cone:
    _json_object(obj, "a cone", "ambient_rank")
    rank = _json_int(obj["ambient_rank"], "ambient_rank")
    as_int = lambda x: _json_int(x, "a ray entry")
    gens = _json_rows(obj.get("rays", []), "rays", as_int)
    for v in _json_rows(obj.get("lineality", []), "lineality", as_int):
        gens.append(v)
        gens.append(tuple(-x for x in v))
    return Cone(rank, gens)


def polyhedron_to_json(p: LatticePolyhedron, with_vertices: bool = True) -> dict:
    q = p.canonicalize()
    out = {"ambient_rank": q.ambient_rank,
           "recession": cone_to_json(q.recession, with_facets=False)}
    if with_vertices:
        out["vertices"] = _str_rows(q.vertex_candidates)
    if not q.is_empty():
        rows = q.facet_rep + tuple((tuple(s * x for x in n), s * o)  # an equation as ± rows
                                   for n, o in q.hull_equations for s in (1, -1))
        out["facets"] = [{"normal": [str(x) for x in n], "offset": str(o)}
                         for n, o in rows]
    return out


def _vertex_entries(p: LatticePolyhedron) -> list[str]:
    """The text inside the brackets of each of p's vertex rows as ``dumps``
    writes it, such as '"1","-2/3"': one ``%`` per row, whose "%s" prints a
    Fraction as "p" or "p/q", as ``rational_str`` does."""
    row = ",".join(['"%s"'] * p.ambient_rank)
    return [row % v for v in p.canonicalize().vertex_candidates]


def _polyhedron_text(p: LatticePolyhedron, vertices: str) -> str:
    """``dumps(polyhedron_to_json(p))``, its vertices the text ``vertices``."""
    return splice(polyhedron_to_json(p, with_vertices=False), vertices=vertices)


def polyhedron_text(p: LatticePolyhedron) -> str:
    """``dumps(polyhedron_to_json(p))``, each vertex row encoded once as
    text, with no nested list through ``dumps``."""
    return _polyhedron_text(p, _list_text(_vertex_entries(p), "[", "]"))


def padded_polyhedra_text(p: LatticePolyhedron, padded: LatticePolyhedron) -> tuple[str, str]:
    """(``polyhedron_text(p)``, ``polyhedron_text(padded)``) for a ``padded``
    whose vertex rows are p's, (0; v; 0) for each v, in p's order, as
    ``degeneration.symmetric_polyhedra`` builds the resolution polyhedron from
    the permutohedron: each of p's rows is encoded once, and padded's row is
    spliced from its text."""
    entries = _vertex_entries(p)
    return (_polyhedron_text(p, _list_text(entries, "[", "]")),
            _polyhedron_text(padded, _list_text(entries, '["0",', ',"0"]')))


def polyhedron_from_json(obj: dict) -> LatticePolyhedron:
    _json_object(obj, "a polyhedron", "ambient_rank")
    rank = _json_int(obj["ambient_rank"], "ambient_rank")
    verts = _json_rows(obj.get("vertices", []), "vertices", parse_rational)
    rec = cone_from_json(obj["recession"]) if "recession" in obj else None
    return LatticePolyhedron(rank, verts, rec)


def group_to_json(g: FiniteAbelianGroup) -> dict:
    return {"invariant_factors": list(g.invariant_factors)}


def configuration_to_json(c: CycleConfiguration) -> dict:
    pts = []
    for p in c.points:
        pts.append({"component": p.component,
                    "root": rational_str(p.position.root),
                    "generic": list(p.position.generic),
                    "a1": p.a1_label,
                    "mult": p.multiplicity})
    return {"n": c.n, "I_t": list(c.I_t), "points": pts}


def configuration_from_json(obj: dict) -> CycleConfiguration:
    """The configuration of ``obj``, each record built once, its generic
    vector padded with zeros to the longest, as ``CycleConfiguration`` keeps it."""
    from .stabilizers import CycleConfiguration, PointRecord, UnitValue
    _json_object(obj, "a configuration", "n", "points")
    n = _json_int(obj["n"], "n")
    I_t = _json_ints(obj.get("I_t", []), "I_t", "an I_t entry")
    records = [_json_object(p, "a point record", "component")
               for p in _json_list(obj["points"], "points")]
    width = max((len(p["generic"]) for p in records if type(p.get("generic")) is list), default=0)
    pts = []
    for p in records:
        component = _json_int(p["component"], "component")
        root = parse_rational(p.get("root", "0"))
        generic = _json_ints(p.get("generic", []), "generic", "a generic entry")
        pts.append(PointRecord(component, UnitValue(root, generic + (0,) * (width - len(generic))),
                               _json_str(p.get("a1", ""), "a1"),
                               _json_int(p.get("mult", 1), "mult")))
    return CycleConfiguration(n=n, I_t=I_t, points=tuple(pts))


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


def splice(obj: dict, **texts: str) -> str:
    """``dumps`` of ``obj`` with ``texts`` added, each value JSON text as
    ``dumps`` writes it, spliced in as it is: a caller encodes a shared text
    once, with no knowledge of ``dumps``' separators or key order.  ``obj``
    must hold no ``None`` and no string with "null" in it (ValueError)."""
    pieces = dumps({**obj, **dict.fromkeys(texts)}).split("null")
    if len(pieces) != len(texts) + 1:
        raise ValueError("an object to splice into must hold no null")
    # dumps writes the texts' null placeholders in sorted key order
    return "".join(piece + texts[k] for piece, k in zip(pieces, sorted(texts))) + pieces[-1]


def _list_text(items: list[str], head: str, tail: str) -> str:
    """The JSON list of the texts head + x + tail, one per x in ``items``,
    with ``dumps``' separator."""
    return "[" + head + (tail + "," + head).join(items) + tail + "]" if items else "[]"
