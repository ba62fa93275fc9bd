"""The shipped package holds only code that the package itself runs.

Every public top-level function in ``src/toricgit`` must be loaded, as a
name or an attribute, and every public method as an attribute, somewhere in
the package outside its own definition.  Code that only tests call belongs
in ``tests/oracles.py``.  Every field of a record in the package, a
dataclass or a ``NamedTuple``, must be read by the package.  Every name a
module of the package or of the tests imports must be used in it.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "toricgit"

# Public names the package keeps although nothing in it calls them, each
# with the reason it stays.
KEPT = {
    "young_subgroup_of": "perfbench/tracer.py reports groups.young_subgroup_of "
                         "in METRICS, and test_every_traced_name_is_wrapped "
                         "needs it to exist",
    "resolve_backend": "perfbench/worker.py records stab_backends.resolve_backend() "
                       "in its environment report",
    "permutation_matrices": "perfbench/tracer.py reports degeneration.permutation_matrices "
                            "in METRICS, and test_every_traced_name_is_wrapped needs it to "
                            "exist; only symmetric_orbit, for build, walks S_n, and it "
                            "moves the chamber by the generators instead",
    "torus_stabilizer": "perfbench/tracer.py reports stabilizers.torus_stabilizer in "
                        "METRICS; toricgit stab now reads verify_comparison's one pass",
    "project_to_quotient": "perfbench/tracer.py reports stabilizers.project_to_quotient "
                           "in METRICS; toricgit stab now reads verify_comparison's one "
                           "pass",
    "normal_fan": "perfbench/tracer.py reports polyhedra.normal_fan (and "
                  "polyhedra.Fan.__init__) in METRICS; verify decides the normal fan "
                  "at the chamber, and the tests keep this n!-wide route as an oracle",
}


def _definitions(trees):
    """(module, qualified name, node) of every public top-level function and
    every public method of a top-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield module, node.name, node
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                            not m.name.startswith("_"):
                        yield module, f"{node.name}.{m.name}", m


def _loads(nodes, names: bool) -> Counter:
    """How often each identifier is loaded as an ast.Attribute and, with
    ``names``, as an ast.Name.  A store such as ``ok = ...`` is no use of a
    function ``ok``, and a local ``ok`` is no use of a method ``ok``."""
    out = Counter()
    for n in nodes:
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif names and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
    return out


def _unused(trees) -> tuple[list[str], set[str]]:
    """The public names nothing else in ``trees`` uses, and the KEPT ones
    among them.  A method counts as used only through attribute loads, a
    function through name or attribute loads."""
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    attributes, loads = _loads(nodes, False), _loads(nodes, True)
    unused = []
    kept = set()
    for module, qualname, node in _definitions(trees):
        method, name = "." in qualname, qualname.rsplit(".", 1)[-1]
        if (attributes if method else loads)[name] > _loads(ast.walk(node), not method)[name]:
            continue
        if name in KEPT:
            kept.add(name)
            continue
        unused.append(f"{module}.{qualname}")
    return unused, kept


def test_every_public_name_is_used_by_the_package():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    unused, kept = _unused(trees)
    assert unused == [], f"move these to tests/oracles.py or delete them: {unused}"
    # an exception that the package starts to use again no longer needs listing
    assert kept == set(KEPT)


def test_a_local_variable_is_no_use_of_a_method():
    # ``check`` loads a local ``ok`` and stores a local ``total``: neither is
    # a use of the method ``R.ok`` or of the function ``total``
    tree = ast.parse("class R:\n    def ok(self):\n        return 1\n"
                     "def total():\n    return 0\n"
                     "def check():\n    ok = total = 2\n    return ok\n")
    assert _unused({"m": tree})[0] == ["m.R.ok", "m.total", "m.check"]


def _name(node) -> str | None:
    """The identifier of a Name, or the last one of an Attribute."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated with ``@dataclass`` or derived from ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(_name(d) == "dataclass" for d in decorators) or \
        any(_name(b) == "NamedTuple" for b in node.bases)


def test_a_named_tuple_is_a_record():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n"
                     "class B(typing.NamedTuple):\n    y: int\n"
                     "class C(tuple):\n    z: int\n")
    assert [_is_record(c) for c in tree.body] == [True, True, False]


def test_every_dataclass_field_is_read_by_the_package():
    # a field that no package code reads as an attribute is data the
    # builders keep for the tests only; the tests rebuild it instead
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
    unread = [f"{module}.{node.name}.{f.target.id}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for f in node.body
              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
              and f.target.id not in attributes]
    assert unread == [], f"drop these fields or read them in the package: {unread}"


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}: {a.asname or a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in names]
    assert unused == [], f"delete these unused imports: {unused}"


def _stripped_checks(tree) -> list[int]:
    """The lines of the assert statements and of the reads of ``__debug__``:
    the checks that ``python -O`` strips or turns off."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Assert) or isinstance(n, ast.Name) and n.id == "__debug__")


def test_a_debug_read_is_a_stripped_check():
    tree = ast.parse("def f(x):\n    if __debug__:\n        g(x)\n    assert x\n"
                     "    return x.__debug__\n")
    assert _stripped_checks(tree) == [2, 4]


def test_checked_modules_hold_no_assert_statement():
    # every module of the package checks theorem-shaped facts or guards its
    # input; python -O strips an assert statement and sets __debug__ to
    # False, so each check is an explicit raise that no flag switches off
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}" for line in _stripped_checks(tree)]
    assert found == [], f"make these explicit raises: {found}"
