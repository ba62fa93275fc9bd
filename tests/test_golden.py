"""Golden outputs: the sha256 of every small ``build`` payload and of the
``verify --all`` report lines pin the program's deterministic output, so a
refactor or an optimisation that changes a single byte fails here.

The digests were recorded before the integer-first ``Matrix``, the n = 5
verify digest before polyhedra were read off their homogenization, the n = 6
build digests before the orbit fan was transported from the chamber, the
product n = 5 digest (the 7776-point canonical form) before integral
coordinates were kept as ``int``, and the n = 6 verify digest on the code
that still listed the 7^6 chart vertices in the bundle and sliced each cube
block by a double description.  The n = 7 verify digest was recorded on
the code that still enumerated P_b's vertices in ``Fraction``, with the
verify cap lifted from 6 on a copy, and the n = 8 one with the cap lifted
from 7 on a copy, before the cap rose to 8.  The n = 9 verify digest was
recorded with the cap lifted from 8 on a copy of the code whose symmetric
model still walked and stored the n! orbit, and the same digest came out
when the model became its base point and certificate and the cap rose to
9.  The n = 10 verify digest was recorded twice, with the same result: with
the cap lifted from 9 on a copy of the code whose bundle still took the
product cone by a double description and each facet offset from a dense
Lᵀv, and on the code that reads both off the display check and
``column_dots``, when the cap rose to 10.  The n = 11 and n = 12 verify
digests were recorded with the cap lifted from 10 on a copy of the code that
still took each product ray's facet offset and margin on its own, and the
same digests came out when both were taken once per S_n-orbit of rays and
the cap rose to 12.  The ``quotient`` digests were
recorded on the code that sliced P in ambient coordinates and solved one
system per vertex for its ker(α) coordinates, except the "false split" one,
recorded when ``split_quotient`` came to decide the split by Q's vertices:
the code before printed P_b = {0} and σ̄^∨ = {0} for its Q = [0, 3], a
split whose sum is not Q, where it now prints null.  The ``stab`` digests were
recorded on the code whose stabilizer search still filled the whole n×n
table of admissible images before it started.  To record them again after
a deliberate output change, print ``build_digest``, ``verify_digest``,
``quotient_digest`` and ``stab_digest`` for the parameters below and say
why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from toricgit import degeneration, jsonio
from toricgit.cli import main
from toricgit.degeneration import build_bundle, product_linearization, product_polyhedron
from toricgit.stabilizers import (CycleConfiguration, PointRecord, UnitValue,
                                  random_configuration)

BUILD_DIGESTS = {
    ("expanded", 1): "3f04313bea67cebbb29a6a6846a9351976eda5d7b9cdee930aa96470d69d7d99",
    ("expanded", 2): "ce50b063cc3cbd6f8c3184fc46d0e87e846290cbd7c630dbefb9c7b4b1b7d428",
    ("expanded", 3): "ed2c067d3cec7c5d6417b9c09e3e284fd810230c9baf7d6a49c1726bd5f86d54",
    ("expanded", 4): "e2df36086f350638022083e5d8dbc5681bfe70b4be1ffd73d4d64e6a5980f637",
    ("expanded", 5): "168881f72289f3fff27b75bdfb366d7ea8346bbe142ece18bc504c3e12a826f6",
    ("permutahedron", 2): "cd8de274e7881d1c6ad5f9727b0ecd4075aff75d367f6def56bcc1636431ff0d",
    ("permutahedron", 3): "89c220e24210a608384a7e8d2815ef8e4b8aa8eb3acc784d961a9cd4ce0a4d2b",
    ("permutahedron", 4): "6c1207bf4efc12c2056758f3f5546abf73ec3b22cbab9bd4732451a51b6ee664",
    ("permutahedron", 5): "7409eeb72d1892d2fcb3aae2243d78c1b0ad103ac459245d4f2d46323cba7b2a",
    ("permutahedron", 6): "c33b1e6cefaf13b40a161c4dfe197b0948870036b30de91016e5faf01d32051a",
    ("product", 1): "3f04313bea67cebbb29a6a6846a9351976eda5d7b9cdee930aa96470d69d7d99",
    ("product", 2): "3fda58f70515776c9401ab7b2eaa2e32d688fefb6cea1b540d283f81620d284c",
    ("product", 3): "44e48380f4937c7f82b3123ce1d8c543fe9981da15b6f6e8d08564db72d35ad3",
    ("product", 4): "456d10933a2de5813231423cbec1c22224269d34de8c034e9ffaff4903481d29",
    ("product", 5): "3e0bf254007017f630f8adee36bb5a8bd0ff0d6f588f5f80ec491557f19ebc81",
    ("symmetric", 2): "6cd9c932987cd30d5383b568300f51651efe11e3aff0ba009580537892cc2816",
    ("symmetric", 3): "a7804011c75b73166a7dcea9de5963a887e266043834b2655f8be1ebef973db8",
    ("symmetric", 4): "c644e438fd257622ed46543e64b8361e214e23da461e11d7d0f8a55a0604b560",
    ("symmetric", 5): "de430c52c7051a6d605c74d50c2da66ea1ec6f2bfd1d87720011248505802f89",
    ("symmetric", 6): "d44128f24add3138138ce73eb030452df37c425f4f539c2470cdd3c7f8235c8b",
}

VERIFY_DIGESTS = {
    1: "24f96be8f709e85193afafbd3aa173a11a0c027770554db2058eb479eeeb34f7",
    2: "55f464c13f7f6ff223a0999edecacecbe9484efbea9984a813ddfa7dcd4f6b1c",
    3: "5542a752e69d94d51f20aedac232c9aa970262599e0a06ccccf86ced002a9902",
    4: "2f95543aeae06ad1fcae6fe0b2744c79a5bdad26fb81e0872d6d88f6866da2a7",
    5: "e173cf028842ac314dfad0c2e810410bd64e8f43e17083bf5cb7c713c0d41879",
    6: "7446743177d01c7f416df2d422d197b440b7a3086a791c17b265313657bcd1b4",
    7: "7f4a5a0877796dd53d4ffd4ba179703feb176fe3074cec1fbe186d45f36a19ff",
    8: "ff34dea85e356edc3c7846562251dd06c1dcc64720e7c9bdc589c6e2907484bb",
    9: "7b9d17d37c46dda26ff9f60b9fb500af6e0fe87f02de84a687e14ea6000459f4",
    10: "fb04ae04d2b219728c039fa4915305ae94d2e8ef5b54bc0e61b7f8404a9ad407",
    11: "fda19bec1da6eda644f0186391a6ba28934ab37429e3b4375745fd951e609f1e",
    12: "f869705b68b62ae99c45719719a2d456861aea539c2c5f56291e89a6a79ffe30",
}

QUOTIENT_DIGESTS = {
    ("expanded", 1): "3738e8c99023ce87c606ea2d4a81e16b0b707f9bb5dd14aec3ac871c9ef72312",
    ("expanded", 2): "ed51a952813073a971d966870486c10eda0b0f2e7fec52599e696998ceca1723",
    ("expanded", 3): "bea4e9cc2dba0895aa2a9788272f1c6af3587074a014dda0abec04487ab637a3",
    ("expanded", 4): "9a969ee62ed65221d0cdd78f7dc5a9b3c5bf68fc8f86c48c9bfa5e9aa98a4b1c",
    ("expanded", 5): "e71227c871c382d2af325c9149f21813cb7f2705ee9c3d88365176aabe92b924",
    ("product", 1): "3738e8c99023ce87c606ea2d4a81e16b0b707f9bb5dd14aec3ac871c9ef72312",
    ("product", 2): "7ba37f17b838ef4c3e822a3149e2ffdd1f26e39f62cabfc44c2f22aed1d62113",
    ("product", 3): "635b51c8be57e1c7edc745521f42568e9463c7b3f7af31b3067cb892b918c977",
    ("empty square", 0): "1053e6abfa8f92ed24086add87bff4efdcdd6abc2389bfa869df6a000d0b1514",
    ("false split", 0): "a2f9468f67d8568c2d5ee5ffa804f7a569ce5580ee7e7b1998a7f520c3f8065f",
    ("split not applicable", 0): "dca5a23945a9bde5e382f82be3f9f8ea1417ca5ea73abd79f5a225e7f33d251c",
}

STAB_DIGESTS = {
    ("order 9", 0): "4e7da09f8895cff1f0f554cc64f9899c4d3d0e940c24003be75dfb6c5db7923b",
    ("order 6", 0): "158afefcc10345706dfdf446bde900476a8d506353d360d831b85d3f81dd25ed",
    ("cyclic 6", 0): "c27471f9b8d1bb9e3e82b4f650c6637b9b2083582b44f3487463c7d22ee8a5e8",
    ("fiber", (8,)): "e468fdef3c7ec7e929f9cedb0a7c7fcf3cc2d86dc47da3733dff9514e4f3a81c",
    ("fiber", (7, 1)): "a48114a2c1d506c5cbe54bfd1be947544b34ebb9fdc052d38386e09320dc6d6a",
    ("fiber", (4, 4)): "ab56cb192b2f15316e8d24fdaa812537fa38ce96ee475fc5e64cb8d465885f96",
    ("fiber", (5, 4)): "48aed0007b246d53651a55018f09ace15812941b4334e46a79bc6a8360df8b58",
    ("random n=8", 0): "fc056ad67b9f4d24a44c25a7ecc6ca0dc5cf4129b57c80cac9399a57503ef0a5",
    ("random n=8", 1): "c7ab590f74ec738186a5da1c5f2961c64f667e6caea145cf89c1a2904c9923b6",
    ("random n=8", 2): "97506fc9e8d941828cc6502ae9ebad7e11c224396349b0bf6dd94507d926cebc",
    ("random n=8", 3): "707631908c671c066bca7177108d8fe8a982f5a00425eb20ecf5d42b1c8f8b72",
    ("random n=9", 0): "5595160b1f921ee23f691170ffa0a078cb33dc50320b6a0c6a428f7089e6880a",
    ("random n=9", 1): "2a3d3028598959352bb3dabc02fae967a8ed66503e0af905a79ed123773cf28b",
    ("random n=9", 2): "a9f9d9e5c1e75ed32a96e2b5ea5f4b63c2e8e2f51cd88c1c8ad62d1ad02112a9",
    ("random n=9", 3): "5c9530effaa73882dd26e623b7472fd0d568216e807fd1c1afa2be6e0c8b4463",
}


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0, err.getvalue()
    return out.getvalue()


def build_digest(obj: str, n: int) -> str:
    text = _run(["build", "--n", str(n), "--object", obj])
    return hashlib.sha256(text.encode()).hexdigest()


def verify_digest(n: int) -> str:
    """Digest of the ``verify --n n --all`` report lines, ``elapsed_ms`` removed."""
    lines = []
    for line in _run(["verify", "--n", str(n), "--all"]).splitlines():
        rep = json.loads(line)
        rep.pop("elapsed_ms")
        lines.append(json.dumps(rep, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def quotient_inputs(name: str, n: int) -> tuple[dict, dict, str]:
    """(polyhedron JSON, alpha JSON, b) of a ``toricgit quotient`` run: the
    expanded family with its own (alpha, b), the product polyhedron with the
    product linearization, and the empty-square, split-not-applicable and
    false-split inputs of the CLI tests."""
    if name == "expanded":
        poly = json.loads(_run(["build", "--n", str(n), "--object", "expanded"]))
        lin = build_bundle(n).lin_family
    elif name == "product":
        poly = jsonio.polyhedron_to_json(product_polyhedron(n))
        lin = product_linearization(n)
    elif name == "empty square":
        return ({"ambient_rank": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
                 "recession": {"ambient_rank": 2, "rays": [], "lineality": []}},
                {"rows": 1, "cols": 2, "entries": [["1", "0"]]}, "-5")
    elif name == "false split":
        return ({"ambient_rank": 2, "vertices": [["0", "0"], ["0", "4"]],
                 "recession": {"ambient_rank": 2, "rays": [["1", "1"]], "lineality": []}},
                {"rows": 1, "cols": 2, "entries": [["0", "1"]]}, "-3")
    else:
        return ({"ambient_rank": 2, "vertices": [["0", "0"]],
                 "recession": {"ambient_rank": 2, "rays": [["1", "0"], ["0", "1"]],
                               "lineality": []}},
                {"rows": 1, "cols": 2, "entries": [["1", "1"]]}, "-3")
    alpha = {"rows": lin.alpha.rows, "cols": lin.alpha.cols,
             "entries": [[jsonio.rational_str(x) for x in r] for r in lin.alpha.entries]}
    return poly, alpha, ",".join(jsonio.rational_str(x) for x in lin.b)


def quotient_digest(tmp_path, name: str, n: int) -> str:
    poly, alpha, b = quotient_inputs(name, n)
    ppath, apath = tmp_path / "poly.json", tmp_path / "alpha.json"
    ppath.write_text(json.dumps(poly))
    apath.write_text(json.dumps(alpha))
    text = _run(["quotient", str(ppath), str(apath), b])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("obj,n", sorted(BUILD_DIGESTS))
def test_build_output_unchanged(obj, n):
    assert build_digest(obj, n) == BUILD_DIGESTS[obj, n]


def test_verify_digests_hold_with_the_walk_forbidden(monkeypatch):
    # verify keeps no n! orbit: with the Cayley walk forbidden and every
    # model built afresh, each verify digest holds (run first, so that the
    # digests below reuse the models it builds)
    def forbidden(*args):
        raise AssertionError("verify walked S_n")

    monkeypatch.setattr(degeneration, "_cayley_walk", forbidden)
    degeneration._symmetric.cache_clear()
    degeneration._bundle.cache_clear()
    for n in sorted(VERIFY_DIGESTS):
        assert verify_digest(n) == VERIFY_DIGESTS[n], n


@pytest.mark.parametrize("n", sorted(VERIFY_DIGESTS))
def test_verify_report_unchanged(n):
    assert verify_digest(n) == VERIFY_DIGESTS[n]


@pytest.mark.parametrize("name,n", sorted(QUOTIENT_DIGESTS))
def test_quotient_output_unchanged(tmp_path, name, n):
    assert quotient_digest(tmp_path, name, n) == QUOTIENT_DIGESTS[name, n]


def stab_configuration(name: str, arg: int) -> CycleConfiguration:
    """The worked examples of |Stab| = 9 and of quotient Z/3 and the cyclic
    one with shift orders 2 and 3, as CI writes them; the one-component
    degenerate fiber of the multiplicities ``arg``; or draw ``arg`` of
    ``random_configuration`` at n from ``random.Random(n)``."""
    if name == "order 9":
        pts = [PointRecord(comp, UnitValue(Fraction(j, 3), gen), label, 1)
               for comp, gen, label in [(1, (1, 0, 0), "a"), (1, (0, 1, 0), "b"),
                                        (2, (0, 0, 1), "c")]
               for j in range(3)]
        return CycleConfiguration(n=9, I_t=(1, 7, 10), points=tuple(pts))
    if name == "order 6":
        pts = [PointRecord(1, UnitValue(Fraction(j, 3), (1,)), "a", 2) for j in range(3)]
        return CycleConfiguration(n=6, I_t=(1, 7), points=tuple(pts))
    if name == "cyclic 6":
        pts = [PointRecord(comp, UnitValue(Fraction(j, r), gen), "a", 1)
               for comp, r, gen in [(1, 2, (1, 0)), (2, 3, (0, 1))] for j in range(r)]
        return CycleConfiguration(n=5, I_t=(1, 3, 6), points=tuple(pts))
    if name == "fiber":
        pts = tuple(PointRecord(0, UnitValue(0, tuple(int(i == j) for j in range(len(arg)))),
                                "a", m) for i, m in enumerate(arg))
        return CycleConfiguration(n=sum(arg), I_t=(), points=pts)
    n = int(name.split("=")[1])
    rng = random.Random(n)
    for _ in range(arg):
        random_configuration(n, rng)
    return random_configuration(n, rng)


def stab_digest(tmp_path, name: str, arg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(jsonio.configuration_to_json(stab_configuration(name, arg))))
    return hashlib.sha256(_run(["stab", str(path)]).encode()).hexdigest()


@pytest.mark.parametrize("name,arg", list(STAB_DIGESTS))
def test_stab_output_unchanged(tmp_path, name, arg):
    assert stab_digest(tmp_path, name, arg) == STAB_DIGESTS[name, arg]
