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
verify cap lifted from 6 on a copy.  The ``quotient`` digests were recorded on
the code that sliced P in ambient coordinates and solved one system per
vertex for its ker(α) coordinates.  To record them again after a deliberate
output change, print ``build_digest``, ``verify_digest`` and
``quotient_digest`` for the parameters below and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import pytest

from toricgit import jsonio
from toricgit.cli import main
from toricgit.degeneration import build_bundle, product_linearization, product_polyhedron

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
    ("split not applicable", 0): "dca5a23945a9bde5e382f82be3f9f8ea1417ca5ea73abd79f5a225e7f33d251c",
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
    product linearization, and the empty-square and split-not-applicable
    inputs of the CLI tests."""
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


@pytest.mark.parametrize("n", sorted(VERIFY_DIGESTS))
def test_verify_report_unchanged(n):
    assert verify_digest(n) == VERIFY_DIGESTS[n]


@pytest.mark.parametrize("name,n", sorted(QUOTIENT_DIGESTS))
def test_quotient_output_unchanged(tmp_path, name, n):
    assert quotient_digest(tmp_path, name, n) == QUOTIENT_DIGESTS[name, n]
