"""Tests of the benchmark itself (not of toricgit).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Per-layer metric names as the benchmark's specification lists them.
SPEC_LAYER_METRICS = {
    "linalg.rank.calls", "linalg.rank.self_s", "linalg.matmul.calls",
    "linalg.matmul.self_s", "linalg.dot.calls", "linalg.dot.self_s", "linalg.self_s",
    *(f"dd.cone_from_inequalities.{s}"
      for s in ("calls", "self_s", "constraints_in", "rays_out")),
    *(f"dd.extreme_generators.{s}"
      for s in ("calls", "self_s", "candidates_in", "extreme_out", "yield")),
    "dd.self_s",
    "cones.Cone.canonical_form.calls", "cones.Cone.canonical_form.self_s",
    "cones.Cone.dual.calls", "cones.Cone.dual.self_s", "cones.image_cone.self_s",
    "cones.self_s",
    *(f"polyhedra.LatticePolyhedron.canonicalize.{s}"
      for s in ("calls", "self_s", "points_in", "vertices_out")),
    "polyhedra.affine_slice.calls", "polyhedra.affine_slice.self_s",
    "polyhedra.normal_fan.self_s", "polyhedra.Fan.init.self_s", "polyhedra.self_s",
    "git.support_constants.calls", "git.support_constants.self_s",
    "git.unstable_rays.self_s", "git.quotient_slice.calls", "git.quotient_slice.self_s",
    "git.quotient_polyhedron.self_s", "git.self_s",
    "degeneration.build_bundle.calls", "degeneration.build_bundle.wall_s",
    "degeneration.build_symmetric.calls", "degeneration.build_symmetric.wall_s",
    "degeneration.permutation_matrices.wall_s", "degeneration.self_s",
    *(f"degeneration.verify.{c}.wall_s" for c in tracer.VERIFY_CHECKS),
    "stabilizers.torus_stabilizer.self_s", "stabilizers.project_to_quotient.self_s",
    *(f"stabilizers.sym_stabilizers.{s}"
      for s in ("calls", "self_s", "stab_elems", "stab0_elems", "cosets")),
    "stabilizers.self_s",
    *(f"stab_backends.search_stabilizer.{s}"
      for s in ("calls", "self_s", "space", "found", "hit_ratio")),
    *(f"groups.abelian_invariant_factors_of_group.{s}"
      for s in ("calls", "self_s", "elements_in")),
    "groups.young_subgroup_of.self_s", "groups.cycle_notation.calls",
    "groups.cycle_notation.self_s", "groups.self_s",
    "jsonio.dumps.calls", "jsonio.dumps.self_s", "jsonio.dumps.bytes_out",
    "jsonio.polyhedron_to_json.self_s", "jsonio.cone_to_json.self_s", "jsonio.self_s",
    "cli.self_s", "trace_overhead_frac",
}
# End-to-end metrics every workload reports.
SPEC_END_TO_END = {"setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    t = tracer.Tracer()

    def leaf():
        clock.now += 4

    def inner():
        clock.now += 2
        leaf()
        leaf()

    def outer():
        clock.now += 1
        inner()
        clock.now += 8

    def countdown(k):
        clock.now += 1
        if k:
            countdown(k - 1)

    leaf = t.wrap("m.leaf", leaf)
    inner = t.wrap("m.inner", inner)
    outer = t.wrap("m.outer", outer)
    countdown = t.wrap("m.countdown", countdown)
    outer()
    countdown(2)
    snap = t.snapshot()
    assert snap["m.leaf"] == {"calls": 2, "self_s": 8, "wall_s": 8}
    assert snap["m.inner"] == {"calls": 1, "self_s": 2, "wall_s": 10}
    assert snap["m.outer"] == {"calls": 1, "self_s": 9, "wall_s": 19}
    # recursion: self time adds up, wall time counts the outermost call once
    assert snap["m.countdown"] == {"calls": 3, "self_s": 3, "wall_s": 3}
    assert tracer.layer_metrics({"linalg.a": {"self_s": 1.5}, "linalg.b": {"self_s": 2},
                                 "dd.c": {"self_s": 7}})["linalg.self_s"] == 3.5


def test_every_traced_name_is_wrapped():
    code = ("import tracer; t = tracer.Tracer(); t.install(); "
            "names = {k for k, s in tracer.METRICS.values() if s is not None}; "
            "names |= {k for k, _, _ in tracer.RATIOS.values()}; "
            "print(sorted(names - set(t.stats)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": f"{HERE}:{ROOT / 'src'}"}).stdout
    assert out.strip() == "[]"


def test_tail_latency_keeps_ten_samples_above():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (100, 3.0)
    assert run.tail_latency(range(19)) == (100, 18)
    for n in (20, 21, 28, 99, 450, 1800):
        xs = list(range(n))
        p, v = run.tail_latency(xs)
        assert p == 100 * (n - 10) // n >= 50
        assert sum(x > v for x in xs) >= 10


def test_metric_names_match_spec_and_benchmark_json():
    assert set(run.END_TO_END_UNITS) == SPEC_END_TO_END
    assert set(run.LAYER_METRICS) == SPEC_LAYER_METRICS
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == SPEC_END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {m: run.layer_unit(m) for m in SPEC_LAYER_METRICS}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for name in SPEC_END_TO_END | SPEC_LAYER_METRICS:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_verify_gate_trips_on_a_perturbed_line(monkeypatch):
    rc, text = workloads.run_cli(["verify", "--n", "2", "--all"])
    digests = dict(workloads.report_digest(line) for line in text.splitlines())
    monkeypatch.setitem(workloads.EXPECTED, "verify-n4", digests)
    assert workloads.verify_gate((rc, text)) is None
    # elapsed_ms is not part of the digest
    retimed = re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 1.0', text)
    assert workloads.verify_gate((rc, retimed)) is None
    lines = text.splitlines()
    rep = json.loads(lines[0])
    rep["witness"] = {"perturbed": True}
    perturbed = "\n".join([json.dumps(rep)] + lines[1:])
    assert workloads.verify_gate((rc, perturbed)) is not None
    assert workloads.verify_gate((rc, "\n".join(lines[1:]))) is not None
    assert workloads.verify_gate((1, text)) is not None


def test_build_gate_trips_on_a_perturbed_output(monkeypatch):
    rc, text = workloads.run_cli(["build", "--n", "2", "--object", "permutahedron"])
    monkeypatch.setitem(workloads.EXPECTED["build"], "symmetric6", workloads.sha256(text))
    gate = workloads.build_gate("symmetric6")
    assert gate((rc, text)) is None
    assert gate((rc, text.replace("1", "2", 1))) is not None
    assert gate((2, text)) is not None


def test_stab_gate_trips_on_perturbed_invariants(tmp_path):
    ops = workloads.setup_stab_large(5, str(tmp_path))
    by_label = {label: (call, gate) for label, call, gate in ops}
    for label in ("order6", "order9", "degenerate-4-4", "random-n8-0"):
        call, gate = by_label[label]
        rc, text = call()
        assert gate((rc, text)) is None, label
    call, gate = by_label["order6"]
    rc, text = call()
    rep = json.loads(text)
    for key, value in (("stab0_blocks", [[1, 2], [3, 4]]), ("comparison", "FAIL"),
                       ("stab_order", 12), ("torus", {"invariant_factors": [2]})):
        assert gate((rc, json.dumps({**rep, key: value}))) is not None, key
    assert gate((1, text)) is not None


def test_fuzz_gate_trips_on_a_failed_comparison():
    label, call, gate = workloads.setup_stab_fuzz(3, None)[0]
    rep = call()
    assert gate(rep) is None
    assert gate(dataclasses.replace(rep, passed=False)) is not None
    assert gate(dataclasses.replace(rep, stab_order=rep.stab_order + 1)) is not None


def test_speed_probe_averages_the_samples_during_an_operation():
    speed = worker.SpeedProbe()
    speed.samples = [(1.0, 2e-3), (2.0, 4e-3), (3.0, 6e-3), (9.0, 1e-3)]
    assert speed.around(1.5, 3.5) == pytest.approx(5e-3)
    assert speed.around(3.2, 3.3) == 6e-3       # none inside: the nearest one
    assert speed.around(8.5, 8.6) == 1e-3
    w = {"op_s": [2.0, 1.0], "op_probe_s": [2 * run.REFERENCE_PROBE_S,
                                             run.REFERENCE_PROBE_S]}
    assert run.normalised(w) == pytest.approx([1.0, 1.0])


def test_random_configurations_keep_the_stab_profile():
    import random
    from collections import Counter

    def profile(seed):
        cs = workloads.random_configurations(random.Random(seed), 6, 60)
        assert len(cs) == 60
        return Counter(workloads.stab_order(c) for c in cs), cs
    (p1, c1), (p2, c2) = profile(1), profile(2)
    assert p1 == p2
    assert c1 != c2
    for c in workloads.random_configurations(random.Random(3), 8, 8, 120):
        assert workloads.stab_order(c) <= 120


def test_stab_large_inputs_follow_the_seed(tmp_path):
    def written(seed):
        d = tmp_path / str(seed)
        d.mkdir(exist_ok=True)
        workloads.setup_stab_large(seed, str(d))
        return {p.name: p.read_text() for p in d.iterdir()}
    first, again, other = written(7), written(7), written(8)
    assert first == again
    assert first["order9.json"] == other["order9.json"]
    assert first["random-n9-0.json"] != other["random-n9-0.json"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_the_program(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stab-fuzz",
                           "--seed", "1", "--seconds", "1", "--trace", trace],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
