"""Smoke configuration of the benchmark: every workload at minimal size.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from tracing import leftover_wrappers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def expected_units(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_present(workload):
    result, report = run.run(workload, seed=3, seconds=0, trace=False, scale=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected_units(False)
    assert any(line.startswith("inputs ") and "sha256" in line for line in report)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_every_binding(workload):
    result, report = run.run(workload, seed=3, seconds=0, trace=True, scale=1)
    assert leftover_wrappers() == []
    modules = sys.modules
    assert modules["qconvenc.synthesis"].apply is modules["qconvenc.gates"].apply
    assert modules["qconvenc.cli"].synthesize is modules["qconvenc.synthesis"].synthesize
    assert modules["qconvenc.verify"].placement_bits is modules["qconvenc.stabilizer"].placement_bits
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name, unit in expected_units(True).items():
        assert got.get(name) == unit, name
    assert not any("NONDETERMINISTIC" in line for line in report)
    assert any(line.startswith("trace coverage") and line.endswith(" ok") for line in report)


def test_same_seed_same_inputs():
    _, first = run.run("synth-proper", seed=5, seconds=0, trace=False, scale=1)
    _, second = run.run("synth-proper", seed=5, seconds=0, trace=False, scale=1)
    digest = [line for line in first if line.startswith("inputs ")]
    assert digest and digest == [line for line in second if line.startswith("inputs ")]


def test_segments_sample_evenly_and_fall_back_on_neighbours():
    slots = run.segments(list(range(12)), 4)
    assert [slot[0] for slot in slots] == [1, 4, 7, 10]
    assert slots[0] == [1, 0, 2]


class FakeRunner:
    def __init__(self, outcomes):
        self.outcomes = outcomes

    def run(self, op, subprocess_mode):
        return self.outcomes[op.argv[1]]


def test_screen_falls_back_only_on_known_defects():
    ok = run.Outcome(1, False, False)
    defect = run.Outcome(1, True, False, "exit 4, expected 0", "reduction failed: not divisible\n")
    other = run.Outcome(1, True, False, "exit 2, expected 0", "parse error: bad\n")

    def make(name):
        return run.Input(name, "all", [run.Op("synth", ["synth", name], 0, run.no_check)])

    slots = [[make("a"), make("b")], [make("c"), make("d")], [make("e")]]
    outcomes = {"a": defect, "b": ok, "c": other, "d": ok, "e": defect}
    screened = run.screen(slots, FakeRunner(outcomes), False)
    # another failure keeps its input, so the timed loop counts it
    assert [i.name for i in screened.inputs] == ["b", "c"]
    assert (screened.tried, len(screened.defects)) == (4, 2)


def test_generator_matches_package_gate_action():
    from qconvenc.gates import Circuit, GateTemplate, apply_circuit
    from qconvenc.stabilizer import parse_stabilizer

    rng = random.Random(7)
    n, r = 4, 3
    for _ in range(20):
        templates = [corpus.random_template(rng, n, 2) for _ in range(10)]
        x = [[frozenset() for _ in range(n)] for _ in range(r)]
        z = [[frozenset({0}) if c == i else frozenset() for c in range(n)] for i in range(r)]
        for g in templates:
            corpus.apply_template(x, z, g)
        base = parse_stabilizer(corpus.format_code(n, [[frozenset()] * n] * r, [
            [frozenset({0}) if c == i else frozenset() for c in range(n)] for i in range(r)
        ]))
        circuit = Circuit(n, tuple(GateTemplate(g.kind, g.i, g.j, g.ell) for g in templates))
        assert parse_stabilizer(corpus.format_code(n, x, z)) == apply_circuit(base, circuit)


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
