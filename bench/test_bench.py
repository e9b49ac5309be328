"""The benchmark's own tests: run with ``python3 -m pytest bench``.

They check that the closed-form references agree with the brute-force
reference semantics, that the ladder's query texts parse to the ASTs the
benchmark built them from, and that every workload runs end to end at a
tiny size.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from tcer.parser import parse_query  # noqa: E402


@pytest.mark.parametrize("seed", range(20))
def test_phi2_closed_form_matches_oracle(seed):
    rng = random.Random(seed)
    phi = parse_query(W.PHI2_TEXT)
    events = W.sensor_stream(rng, 12)
    assert W._normal(W.phi2_matches(events)) == W._normal(W.oracle_matches(phi, events))
    for spell in W.heat_spells(rng, per_level=1)[:12]:
        if len(spell) <= 12:
            spell = W.rebase(spell)
            expected = W.phi2_matches(spell)
            assert len(expected) == 1
            assert W._normal(expected) == W._normal(W.oracle_matches(phi, spell))


def test_phi2_closed_form_sees_gaps_and_humidity():
    dry, wet = {"hum": 2000}, {"hum": 4000}
    t = {"temp": 4000}
    ok = [("H", dry, 100), ("T", t, 200), ("T", t, 300), ("H", wet, 400)]
    gap = [("H", dry, 100), ("T", t, 201), ("H", wet, 250)]
    borderline = [("H", {"hum": 3000}, 100), ("T", t, 150), ("H", wet, 200)]
    phi = parse_query(W.PHI2_TEXT)
    for events in (ok, gap, borderline):
        assert W._normal(W.phi2_matches(events)) == W._normal(W.oracle_matches(phi, events))
    assert W.phi2_matches(ok) and not W.phi2_matches(gap) and not W.phi2_matches(borderline)


@pytest.mark.parametrize("seed", range(20))
def test_fanout_closed_form_matches_oracle(seed):
    rng = random.Random(seed)
    for window in (1, 3, W.FANOUT_WINDOW):
        text = W.fanout_text(window)
        events = W.fanout_stream(rng, 12)
        expected = W.fanout_matches(events, window)
        assert W._normal(expected) == W._normal(W.oracle_matches(parse_query(text), events))


def test_ladder_texts_parse_to_the_generated_asts():
    rng = random.Random(0)
    for _ in range(300):
        text, phi = W.random_query(rng, rng.randint(1, 5))
        assert parse_query(text) == phi, text
    assert len(W.ladder_queries()) == 2 + len(W.scaled_family()) + W.LADDER_RANDOM_QUERIES


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = W.write_workload("fanout_enum", 3, tmp_path / "a", scale=0.05)
    b = W.write_workload("fanout_enum", 3, tmp_path / "b", scale=0.05)
    c = W.write_workload("fanout_enum", 4, tmp_path / "c", scale=0.05)
    read = lambda gen: Path(gen["library"][0].stream).read_text()  # noqa: E731
    assert read(a) == read(b) != read(c)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "1", "--scale", "0.05", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    for workload in W.WORKLOADS:
        for name in names:
            value = result["metrics"][f"{workload}.{name}"]["value"]
            assert isinstance(value, (int, float)), (workload, name, value)
        if trace == "0":
            assert all(result["metrics"][f"{workload}.{n}"]["value"] > 0 for n in names)
    # the known defects are measured, not hidden
    heat = json.loads((ROOT / ".bench_run" / f"BENCH_heat_spells{'.trace' if trace == '1' else ''}.json").read_text())
    assert heat["failures_by_type"].get("RecursionError", 0) > 0
    assert heat["shortest_failed_match"] is not None
    assert result["failed"] > 0
    ladder = json.loads((ROOT / ".bench_run" / f"BENCH_query_ladder{'.trace' if trace == '1' else ''}.json").read_text())
    assert ladder["metrics"]["refused_ratio"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sensor_phi2", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
