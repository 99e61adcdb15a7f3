"""Smoke test of the benchmark harness at toy sizes (about half a minute).

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "pins.json").read_text())


def _result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
            "--size", "tiny"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_computed_counters_repeat_exactly(capsys):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s" and m["unit"] != "points/s"]
    first = _result(capsys, "decide-stream", 1)["metrics"]
    second = _result(capsys, "decide-stream", 1)["metrics"]
    assert [first[k]["value"] for k in exact] == [second[k]["value"] for k in exact]
    assert first["biquad.local_type.per_place"]["value"] == 2.0


def test_every_call_is_scaled_by_the_reference_around_it():
    pins = PINS["prime-census"]
    ops = workloads.build_ops("prime-census", workloads.setup("prime-census"), 7, "tiny",
                              {"prime-census": pins})
    tally = workloads.run_pass(ops)
    assert len(tally.scaled) == len(tally.times) == len(ops)
    assert 2 <= len(tally.refs) <= len(ops) + 1
    scales = {round(s / t, 9) for s, t in zip(tally.scaled, tally.times)}
    pairs = {round(2 * workloads.REF_S / (a + b), 9) for a, b in zip(tally.refs, tally.refs[1:])}
    assert scales <= pairs


def _bump(rows: list) -> None:
    rows[-1][-1] += 1


CORRUPT = {
    "count-series": lambda pins: _bump(pins["count-series"]["tiny"]["integers"]),
    "prime-census": lambda pins: _bump(pins["prime-census"]["tiny"]["ideal_norms"]),
    "decide-stream": lambda pins: pins["decide-stream"]["local"]["13,17"].update(
        {"25": ["norm", 3]}),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_pin_is_reported_as_a_failure(workload):
    pins = copy.deepcopy(PINS)
    CORRUPT[workload](pins)
    result, detail = run.run(workload, 7, 0.1, 0, "tiny", pins=pins)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["errors"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "count-series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
