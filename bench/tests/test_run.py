"""Smoke test of the benchmark harness at tiny shapes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO / "src"))

import run as bench  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

TINY = {
    "synth-random": bench.Workload(
        "synth-random", "tiny run",
        ("run", "--synthetic", "60,5,2", "--episodes", "3")),
    "wide-random": bench.Workload(
        "wide-random", "tiny random run",
        ("run", "--synthetic", "80,8,2", "--episodes", "1",
         "--behavior", "random", "--stop-threshold", "0")),
    "info-sweep": bench.Workload(
        "info-sweep", "tiny sweep",
        ("sweep", "--synthetic", "60,5,2", "--weights", "0,1,1",
         "--param", "stop-threshold", "--values", "0.0,0.5",
         "--episodes", "3"),
        threads=2),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "ROOT", REPO)
    monkeypatch.setattr(bench, "WORKLOADS", TINY)


def _run(capsys, *argv):
    assert bench.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_spec_matches_harness():
    assert list(SPEC["paths"]) == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(
        bench.RESULT_END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == bench.END_TO_END[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == bench.PER_LAYER[m["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    lines, result = _run(capsys, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    table = bench.PER_LAYER if trace else bench.END_TO_END
    text = "\n".join(lines[:-1])
    for name, unit in table.items():
        pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
        assert re.search(pattern, text, re.M), name
    if trace:
        assert any(line.startswith("  traffic {") for line in lines)


def test_all_runs_every_workload(tiny, capsys):
    lines, result = _run(capsys, "--workload", "all", "--seconds", "1")
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(
        f"{w}.{m['name']}" for w in TINY for m in SPEC["end_to_end"])
    for w in TINY:
        assert any(line.startswith(f"== {w}:") for line in lines)


def test_output_check_flags_altered_report(tiny, tmp_path):
    workload = TINY["synth-random"]
    work = tmp_path / "work"
    work.mkdir()
    runner = bench.Runner(workload, work)
    proc, payloads = runner.command(5)
    assert runner.failed == 0 and proc.code == 0
    out = work / "cmd-1"
    report = out / "report.json"
    original = report.read_text()

    # wall-time fields may differ between repeats
    timed = json.loads(original)
    timed["total_wall_ms"] += 1.0
    timed["curves"][0]["wall_ms"] += 1.0
    assert runner.same_reports("wall only", payloads, [timed])
    assert runner.failed == 0

    # any other field may not
    changed = json.loads(original)
    changed["best_eval"] += 1e-9
    assert not runner.same_reports("best_eval", payloads, [changed])
    assert runner.failed == 1

    # a report that disagrees with itself fails the output check
    changed = json.loads(original)
    changed["total_steps"] += 1
    report.write_text(json.dumps(changed))
    with pytest.raises(bench.CheckError, match="total_steps"):
        bench.check_outputs(workload, 5, out)

    # so does one that breaks the report schema
    changed = json.loads(original)
    del changed["best_subset"]
    report.write_text(json.dumps(changed))
    with pytest.raises(bench.CheckError):
        bench.check_outputs(workload, 5, out)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--workload", "synth-random"]) == 2
    out = capsys.readouterr()
    assert out.out == ""


def test_tracer_restores_every_probe():
    from tracer import Tracer, install_layer_probes

    from mcfs import cli, engine, rewards

    before = {(m, a): vars(m)[a] for m, a in [
        (engine, "_eval_reward"), (rewards, "pairwise_mi"),
        (engine._Trainer, "reward"), (cli, "_execute_run")]}
    tracer = Tracer()
    install_layer_probes(tracer)
    assert all(vars(m)[a] is not f for (m, a), f in before.items())
    assert tracer.restore() == []
    assert all(vars(m)[a] is f for (m, a), f in before.items())
