"""The contract tool on its cheapest command: it records, a rerun on the
same code passes, and a tampered contract fails by name."""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import contract  # noqa: E402

CHEAP = "negative-rewards seed=3 threads=1"


@pytest.fixture(scope="module")
def cheap():
    [cmd] = [c for c in contract.commands() if c.name == CHEAP]
    return cmd


@pytest.fixture(scope="module")
def recorded(cheap):
    return contract.record([cheap])


def check(saved, cheap, capsys):
    code = contract.check(saved, [cheap])
    return code, capsys.readouterr().out


def tampered(recorded, change):
    saved = copy.deepcopy(recorded)
    change(saved)
    return saved


def test_list_reads_the_benchmark_workloads():
    names = [cmd.name for cmd in contract.commands()]
    for workload in contract.bench().WORKLOADS.values():
        for seed in contract.SEEDS:
            assert (f"{workload.name} seed={seed} threads={workload.threads}"
                    in names)
    assert len(set(names)) == len(names) and CHEAP in names


def test_records_every_output(recorded):
    assert recorded["toolchain"] == contract.toolchain()
    [entry] = recorded["commands"].values()
    assert entry["exit_code"] == 0
    assert set(entry["outputs"]) == {"report.json", "curves.csv", "stdout"}
    assert "$.best_eval" in entry["reports"]["report.json"]


def test_rerun_passes(recorded, cheap, capsys):
    code, out = check(recorded, cheap, capsys)
    assert code == 0, out
    assert f"ok       {CHEAP}" in out


def test_tampered_value_fails_naming_command_and_path(recorded, cheap,
                                                      capsys):
    def change(saved):
        entry = saved["commands"][CHEAP]
        entry["outputs"]["report.json"] = "0" * 64
        entry["reports"]["report.json"]["$.best_eval"] = "00000000"

    code, out = check(tampered(recorded, change), cheap, capsys)
    assert code == 1
    assert f"DIFFERS  {CHEAP}: report.json: $.best_eval" in out


def test_tampered_list_element_is_named_by_index(recorded, cheap, capsys):
    def change(saved):
        entry = saved["commands"][CHEAP]
        entry["outputs"]["report.json"] = "0" * 64
        digests = entry["reports"]["report.json"]
        curves = digests["$.curves[]"].split()
        curves[3] = "00000000"
        digests["$.curves[]"] = " ".join(curves)

    code, out = check(tampered(recorded, change), cheap, capsys)
    assert code == 1
    assert f"{CHEAP}: report.json: $.curves[3]" in out


def test_recorded_command_not_in_the_list_fails(recorded, cheap, capsys):
    dropped = "dropped-workload seed=0 threads=1"

    def change(saved):
        saved["commands"][dropped] = copy.deepcopy(saved["commands"][CHEAP])

    code, out = check(tampered(recorded, change), cheap, capsys)
    assert code == 1
    assert f"ok       {CHEAP}" in out
    assert f"DIFFERS  {dropped}: not run" in out
    assert "1 of 2 commands differ" in out


def test_other_toolchain_is_not_comparable(recorded, cheap, capsys):
    def change(saved):
        saved["toolchain"]["numpy"] = "0.0.0"

    code, out = check(tampered(recorded, change), cheap, capsys)
    assert code == 2
    assert "not comparable" in out


def test_first_difference():
    old = contract.value_digests({"a": 1, "b": [1, 2, 3], "c": {"d": 4}})
    assert contract.first_difference(old, old) is None
    for value, path in (
        ({"a": 1, "b": [1, 5, 3], "c": {"d": 4}}, "$.b[1]"),
        ({"a": 1, "b": [1, 2], "c": {"d": 4}}, "$.b[2]"),
        ({"a": 1, "b": [1, 2, 3], "c": {"d": 5}}, "$.c.d"),
        ({"a": 2, "b": [], "c": {}}, "$.a"),
        ({"a": 1, "b": [1, 2, 3], "c": {"d": 4}, "e": 0}, "$.e"),
    ):
        assert contract.first_difference(
            old, contract.value_digests(value)) == path
