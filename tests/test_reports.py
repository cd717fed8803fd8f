"""Report schema: the config and curves blocks follow the engine dataclasses."""

import copy
from dataclasses import fields
from typing import get_type_hints

import jsonschema
import pytest

from mcfs import cli, engine, reports
from mcfs.rewards import RewardWeights

CONFIG_FIELDS = [f.name for f in fields(engine.TrainConfig)]


@pytest.fixture(scope="module")
def payload():
    args = cli.build_parser().parse_args(
        ["run", "--synthetic", "80,5,2", "--seed", "3"]
    )
    ds, meta = cli._load_dataset(args)
    config = engine.TrainConfig(episodes=3, eval_trees=5, seed=3)
    return cli._execute_run(ds, meta, config)


def assert_invalid(report):
    with pytest.raises(jsonschema.ValidationError):
        reports.validate_report(report)


def test_run_report_validates(payload):
    reports.validate_report(payload)
    assert payload["schema_version"] == reports.SCHEMA_VERSION == 2


def test_config_block_rebuilds_the_run_config(payload):
    cfg = dict(payload["config"])
    cfg["weights"] = RewardWeights(**cfg["weights"])
    assert engine.TrainConfig(**cfg) == engine.TrainConfig(
        episodes=3, eval_trees=5, seed=3
    )


def test_schema_lists_the_dataclass_fields():
    props = reports.REPORT_SCHEMA["properties"]
    assert list(props["config"]["properties"]) == CONFIG_FIELDS
    assert props["config"]["required"] == CONFIG_FIELDS
    curve = props["curves"]["items"]
    assert tuple(curve["properties"]) == reports.CURVE_COLUMNS
    assert tuple(curve["required"]) == reports.CURVE_COLUMNS


def test_mode_enums_come_from_engine():
    props = reports.REPORT_SCHEMA["properties"]["config"]["properties"]
    for name, allowed in engine.MODES.items():
        assert props[name]["enum"] == list(allowed)


@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_missing_config_field_fails(payload, name):
    bad = copy.deepcopy(payload)
    del bad["config"][name]
    assert_invalid(bad)


@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_wrong_config_type_fails(payload, name):
    bad = copy.deepcopy(payload)
    value = bad["config"][name]
    bad["config"][name] = 1 if isinstance(value, str) else "1"
    assert_invalid(bad)


def test_integer_config_fields_reject_fractions(payload):
    hints = get_type_hints(engine.TrainConfig)
    ints = [name for name in CONFIG_FIELDS if hints[name] is int]
    assert "episodes" in ints
    for name in ints:
        bad = copy.deepcopy(payload)
        bad["config"][name] = 2.5
        assert_invalid(bad)


def test_unknown_mode_value_fails(payload):
    for name in engine.MODES:
        bad = copy.deepcopy(payload)
        bad["config"][name] = "unknown"
        assert_invalid(bad)


def test_unknown_config_key_fails(payload):
    bad = copy.deepcopy(payload)
    bad["config"]["extra"] = 1
    assert_invalid(bad)
    bad = copy.deepcopy(payload)
    bad["config"]["weights"]["w_extra"] = 0.5
    assert_invalid(bad)


def test_unknown_curve_key_fails(payload):
    bad = copy.deepcopy(payload)
    bad["curves"][0]["extra"] = 1
    assert_invalid(bad)


def test_minimums_kept(payload):
    bad = copy.deepcopy(payload)
    bad["config"]["episodes"] = 0
    assert_invalid(bad)
    for key in ("episode", "length"):
        bad = copy.deepcopy(payload)
        bad["curves"][0][key] = 0
        assert_invalid(bad)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: p.update(test_metrics=None), id="null_metrics"),
    pytest.param(lambda p: p.update(baselines=None), id="null_baselines"),
    pytest.param(lambda p: p.pop("dataset"), id="no_dataset"),
])
def test_always_written_blocks_required(payload, edit):
    # report_to_dict always writes these three from required arguments
    bad = copy.deepcopy(payload)
    edit(bad)
    assert_invalid(bad)


def test_version_1_report_fails(payload):
    old = copy.deepcopy(payload)
    old["schema_version"] = 1
    old["config"]["recalc_mode"] = "rejection_control"
    assert_invalid(old)
