"""Report schema: the config, curves and metrics blocks follow their
dataclasses."""

import copy
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import jsonschema
import pytest

import mcfs
from mcfs import cli, engine, forest, reports
from mcfs.rewards import RewardWeights
from support import run_payload

CONFIG_FIELDS = [f.name for f in fields(engine.TrainConfig)]


@pytest.fixture(scope="module")
def payload():
    args = cli.build_parser().parse_args(
        ["run", "--synthetic", "80,5,2", "--seed", "3"]
    )
    ds, meta = cli._load_dataset(args)
    config = engine.TrainConfig(episodes=3, eval_trees=5, seed=3)
    return run_payload(ds, meta, config)


def assert_invalid(report):
    with pytest.raises(jsonschema.ValidationError):
        reports.validate_report(report)


def test_run_report_validates(payload):
    reports.validate_report(payload)
    assert payload["schema_version"] == reports.SCHEMA_VERSION == 3


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
    metric_fields = [f.name for f in fields(forest.MetricReport)]
    for metrics in (props["test_metrics"],
                    props["baselines"]["additionalProperties"]["properties"]
                    ["metrics"]):
        assert list(metrics["properties"]) == metric_fields
        assert metrics["required"] == metric_fields


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


def test_version_2_report_fails_to_load(payload, tmp_path):
    # v2 reports carry config.state_mode, which v3 dropped; the field is
    # rejected on its own too, not only through the version
    old = copy.deepcopy(payload)
    old["config"]["state_mode"] = "meta"
    path = tmp_path / "report.json"
    for version in (2, reports.SCHEMA_VERSION):
        old["schema_version"] = version
        path.write_text(json.dumps(old))
        with pytest.raises(jsonschema.ValidationError):
            reports.load_report(path)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: p["curves"][0].update(loss=float("nan")),
                 id="nan_loss"),
    pytest.param(lambda p: p.update(best_eval=float("inf")),
                 id="inf_best_eval"),
])
def test_non_finite_numbers_fail(payload, edit):
    # json.dumps would write these as bare NaN or Infinity, which is not JSON
    bad = copy.deepcopy(payload)
    edit(bad)
    assert_invalid(bad)


def test_non_finite_free_form_value_is_not_written(payload, tmp_path):
    # the dataset block admits extra keys, which the schema does not type
    bad = copy.deepcopy(payload)
    bad["dataset"]["scale"] = float("nan")
    with pytest.raises(ValueError):
        reports.write_report_files(bad, tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_schema_meets_its_meta_schema():
    # REPORT_SCHEMA is a constant, so it is checked here, not in each run
    jsonschema.Draft202012Validator.check_schema(reports.REPORT_SCHEMA)


def test_schema_is_version_3():
    # every keyword, bound and additionalProperties of the v3 schema
    pinned = json.loads((Path(__file__).parent
                         / "report_schema_v3.json").read_text())
    assert (json.dumps(reports.REPORT_SCHEMA, sort_keys=True)
            == json.dumps(pinned, sort_keys=True))


def test_reports_never_check_the_schema(payload, tmp_path, monkeypatch):
    calls = []

    def counting(cls, schema, *args, **kwargs):
        calls.append(schema)

    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                        classmethod(counting))
    reports._report_validator.cache_clear()
    json_path, _ = reports.write_report_files(payload, tmp_path)
    reports.load_report(json_path)
    assert calls == []


def test_jsonschema_loaded_only_to_validate(payload, tmp_path):
    # the CLI starts without jsonschema; the first report write loads it,
    # and the finite-number check still holds
    (tmp_path / "payload.json").write_text(json.dumps(payload))
    script = textwrap.dedent("""
        import json, sys
        import mcfs.cli
        assert "jsonschema" not in sys.modules
        from mcfs import reports
        payload = json.load(open("payload.json"))
        reports.write_report_files(payload, "good")
        assert "jsonschema" in sys.modules
        import jsonschema
        payload["curves"][0]["loss"] = float("nan")
        try:
            reports.write_report_files(payload, "bad")
        except jsonschema.ValidationError:
            print("rejected")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(mcfs.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "rejected\n"
    assert (tmp_path / "good" / "report.json").exists()
    assert not (tmp_path / "bad").exists()
