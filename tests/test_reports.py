"""Report schema: the config, curves and metrics blocks follow their
dataclasses."""

import copy
import functools
import json
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
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


@pytest.fixture(scope="module")
def sweep_arm_payload():
    # the second arm of a greedy two-arm sweep, as in the info-sweep shape
    args = cli.build_parser().parse_args(
        ["run", "--synthetic", "90,6,2", "--seed", "5"]
    )
    ds, meta = cli._load_dataset(args)
    base = engine.TrainConfig(episodes=4, eval_trees=5, seed=5,
                              weights=RewardWeights(0.0, 1.0, 1.0))
    configs = [replace(base, advise_steps=v) for v in (0, 2)]
    return cli._run_arms(ds, meta, configs, 1)[1]


def assert_invalid(report):
    with pytest.raises(reports.ReportError):
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
        with pytest.raises(reports.ReportError):
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


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--param", "stop-threshold", "--values", "0.5"],
], ids=["run", "sweep"])
def test_command_never_loads_jsonschema(command, tmp_path):
    # ``python -m mcfs.cli`` checks its reports without jsonschema, and the
    # finite-number rule still holds
    script = textwrap.dedent("""
        import runpy, sys
        from pathlib import Path
        try:
            runpy.run_module("mcfs.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        from mcfs import reports
        payload = reports.load_report(next(Path("out").rglob("report.json")))
        payload["curves"][0]["loss"] = float("nan")
        try:
            reports.write_report_files(payload, "bad")
        except reports.ReportError as exc:
            print(exc)
        print("jsonschema" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(mcfs.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, *command, "--synthetic", "60,4,2",
         "--episodes", "2", "--seed", "1", "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "report.curves[0].loss: expected a finite number, got nan", "False",
    ]
    assert not (tmp_path / "bad").exists()


def _finite_number(checker, instance) -> bool:
    if isinstance(instance, float):
        return math.isfinite(instance)
    return jsonschema.Draft202012Validator.TYPE_CHECKER.is_type(
        instance, "number"
    )


# jsonschema's Draft 2020-12 validator, with the one rule the report check
# adds: a number must be finite
ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "number", _finite_number),
)(reports.REPORT_SCHEMA)

# replacement values, each put in place of one value of a report
REPLACEMENTS = {
    "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
    "true": True, "one_float": 1.0, "half": 0.5, "string": "1",
    "list": [], "object": {}, "null": None, "minus_one": -1, "zero": 0,
}


def json_path(keys) -> str:
    return "report" + "".join(
        f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys
    )


def locations(value, keys=()):
    """(key path, value) of ``value`` and of every value inside it."""
    yield keys, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from locations(v, keys + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from locations(v, keys + (i,))


DROP = object()


def mutations(payload):
    """Every single-field mutation of ``payload``, as (kind, key path,
    new value); the value DROP deletes the key."""
    for keys, value in locations(payload):
        if keys:
            for kind, new in REPLACEMENTS.items():
                yield kind, keys, new
            if isinstance(keys[-1], str):
                yield "drop", keys, DROP
        if isinstance(value, dict):
            yield "extra", keys + ("extra",), 1
    for version in (2, 4, "3", 3.0, True):
        yield "schema_version", ("schema_version",), version


def mutated(payload, keys, new):
    # a JSON copy: the payload's test_metrics is its selected baseline's
    # metrics object, which a deep copy would keep shared
    bad = json.loads(json.dumps(payload))
    parent = functools.reduce(operator.getitem, keys[:-1], bad)
    if new is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = copy.deepcopy(new)
    return bad


@pytest.mark.parametrize("which", ["payload", "sweep_arm_payload"])
def test_check_agrees_with_jsonschema(which, request):
    report = request.getfixturevalue(which)
    assert ORACLE.is_valid(report)
    reports.validate_report(report)
    by_kind = {}
    for case in mutations(report):
        by_kind.setdefault(case[0], []).append(case)
    rng = random.Random(0)
    sample = [case for group in by_kind.values()
              for case in rng.sample(group, min(len(group), 40))]
    rejected = 0
    for kind, keys, new in sample:
        bad = mutated(report, keys, new)
        try:
            reports.validate_report(bad)
        except reports.ReportError as exc:
            rejected += 1
            assert not ORACLE.is_valid(bad), (kind, keys)
            # the error names the mutated value or a value inside it
            path = str(exc).split(": ")[0]
            assert path == json_path(keys) or path.startswith(
                (json_path(keys) + ".", json_path(keys) + "[")
            ), (kind, keys, exc)
        else:
            assert ORACLE.is_valid(bad), (kind, keys)
    assert 0 < rejected < len(sample)


def schema_keywords(schema: dict) -> set:
    """Every keyword used in ``schema`` and in its subschemas."""
    found = set(schema)
    subschemas = list(schema.get("properties", {}).values())
    subschemas += [schema[k] for k in ("items", "additionalProperties")
                   if isinstance(schema.get(k), dict)]
    for sub in subschemas:
        found |= schema_keywords(sub)
    return found


def test_check_implements_the_keywords_the_schema_uses():
    assert schema_keywords(reports.REPORT_SCHEMA) == reports.SCHEMA_KEYWORDS


@pytest.mark.parametrize("schema, value", [
    ({"type": "number", "maximum": 1}, 0.5),
    ({"type": "boolean"}, True),
    ({"type": "array", "items": {"multipleOf": 2}}, [4]),
    ({"type": "object", "properties": {"x": {"pattern": "a"}}}, {"x": "a"}),
], ids=["maximum", "boolean", "nested_in_items", "nested_in_properties"])
def test_unimplemented_keyword_raises(schema, value):
    with pytest.raises(NotImplementedError):
        reports._check(schema, value, "report")


@pytest.mark.parametrize("schema", [{"const": 1}, {"enum": [0, 1]}],
                         ids=["const", "enum"])
def test_const_and_enum_use_json_equality(schema):
    # 1 equals 1.0 in JSON, but true is not 1
    reports._check(schema, 1.0, "report")
    with pytest.raises(reports.ReportError):
        reports._check(schema, True, "report")
