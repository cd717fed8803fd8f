"""Machine-readable run reports: schema, serialization, and file output.

Every report is validated against REPORT_SCHEMA before it touches disk.
Two runs with identical flags produce byte-identical JSON apart from the
wall-time fields.  The ``config`` block, the ``curves`` rows and the
metrics blocks are the fields of ``engine.TrainConfig``,
``engine.EpisodeStats`` and ``forest.MetricReport``, and their schemas are
generated from those dataclasses.  Every object schema requires all its
keys, except the optional ``train_ratio`` and ``informative`` of the
``dataset`` block.

The check is ``_check``, a walker that implements exactly the schema
keywords REPORT_SCHEMA uses (SCHEMA_KEYWORDS), and raises on any other, so
the package needs no JSON Schema library at run time.  A failed check
raises ReportError, a ValueError whose message names the JSON path of the
value.  The test suite holds the walker to a JSON Schema Draft 2020-12
validator.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .engine import MODES, EpisodeStats, TrainConfig
from .forest import MetricReport

SCHEMA_VERSION = 3

# the files write_report_files writes under its directory
REPORT_FILES = ("report.json", "curves.csv")

CURVE_COLUMNS = tuple(f.name for f in fields(EpisodeStats))

_JSON_TYPES = {int: "integer", float: "number"}


def _object(props: dict, optional=(), extra=False) -> dict:
    """Object schema requiring every key of ``props`` but ``optional``."""
    return {
        "type": "object",
        "properties": props,
        "required": [k for k in props if k not in optional],
        "additionalProperties": extra,
    }


def _dataclass_schema(cls, keywords=None) -> dict:
    """Object schema with every field of ``cls`` required and no others.

    Mode fields take their values from ``engine.MODES``, a nested
    dataclass gets its own object schema, and ``keywords`` maps field
    names to extra schema keywords; a field whose keywords give a
    ``type`` takes them as its whole schema.
    """
    keywords = keywords or {}
    hints = get_type_hints(cls)
    props = {}
    for f in fields(cls):
        tp = hints[f.name]
        prop = dict(keywords.get(f.name, {}))
        if f.name in MODES:
            prop["enum"] = list(MODES[f.name])
        elif is_dataclass(tp):
            prop.update(_dataclass_schema(tp))
        elif "type" not in prop:
            prop["type"] = _JSON_TYPES[tp]
        props[f.name] = prop
    return _object(props)


_METRICS_SCHEMA = _dataclass_schema(MetricReport, {
    "confusion": {
        "type": "array",
        "items": {"type": "array", "items": {"type": "integer"}},
    },
    "n_samples": {"minimum": 0},
})

_SUBSET_SCHEMA = _object({
    "indices": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    "names": {"type": "array", "items": {"type": "string"}},
})

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_object({
        "schema_version": {"const": SCHEMA_VERSION},
        "config": _dataclass_schema(TrainConfig, {"episodes": {"minimum": 1}}),
        "dataset": _object({
            "source": {"type": "string"},
            "n_samples": {"type": "integer", "minimum": 1},
            "n_features": {"type": "integer", "minimum": 1},
            "n_classes": {"type": "integer", "minimum": 2},
            "train_ratio": {"type": "number"},
            "informative": {"type": "array", "items": {"type": "integer"}},
        }, optional=("train_ratio", "informative"), extra=True),
        "best_subset": _SUBSET_SCHEMA,
        "greedy_subset": _SUBSET_SCHEMA,
        "best_eval": {"type": "number"},
        "test_metrics": _METRICS_SCHEMA,
        "baselines": {
            "type": "object",
            "additionalProperties": _object(
                {"subset": _SUBSET_SCHEMA, "metrics": _METRICS_SCHEMA}
            ),
        },
        "curves": {
            "type": "array",
            "items": _dataclass_schema(EpisodeStats, {
                "episode": {"minimum": 1}, "length": {"minimum": 1},
            }),
        },
        "episodes_completed": {"type": "integer", "minimum": 0},
        "total_steps": {"type": "integer", "minimum": 0},
        "decision_counts": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "seed": {"type": "integer"},
        "total_wall_ms": {"type": "number"},
    }),
}


def subset_payload(indices, feature_names) -> dict:
    idx = sorted(int(i) for i in indices)
    return {"indices": idx, "names": [feature_names[i] for i in idx]}


def report_to_dict(run, feature_names, dataset, baselines) -> dict:
    """Flatten an engine report plus harness additions into schema form.

    The test metrics are those of the ``selected`` baseline entry.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(run.config),
        "dataset": dataset,
        "best_subset": subset_payload(run.best_subset, feature_names),
        "greedy_subset": subset_payload(run.greedy_subset, feature_names),
        "best_eval": run.best_eval,
        "test_metrics": baselines["selected"]["metrics"],
        "baselines": baselines,
        "curves": [asdict(c) for c in run.curves],
        "episodes_completed": len(run.curves),
        "total_steps": sum(run.decision_counts),
        "decision_counts": list(run.decision_counts),
        "seed": run.config.seed,
        "total_wall_ms": run.total_wall_ms,
    }


def summary_row(param, value, payload) -> dict:
    """One arm's row of a sweep's summary.csv, from its report payload."""
    lengths = [c["length"] for c in payload["curves"]]
    return {
        "param": param,
        "value": value,
        "best_eval": payload["best_eval"],
        "test_accuracy":
            payload["baselines"]["selected"]["metrics"]["accuracy"],
        "episodes_completed": len(lengths),
        "total_steps": sum(lengths),
        "mean_length": sum(lengths) / len(lengths),
    }


class ReportError(ValueError):
    """A report that REPORT_SCHEMA rejects; the message starts with the
    JSON path of the first value that fails, such as
    ``report.curves[3].loss``."""


def _is_number(value) -> bool:
    # a bool is never a number, and a float must be finite: json.dumps
    # would write NaN and infinities as bare tokens that are not JSON
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (
        isinstance(value, float) and math.isfinite(value)
    )


_TYPES = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "array": ("an array", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "number": ("a finite number", _is_number),
    "integer": ("an integer", lambda v: _is_number(v) and (
        isinstance(v, int) or v.is_integer())),
}

# the schema keywords _check implements, which are those REPORT_SCHEMA uses
SCHEMA_KEYWORDS = frozenset({
    "$schema", "type", "properties", "required", "additionalProperties",
    "items", "const", "enum", "minimum",
})


def _json_equal(a, b) -> bool:
    """JSON equality: 1 equals 1.0, but a bool equals only itself."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k])
                                            for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    return a == b


def _check(schema: dict, value, path: str) -> None:
    """Raise ReportError at the first part of ``value``, at JSON path
    ``path``, that ``schema`` rejects.

    Implements SCHEMA_KEYWORDS with their JSON Schema 2020-12 meaning,
    except that a number must be finite; any other keyword raises
    NotImplementedError rather than pass unchecked.
    """
    unknown = schema.keys() - SCHEMA_KEYWORDS
    kind = schema.get("type")
    if unknown or (kind is not None and kind not in _TYPES):
        raise NotImplementedError(
            f"{path}: schema keywords {sorted(unknown)} or type {kind!r} "
            "are not implemented"
        )

    def fail(message):
        raise ReportError(f"{path}: {message}, got {reprlib.repr(value)}")

    if kind is not None and not _TYPES[kind][1](value):
        fail(f"expected {_TYPES[kind][0]}")
    if "const" in schema and not _json_equal(value, schema["const"]):
        fail(f"expected {schema['const']!r}")
    if "enum" in schema and not any(_json_equal(value, e)
                                    for e in schema["enum"]):
        fail(f"expected one of {schema['enum']}")
    if "minimum" in schema and _is_number(value) and (
            value < schema["minimum"]):
        fail(f"expected at least {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ReportError(f"{path}.{key}: missing")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is False:
                raise ReportError(f"{path}.{key}: not a known key")
            if sub is not True:
                _check(sub, item, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(schema["items"], item, f"{path}[{i}]")


def validate_report(payload: dict) -> None:
    """Raise ReportError unless ``payload`` meets REPORT_SCHEMA."""
    _check(REPORT_SCHEMA, payload, "report")


def write_report_files(payload: dict, out_dir) -> tuple[Path, Path]:
    """Validate, then write report.json and curves.csv under out_dir."""
    validate_report(payload)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path, csv_path = (out / name for name in REPORT_FILES)
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for row in payload["curves"]:
            writer.writerow([row[c] for c in CURVE_COLUMNS])
    return json_path, csv_path


def load_report(path) -> dict:
    payload = json.loads(Path(path).read_text())
    validate_report(payload)
    return payload
