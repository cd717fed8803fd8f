"""Machine-readable run reports: schema, serialization, and file output.

Every report is validated against REPORT_SCHEMA before it touches disk.
Two runs with identical flags produce byte-identical JSON apart from the
wall-time fields.  The ``config`` block and the ``curves`` rows are the
fields of ``engine.TrainConfig`` and ``engine.EpisodeStats``, and their
schemas are generated from those dataclasses.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import jsonschema

from .engine import MODES, EpisodeStats, TrainConfig

SCHEMA_VERSION = 2

CURVE_COLUMNS = tuple(f.name for f in fields(EpisodeStats))

_JSON_TYPES = {int: "integer", float: "number"}


def _dataclass_schema(cls, minimums=None) -> dict:
    """Object schema with every field of ``cls`` required and no others.

    Mode fields take their values from ``engine.MODES``, a nested
    dataclass gets its own object schema, and ``minimums`` maps field
    names to lower bounds.
    """
    minimums = minimums or {}
    hints = get_type_hints(cls)
    props = {}
    for f in fields(cls):
        tp = hints[f.name]
        if f.name in MODES:
            prop = {"enum": list(MODES[f.name])}
        elif is_dataclass(tp):
            prop = _dataclass_schema(tp)
        else:
            prop = {"type": _JSON_TYPES[tp]}
        if f.name in minimums:
            prop["minimum"] = minimums[f.name]
        props[f.name] = prop
    return {
        "type": "object",
        "properties": props,
        "required": list(props),
        "additionalProperties": False,
    }


_METRICS_SCHEMA = {
    "type": "object",
    "properties": {
        "accuracy": {"type": "number"},
        "f1_macro": {"type": "number"},
        "f1_micro": {"type": "number"},
        "confusion": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "n_samples": {"type": "integer", "minimum": 0},
    },
    "required": ["accuracy", "f1_macro", "f1_micro", "confusion",
                 "n_samples"],
    "additionalProperties": False,
}

_SUBSET_SCHEMA = {
    "type": "object",
    "properties": {
        "indices": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "names": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["indices", "names"],
    "additionalProperties": False,
}

_BASELINE_SCHEMA = {
    "type": "object",
    "properties": {
        "subset": _SUBSET_SCHEMA,
        "metrics": _METRICS_SCHEMA,
    },
    "required": ["subset", "metrics"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "config": _dataclass_schema(TrainConfig, {"episodes": 1}),
        "dataset": {
            "type": "object",
            "properties": {
                "source": {"type": "string"},
                "n_samples": {"type": "integer", "minimum": 1},
                "n_features": {"type": "integer", "minimum": 1},
                "n_classes": {"type": "integer", "minimum": 2},
                "train_ratio": {"type": "number"},
                "informative": {
                    "type": "array",
                    "items": {"type": "integer"},
                },
            },
            "required": ["source", "n_samples", "n_features", "n_classes"],
            "additionalProperties": True,
        },
        "best_subset": _SUBSET_SCHEMA,
        "greedy_subset": _SUBSET_SCHEMA,
        "best_eval": {"type": "number"},
        "test_metrics": _METRICS_SCHEMA,
        "baselines": {
            "type": "object",
            "additionalProperties": _BASELINE_SCHEMA,
        },
        "curves": {
            "type": "array",
            "items": _dataclass_schema(
                EpisodeStats, {"episode": 1, "length": 1}
            ),
        },
        "episodes_completed": {"type": "integer", "minimum": 0},
        "total_steps": {"type": "integer", "minimum": 0},
        "decision_counts": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "seed": {"type": "integer"},
        "total_wall_ms": {"type": "number"},
    },
    "required": ["schema_version", "config", "dataset", "best_subset",
                 "greedy_subset", "best_eval", "test_metrics", "baselines",
                 "curves", "episodes_completed", "total_steps",
                 "decision_counts", "seed", "total_wall_ms"],
    "additionalProperties": False,
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
        "episodes_completed": run.episodes_completed,
        "total_steps": run.total_steps,
        "decision_counts": list(run.decision_counts),
        "seed": run.config.seed,
        "total_wall_ms": run.total_wall_ms,
    }


def validate_report(payload: dict) -> None:
    jsonschema.validate(payload, REPORT_SCHEMA)


def write_report_files(payload: dict, out_dir) -> tuple[Path, Path]:
    """Validate, then write report.json and curves.csv under out_dir."""
    validate_report(payload)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    csv_path = out / "curves.csv"
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
