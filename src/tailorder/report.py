"""Versioned JSON report document.

Reports are test fixtures: the schema is versioned, unknown top-level fields
are rejected on read, and serialization is deterministic (sorted keys,
shortest round-trip float representation), so identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import FormatError
from .order import IndexEstimate, _fields_dict

SCHEMA_VERSION = "1"
TOOL_VERSION = "tailorder 0.1.0"

_FIELDS = ("schema_version", "input", "class", "estimates", "conditions",
           "evt", "provenance")


def estimate_dict(est: IndexEstimate | None) -> dict | None:
    if est is None:
        return None
    return {
        "value": est.value,
        "spread": est.spread,
        "trend": est.trend.value,
        "grid": _fields_dict(est.grid),
    }


@dataclass(frozen=True)
class ReportDocument:
    """Classification/condition report; all payloads are plain JSON data."""

    input: dict
    class_label: dict
    estimates: dict
    conditions: list = field(default_factory=list)
    evt: dict | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "input": self.input,
            "class": self.class_label,
            "estimates": self.estimates,
            "conditions": self.conditions,
            "evt": self.evt,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_dict(d: dict) -> "ReportDocument":
        unknown = set(d) - set(_FIELDS)
        if unknown:
            raise FormatError(f"unknown report fields {sorted(unknown)}")
        missing = set(_FIELDS) - set(d)
        if missing:
            raise FormatError(f"missing report fields {sorted(missing)}")
        if d["schema_version"] != SCHEMA_VERSION:
            raise FormatError(f"unsupported schema version {d['schema_version']!r}")
        return ReportDocument(
            input=d["input"],
            class_label=d["class"],
            estimates=d["estimates"],
            conditions=d["conditions"],
            evt=d["evt"],
            provenance=d["provenance"],
        )

    @staticmethod
    def from_json(text: str) -> "ReportDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad report JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise FormatError("report JSON must be an object")
        return ReportDocument.from_dict(payload)
