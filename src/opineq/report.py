"""Report document assembly and canonical JSON / CSV emission.

JSON is the primary, lossless format: keys are sorted, floats print
with 17 significant digits, and parse -> re-emit is byte identical.
CSV is a flat per-cell summary with a fixed column order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .campaign import VECTORS_PER_INSTANCE, CampaignReport
from .inequalities import LOG_BASE_NOTE

CSV_COLUMNS = ("theorem_id", "dim", "m", "m_prime", "M_prime", "M", "samples",
               "violations", "max_ratio", "min_slack", "mean_slack")

REPORT_FORMATS = ("json", "csv")


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite float {value!r} cannot be serialized")
    return "%.17g" % value


def _write_canonical(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON requires string keys, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_dumps(obj) -> str:
    """Serialize to JSON with sorted keys and %.17g float formatting.

    Rejects NaN and infinities. Output is stable: parsing the result
    and re-serializing it reproduces the same bytes.
    """
    out: list = []
    _write_canonical(obj, out)
    return "".join(out)


@dataclass(frozen=True)
class ReportDocument:
    """Lossless campaign report: metadata, per-cell rows, extremal instances."""

    meta: dict
    results: list
    extremal_instances: list
    skipped: list

    @classmethod
    def from_campaign(cls, report: CampaignReport, version: str,
                      timestamp: str | None = None) -> "ReportDocument":
        cfg = report.config
        meta = {
            "version": version,
            "seed": cfg.seed,
            "tol": cfg.tol,
            "samples": cfg.samples,
            "dims": list(cfg.dims),
            "theorems": list(cfg.theorem_ids),
            "vectors_per_instance": VECTORS_PER_INSTANCE,
            "log_base": LOG_BASE_NOTE,
            "timestamp": timestamp if timestamp is not None
            else datetime.now(timezone.utc).isoformat(),
            "total_checks": report.total_checks,
            "total_violations": report.total_violations,
        }
        results = []
        for cell in report.cells:
            row = {"theorem_id": cell.theorem_id, "dim": cell.dim,
                   **cell.params.as_dict(),
                   "samples": cell.samples,
                   "violations": cell.violations,
                   "classical_violations": cell.classical_violations,
                   "near_tight": cell.near_tight,
                   "max_ratio": cell.max_ratio,
                   "min_slack": cell.min_slack,
                   "mean_slack": cell.mean_slack}
            results.append(row)
        worst: dict = {}
        for cell in report.cells:
            if cell.extremal is None:
                continue
            seen = worst.get(cell.theorem_id)
            if seen is None or cell.min_slack < seen[0]:
                worst[cell.theorem_id] = (cell.min_slack, cell.extremal)
        extremal = [worst[tid][1] for tid in sorted(worst)]
        skipped = [{"theorem_id": s.theorem_id, "dim": s.dim, **s.params.as_dict(),
                    "reason": s.reason} for s in report.skipped]
        return cls(meta=meta, results=results, extremal_instances=extremal,
                   skipped=skipped)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "results": self.results,
                "extremal_instances": self.extremal_instances,
                "skipped": self.skipped}

    @classmethod
    def from_dict(cls, data: dict) -> "ReportDocument":
        return cls(meta=data["meta"], results=data["results"],
                   extremal_instances=data["extremal_instances"],
                   skipped=data["skipped"])

    @property
    def total_violations(self) -> int:
        return sum(int(row["violations"]) for row in self.results)


def render_json(doc: ReportDocument) -> str:
    return canonical_dumps(doc.to_dict()) + "\n"


def render_csv(doc: ReportDocument) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in doc.results:
        writer.writerow([
            row["theorem_id"], row["dim"],
            _format_float(float(row["m"])), _format_float(float(row["m_prime"])),
            _format_float(float(row["M_prime"])), _format_float(float(row["M"])),
            row["samples"], row["violations"],
            _format_float(float(row["max_ratio"])),
            _format_float(float(row["min_slack"])),
            _format_float(float(row["mean_slack"])),
        ])
    return buffer.getvalue()


def emit_report(doc: ReportDocument, fmt: str, path) -> None:
    """Write the document to path as canonical JSON or flat CSV."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
    text = render_json(doc) if fmt == "json" else render_csv(doc)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
