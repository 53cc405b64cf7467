"""Serialization helpers shared by the CLI: versioned JSON reports and CSV.

Reports are deterministic for fixed inputs: keys are sorted, floats use
repr-round-tripping, infinities become the explicit sentinel "inf", and the
timestamp field can be suppressed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import datetime, timezone

import numpy as np

SCHEMA = "darboux-report/3"


def _sanitize(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _sanitize(obj.tolist())
    return obj


def make_report(kind, body, timestamp=True):
    """Assemble a schema-versioned report dict."""
    out = {"schema": SCHEMA, "kind": kind}
    if timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    out.update(_sanitize(body))
    return out


def dump_json(report, path=None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return text


def dump_csv(rows, header, path=None):
    """Write rows (sequences of ints, Python floats and strings) under a
    header; returns the text.  csv writes a float as its repr and the
    infinities and nan as inf, -inf and nan."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def trajectory_csv(record, path=None):
    """Trajectory CSV: t, q1..qN, p1..pN."""
    dim = record.y.shape[0] // 2
    header = ["t"] + [f"q{i+1}" for i in range(dim)] + [f"p{i+1}" for i in range(dim)]
    rows = np.column_stack([record.t, record.y.T]).tolist()
    return dump_csv(rows, header, path)
