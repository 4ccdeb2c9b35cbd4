"""Line-delimited JSON reports with full-precision floats.

One JSON object per line, keys in a fixed order, reals rendered with 17
significant digits so a report re-parses to bitwise-equal values and
reruns produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .evaluation import MetricsReport


def _encode_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return json.dumps(str(value))


def report_line(row: dict) -> str:
    parts = (f"{json.dumps(key)}: {_encode_value(value)}" for key, value in row.items())
    return "{" + ", ".join(parts) + "}"


def render_report(rows) -> str:
    return "".join(report_line(row) + "\n" for row in rows)


def metrics_row(label_key: str, label_value: str, metrics: MetricsReport) -> dict:
    return {label_key: label_value, **asdict(metrics)}
