"""Tests for the JSON-lines report writer."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from mmfuse.data import SyntheticSpec, atomic_write_bytes, generate_synthetic, split
from mmfuse.evaluation import compute_metrics, gate_stats_from_alphas
from mmfuse.model import HyperConfig
from mmfuse.reports import metrics_row, render_report, report_line
from mmfuse.training import TrainConfig, train
from support import parse_report


def test_report_line_preserves_key_order_and_types():
    line = report_line({"b": 2, "a": 0.5, "name": "x", "none": None, "flag": True})
    assert line == '{"b": 2, "a": 0.5, "name": "x", "none": null, "flag": true}'
    assert json.loads(line) == {"b": 2, "a": 0.5, "name": "x", "none": None, "flag": True}


def test_floats_round_trip_exactly():
    for value in (1.0 / 3.0, 1e-300, 0.1 + 0.2, np.float64(2.5000000000000004)):
        line = report_line({"v": value})
        assert json.loads(line)["v"] == value
    assert report_line({"v": 0.5}) == '{"v": 0.5}'


def test_render_and_parse_round_trip(tmp_path):
    rows = [{"i": i, "x": i / 7.0} for i in range(5)]
    text = render_report(rows)
    assert text.endswith("\n")
    assert parse_report(text) == rows

    path = tmp_path / "report.jsonl"
    atomic_write_bytes(path, render_report(rows).encode("utf-8"))
    atomic_write_bytes(tmp_path / "again.jsonl", render_report(rows).encode("utf-8"))
    assert path.read_bytes() == (tmp_path / "again.jsonl").read_bytes()
    assert parse_report(path.read_text()) == rows


def test_metrics_row_layout():
    report = compute_metrics([1, 0, 1, 0], [1, 1, 0, 0])
    row = metrics_row("scenario", "unperturbed", report)
    assert list(row) == [
        "scenario",
        "accuracy",
        "precision",
        "recall",
        "f1",
        "tp",
        "fp",
        "tn",
        "fn",
    ]
    parsed = json.loads(report_line(row))
    assert parsed["scenario"] == "unperturbed"
    assert parsed["f1"] == 0.5
    assert parsed["tp"] == 1


def test_gate_stats_row_layout():
    stats = gate_stats_from_alphas(np.array([0.9, 0.1]), np.array([0.1, 0.9]), threshold=0.2)
    parsed = json.loads(report_line(asdict(stats)))
    assert parsed["mean_alpha_t"] == 0.5
    assert parsed["pct_text_dominant"] == 50.0
    assert parsed["threshold"] == 0.2
    assert parsed["n_records"] == 2


def test_history_row_layout():
    # train() history entries are the history.jsonl rows as they are
    ds = generate_synthetic(SyntheticSpec(n_samples=40, d_t=4, d_i=3, seed=0))
    train_ds, val_ds, _ = split(ds, (0.6, 0.4, 0.0), seed=0)
    hyper = HyperConfig(d_t=4, d_i=3, d_c=2, gate_hidden=2, cls_hidden=2)
    _, history = train(train_ds, val_ds, [hyper], TrainConfig(max_epochs=1))
    entry = history[0]
    assert list(entry) == [
        "epoch",
        "train_loss",
        "val_accuracy",
        "val_precision",
        "val_recall",
        "val_f1",
    ]
    assert json.loads(report_line(entry)) == entry
