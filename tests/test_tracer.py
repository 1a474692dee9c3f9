"""The benchmark's layer tracer (perfbench/tracer.py) still measures this
code: its spans wrap functions and methods by name, and its counters read
``model.trees`` and ``len(tree.value)``. A rename or a change of the model's
shape there would leave benchmark metrics at 0 without failing a run."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from sbcboost import data as ds

from conftest import blob_dataset

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# the spans perfbench/run.py requires of a cascade workload that train and
# predict reach
REQUIRED_SPANS = {
    "data.load_csv", "bundle.save", "bundle.load", "bundle.dataset_fingerprint",
    "cli._load_unlabeled", "gbt.Tree.predict", "gbt.GbtModel.predict_proba",
    "gbt.train_binary", "cascade.stage_views", "cascade.train_cascade",
    "cascade.predict_batch",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, cmd, args) -> dict:
    spans = tmp_path / f"{cmd}.spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), repr(time.monotonic()), cmd, "--", cmd, *args],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_train_predict_spans_and_counters(tmp_path):
    d = blob_dataset([60, 30, 10], seed=5)
    ds.export_csv(d, str(tmp_path / "train.csv"))
    rows = tmp_path / "rows.csv"
    rows.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in d.features[:25]))
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "train_csv": str(tmp_path / "train.csv"), "label_column": "label", "method": "sbc",
        "hpo": "fixed", "params": {"num_rounds": 3, "max_depth": 2, "seed": 0},
        "out_dir": str(out),
    }))

    docs = [
        _traced(tmp_path, "train", ["--config", str(cfg)]),
        _traced(tmp_path, "predict", ["--bundle", str(out / "bundle.json"), "--input", str(rows),
                                      "--out", str(tmp_path / "preds.jsonl")]),
    ]

    called = {span[2] for doc in docs for span in doc["spans"]}
    assert REQUIRED_SPANS <= called
    got = _load_tracer().layer_metrics(docs, ["gbt.nodes", "cascade.predict_batch.rows"])
    stages = json.loads((out / "bundle.json").read_text())["payload"]["stages"]
    nodes = sum(len(tree["value"]) for stage in stages for group in stage["trees"]
                for tree in group)
    assert got["gbt.nodes"] == nodes > 0
    assert got["cascade.predict_batch.rows"] == 25
