"""Output checks for the benchmark, written without sbcboost's own code.

The tree walk reads ``bundle.json`` directly and follows the documented
model format, so it stays an independent reference when ``Tree.predict``
or ``predict_batch`` are rewritten.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

UNKNOWN = "UNKNOWN"
SAMPLE_ROWS = 256
# A probability this close to its threshold (or two softmax margins this
# close) may round either way between libm and numpy's exp; such rows are
# left out of the comparison rather than judged.
NEAR_TIE = 1e-12


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_files(directory: str, names) -> None:
    for name in names:
        path = os.path.join(directory, name)
        require(os.path.isfile(path), f"missing output {path}")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def bundle_digest(path: str) -> str:
    """sha256 of a bundle apart from the fit times and the file paths it
    records, the only parts that may differ between two fits of the same
    data with the same settings."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for stage in doc["payload"].get("metadata", ()):
        stage.pop("train_seconds", None)
    for key in ("train_csv", "out_dir"):
        doc["config"].pop(key, None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def csv_labels(path: str) -> list[str]:
    """Last column of every data row of a labelled CSV with a header."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [line.rstrip("\n").rsplit(",", 1)[1] for line in fh if line.strip()]


def check_prepare(prep_dir: str) -> dict[str, dict[str, int]]:
    """Split files exist and account for every row the cleaner kept."""
    require_files(prep_dir, ("train.csv", "test.csv", "cleaning_report.txt"))
    with open(os.path.join(prep_dir, "cleaning_report.txt"), encoding="utf-8") as fh:
        report = dict(line.split(": ", 1) for line in fh.read().splitlines())
    counts = {}
    for part in ("train", "test"):
        per_class: dict[str, int] = {}
        for name in csv_labels(os.path.join(prep_dir, f"{part}.csv")):
            per_class[name] = per_class.get(name, 0) + 1
        counts[part] = per_class
    kept = sum(counts["train"].values()) + sum(counts["test"].values())
    require(kept == int(report["rows_out"]),
            f"split has {kept} rows, cleaning kept {report['rows_out']}")
    return counts


def check_evaluate(eval_dir: str, test_rows: int) -> tuple[float, float, float]:
    """Evaluation files exist and supports cover the test rows; returns
    (accuracy, macro F1, F1 std-dev)."""
    require_files(eval_dir, ("summary.txt", "summary.json", "confusion.csv",
                             "confusion_normalized.csv"))
    with open(os.path.join(eval_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    support = sum(c["support"] for c in summary["per_class"])
    require(support == test_rows, f"supports sum to {support}, test has {test_rows} rows")
    return summary["accuracy"], summary["avg_f1"], summary["std_f1"]


def _leaf(tree: dict, x: list[float]) -> float:
    i = 0
    while not tree["is_leaf"][i]:
        v = x[tree["feature"][i]]
        go_left = tree["default_left"][i] if math.isnan(v) else v < tree["threshold"][i]
        i = tree["left"][i] if go_left else tree["right"][i]
    return tree["value"][i]


def _margin(model: dict, x: list[float], k: int = 0) -> float:
    lr = model["params"]["learning_rate"]
    m = model["base_score"]
    for group in model["trees"]:
        m += lr * _leaf(group[k], x)
    return m


def _sigmoid(m: float) -> float:
    if m >= 0:
        return 1.0 / (1.0 + math.exp(-m))
    e = math.exp(m)
    return e / (1.0 + e)


def walk(bundle: dict, x: list[float]) -> str | None:
    """Class name the bundle assigns to x, or None when x sits on a tie."""
    names = bundle["fingerprint"]["class_names"]
    payload = bundle["payload"]
    if bundle["kind"] == "mcc":
        margins = [_margin(payload, x, k) for k in range(payload["n_classes"])]
        top = max(range(len(margins)), key=lambda k: (margins[k], -k))
        rest = [m for k, m in enumerate(margins) if k != top]
        if rest and margins[top] - max(rest) <= NEAR_TIE * max(1.0, abs(margins[top])):
            return None
        return names[top]
    for stage, model, thr in zip(range(len(payload["stages"])), payload["stages"],
                                 payload["thresholds"]):
        p = _sigmoid(_margin(model, x))
        if abs(p - thr) <= NEAR_TIE:
            return None
        if p >= thr:
            return names[payload["class_at"][stage]]
    return UNKNOWN


def check_predict(pred_path: str, features_path: str, bundle_path: str, seed: int) -> str:
    """One record per input row, in order, with a known class; a seeded
    sample agrees with the tree walk. Returns the output's sha256."""
    require(os.path.isfile(pred_path), f"missing output {pred_path}")
    with open(features_path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    with open(pred_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(bundle_path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    require(len(records) == len(rows), f"{len(records)} predictions for {len(rows)} rows")
    allowed = set(bundle["fingerprint"]["class_names"]) | {UNKNOWN}
    for i, rec in enumerate(records):
        require(rec["row"] == i, f"prediction {i} is for row {rec['row']}")
        require(rec["class"] in allowed, f"row {i}: unknown class {rec['class']!r}")
    sample = sorted(random.Random(seed).sample(range(len(rows)), min(SAMPLE_ROWS, len(rows))))
    compared = 0
    for i in sample:
        expect = walk(bundle, [float(c) for c in rows[i].split(",")])
        if expect is None:
            continue
        require(records[i]["class"] == expect,
                f"row {i}: predict gave {records[i]['class']}, tree walk gives {expect}")
        compared += 1
    require(compared >= len(sample) - 2, f"only {compared} of {len(sample)} rows off a tie")
    return sha256_file(pred_path)
