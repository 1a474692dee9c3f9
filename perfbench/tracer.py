"""Layer spans for the traced benchmark run.

As a script, it runs one sbcboost CLI command in this process with a span
around every public function of each library module, then writes the spans
as JSON:

    python3 perfbench/tracer.py SPANS_JSON SPAWNED RUN_ID -- CLI_ARGS...

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so interpreter start and
import are measured too. A span is ``[id, parent_id, name, start, end,
counters]``; spans live in memory until the command returns.

As a module, ``layer_metrics`` folds the span files of one pipeline into the
benchmark's per-layer metrics. Importing it does not import sbcboost.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

LAYERS = ("data", "gbt", "hpo", "cascade", "metrics", "bundle")
SMALL_FIT_ROWS = 1000

# --- parent side -------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(docs: list[dict], names) -> dict[str, float]:
    """The named per-layer metrics of one pipeline from its commands' span
    files; trace.* and phase.* stay 0, as they need the untraced passes."""
    out = dict.fromkeys(names, 0.0)

    def add(key: str, value: float) -> None:
        if key in out:
            out[key] += value

    searched = final = depth_sum = batch_rows = 0
    for doc in docs:
        add("cli.startup_s", doc["imported"] - doc["spawned"])
        spans = {s[0]: s for s in doc["spans"]}
        children: dict[int, list] = {}
        for s in doc["spans"]:
            if s[1] is not None:
                children.setdefault(s[1], []).append(s)

        def ancestors(s):
            while s[1] is not None:
                s = spans[s[1]]
                yield s[2]

        for s in doc["spans"]:
            sid, parent, name, start, end, counters = s
            counters = counters or {}
            dur = end - start
            self_s = dur - _union_length([(c[3], c[4]) for c in children.get(sid, ())])
            for key, value in ((f"{name}.s", dur), (f"{name}.self_s", self_s),
                               (f"{name}.calls", 1), *counters.items()):
                add(key, value)
            depth_sum += counters.get("depth_sum", 0)
            batch_rows += counters.get("cascade.predict_batch.rows", 0)
            if name in ("gbt.train_binary", "gbt.train_multiclass"):
                up = set(ancestors(s))
                if name == "gbt.train_binary":
                    size = "lt1k" if counters["rows"] < SMALL_FIT_ROWS else "ge1k"
                    add(f"gbt.train_binary.s_{size}", dur)
                    add(f"gbt.train_binary.row_rounds_{size}", counters["row_rounds"])
                else:
                    add("gbt.train_multiclass.row_rounds", counters["row_rounds"])
                if "hpo.cross_validate" in up:
                    add("hpo.fits", 1)
                    searched += counters["row_rounds"]
                elif "cascade.train_cascade" in up and any(a.startswith("hpo.") for a in up):
                    final += counters["row_rounds"]
            if name == "cascade.train_cascade":
                fits = sorted((c for c in children.get(sid, ()) if c[2] == "gbt.train_binary"),
                              key=lambda c: c[3])
                for stage, c in enumerate(fits):
                    add(f"cascade.stage{stage}.fit_s", c[4] - c[3])
    derived = {"hpo.row_rounds": searched,
               "hpo.useful_ratio": final / searched if searched else 0.0,
               "cascade.mean_depth": depth_sum / batch_rows if batch_rows else 0.0}
    out.update((k, v) for k, v in derived.items() if k in out)
    return out


# --- child side --------------------------------------------------------------

class Recorder:
    """Spans of one process; one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None, name,
                    time.monotonic(), None, None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.monotonic()
                self._open.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) > 1 else 1


# Counters per span: keys that name a per-layer metric are summed into it;
# rows, row_rounds and depth_sum feed derived metrics in layer_metrics.
def _fit_counters(args, kwargs, model):
    rows = len(args[0])
    params = args[3] if len(args) > 3 else kwargs["p"]
    return {
        "rows": rows,
        "row_rounds": rows * params.num_rounds,
        "gbt.trees": sum(len(group) for group in model.trees),
        "gbt.nodes": sum(len(t.value) for group in model.trees for t in group),
    }


def _predict_batch_counters(args, kwargs, preds):
    model = args[0]
    out = {"cascade.predict_batch.rows": len(preds), "cascade.unknown.rows": 0,
           "depth_sum": 0}
    for p in preds:
        stage, prob = p.stage_trace[-1]
        out["depth_sum"] += len(p.stage_trace)
        key = f"cascade.exit_stage{stage}.rows" if prob >= model.thresholds[stage] \
            else "cascade.unknown.rows"
        out[key] = out.get(key, 0) + 1
    return out


COUNTERS = {
    "data.load_csv": lambda a, k, r: {"data.load_csv.cells": r.n_rows * (r.n_features + 1)},
    "data.clean": lambda a, k, r: {"data.clean.rows_dropped": a[0].n_rows - r[0].n_rows},
    "data.export_csv": lambda a, k, r: {"data.export_csv.rows": a[0].n_rows},
    "gbt.train_binary": _fit_counters,
    "gbt.train_multiclass": _fit_counters,
    "gbt.Tree.predict": lambda a, k, r: {"gbt.Tree.predict.rows": _rows(a[1])},
    "gbt.GbtModel.predict_proba":
        lambda a, k, r: {"gbt.GbtModel.predict_proba.rows": _rows(a[1])},
    "cascade.predict_batch": _predict_batch_counters,
    "metrics.confusion": lambda a, k, r: {"metrics.confusion.rows": len(a[0])},
    "bundle.save": lambda a, k, r: {"bundle.bytes": os.path.getsize(a[1])},
}


def install(recorder: Recorder, package) -> None:
    """Wrap every public function of each layer module, rebinding the same
    function wherever another module imported it by name (for example
    ``hpo.macro_f1`` or ``cli.train_multiclass``), plus the listed methods."""
    modules = [getattr(package, layer) for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrapped[fn] = recorder.wrap(name, fn, COUNTERS.get(name))
    for module in modules + [package.cli, package]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    cli = package.cli
    cli._load_unlabeled = recorder.wrap("cli._load_unlabeled", cli._load_unlabeled)
    for cls, attr, name in ((package.gbt.Tree, "predict", "gbt.Tree.predict"),
                            (package.gbt.GbtModel, "predict_proba", "gbt.GbtModel.predict_proba"),
                            (package.bundle.ModelBundle, "save", "bundle.save")):
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), COUNTERS.get(name)))
    load = package.bundle.ModelBundle.load.__func__
    package.bundle.ModelBundle.load = classmethod(recorder.wrap("bundle.load", load))


def main(argv: list[str]) -> int:
    spans_path, spawned, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON SPAWNED RUN_ID -- CLI_ARGS...")
    import sbcboost
    import sbcboost.cli

    imported = time.monotonic()
    recorder = Recorder()
    install(recorder, sbcboost)
    run = recorder.wrap(f"cli.{cli_args[0]}", sbcboost.cli.main)
    try:
        rc = run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "spawned": float(spawned), "imported": imported,
                       "spans": recorder.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
