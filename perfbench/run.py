#!/usr/bin/env python3
"""End-to-end benchmark of the sbcboost CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It generates the workload's CSVs from the
seed, then runs prepare -> tune/train -> evaluate -> predict, each command a
fresh child process timed from outside, repeated until --seconds have passed.
Every output is checked (see oracle.py). The last line of standard output is
one JSON object: end-to-end metrics (medians over the passes) with
--trace 0, per-layer metrics from perfbench/tracer.py with --trace 1. The
line before it records the machine and run facts.

Workloads, each shaped like UNSW-NB15 (10 classes in its training-set
proportions, a 431:1 skew, 40 non-negative flow features):
  cascade_phgs  the paper's method: per-stage pruned halving search of the
                cascade; HPO and small, overhead-bound fits carry the time.
  mcc_fixed     the paper's baseline: one softmax model with fixed params;
                large sort-bound nodes, no HPO.
  bulk_score    train once on a small share, then score a lot of traffic;
                CSV I/O, cleaning, routing, metrics and CLI output carry it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; children inherit it

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
UNKNOWN_ACTION = "assign_last_class"
CLEANING_FLAGS = ["--missing-action", "drop_row", "--infinity-action", "drop_row",
                  "--negative-action", "keep"]
SETUPS = 5
CHILD_TIMEOUT_S = 150

COMMON_CONFIG = {
    "label_column": workloads.LABEL,
    "weights": "none",
    "last_stage": {"source": "majority_only", "negatives_per_positive": 1.0, "seed": 0},
    "threshold": 0.5,
    "unknown_action": UNKNOWN_ACTION,
    "seed": 0,
}


@dataclass(frozen=True)
class Workload:
    raw_rows: int
    test_fraction: float
    fit: str                    # tune | train
    config: dict
    missing_share: float = 0.0
    duplicate_share: float = 0.0
    score_rows: int = 0         # 0: predict over the test split's rows
    required_spans: tuple = ()  # layer spans that must be called at least once


SHARED_SPANS = ("data.load_csv", "data.clean", "data.stratified_split", "data.export_csv",
                "cli._load_unlabeled", "metrics.confusion", "bundle.save", "bundle.load",
                "bundle.dataset_fingerprint", "gbt.Tree.predict", "gbt.GbtModel.predict_proba")
CASCADE_SPANS = ("gbt.train_binary", "cascade.stage_views", "cascade.train_cascade",
                 "cascade.predict_batch")

WORKLOADS = {
    # num_rounds is unpruned so that every stage after the first searches the
    # same number of candidates on every seed; pruned, the trial count hung on
    # which stage first picked 10 rounds. 6000 rows is about the fewest that
    # leave every stage's CV folds both classes.
    "cascade_phgs": Workload(
        raw_rows=6000, test_fraction=0.2, fit="tune",
        config={"method": "sbc", "hpo": "phgs", "params": {"learning_rate": 0.06, "seed": 0},
                "grid": {"max_depth": {"values": [2, 4], "prune": "upper_bound"},
                         "num_rounds": {"values": [10, 20], "prune": "unpruned"}},
                "cv": {"folds": 3, "metric": "macro_f1", "seed": 0},
                "halving": {"factor": 3, "min_resources": 200, "seed": 0}},
        required_spans=SHARED_SPANS + CASCADE_SPANS + (
            "hpo.phgs_cascade", "hpo.halving_grid_search", "hpo.cross_validate",
            "metrics.macro_f1")),
    "mcc_fixed": Workload(
        raw_rows=10000, test_fraction=0.2, fit="train",
        config={"method": "mcc", "hpo": "fixed",
                "params": {"num_rounds": 7, "max_depth": 4, "learning_rate": 0.3, "seed": 0}},
        required_spans=SHARED_SPANS + ("gbt.train_multiclass",)),
    "bulk_score": Workload(
        raw_rows=40000, test_fraction=0.9, fit="train",
        config={"method": "sbc", "hpo": "fixed",
                "params": {"num_rounds": 5, "max_depth": 3, "learning_rate": 0.3, "seed": 0}},
        missing_share=0.001, duplicate_share=0.02, score_rows=40000,
        required_spans=SHARED_SPANS + CASCADE_SPANS),
}

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)


@dataclass
class Rep:
    """One pass of the pipeline: its command walls and what they produced."""

    traced: bool
    walls: dict = field(default_factory=dict)       # command -> seconds
    cpu: dict = field(default_factory=dict)         # command -> user + system seconds
    peak_mb: float = 0.0
    quality: tuple = ()
    digest: tuple = ()                              # per command, see Bench._check
    class_counts: dict = field(default_factory=dict)
    predict_rows: int = 0
    spans: list = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.walls.values())


def run_child(argv: list[str], env: dict, log_path: str) -> tuple[int, float, float, float]:
    """Run one child to completion; returns (exit code, wall s, CPU s, own
    peak RSS MB).

    os.wait4 reports this child's own peak, unlike RUSAGE_CHILDREN, which is
    the high-water mark over every child reaped so far."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def make_inputs(w: Workload, seed: int, directory: str) -> dict[str, str]:
    """Write the workload's input CSVs; returns their sha256 by file name."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    digests = {"raw.csv": workloads.labelled_csv(
        os.path.join(directory, "raw.csv"), w.raw_rows, rng, w.missing_share,
        w.duplicate_share)}
    if w.score_rows:
        digests["score.csv"] = workloads.unlabelled_csv(
            os.path.join(directory, "score.csv"), w.score_rows, rng)
    return digests


def strip_labels(src: str, dst: str) -> int:
    """Copy a labelled CSV without its last (label) column; returns data rows."""
    with open(src, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rsplit(",", 1)[0] for line in fh if line.strip()]
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


class Bench:
    """One benchmark run of one workload and seed in a scratch directory."""

    def __init__(self, name: str, seed: int, root: str, work: str):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.tally = Tally()
        self.inputs = os.path.join(work, "inputs")

    def setup(self) -> list[float]:
        """Generate the inputs SETUPS times, each timed; the same seed must
        give the same bytes, and the next seed different ones. Then warm the
        import of sbcboost once, untimed."""
        times, digests = [], []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            digests.append(make_inputs(self.w, self.seed, os.path.join(self.work, f"setup{k}")))
            times.append(time.perf_counter() - t0)
        log = os.path.join(self.work, "import.log")
        rc = run_child([sys.executable, "-c", "import sbcboost"], self.env, log)[0]
        if rc != 0:
            with open(log, encoding="utf-8") as fh:
                sys.stderr.write(fh.read())
            raise SystemExit("cannot import sbcboost from ./src")
        if any(d != digests[0] for d in digests):
            self.tally.fail("the same seed gave different inputs")
        other = workloads.labelled_csv(
            os.path.join(self.work, "other.csv"), self.w.raw_rows,
            np.random.default_rng(self.seed + 1), self.w.missing_share, self.w.duplicate_share)
        if other == digests[0]["raw.csv"]:
            self.tally.fail("a different seed gave the same inputs")
        os.rename(os.path.join(self.work, "setup0"), self.inputs)
        for k in range(1, SETUPS):
            shutil.rmtree(os.path.join(self.work, f"setup{k}"))
        os.remove(os.path.join(self.work, "other.csv"))
        return times

    def _command(self, rep: Rep, rep_dir: str, cmd: str, args: list[str]) -> bool:
        if rep.traced:
            spans = os.path.join(rep_dir, f"{cmd}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans,
                    repr(time.monotonic()), f"{self.name}-{self.seed}-{cmd}", "--", *args]
        else:
            argv = [sys.executable, "-m", "sbcboost.cli", *args]
        self.tally.attempted += 1
        rc, wall, cpu, peak = run_child(argv, self.env, os.path.join(rep_dir, f"{cmd}.log"))
        rep.walls[cmd] = wall
        rep.cpu[cmd] = cpu
        rep.peak_mb = max(rep.peak_mb, peak)
        if rc != 0:
            with open(os.path.join(rep_dir, f"{cmd}.log"), encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-2000:])
            self.tally.fail(f"{cmd} exited with {rc}")
            return False
        if rep.traced:
            with open(spans, encoding="utf-8") as fh:
                rep.spans.append(json.load(fh))
        return True

    def _check(self, cmd: str, rep: Rep, paths: dict):
        """Check one command's outputs; returns a digest that every other
        pass must reproduce."""
        w = self.w
        if cmd == "prepare":
            rep.class_counts = oracle.check_prepare(paths["prep"])
            rep.predict_rows = w.score_rows or strip_labels(paths["test"], paths["features"])
            return (oracle.sha256_file(os.path.join(paths["prep"], "train.csv")),
                    oracle.sha256_file(paths["test"]))
        if cmd == "evaluate":
            return oracle.check_evaluate(paths["eval"], sum(rep.class_counts["test"].values()))
        if cmd == "predict":
            return oracle.check_predict(paths["preds"], paths["features"], paths["bundle"],
                                        self.seed)
        if cmd == "tune":
            n_stages = len(rep.class_counts["train"])
            oracle.require_files(paths["out"],
                                 [f"hpo_trials_stage{i}.jsonl" for i in range(n_stages)])
        oracle.require_files(paths["out"], ["bundle.json"])
        return oracle.bundle_digest(paths["bundle"])

    def pipeline(self, traced: bool) -> Rep | None:
        """One prepare -> fit -> evaluate -> predict pass; None if any
        command failed or its outputs failed a check."""
        w = self.w
        rep = Rep(traced)
        d = os.path.join(self.work, "pass")
        paths = {name: os.path.join(d, name) for name in ("prep", "out", "eval")}
        paths.update(test=os.path.join(paths["prep"], "test.csv"),
                     bundle=os.path.join(paths["out"], "bundle.json"),
                     preds=os.path.join(d, "predictions.jsonl"),
                     features=os.path.join(self.inputs, "score.csv") if w.score_rows
                     else os.path.join(d, "test_features.csv"))
        os.makedirs(d)
        config = dict(COMMON_CONFIG, **w.config,
                      train_csv=os.path.join(paths["prep"], "train.csv"), out_dir=paths["out"])
        config_path = os.path.join(d, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        steps = [
            ("prepare", ["prepare", "--input", os.path.join(self.inputs, "raw.csv"),
                         "--label-column", workloads.LABEL, "--out", paths["prep"],
                         "--test-fraction", repr(w.test_fraction), "--seed", str(self.seed),
                         *CLEANING_FLAGS]),
            (w.fit, [w.fit, "--config", config_path, "--out", paths["out"],
                     "--unknown-action", UNKNOWN_ACTION]),
            ("evaluate", ["evaluate", "--bundle", paths["bundle"], "--test", paths["test"],
                          "--label-column", workloads.LABEL, "--out", paths["eval"],
                          "--unknown-action", UNKNOWN_ACTION]),
            ("predict", ["predict", "--bundle", paths["bundle"], "--input", paths["features"],
                         "--out", paths["preds"]]),
        ]
        digests = {}
        for cmd, args in steps:
            if not self._command(rep, d, cmd, args):
                return None
            try:
                digests[cmd] = self._check(cmd, rep, paths)
            except (oracle.CheckFailed, OSError, KeyError, ValueError) as exc:
                self.tally.fail(f"{cmd}: {exc}")
                return None
        rep.quality = digests["evaluate"]
        rep.digest = tuple(digests.values())
        shutil.rmtree(d)
        return rep

    def measure(self, seconds: float, trace: bool) -> list[Rep]:
        """Start another pass of the pipeline while less than `seconds` have
        passed (the last pass may run over). With tracing, passes alternate
        untraced and traced, at least one of each."""
        reps: list[Rep] = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(reps) < (2 if trace else 1)):
            rep = self.pipeline(trace and len(reps) % 2 == 1)
            if rep is None:
                break
            if reps and rep.digest != reps[0].digest:
                self.tally.fail(f"pass {len(reps)} gave other outputs than pass 0")
            reps.append(rep)
        return reps

    def check_spans(self, reps: list[Rep]) -> None:
        for rep in reps:
            if rep.traced:
                called = {s[2] for doc in rep.spans for s in doc["spans"]}
                for name in self.w.required_spans:
                    if name not in called:
                        self.tally.fail(f"span {name} recorded no calls")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(names, setup_times: list[float], reps: list[Rep], tally: Tally) -> dict:
    quality = reps[0].quality if reps else (0.0, 0.0, 0.0)
    values = {
        "setup_s": median(setup_times),
        "pipeline_s": median([r.pipeline_s for r in reps]),
        "fit_s": median([t for r in reps for c, t in r.walls.items() if c in ("tune", "train")]),
        "peak_rss_mb": median([r.peak_mb for r in reps]),
        "accuracy": quality[0],
        "macro_f1": quality[1],
        "f1_std": quality[2],
        "success_rate": (tally.attempted - tally.failed) / max(tally.attempted, 1),
    }
    return {name: values[name] for name in names}


def per_layer(names, reps: list[Rep]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over the traced passes; phase.* and the
    tracing overhead from the untraced ones) and the shares of the traced
    pipeline that show which layer each workload stresses."""
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    folded = [tracer.layer_metrics(r.spans, names) for r in traced]
    values = {name: median([f[name] for f in folded]) for name in names}
    traced_s = median([r.pipeline_s for r in traced])
    values["trace.overhead_s"] = traced_s - median([r.pipeline_s for r in plain])
    values["phase.prepare_s"] = median([r.walls["prepare"] for r in plain])
    values["phase.evaluate_s"] = median([r.walls["evaluate"] for r in plain])
    values["phase.predict_rows_per_s"] = median([r.predict_rows / r.walls["predict"]
                                                 for r in plain])

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    data_s = sum(values[n] for n in ("data.load_csv.s", "data.clean.s", "data.stratified_split.s",
                                     "data.export_csv.s", "cli._load_unlabeled.s"))
    shares = {
        "data_and_load_unlabeled_of_pipeline": share(data_s, traced_s),
        "train_multiclass_of_pipeline": share(values["gbt.train_multiclass.s"], traced_s),
        "cross_validate_of_pipeline": share(values["hpo.cross_validate.s"], traced_s),
        "small_fits_of_train_binary": share(values["gbt.train_binary.s_lt1k"],
                                            values["gbt.train_binary.s"]),
    }
    return {name: values[name] for name in names}, shares


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sbcboost", "cli.py")):
        print("run from the repository root: src/sbcboost/cli.py not found", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    work_root = os.path.join(root, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(args.workload, args.seed, root, work)
    try:
        setup_times = bench.setup()
        reps = bench.measure(args.seconds, bool(args.trace))
        shares = {}
        if args.trace:
            bench.check_spans(reps)
            values, shares = per_layer(units, reps)
        else:
            values = end_to_end(units, setup_times, reps, bench.tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    tally = bench.tally
    facts = dict(machine_facts(), workload=args.workload, seed=args.seed,
                 trace=args.trace, passes=[dict(r.walls, traced=r.traced, cpu=r.cpu) for r in reps],
                 setup_s=setup_times, layer_shares=shares, errors=tally.errors,
                 class_rows_after_prepare=reps[0].class_counts if reps else {},
                 output_digests=list(reps[0].digest) if reps else [])
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": tally.failed == 0 and bool(reps),
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
