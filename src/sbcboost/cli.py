"""Command-line front end: prepare, train/tune, evaluate, predict, benchmark.

Every run is driven by a JSON config plus flag overrides; identical config
and seeds reproduce identical artifacts (wall-clock timings aside).

Exit codes: 0 success, 2 config error, 3 data error, 4 training error,
5 evaluation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import cascade as casc
from . import data as ds
from . import hpo
from . import metrics
from .bundle import ModelBundle, dataset_fingerprint
from .errors import BundleError, ConfigError, FingerprintMismatch, SbcError
from .gbt import GbtParams, train_multiclass

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4
EXIT_EVAL = 5

METHODS = ("mcc", "sbc")
HPO_MODES = ("fixed", "gs", "hgs", "phgs")

# pruned by hpo.DEFAULT_PRUNE's directions
DEFAULT_GRID = {"max_depth": [2, 4, 6], "num_rounds": [20, 50], "learning_rate": [0.1, 0.3]}

# the flags that override a config key: (argparse dest, config key)
FLAG_KEYS = (("out", "out_dir"), ("weights", "weights"), ("grid", "grid_file"),
             ("unknown_action", "unknown_action"))

# config keys that must hold strings: open() takes an int as a file descriptor
STRING_KEYS = ("train_csv", "test_csv", "grid_file", "out_dir", "label_column")


def _load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {cfg!r}")
    for flag, key in FLAG_KEYS:
        if getattr(overrides, flag, None):
            cfg[key] = getattr(overrides, flag)
    for key in STRING_KEYS:
        if key in cfg and not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a string, got {cfg[key]!r}")
    return cfg


def _check_fields(obj):
    """JSON gives 2.5 as readily as 2: a dataclass field declared int must
    hold an int, and a seed a non-negative one, as numpy's generators ask."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and type(value) is not int:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if f.name == "seed" and value < 0:
            raise ValueError(f"seed must be >= 0, got {value!r}")
    return obj


def _from_section(cfg: dict, key: str, build, default=None):
    """``build`` applied to the config's ``key`` section; a bad key or value
    there is a ConfigError rather than a traceback."""
    try:
        return _check_fields(build(cfg.get(key, {} if default is None else default)))
    except (OSError, TypeError, ValueError, KeyError, AttributeError, RecursionError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _checked_grid(grid: hpo.HpGrid) -> hpo.HpGrid:
    """Every grid name must be a GbtParams field and every value valid for it."""
    for name, values in grid.values.items():
        for v in values:
            _check_fields(GbtParams(**{name: v}))
    return grid


@dataclasses.dataclass(frozen=True)
class Run:
    """One method and search of a config, every section it reads checked.
    ``config`` is the raw dict, flag overrides in, that a bundle records."""

    config: dict
    method: str
    hpo_mode: str
    weights: str
    params: GbtParams
    cv: hpo.CvConfig
    grid: hpo.HpGrid | None  # None under fixed; no prune map under gs and hgs
    halving: hpo.HalvingConfig | None  # None under fixed and gs, whose one rung takes every row
    policy: casc.LastStagePolicy | None  # None under mcc
    threshold: float
    unknown_action: str
    label_column: str
    out_dir: str


def _read_run(cfg: dict) -> Run:
    """The run ``cfg`` asks for, read before any data file opens: the
    sections a run reads are checked in the order it reads them."""
    method = cfg.get("method", "mcc")
    hpo_mode = cfg.get("hpo", "fixed")
    if method not in METHODS:
        raise ConfigError(f"method must be mcc or sbc, got {method!r}")
    if hpo_mode not in HPO_MODES:
        raise ConfigError(f"hpo must be one of {'/'.join(HPO_MODES)}, got {hpo_mode!r}")
    if hpo_mode == "phgs" and method != "sbc":
        raise ConfigError("hpo=phgs requires method=sbc")
    if hpo_mode == "fixed" and "params" not in cfg:
        raise ConfigError("hpo=fixed requires explicit params")
    if "train_csv" not in cfg:
        raise ConfigError("config needs train_csv")
    for key, allowed in (("weights", ds.WEIGHT_SCHEMES), ("unknown_action", casc.UNKNOWN_ACTIONS)):
        if key in cfg and cfg[key] not in allowed:
            raise ConfigError(f"{key} must be one of {'/'.join(allowed)}, got {cfg[key]!r}")
    threshold = cfg.get("threshold", casc.DEFAULT_THRESHOLD)
    if type(threshold) not in (int, float) or not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be a number in (0, 1), got {threshold!r}")

    params = _from_section(cfg, "params", lambda s: GbtParams(**s))
    cv = _from_section(cfg, "cv", lambda s: hpo.CvConfig(**s))
    grid = halving = policy = None
    if hpo_mode != "fixed":
        key = "grid_file" if "grid_file" in cfg else "grid"
        read = hpo.HpGrid.from_file if key == "grid_file" else hpo.HpGrid.from_mapping
        grid = _from_section(cfg, key, lambda s: _checked_grid(read(s)), DEFAULT_GRID)
        if hpo_mode != "phgs":
            grid = hpo.HpGrid(grid.values, {})
        if hpo_mode != "gs":
            halving = _from_section(cfg, "halving", lambda s: hpo.HalvingConfig(**s))
    if method == "sbc":
        policy = _from_section(cfg, "last_stage", lambda s: casc.LastStagePolicy(**s))
    return Run(cfg, method, hpo_mode, cfg.get("weights", "none"), params, cv, grid, halving,
               policy, float(threshold), cfg.get("unknown_action", "assign_last_class"),
               cfg.get("label_column", "label"), cfg.get("out_dir", "."))


def _load_test(path: str, label_column: str, n_features: int,
               class_names: list[str]) -> ds.Dataset:
    """A labelled test file with the training data's feature count, its
    labels re-encoded to the training class ids."""
    test = ds.load_csv(path, label_column)
    if test.n_features != n_features:
        raise FingerprintMismatch(
            f"model expects {n_features} features, {path} has {test.n_features}"
        )
    return ds.align_to(test, class_names)


def _train_one(run: Run, train: ds.Dataset):
    """Train ``run`` on ``train``; returns (model, search results, timings).
    hpo_s sums the searches' wall clocks; train_s is the final fit's wall
    time, for a cascade the sum of its stages' fit seconds."""
    hc = run.halving or hpo.HalvingConfig(min_resources=train.n_rows)  # gs: one rung, every row
    results = []
    if run.method == "mcc":
        w = ds.compute_sample_weights(train.labels, run.weights)
        params = run.params
        if run.grid is not None:
            results = [hpo.halving_grid_search(run.grid, train.features, train.labels, run.cv, hc,
                                               "multiclass", run.weights, run.params)]
            params = results[0].best_params
        t0 = time.perf_counter()
        model = train_multiclass(train.features, train.labels, w, params)
        train_s = time.perf_counter() - t0
    else:
        ordering = casc.order_classes(ds.class_frequencies(train))
        if run.grid is not None:
            model, results = hpo.phgs_cascade(train, ordering, run.grid, run.cv, hc, run.weights,
                                              run.policy, run.params, run.threshold)
        else:
            model = casc.train_cascade(train, ordering, run.params, run.weights, run.policy,
                                       run.threshold)
        train_s = sum(m.train_seconds for m in model.metadata)
    # 0.0, not sum([])'s int 0: summary.json prints the value
    return model, results, {"hpo_s": sum((r.wall_clock for r in results), 0.0), "train_s": train_s}


def _score(bundle: ModelBundle, test: ds.Dataset, unknown_action: str, timings: dict):
    """Predict ``test`` and summarize; Unknown predictions, if any, get their
    own confusion column. Returns (confusion, per-class report, summary)."""
    t0 = time.perf_counter()
    if bundle.kind == "mcc":
        y_pred = bundle.model.predict_class(test.features)
    else:
        y_pred = casc.route(bundle.model, test.features, unknown_action)[0]
    timings = dict(timings, test_s=time.perf_counter() - t0)
    has_unknown = bool((y_pred == metrics.UNKNOWN).any())
    cm = metrics.confusion(test.labels, y_pred, len(bundle.class_names), has_unknown=has_unknown)
    report = metrics.per_class_report(cm)
    return cm, report, metrics.summarize(cm, report, timings)


def _evaluate_bundle(bundle: ModelBundle, test: ds.Dataset, unknown_action: str, timings: dict, out_dir: str):
    cm, report, summary = _score(bundle, test, unknown_action, timings)

    os.makedirs(out_dir, exist_ok=True)
    text = metrics.format_summary(summary, bundle.class_names)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    machine = {
        "accuracy": summary.accuracy,
        "avg_f1": summary.avg_f1,
        "std_f1": summary.std_f1,
        "timings": summary.timings,
        "per_class": [
            {"class": name, "precision": r.precision, "recall": r.recall,
             "f1": r.f1, "support": r.support}
            for name, r in zip(bundle.class_names, report)
        ],
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(machine, fh, indent=2)
    metrics.export_matrix(cm.counts, os.path.join(out_dir, "confusion.csv"))
    metrics.export_matrix(
        np.round(metrics.normalize_percent(cm), 6),
        os.path.join(out_dir, "confusion_normalized.csv"),
    )
    return summary


# --- subcommands ---

def cmd_prepare(args) -> int:
    policy = ds.CleaningPolicy(
        drop_duplicates=not args.keep_duplicates,
        missing_value_action=args.missing_action,
        infinity_action=args.infinity_action,
        negative_action=args.negative_action,
    )
    raw = ds.load_csv(args.input, args.label_column)
    cleaned, report = ds.clean(raw, policy)
    train, test = ds.stratified_split(cleaned, ds.SplitSpec(args.test_fraction, args.seed))
    os.makedirs(args.out, exist_ok=True)
    ds.export_csv(train, os.path.join(args.out, "train.csv"), args.label_column)
    ds.export_csv(test, os.path.join(args.out, "test.csv"), args.label_column)
    with open(os.path.join(args.out, "cleaning_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.as_text())
    print(report.as_text(), end="")
    print(f"train rows: {train.n_rows}\ntest rows: {test.n_rows}")
    return 0


def cmd_train(args) -> int:
    run = _read_run(_load_config(args.config, args))
    if getattr(args, "require_hpo", False) and run.hpo_mode == "fixed":
        raise ConfigError("tune requires hpo of gs, hgs or phgs")
    train = ds.load_csv(run.config["train_csv"], run.label_column)
    model, results, timings = _train_one(run, train)

    os.makedirs(run.out_dir, exist_ok=True)
    bundle = ModelBundle(run.method, model, run.config, dataset_fingerprint(train))
    bundle_path = os.path.join(run.out_dir, "bundle.json")
    bundle.save(bundle_path)
    for i, r in enumerate(results):
        r.export_trials(os.path.join(run.out_dir, f"hpo_trials_stage{i}.jsonl"))

    if run.config.get("test_csv"):
        test = _load_test(run.config["test_csv"], run.label_column, train.n_features,
                          bundle.class_names)
        summary = _evaluate_bundle(bundle, test, run.unknown_action, timings, run.out_dir)
        timings = summary.timings
        for label, key in metrics.QUALITY_ROWS:
            print(f"{label:12s}{getattr(summary, key):.4f}")
    for label, key in metrics.TIME_ROWS:
        print(f"{label:12s}{timings.get(key, 0.0):.3f}")
    print(f"bundle written to {bundle_path}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = ModelBundle.load(args.bundle)
    test = _load_test(args.test, args.label_column, bundle.fingerprint["n_features"],
                      bundle.class_names)
    summary = _evaluate_bundle(bundle, test, args.unknown_action, {}, args.out)
    print(metrics.format_summary(summary, bundle.class_names), end="")
    return 0


def cmd_predict(args) -> int:
    bundle = ModelBundle.load(args.bundle)
    raw = _load_unlabeled(args.input, bundle)
    # every row is predicted before the output is opened, so a failing
    # predict leaves no partial file
    if bundle.kind == "mcc":
        lines = _class_lines(bundle.class_names, bundle.model.predict_class(raw).tolist())
    else:
        lines = _trace_lines(bundle.class_names,
                             casc.predict_batch(bundle.model, raw, "emit_unknown"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


# predict's lines are json.dumps's text of {"row": i, "class": name} (mcc)
# and {"row": i, "class": name, "trace": [[stage, round(p, 6)], ...]} (sbc),
# written without a dict or a dumps per row: each name is encoded once


def _json_float(x: float) -> str:
    """``x`` as json.dumps writes it: its repr, or NaN, Infinity, -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


class _CellTexts(dict):
    """Trace cell texts by (stage, probability). A cascade gives few
    distinct cells, so each is rounded and formatted once."""

    def __missing__(self, cell):
        stage, p = cell
        text = f"[{stage}, {_json_float(round(p, 6))}]"
        if p:  # 0.0 and -0.0 are one key but two texts
            self[cell] = text
        return text


def _class_lines(names: list[str], class_ids: list[int]):
    quoted = [json.dumps(name) for name in names]
    return (f'{{"row": {i}, "class": {quoted[c]}}}\n' for i, c in enumerate(class_ids))


def _trace_lines(names: list[str], preds: list[casc.Prediction]):
    quoted, unknown = [json.dumps(name) for name in names], json.dumps("UNKNOWN")
    texts = _CellTexts()
    for i, p in enumerate(preds):
        trace = ", ".join([texts[cell] for cell in p.stage_trace])
        name = unknown if p.is_unknown else quoted[p.class_id]
        yield f'{{"row": {i}, "class": {name}, "trace": [{trace}]}}\n'


def _load_unlabeled(path: str, bundle: ModelBundle) -> np.ndarray:
    X = ds.load_features(path)
    expect = bundle.fingerprint["n_features"]
    if X.shape[1] != expect:
        raise FingerprintMismatch(f"bundle expects {expect} features, file has {X.shape[1]}")
    return X


def _parse_method(token: str):
    """A method column (any case, outer spaces ignored): mcc or sbc, then
    nothing or +fixed, or +gs, +hgs or +phgs with an optional +weights;
    phgs prunes per cascade stage, so it needs sbc."""
    method, *rest = token.strip().lower().split("+")
    hpo_mode, *weights = rest or ["fixed"]
    if (method not in METHODS or hpo_mode not in HPO_MODES
            or weights not in ([], ["weights"]) or weights and hpo_mode == "fixed"
            or hpo_mode == "phgs" and method != "sbc"):
        raise ConfigError(f"bad method column {token!r}")
    return method, hpo_mode, "inverse_frequency" if weights else "none"


def cmd_benchmark(args) -> int:
    cfg = _load_config(args.config, args)
    if "train_csv" not in cfg or "test_csv" not in cfg:
        raise ConfigError("benchmark needs prepared train_csv and test_csv")
    methods = [m for m in (args.methods or "").split(",") if m.strip()]
    if not methods:
        raise ConfigError("benchmark needs --methods")
    parsed = {}  # token -> (method, hpo mode, weights); no two tokens share a column
    for token in methods:
        column = _parse_method(token)
        if column in parsed.values():
            raise ConfigError(f"method column {token!r} repeats an earlier column")
        parsed[token] = column
    runs = {}  # token -> its Run, every column's config read before the CSVs open
    for token, (method, hpo_mode, weights) in parsed.items():
        run_cfg = dict(cfg, method=method, hpo=hpo_mode, weights=weights)
        if hpo_mode == "fixed":
            run_cfg.setdefault("params", {})
        runs[token] = run = _read_run(run_cfg)
    # the label column and out_dir are the config's own, the same in every run
    label_column, out_dir = run.label_column, run.out_dir

    train = ds.load_csv(cfg["train_csv"], label_column)
    test = _load_test(cfg["test_csv"], label_column, train.n_features, train.class_names)
    fingerprint = dataset_fingerprint(train)
    freqs = ds.class_frequencies(train)
    test_counts = np.bincount(test.labels, minlength=train.n_classes)

    columns = {}
    failures = {}
    for token, run in runs.items():
        try:
            model, _, timings = _train_one(run, train)
            bundle = ModelBundle(run.method, model, run.config, fingerprint)
            _, _, columns[token] = _score(bundle, test, run.unknown_action, timings)
        except SbcError as exc:  # the config was read whole, so only training fails a column
            failures[token] = str(exc)

    # rows: classes in descending train frequency, then summary and timing
    # rows, each a (label, cell of a column's EvalSummary) pair
    rows = [(f"{train.class_names[c]} | {freqs[c]} | {int(test_counts[c])}",
             lambda s, c=c: f"{s.per_class[c].f1:.4f}")
            for c in casc.order_classes(freqs).class_at]
    rows += [(label, lambda s, k=key: f"{getattr(s, k):.4f}")
             for label, key in metrics.QUALITY_ROWS]
    rows += [(label, lambda s, k=key: f"{s.timings.get(k, 0.0):.3f}")
             for label, key in metrics.TIME_ROWS]
    lines = ["\t".join(["class ( name | train | test )"] + methods)]
    lines += ["\t".join([label] + [cell(columns[t]) if t in columns else "FAILED" for t in methods])
              for label, cell in rows]
    table = "\n".join(lines) + "\n"

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "benchmark_report.tsv"), "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    for token, msg in failures.items():
        print(f"FAILED {token}: {msg}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbcboost")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean a raw CSV and write a stratified split")
    p.add_argument("--input", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", required=True)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-duplicates", action="store_true")
    policy = ds.CleaningPolicy
    p.add_argument("--missing-action", default=policy.missing_value_action,
                   choices=policy.MISSING_ACTIONS)
    p.add_argument("--infinity-action", default=policy.infinity_action,
                   choices=policy.INFINITY_ACTIONS)
    p.add_argument("--negative-action", default=policy.negative_action,
                   choices=policy.NEGATIVE_ACTIONS)
    p.set_defaults(func=cmd_prepare, err_code=EXIT_DATA)

    for name, require_hpo in (("train", False), ("tune", True)):
        p = sub.add_parser(name, help="train (and optionally tune) a model from a config")
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--weights", choices=ds.WEIGHT_SCHEMES)
        p.add_argument("--grid")
        p.add_argument("--unknown-action", choices=casc.UNKNOWN_ACTIONS)
        p.set_defaults(func=cmd_train, err_code=EXIT_TRAIN, require_hpo=require_hpo)

    p = sub.add_parser("evaluate", help="evaluate a saved bundle on a labeled CSV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", required=True)
    p.add_argument("--unknown-action", default="assign_last_class",
                   choices=casc.UNKNOWN_ACTIONS)
    p.set_defaults(func=cmd_evaluate, err_code=EXIT_EVAL)

    p = sub.add_parser("predict", help="predict rows of an unlabeled CSV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict, err_code=EXIT_EVAL)

    p = sub.add_parser("benchmark", help="run several method columns on one shared split")
    p.add_argument("--config", required=True)
    p.add_argument("--methods", required=True,
                   help="comma list, e.g. mcc+gs,sbc+hgs+weights,sbc+phgs")
    p.add_argument("--out")
    p.add_argument("--grid")
    p.add_argument("--unknown-action", choices=casc.UNKNOWN_ACTIONS)
    p.set_defaults(func=cmd_benchmark, err_code=EXIT_TRAIN)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BundleError, FingerprintMismatch) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except SbcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.err_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
