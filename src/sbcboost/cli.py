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

DEFAULT_GRID = {
    "max_depth": {"values": [2, 4, 6], "prune": "upper_bound"},
    "num_rounds": {"values": [20, 50], "prune": "upper_bound"},
    "learning_rate": {"values": [0.1, 0.3], "prune": "unpruned"},
}

# the flags that override a config key: (argparse dest, config key)
FLAG_KEYS = (("out", "out_dir"), ("weights", "weights"), ("grid", "grid_file"),
             ("unknown_action", "unknown_action"))

# config keys that must hold strings: open() takes an int as a file descriptor
STRING_KEYS = ("train_csv", "test_csv", "grid_file", "out_dir", "label_column")

# the timing rows train and benchmark print: (label, timings key)
TIME_ROWS = (("HPO time", "hpo_s"), ("Train time", "train_s"), ("Test time", "test_s"))


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


def _validate_config(cfg: dict) -> None:
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


def _grid_from_cfg(cfg: dict) -> hpo.HpGrid:
    if "grid_file" in cfg:
        return _from_section(cfg, "grid_file", lambda p: _checked_grid(hpo.HpGrid.from_file(p)))
    return _from_section(
        cfg, "grid", lambda m: _checked_grid(hpo.HpGrid.from_mapping(m)), DEFAULT_GRID
    )


def _search_space(cfg: dict, hpo_mode: str, n_rows: int) -> tuple[hpo.HpGrid, hpo.HalvingConfig]:
    """The grid and halving config that make one halving search run
    ``hpo_mode``: hgs and gs leave every parameter unpruned, and gs also
    scores every candidate in a single rung on all ``n_rows`` rows."""
    grid = _grid_from_cfg(cfg)
    if hpo_mode == "gs":
        return hpo.HpGrid(grid.values, {}), hpo.HalvingConfig(min_resources=n_rows)
    if hpo_mode == "hgs":
        grid = hpo.HpGrid(grid.values, {})
    return grid, _from_section(cfg, "halving", lambda s: hpo.HalvingConfig(**s))


def _load_train(cfg: dict) -> ds.Dataset:
    return ds.load_csv(cfg["train_csv"], cfg.get("label_column", "label"))


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


def _train_one(cfg: dict, train: ds.Dataset):
    """Train per the method/hpo selection; returns (model, hpo_results,
    timings dict)."""
    method = cfg.get("method", "mcc")
    hpo_mode = cfg.get("hpo", "fixed")
    weights = cfg.get("weights", "none")
    base_params = _from_section(cfg, "params", lambda s: GbtParams(**s))
    cv = _from_section(cfg, "cv", lambda s: hpo.CvConfig(**s))
    threshold = float(cfg.get("threshold", casc.DEFAULT_THRESHOLD))
    timings = {"hpo_s": 0.0, "train_s": 0.0}
    if hpo_mode != "fixed":
        grid, hc = _search_space(cfg, hpo_mode, train.n_rows)

    if method == "mcc":
        w = ds.compute_sample_weights(train.labels, weights)
        params = base_params
        results = []
        if hpo_mode != "fixed":
            result = hpo.halving_grid_search(
                grid, train.features, train.labels, cv, hc, "multiclass", weights, base_params
            )
            params = result.best_params
            results = [result]
            timings["hpo_s"] = result.wall_clock
        t0 = time.perf_counter()
        model = train_multiclass(train.features, train.labels, w, params)
        timings["train_s"] = time.perf_counter() - t0
        return model, results, timings

    # sbc
    ordering = casc.order_classes(ds.class_frequencies(train))
    policy = _from_section(cfg, "last_stage", lambda s: casc.LastStagePolicy(**s))
    if hpo_mode == "fixed":
        t0 = time.perf_counter()
        model = casc.train_cascade(train, ordering, base_params, weights, policy, threshold)
        timings["train_s"] = time.perf_counter() - t0
        return model, [], timings

    model, results = hpo.phgs_cascade(
        train, ordering, grid, cv, hc, weights, policy, base_params, threshold
    )
    timings["hpo_s"] = sum(r.wall_clock for r in results)
    timings["train_s"] = sum(m.train_seconds for m in model.metadata)
    return model, results, timings


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
    cfg = _load_config(args.config, args)
    if getattr(args, "require_hpo", False) and cfg.get("hpo", "fixed") == "fixed":
        raise ConfigError("tune requires hpo of gs, hgs or phgs")
    _validate_config(cfg)
    train = _load_train(cfg)
    model, results, timings = _train_one(cfg, train)

    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    bundle = ModelBundle(cfg.get("method", "mcc"), model, cfg, dataset_fingerprint(train))
    bundle_path = os.path.join(out_dir, "bundle.json")
    bundle.save(bundle_path)
    for i, r in enumerate(results):
        r.export_trials(os.path.join(out_dir, f"hpo_trials_stage{i}.jsonl"))

    if cfg.get("test_csv"):
        test = _load_test(cfg["test_csv"], cfg.get("label_column", "label"),
                          train.n_features, bundle.class_names)
        summary = _evaluate_bundle(
            bundle, test, cfg.get("unknown_action", "assign_last_class"), timings, out_dir
        )
        timings = summary.timings
        for label, key in metrics.QUALITY_ROWS:
            print(f"{label:12s}{getattr(summary, key):.4f}")
    for label, key in TIME_ROWS:
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
    names = bundle.class_names
    # every row is predicted before the output is opened, so a failing
    # predict leaves no partial file
    if bundle.kind == "mcc":
        pred = bundle.model.predict_class(raw)
        records = ({"row": i, "class": names[c]} for i, c in enumerate(pred))
    else:
        pred = casc.predict_batch(bundle.model, raw, "emit_unknown")
        records = ({"row": i, "class": "UNKNOWN" if p.is_unknown else names[p.class_id],
                    "trace": [[s, round(prob, 6)] for s, prob in p.stage_trace]}
                   for i, p in enumerate(pred))
    lines = (json.dumps(r) + "\n" for r in records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def _load_unlabeled(path: str, bundle: ModelBundle) -> np.ndarray:
    X = ds.load_features(path)
    expect = bundle.fingerprint["n_features"]
    if X.shape[1] != expect:
        raise FingerprintMismatch(f"bundle expects {expect} features, file has {X.shape[1]}")
    return X


def _parse_method(token: str):
    """A method column (any case, outer spaces ignored): mcc or sbc, then
    nothing or +fixed, or +gs, +hgs or +phgs with an optional +weights."""
    method, *rest = token.strip().lower().split("+")
    hpo_mode, *weights = rest or ["fixed"]
    if (method not in METHODS or hpo_mode not in HPO_MODES
            or weights not in ([], ["weights"]) or weights and hpo_mode == "fixed"):
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

    train = _load_train(cfg)
    test = _load_test(cfg["test_csv"], cfg.get("label_column", "label"),
                      train.n_features, train.class_names)
    freqs = ds.class_frequencies(train)
    test_counts = np.bincount(test.labels, minlength=train.n_classes)

    columns = {}
    failures = {}
    for token, (method, hpo_mode, weights) in parsed.items():
        run_cfg = dict(cfg, method=method, hpo=hpo_mode, weights=weights)
        if hpo_mode == "fixed":
            run_cfg.setdefault("params", {})
        _validate_config(run_cfg)
        try:
            model, _, timings = _train_one(run_cfg, train)
            bundle = ModelBundle(method, model, run_cfg, dataset_fingerprint(train))
            _, _, columns[token] = _score(
                bundle, test, run_cfg.get("unknown_action", "assign_last_class"), timings
            )
        except ConfigError:
            raise  # the whole run's config is bad; only training fails a column
        except SbcError as exc:
            failures[token] = str(exc)

    # rows: classes in descending train frequency, then summary and timing
    # rows, each a (label, cell of a column's EvalSummary) pair
    rows = [(f"{train.class_names[c]} | {freqs[c]} | {int(test_counts[c])}",
             lambda s, c=c: f"{s.per_class[c].f1:.4f}")
            for c in casc.order_classes(freqs).class_at]
    rows += [(label, lambda s, k=key: f"{getattr(s, k):.4f}")
             for label, key in metrics.QUALITY_ROWS]
    rows += [(label, lambda s, k=key: f"{s.timings.get(k, 0.0):.3f}") for label, key in TIME_ROWS]
    lines = ["\t".join(["class ( name | train | test )"] + methods)]
    lines += ["\t".join([label] + [cell(columns[t]) if t in columns else "FAILED" for t in methods])
              for label, cell in rows]
    table = "\n".join(lines) + "\n"

    out_dir = cfg.get("out_dir", ".")
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
