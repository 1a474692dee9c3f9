import json

import numpy as np
import pytest

from sbcboost import cli
from sbcboost import data as ds
from sbcboost.bundle import ModelBundle
from sbcboost.errors import BundleError

from conftest import blob_dataset


NAN = float("nan")


def _tree(**changes):
    """A one-split tree on feature 0, as a bundle stores it."""
    tree = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
            "right": [2, -1, -1], "default_left": [True, True, True],
            "value": [0.0, 0.1, -0.1], "is_leaf": [False, True, True]}
    return dict(tree, **changes)


def _gbt_payload(objective, trees):
    return {"format_version": 1, "objective": objective,
            "n_classes": 1 if objective == "binary_logistic" else 2, "base_score": 0.0,
            "n_features": 2, "params": {}, "trees": trees}


def _bundle_text(kind="mcc", tree=None, fingerprint=None, **changes):
    """A hand-written bundle over two features and two classes: for mcc one
    round of two trees, for sbc two one-tree stages. ``changes`` replace
    payload keys; ``fingerprint`` replaces the fingerprint."""
    tree = tree or _tree()
    if kind == "mcc":
        payload = _gbt_payload("multiclass_softmax", [[tree, tree]])
    else:
        stage = _gbt_payload("binary_logistic", [[tree]])
        payload = {"format_version": 1, "class_at": [0, 1], "thresholds": [0.5, 0.5],
                   "last_stage_policy": {}, "metadata": [], "class_names": ["a", "b"],
                   "n_features": 2, "stages": [stage, stage]}
    payload.update(changes)
    if fingerprint is None:
        fingerprint = {"n_features": 2, "class_names": ["a", "b"]}
    return json.dumps({"bundle_version": 1, "kind": kind, "payload": payload,
                       "fingerprint": fingerprint})


@pytest.fixture
def prepared(tmp_path):
    """A small prepared 3-class train/test pair plus a config file."""
    d = blob_dataset([200, 60, 20], seed=21)
    train, test = ds.stratified_split(d, ds.SplitSpec(0.2, seed=1))
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    ds.export_csv(train, str(train_csv))
    ds.export_csv(test, str(test_csv))
    cfg = {
        "train_csv": str(train_csv),
        "test_csv": str(test_csv),
        "label_column": "label",
        "method": "mcc",
        "hpo": "fixed",
        "params": {"num_rounds": 5, "max_depth": 2, "seed": 0},
        "out_dir": str(tmp_path / "out"),
        "cv": {"folds": 2, "seed": 0},
        "halving": {"factor": 2, "min_resources": 40, "seed": 0},
        "grid": {"max_depth": [1, 2], "num_rounds": [3, 5]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg, cfg_path


class TestPrepare:
    def test_prepare_writes_split(self, tmp_path):
        d = blob_dataset([50, 20], seed=3)
        raw = tmp_path / "raw.csv"
        ds.export_csv(d, str(raw))
        out = tmp_path / "prep"
        rc = cli.main([
            "prepare", "--input", str(raw), "--out", str(out),
            "--test-fraction", "0.2", "--seed", "4", "--negative-action", "keep",
        ])
        assert rc == 0
        train = ds.load_csv(str(out / "train.csv"), "label")
        test = ds.load_csv(str(out / "test.csv"), "label")
        assert train.n_rows + test.n_rows == 70
        assert (out / "cleaning_report.txt").exists()

    def test_prepare_default_keeps_negative_rows(self, tmp_path):
        d = blob_dataset([50, 20], seed=3)
        assert (d.features < 0).any()
        raw = tmp_path / "raw.csv"
        ds.export_csv(d, str(raw))
        out = tmp_path / "prep"
        assert cli.main(["prepare", "--input", str(raw), "--out", str(out)]) == 0
        assert "rows_dropped_negative: 0" in (out / "cleaning_report.txt").read_text()
        train = ds.load_csv(str(out / "train.csv"), "label")
        test = ds.load_csv(str(out / "test.csv"), "label")
        assert train.n_rows + test.n_rows == 70

    def test_prepare_deterministic(self, tmp_path):
        d = blob_dataset([40, 15], seed=5)
        raw = tmp_path / "raw.csv"
        ds.export_csv(d, str(raw))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["prepare", "--input", str(raw), "--out", str(out), "--seed", "9",
                      "--negative-action", "keep"])
            outs.append((out / "train.csv").read_bytes())
        assert outs[0] == outs[1]


class TestTrain:
    def test_mcc_fixed(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        rc = cli.main(["train", "--config", str(cfg_path)])
        assert rc == 0
        bundle = ModelBundle.load(str(tmp_path / "out" / "bundle.json"))
        assert bundle.kind == "mcc"
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_sbc_phgs_writes_trial_logs(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cfg = dict(cfg, method="sbc", hpo="phgs", out_dir=str(tmp_path / "out2"))
        p = tmp_path / "cfg2.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(p)])
        assert rc == 0
        bundle = ModelBundle.load(str(tmp_path / "out2" / "bundle.json"))
        assert bundle.kind == "sbc"
        assert len(bundle.model.stages) == 3
        for i in range(3):
            assert (tmp_path / "out2" / f"hpo_trials_stage{i}.jsonl").exists()

    def test_phgs_requires_sbc(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cfg = dict(cfg, hpo="phgs")
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG

    def test_fixed_requires_params(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cfg = dict(cfg)
        cfg.pop("params")
        p = tmp_path / "bad2.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG

    def test_tune_rejects_fixed(self, prepared):
        _, _, cfg_path = prepared
        assert cli.main(["tune", "--config", str(cfg_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, value", [
        ("cv", {"nfolds": 3}),
        ("cv", {"folds": 1}),
        ("cv", {"folds": 2.5}),
        ("halving", {"rate": 3}),
        ("halving", {"factor": 1}),
        ("last_stage", {"sorce": "all_others"}),
        ("last_stage", {"source": "bogus"}),
        ("grid", {"max_dept": [1, 2]}),
        ("grid", {"max_depth": [2, 1]}),
        ("grid", {"max_depth": [0, 1]}),
        ("grid", {"num_rounds": [2.5, 5]}),
        ("grid", {"max_depth": {"vals": [1, 2]}}),
    ])
    def test_bad_section_is_config_error(self, prepared, section, value):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "bad_section.json"
        p.write_text(json.dumps(dict(cfg, method="sbc", hpo="hgs", **{section: value})))
        assert cli.main(["tune", "--config", str(p)]) == cli.EXIT_CONFIG


    @pytest.mark.parametrize("method", ["mcc", "sbc"])
    @pytest.mark.parametrize("key, value", [
        ("weights", "bogus"),
        ("unknown_action", "bogus"),
        ("threshold", "abc"),
        ("threshold", 2.0),
        ("threshold", 0),
        ("threshold", True),
    ])
    def test_bad_top_level_value_is_config_error(self, prepared, method, key, value):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "bad_value.json"
        p.write_text(json.dumps(dict(cfg, method=method, **{key: value})))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG


def _with_unseen_class(tmp_path, cfg):
    """The test split with its rarest class renamed to one no bundle knows."""
    test = ds.load_csv(cfg["test_csv"], "label")
    names = test.class_names[:-1] + ["intruder"]
    path = tmp_path / "unseen.csv"
    ds.export_csv(ds.Dataset(test.features, test.labels, names, test.feature_names), str(path))
    return str(path)


class TestUnseenClass:
    def _check(self, rc, capsys):
        assert rc == cli.EXIT_EVAL
        assert "['intruder'] unknown to bundle" in capsys.readouterr().err

    def test_train(self, prepared, capsys):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "unseen.json"
        p.write_text(json.dumps(dict(cfg, test_csv=_with_unseen_class(tmp_path, cfg))))
        self._check(cli.main(["train", "--config", str(p)]), capsys)

    def test_evaluate(self, prepared, capsys):
        tmp_path, cfg, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        rc = cli.main(["evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--test", _with_unseen_class(tmp_path, cfg),
                       "--out", str(tmp_path / "eval")])
        self._check(rc, capsys)

    def test_benchmark(self, prepared, capsys):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "unseen.json"
        p.write_text(json.dumps(dict(cfg, test_csv=_with_unseen_class(tmp_path, cfg))))
        self._check(cli.main(["benchmark", "--config", str(p), "--methods", "mcc+fixed"]),
                    capsys)


class TestTestFeatureCount:
    """A test file whose feature count differs from the training data's."""

    @pytest.fixture
    def cfg_path(self, prepared):
        tmp_path, cfg, _ = prepared
        wide = tmp_path / "wide.csv"
        ds.export_csv(blob_dataset([10, 10, 10], n_features=3, seed=0), str(wide))
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(dict(cfg, test_csv=str(wide))))
        return p

    def test_train(self, cfg_path, capsys):
        assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_EVAL
        assert "wide.csv has 3" in capsys.readouterr().err

    def test_benchmark_fails_before_training(self, cfg_path, capsys):
        rc = cli.main(["benchmark", "--config", str(cfg_path), "--methods", "mcc+fixed,sbc+fixed"])
        assert rc == cli.EXIT_EVAL
        captured = capsys.readouterr()
        assert "wide.csv has 3" in captured.err
        assert captured.out == ""


class TestEvaluatePredict:
    @pytest.fixture
    def trained(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        return tmp_path, cfg

    def test_evaluate_outputs(self, trained):
        tmp_path, cfg = trained
        out = tmp_path / "eval"
        rc = cli.main([
            "evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
            "--test", cfg["test_csv"], "--out", str(out),
        ])
        assert rc == 0
        for f in ("summary.txt", "summary.json", "confusion.csv", "confusion_normalized.csv"):
            assert (out / f).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["avg_f1"] <= 1.0

    def test_evaluate_deterministic(self, trained):
        tmp_path, cfg = trained
        texts = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            cli.main([
                "evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
                "--test", cfg["test_csv"], "--out", str(out),
            ])
            doc = json.loads((out / "summary.json").read_text())
            doc.pop("timings")  # wall-clock, legitimately varies
            texts.append(json.dumps(doc))
        assert texts[0] == texts[1]

    def test_fingerprint_mismatch(self, trained, tmp_path_factory):
        tmp_path, cfg = trained
        other = tmp_path_factory.mktemp("other")
        bad = blob_dataset([10, 10], n_features=5, seed=0)
        bad_csv = other / "bad.csv"
        ds.export_csv(bad, str(bad_csv))
        rc = cli.main([
            "evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
            "--test", str(bad_csv), "--out", str(other / "o"),
        ])
        assert rc == cli.EXIT_EVAL

    def test_predict_mcc_no_trace(self, trained, capsys):
        tmp_path, cfg = trained
        unl = tmp_path / "unlabeled.csv"
        test = ds.load_csv(cfg["test_csv"], "label")
        with open(unl, "w") as fh:
            for row in test.features[:5]:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        rc = cli.main(["predict", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--input", str(unl)])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 5
        assert "trace" not in lines[0]
        assert lines[0]["class"].startswith("class")

    @pytest.mark.parametrize("text, n_rows", [
        (",1.5\n2.0,3.0\n", 2),        # headerless, blank cell in row 0
        ("1.0,2.0\n,3.0\n", 2),        # blank cell in a later row
        ("f0,f1\n1.0,NaN\n", 1),       # header row
    ])
    def test_predict_missing_cells(self, trained, capsys, text, n_rows):
        tmp_path, _ = trained
        unl = tmp_path / "blanks.csv"
        unl.write_text(text)
        rc = cli.main(["predict", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--input", str(unl)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == n_rows

    def test_predict_ragged_file(self, trained):
        tmp_path, _ = trained
        unl = tmp_path / "ragged.csv"
        unl.write_text("1.0,2.0\n3.0\n")
        rc = cli.main(["predict", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--input", str(unl)])
        assert rc == cli.EXIT_EVAL

    def test_predict_sbc_has_trace(self, prepared):
        tmp_path, cfg, _ = prepared
        cfg = dict(cfg, method="sbc", out_dir=str(tmp_path / "sbc_out"))
        p = tmp_path / "sbc.json"
        p.write_text(json.dumps(cfg))
        cli.main(["train", "--config", str(p)])
        test = ds.load_csv(cfg["test_csv"], "label")
        unl = tmp_path / "u.csv"
        with open(unl, "w") as fh:
            for row in test.features[:3]:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        out = tmp_path / "preds.jsonl"
        rc = cli.main(["predict", "--bundle", str(tmp_path / "sbc_out" / "bundle.json"),
                       "--input", str(unl), "--out", str(out)])
        assert rc == 0
        recs = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert all("trace" in r and len(r["trace"]) >= 1 for r in recs)


class TestBenchmark:
    def test_two_columns(self, prepared, capsys):
        tmp_path, cfg, cfg_path = prepared
        rc = cli.main([
            "benchmark", "--config", str(cfg_path),
            "--methods", "mcc+fixed,sbc+fixed",
        ])
        assert rc == 0
        report = (tmp_path / "out" / "benchmark_report.tsv").read_text()
        lines = report.strip().splitlines()
        header = lines[0].split("\t")
        assert header[1:] == ["mcc+fixed", "sbc+fixed"]
        # 3 class rows + accuracy + avg + std + 3 timing rows
        assert len(lines) == 1 + 3 + 6
        assert lines[1].split("\t")[0].startswith("class0 | ")

    def test_hpo_columns(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        rc = cli.main([
            "benchmark", "--config", str(cfg_path),
            "--methods", "mcc+hgs,sbc+hgs+weights",
        ])
        assert rc == 0
        report = (tmp_path / "out" / "benchmark_report.tsv").read_text()
        assert "FAILED" not in report

    def test_emit_unknown_columns(self, prepared):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "unknown.json"
        p.write_text(json.dumps(dict(cfg, unknown_action="emit_unknown", threshold=0.99)))
        rc = cli.main(["benchmark", "--config", str(p), "--methods", "mcc+fixed,sbc+fixed"])
        assert rc == 0
        report = (tmp_path / "out" / "benchmark_report.tsv").read_text()
        assert "FAILED" not in report


    @pytest.mark.parametrize("update, methods", [
        ({"cv": {"nfolds": 3}}, "mcc+fixed,sbc+hgs"),
        ({}, "mcc+phgs"),
    ])
    def test_config_error_exits_2(self, prepared, update, methods):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "bad_benchmark.json"
        p.write_text(json.dumps(dict(cfg, **update)))
        rc = cli.main(["benchmark", "--config", str(p), "--methods", methods])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "out" / "benchmark_report.tsv").exists()


class TestBundle:
    def test_round_trip_predictions(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        path = str(tmp_path / "out" / "bundle.json")
        bundle = ModelBundle.load(path)
        test = ds.load_csv(cfg["test_csv"], "label")
        before = bundle.model.predict_proba(test.features)
        bundle.save(path + ".copy")
        again = ModelBundle.load(path + ".copy")
        assert np.array_equal(before, again.model.predict_proba(test.features))

    @pytest.mark.parametrize("text", [
        '{"bundle_version": 99}',
        '{not json',
        '{"bundle_version": 1, "payload": {}, "fingerprint": {}}',
        '{"bundle_version": 1, "kind": "mcc", "fingerprint": {}}',
        '{"bundle_version": 1, "kind": "xgb", "payload": {}, "fingerprint": {}}',
        '{"bundle_version": 1, "kind": "mcc", "payload": {"format_version": 1}, '
        '"fingerprint": {}}',
        _bundle_text(tree=_tree(value=[0.0, 0.1])),
        _bundle_text(tree={key: [] for key in _tree()}),
        # node 2 points back at leaf 1: no cycle, but not a preorder tree
        _bundle_text(tree=_tree(feature=[0, -1, 0], left=[1, -1, 1], right=[2, -1, 1],
                                is_leaf=[False, True, False])),
        _bundle_text(tree=_tree(right=[9, -1, -1])),
        _bundle_text(tree=_tree(right=[-1, -1, -1])),
        _bundle_text(tree=_tree(feature=[7, -1, -1])),
        _bundle_text(tree=_tree(feature=[10**30, -1, -1])),
        _bundle_text(tree=_tree(is_leaf=[True, True, True])),
        _bundle_text(objective="softmax"),
        _bundle_text(trees=[[_tree()]]),
        _bundle_text("sbc", thresholds=[0.5, 1.5]),
        _bundle_text("sbc", thresholds=[0.5]),
        _bundle_text("sbc", stages=[_gbt_payload("multiclass_softmax", [[_tree(), _tree()]])] * 2),
        _bundle_text(fingerprint={}),
        _bundle_text(fingerprint={"n_features": 3, "class_names": ["a", "b"]}),
        _bundle_text("sbc", fingerprint={"n_features": 2, "class_names": ["a"]}),
        _bundle_text("sbc", class_at=[-1, 1]),
        _bundle_text("sbc", class_at=[1, 1]),
        _bundle_text(tree=_tree(value=[0.0, NAN, -0.1])),
        _bundle_text(tree=_tree(threshold=[NAN, 0.0, 0.0])),
        _bundle_text(base_score=NAN),
        _bundle_text("sbc", tree=_tree(value=[0.0, NAN, NAN])),
        _bundle_text("sbc", stages=[dict(_gbt_payload("binary_logistic", [[_tree()]]),
                                         base_score=NAN)] * 2),
    ], ids=["version", "not_json", "no_kind", "no_payload", "unknown_kind", "bad_payload",
            "tree_lengths", "empty_tree", "child_before_parent", "child_out_of_range",
            "one_child", "feature_range", "huge_index", "is_leaf", "objective", "group_size",
            "threshold_range", "threshold_count", "multiclass_stage", "empty_fingerprint",
            "fingerprint_n_features", "fingerprint_class_names", "class_at_negative",
            "class_at_repeated", "nan_value", "nan_threshold", "nan_base_score",
            "sbc_nan_value", "sbc_nan_base_score"])
    def test_bad_bundle_exits_5(self, tmp_path, capsys, text):
        path = tmp_path / "bundle.json"
        path.write_text(text)
        rows = tmp_path / "rows.csv"
        rows.write_text("1.0,2.0\n")
        rc = cli.main(["predict", "--bundle", str(path), "--input", str(rows)])
        assert rc == cli.EXIT_EVAL
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mcc", "sbc"])
    def test_hand_written_bundle_predicts(self, tmp_path, capsys, kind):
        path = tmp_path / "bundle.json"
        path.write_text(_bundle_text(kind))
        rows = tmp_path / "rows.csv"
        rows.write_text("0.0,2.0\n1.0,2.0\n")
        rc = cli.main(["predict", "--bundle", str(path), "--input", str(rows)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_cyclic_tree_fails_on_load(self, tmp_path):
        # the root is its own child: predict would walk it forever
        path = tmp_path / "bundle.json"
        path.write_text(_bundle_text(tree=_tree(left=[0, -1, -1], right=[0, -1, -1])))
        with pytest.raises(BundleError, match="child"):
            ModelBundle.load(str(path))

    def test_failed_save_keeps_old_bundle(self, prepared, monkeypatch):
        tmp_path, _, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        out = tmp_path / "out"
        before = (out / "bundle.json").read_bytes()
        bundle = ModelBundle.load(str(out / "bundle.json"))

        def dump_then_fail(doc, fh):
            fh.write('{"bundle_version": 1, "kind": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            bundle.save(str(out / "bundle.json"))
        assert (out / "bundle.json").read_bytes() == before
        assert not list(out.glob("*.tmp"))
