"""Versioned on-disk bundles wrapping a trained model with provenance."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .cascade import SbcModel
from .data import Dataset
from .errors import FingerprintMismatch
from .gbt import GbtModel

BUNDLE_VERSION = 1


def dataset_fingerprint(d: Dataset) -> dict:
    digest = hashlib.sha256()
    digest.update(d.features.tobytes())
    digest.update(d.labels.tobytes())
    counts = np.bincount(d.labels, minlength=d.n_classes)
    return {
        "rows": d.n_rows,
        "n_features": d.n_features,
        "feature_names": list(d.feature_names),
        "class_names": list(d.class_names),
        "class_counts": [int(c) for c in counts],
        "content_sha256": digest.hexdigest(),
    }


@dataclass
class ModelBundle:
    kind: str                   # mcc | sbc
    model: GbtModel | SbcModel
    config: dict
    fingerprint: dict

    @property
    def class_names(self) -> list[str]:
        return self.fingerprint["class_names"]

    def save(self, path: str) -> None:
        doc = {
            "bundle_version": BUNDLE_VERSION,
            "kind": self.kind,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "payload": self.model.to_dict(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path: str) -> "ModelBundle":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("bundle_version") != BUNDLE_VERSION:
            raise ValueError(f"unsupported bundle version {doc.get('bundle_version')!r}")
        kind = doc["kind"]
        if kind == "sbc":
            model = SbcModel.from_dict(doc["payload"])
        elif kind == "mcc":
            model = GbtModel.from_dict(doc["payload"])
        else:
            raise ValueError(f"unknown bundle kind {kind!r}")
        return cls(kind, model, doc.get("config", {}), doc["fingerprint"])

    def check_schema(self, d: Dataset) -> None:
        """Fail fast if a dataset has a feature count this bundle's model
        can't consume; data.align_to checks the class names."""
        if d.n_features != self.fingerprint["n_features"]:
            raise FingerprintMismatch(
                f"bundle expects {self.fingerprint['n_features']} features, "
                f"dataset has {d.n_features}"
            )
