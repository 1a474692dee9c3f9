"""Versioned on-disk bundles wrapping a trained model with provenance."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .cascade import SbcModel
from .data import Dataset
from .errors import BundleError, FingerprintMismatch
from .gbt import GbtModel

BUNDLE_VERSION = 1
_PAYLOAD_TYPES = {"sbc": SbcModel, "mcc": GbtModel}


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
        # write beside the target, then rename over it: a failed save leaves
        # any earlier bundle whole
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "ModelBundle":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise BundleError(f"{path}: not a JSON file: {exc}") from exc
        if not isinstance(doc, dict):
            raise BundleError(f"{path}: not a bundle object")
        if doc.get("bundle_version") != BUNDLE_VERSION:
            raise BundleError(f"{path}: unsupported bundle version {doc.get('bundle_version')!r}")
        missing = [key for key in ("kind", "payload", "fingerprint") if key not in doc]
        if missing:
            raise BundleError(f"{path}: bundle lacks {', '.join(missing)}")
        kind = doc["kind"]
        if not isinstance(kind, str) or kind not in _PAYLOAD_TYPES:
            raise BundleError(f"{path}: unknown bundle kind {kind!r}")
        try:
            model = _PAYLOAD_TYPES[kind].from_dict(doc["payload"])
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise BundleError(f"{path}: bad {kind} payload: {exc!r}") from exc
        return cls(kind, model, doc.get("config", {}), doc["fingerprint"])

    def check_schema(self, d: Dataset) -> None:
        """Fail fast if a dataset has a feature count this bundle's model
        can't consume; data.align_to checks the class names."""
        if d.n_features != self.fingerprint["n_features"]:
            raise FingerprintMismatch(
                f"bundle expects {self.fingerprint['n_features']} features, "
                f"dataset has {d.n_features}"
            )
