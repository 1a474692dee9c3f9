"""Frequency-ordered cascade of binary boosted classifiers for imbalanced
multi-class problems, with the matching baseline, hyperparameter search
engines, evaluation metrics and CLI."""

from .data import (
    CleaningPolicy,
    Dataset,
    SplitSpec,
    class_frequencies,
    clean,
    compute_sample_weights,
    load_csv,
    stratified_split,
)
from .gbt import GbtModel, GbtParams, train_binary, train_multiclass
from .cascade import (
    ClassOrdering,
    LastStagePolicy,
    Prediction,
    SbcModel,
    binarize_stage,
    last_stage_view,
    order_classes,
    predict_batch,
    train_cascade,
)
from .hpo import (
    CvConfig,
    HalvingConfig,
    HpGrid,
    HpoResult,
    cross_validate,
    grid_search,
    halving_grid_search,
    phgs_cascade,
    prune_grid,
)
from .metrics import (
    ConfusionMatrix,
    EvalSummary,
    confusion,
    macro_f1,
    normalize_percent,
    per_class_report,
    summarize,
)
from .bundle import ModelBundle

__version__ = "0.1.0"
