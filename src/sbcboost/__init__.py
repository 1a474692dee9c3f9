"""Frequency-ordered cascade of binary boosted classifiers for imbalanced
multi-class problems, with the matching baseline, hyperparameter search
engines, evaluation metrics and CLI."""

__version__ = "0.1.0"
