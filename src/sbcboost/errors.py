"""Exception hierarchy shared across the toolkit."""


class SbcError(Exception):
    """Base class for all toolkit errors."""


# --- dataset ---

class MissingLabelColumn(SbcError):
    pass


class MalformedRow(SbcError):
    def __init__(self, row_index, reason):
        self.row_index = row_index
        self.reason = reason
        super().__init__(f"row {row_index}: {reason}")


class EmptyDataset(SbcError):
    pass


class AllRowsDropped(SbcError):
    pass


class InvalidFraction(SbcError):
    pass


# --- gbt ---

class SingleClassInput(SbcError):
    pass


class EmptyData(SbcError):
    pass


class DimensionMismatch(SbcError):
    pass


class InvalidWeights(SbcError):
    """Sample weights that are NaN, infinite, negative or all zero."""


# --- cascade ---

class TooFewClasses(SbcError):
    pass


class StageOutOfRange(SbcError):
    pass


class PolicySourceEmpty(SbcError):
    pass


class StageError(SbcError):
    """Wraps a trainer/search error with the cascade stage it occurred in."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")


# --- hpo ---

class FoldDegenerate(SbcError):
    def __init__(self, fold_index, reason=""):
        self.fold_index = fold_index
        super().__init__(f"fold {fold_index} degenerate" + (f": {reason}" if reason else ""))


class ValueNotInGrid(SbcError):
    pass


# --- metrics ---

class LengthMismatch(SbcError):
    pass


class LabelOutOfRange(SbcError):
    pass


# --- cli / persistence ---

class FingerprintMismatch(SbcError):
    pass


class BundleError(SbcError):
    """A bundle file that is not valid JSON or not a bundle this version reads."""


class ConfigError(SbcError):
    pass
