"""Seeded UNSW-NB15-shaped input CSVs for the benchmark workloads.

The class design (per-class distribution parameters) is fixed; the workload
seed only draws rows from it, so every seed poses the same problem and runs
differ only in sampling.
"""

from __future__ import annotations

import hashlib

import numpy as np

# UNSW-NB15 training-set class counts (431:1 skew between first and last).
CLASS_NAMES = ("Normal", "Generic", "Exploits", "Fuzzers", "DoS",
               "Reconnaissance", "Analysis", "Backdoor", "Shellcode", "Worms")
UNSW_COUNTS = (56000, 40000, 33393, 18184, 12264, 10491, 2000, 1746, 1133, 130)

N_COUNTS, N_VOLUMES, N_CODES, N_RATES = 10, 10, 6, 14
N_CODE_VALUES = 7
FEATURE_NAMES = (
    [f"cnt{i}" for i in range(N_COUNTS)]
    + [f"vol{i}" for i in range(N_VOLUMES)]
    + [f"code{i}" for i in range(N_CODES)]
    + [f"rate{i}" for i in range(N_RATES)]
)
LABEL = "label"
DESIGN_SEED = 20240610


def _class_design():
    """Per-class distribution parameters, identical for every workload seed.

    The majority class differs from the attacks only in code0 (see
    sample_rows): most of its rows leave the cascade at stage 0, the rest
    look like attacks, and a few attack rows look like it. The other classes
    share one neighbourhood and differ only by small shifts, so they
    overlap, except that three rare ones each carry a marker (see below) so
    their F1, and with it macro F1, varies little from seed to seed.
    """
    rng = np.random.default_rng(DESIGN_SEED)
    k = len(CLASS_NAMES)
    lam = np.exp(rng.normal(0.5, 0.35, size=(k, N_COUNTS)))
    mu = rng.normal(6.0, 0.35, size=(k, N_VOLUMES))
    code_p = rng.dirichlet(np.full(N_CODE_VALUES, 2.0), size=(k, N_CODES))
    shape = rng.uniform(1.5, 2.5, size=(k, N_RATES))
    scale = np.exp(rng.normal(0.0, 0.25, size=(k, N_RATES)))
    # code0 is 0 for 87% of majority rows and for 3% of attack rows.
    code_p[0, 0] = np.eye(N_CODE_VALUES)[0] * 0.85 + 0.15 / N_CODE_VALUES
    code_p[1:, 0] *= 0.97 / (1.0 - code_p[1:, 0, :1])
    code_p[1:, 0, 0] = 0.03
    # Analysis, Backdoor and Shellcode each own one value of code1 (4, 5, 6),
    # which no other attack class uses; Worms stays inside the overlapping
    # crowd.
    code_p[:, 1, 4:] = 0.0
    for c, value in ((6, 4), (7, 5), (8, 6)):
        code_p[c, 1] = np.eye(N_CODE_VALUES)[value]
    code_p[:, 1] /= code_p[:, 1].sum(axis=1, keepdims=True)
    return lam, mu, code_p, shape, scale


def class_counts(n_rows: int) -> list[int]:
    """Split n_rows over the classes in UNSW proportions (largest remainder)."""
    total = sum(UNSW_COUNTS)
    exact = [n_rows * c / total for c in UNSW_COUNTS]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: n_rows - sum(counts)]:
        counts[i] += 1
    return counts


def sample_rows(n_rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and class ids, rows in shuffled order.

    Columns: integer counts with heavy ties, integer log-normal volumes,
    categorical codes 0-6, and rates with four decimals; all non-negative.
    """
    lam, mu, code_p, shape, scale = _class_design()
    counts = class_counts(n_rows)
    y = np.repeat(np.arange(len(counts)), counts)
    y = y[rng.permutation(y.size)]
    # Majority rows take every feature but code0 from an attack class drawn
    # in attack proportions, so code0 alone tells them apart.
    like = y.copy()
    attack_share = np.asarray(counts[1:], dtype=np.float64) / sum(counts[1:])
    like[y == 0] = 1 + rng.choice(len(counts) - 1, size=counts[0], p=attack_share)
    cnt = rng.poisson(lam[like])
    vol = np.floor(np.exp(rng.normal(mu[like], 1.0)))
    u = rng.random((y.size, N_CODES, 1))
    codes = (u > np.cumsum(code_p[like], axis=2)).sum(axis=2)
    codes[:, 0] = (u[:, 0] > np.cumsum(code_p[y, 0], axis=1)).sum(axis=1)
    rates = np.round(rng.gamma(shape[like], scale[like]), 4)
    X = np.hstack([cnt, vol, np.minimum(codes, N_CODE_VALUES - 1), rates]).astype(np.float64)
    return X, y


ROW_FORMAT = ",".join(["%d"] * (N_COUNTS + N_VOLUMES + N_CODES) + ["%.4f"] * N_RATES)


def _format(X: np.ndarray) -> list[str]:
    return [ROW_FORMAT % tuple(row) for row in X.tolist()]


def write_csv(path: str, rows: list[str], header: list[str]) -> str:
    """Write the header and the rows; returns the sha256 of the bytes written."""
    data = (",".join(header) + "\n" + "\n".join(rows) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def labelled_csv(path: str, n_rows: int, rng, missing_share: float = 0.0,
                 duplicate_share: float = 0.0) -> str:
    """Raw labelled CSV; optional blank cells and exact duplicate rows."""
    X, y = sample_rows(n_rows, rng)
    rows = _format(X)
    if missing_share:
        flat = rng.choice(X.size, size=int(round(missing_share * X.size)), replace=False)
        blanks: dict[int, list[int]] = {}
        for r, c in zip(*np.unravel_index(np.sort(flat), X.shape)):
            blanks.setdefault(int(r), []).append(int(c))
        for r, cols in blanks.items():
            cells = rows[r].split(",")
            for c in cols:
                cells[c] = ""
            rows[r] = ",".join(cells)
    rows = [f"{r},{CLASS_NAMES[k]}" for r, k in zip(rows, y.tolist())]
    if duplicate_share:
        n_dup = int(round(duplicate_share * n_rows))
        src = rng.choice(n_rows, size=n_dup, replace=False)
        copies = [rows[i] for i in src.tolist()]
        at = rng.choice(n_rows + 1, size=n_dup)
        # insert from the back so earlier insertion points stay valid
        for i in np.argsort(-at, kind="stable").tolist():
            rows.insert(int(at[i]), copies[i])
    return write_csv(path, rows, list(FEATURE_NAMES) + [LABEL])


def unlabelled_csv(path: str, n_rows: int, rng) -> str:
    X, _ = sample_rows(n_rows, rng)
    return write_csv(path, _format(X), list(FEATURE_NAMES))
