"""Dataset container, CSV round-trip, and the stage-0/stage-1 split.

A dataset is rows of (covariates X, binary treatment A, scalar outcome Y).
The CSV schema is x1..xd,a,y; the header row is mandatory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError

__all__ = ["Dataset", "SplitDataset", "split_data", "compute_omega",
           "load_dataset", "dataset_to_csv", "default_v_cols", "numeric_rows"]


@dataclass
class Dataset:
    X: NDArray[np.float64]   # (n, d_x)
    A: NDArray[np.float64]   # (n,) values in {0, 1}
    Y: NDArray[np.float64]   # (n, 1)

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64).ravel()
        Y = np.asarray(self.Y, dtype=np.float64)
        self.Y = Y.reshape(-1, 1) if Y.ndim == 1 else Y
        n = self.X.shape[0]
        if self.A.shape[0] != n or self.Y.shape[0] != n:
            raise InvalidArgumentError("X, A, Y row counts disagree")
        if self.Y.ndim != 2 or self.Y.shape[1] != 1:
            raise InvalidArgumentError(
                f"outcomes must be scalar, got shape {self.Y.shape[1:]} per row")
        if not np.isin(self.A, (0.0, 1.0)).all():
            raise InvalidArgumentError("treatment column must be 0/1")
        if not (np.isfinite(self.X).all() and np.isfinite(self.Y).all()):
            raise InvalidArgumentError("covariates or outcomes hold NaN or inf")

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, idx: NDArray[np.int64]) -> "Dataset":
        return Dataset(self.X[idx], self.A[idx], self.Y[idx])


def default_v_cols(d_x: int) -> list[int]:
    """Conditioning columns when none are configured: the first five (or fewer)."""
    return list(range(min(5, d_x)))


@dataclass
class SplitDataset:
    """The random halves D0 (nuisance fitting) and D1 (second-stage rows).

    ``treated0`` indexes the rows of d0 with A = 1, if any; ``v_cols``
    selects the conditioning variables V out of X, and ``x_cols`` the
    covariates the first stage reads (None = all).
    """

    d0: Dataset
    d1: Dataset
    treated0: NDArray[np.int64]
    v_cols: list[int]
    x_cols: list[int] | None = None

    @property
    def m(self) -> int:
        return int(self.treated0.shape[0])

    @property
    def n(self) -> int:
        return len(self.d1)

    @property
    def v1(self) -> NDArray[np.float64]:
        return self.d1.X[:, self.v_cols]

    def x0_treated(self) -> NDArray[np.float64]:
        X = self.d0.X[self.treated0]
        return X if self.x_cols is None else X[:, self.x_cols]

    def y0_treated(self) -> NDArray[np.float64]:
        return self.d0.Y[self.treated0]

    def x1(self) -> NDArray[np.float64]:
        return self.d1.X


def split_data(dataset: Dataset, seed: int, v_cols: list[int] | None = None,
               x_cols: list[int] | None = None) -> SplitDataset:
    """Uniform random partition into two halves, deterministic given seed.

    Odd sizes give the extra row to D0.
    """
    N = len(dataset)
    if N < 4:
        raise InvalidArgumentError(f"need at least 4 rows to split, got {N}")
    if v_cols is None:
        v_cols = default_v_cols(dataset.X.shape[1])
    for name, cols in (("v_cols", v_cols), ("x_cols", x_cols or [])):
        if any(c < 0 or c >= dataset.X.shape[1] for c in cols):
            raise InvalidArgumentError(f"{name} out of range: {cols}")
        if len(set(cols)) < len(cols):
            raise InvalidArgumentError(f"{name} names a column twice: {cols}")
    perm = np.random.default_rng(seed).permutation(N)
    half = (N + 1) // 2
    d0 = dataset.take(perm[:half])
    d1 = dataset.take(perm[half:])
    return SplitDataset(d0, d1, np.nonzero(d0.A > 0)[0], list(v_cols),
                        None if x_cols is None else list(x_cols))


def compute_omega(d1: Dataset, pi_hat: Callable[[NDArray], NDArray],
                  clip: tuple[float, float]) -> NDArray[np.float64]:
    """Inverse-propensity weights on D1: A_i / pi_hat(X_i), exactly 0 where
    A_i = 0.  ``pi_hat`` maps covariate rows to treatment probabilities; they
    are clipped to ``clip`` = (lo, hi), 0 < lo < hi < 1 with 1/lo finite, so
    that every weight is, here and nowhere else."""
    lo, hi = clip
    if not (0.0 < lo < hi < 1.0 and 1.0 / lo < math.inf):
        raise InvalidArgumentError(
            f"clip bounds must satisfy 0 < lo < hi < 1 with 1/lo finite, got {clip}")
    p = np.clip(np.asarray(pi_hat(d1.X), dtype=np.float64), lo, hi)
    return np.where(d1.A > 0, d1.A / p, 0.0)


def dataset_to_csv(dataset: Dataset) -> str:
    """Render a dataset in the x1..xd,a,y schema with full float precision."""
    cols = [f"x{i + 1}" for i in range(dataset.X.shape[1])] + ["a", "y"]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    body = np.column_stack([dataset.X, dataset.A, dataset.Y]).tolist()
    return ",".join(cols) + "\n" + "".join([row % tuple(values) for values in body])


def numeric_rows(lines: list[str], what: str) -> NDArray[np.float64]:
    """The (rows, fields) array of comma-separated number ``lines``, the data
    rows of ``what``: a dataset or a query file.  No lines, or a line that is
    not all numbers or has another field count, is a parse error."""
    if not lines:
        raise InvalidArgumentError(f"{what} has no rows")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed {what}: {exc}") from exc


def load_dataset(text: str) -> Dataset:
    """Parse the CSV schema produced by dataset_to_csv."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidArgumentError("empty dataset file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(set(header)) < len(header):
        raise InvalidArgumentError(f"dataset header names a column twice: {lines[0]!r}")
    x_cols = [h for h in header if h.startswith("x")]
    y_cols = [h for h in header if h.startswith("y")]
    if "a" not in header or not x_cols or not y_cols:
        raise InvalidArgumentError(
            f"dataset header must be x1..xd,a,y, got {lines[0]!r}")
    if y_cols != ["y"]:
        raise InvalidArgumentError(
            f"dataset needs one scalar outcome column y, got {','.join(y_cols)}")
    if header != x_cols + ["a", "y"]:
        raise InvalidArgumentError("dataset columns out of order; expected x*, a, y")
    body = numeric_rows(lines[1:], "dataset")
    if body.shape[1] != len(header):
        raise InvalidArgumentError(
            f"rows have {body.shape[1]} fields, header has {len(header)}")
    d_x = len(x_cols)
    return Dataset(body[:, :d_x], body[:, d_x], body[:, d_x + 1])
