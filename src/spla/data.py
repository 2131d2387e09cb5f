"""Dataset ingestion, standardization and sample covariance."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .matops import NotPositiveDefiniteError, cholesky_upper

__all__ = [
    "DataError",
    "ConstantColumnError",
    "DataMatrix",
    "CovMatrix",
    "load_csv",
    "standardize",
    "sample_cov",
]


class DataError(Exception):
    """Invalid dataset content (parsing, arity, non-numeric cells)."""


class ConstantColumnError(DataError):
    """A column with (numerically) zero sample standard deviation."""


@dataclass(frozen=True)
class DataMatrix:
    """An ``N x M`` observation matrix with named variables."""

    values: np.ndarray
    variable_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        if values.ndim != 2:
            raise DataError(f"expected 2-d data, got shape {values.shape}")
        n, m = values.shape
        if n < 2:
            raise DataError("need at least 2 observations")
        if len(self.variable_names) != m:
            raise DataError(
                f"{len(self.variable_names)} names for {m} columns"
            )
        if not all(str(name).strip() for name in self.variable_names):
            raise DataError("variable names must not be empty")
        if len(set(self.variable_names)) != m:
            raise DataError("variable names must be unique")
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"observation {i + 1}, column {self.variable_names[j]!r}: "
                f"non-finite value {values[i, j]}"
            )

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CovMatrix:
    """An ``M x M`` symmetric positive-definite covariance/correlation matrix."""

    values: np.ndarray
    variable_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"covariance must be square, got {values.shape}")
        m = values.shape[0]
        if not m:
            raise DataError("covariance matrix is empty")
        if len(self.variable_names) != m:
            raise DataError(f"{len(self.variable_names)} names for {m} variables")
        if not np.all(np.isfinite(values)):
            raise DataError("covariance matrix has a non-finite entry")
        if np.max(np.abs(values - values.T)) > 1e-10:
            raise DataError("covariance matrix is not symmetric")
        # Assumption: the covariance is strictly positive definite. Verified
        # eagerly so near-singular conditioning blocks surface here, not in a
        # later regression projection.
        try:
            cholesky_upper(values)
        except NotPositiveDefiniteError as exc:
            raise DataError(f"covariance matrix is not positive definite: {exc}")

    @property
    def n_vars(self) -> int:
        return self.values.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.values))


def load_csv(path) -> DataMatrix:
    """Read a CSV dataset: header row of variable names, numeric body.

    Separator ``,``, decimal point ``.``, UTF-8 with or without a leading
    byte-order mark. A cell is what Python ``float()`` accepts once
    surrounding whitespace is stripped, quoted or not. A plain numeric body
    is parsed in one vectorised pass; any other body is read cell by cell,
    where wrong-arity rows and non-numeric cells abort with a row/column
    diagnostic. Text the ``csv`` module refuses, such as a field longer than
    :func:`csv.field_size_limit`, aborts with a line diagnostic. That limit
    holds only for text the ``csv`` reader reads: the header, and a body
    read cell by cell, such as one with a quoted cell or one from a pipe. A
    plain body read in the vectorised pass has no field limit, so the same
    oversized unquoted cell loads from a plain file; checking for it there
    would cost a second scan of the whole body.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            names = [h.strip() for h in header]
            values = _body_at_once(fh, len(names))
            if values is None:
                values = _body_by_cell(reader, names, path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return DataMatrix(values, tuple(names))


def _body_at_once(fh, m: int) -> np.ndarray | None:
    """The rest of ``fh`` as an ``N x m`` array from one ``np.loadtxt`` pass.

    None, with ``fh`` back at the first line after the header, where
    ``loadtxt`` refuses the text (quotes, whitespace-only lines, cells it
    does not parse), finds no rows or another column count. Where it
    accepts, it reads each cell as ``float()`` does, correctly rounded. A
    stream that cannot be read twice is left to the cell-by-cell route.
    """
    if not fh.seekable():
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        if values.shape[0] and values.shape[1] == m:
            return values
    except ValueError:  # UnicodeDecodeError too: the second route reports it
        pass
    fh.seek(0)
    next(csv.reader(fh))  # the header again
    return None


def _body_by_cell(reader, names: list[str], path) -> np.ndarray:
    """The remaining rows of ``reader``, one ``float()`` per cell; blank rows
    are skipped, and the first bad row or cell raises :class:`DataError`."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(names):
            raise DataError(
                f"{path}: row {lineno} has {len(row)} fields, "
                f"expected {len(names)}"
            )
        parsed = []
        for col, cell in zip(names, row):
            cell = cell.strip()
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: row {lineno}, column {col!r}: "
                    f"non-numeric value {cell!r}"
                ) from None
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def _check_overflow(variances: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise :class:`DataError` if a column's sample variance overflows."""
    bad = [name for name, v in zip(names, variances) if not np.isfinite(v)]
    if bad:
        raise DataError(f"sample covariance overflows in column(s) {', '.join(bad)}")


def standardize(d: DataMatrix) -> DataMatrix:
    """Center and scale each column to unit sample variance (divisor N-1)."""
    with np.errstate(over="ignore", invalid="ignore"):
        centered = d.values - d.values.mean(axis=0)
        sd = centered.std(axis=0, ddof=1)
    _check_overflow(sd, d.variable_names)
    # Scale-free: a constant column's sd is rounding of its own values.
    bad = np.nonzero(sd <= 1e-12 * np.max(np.abs(d.values), axis=0))[0]
    if bad.size:
        raise ConstantColumnError(
            f"constant column(s): {', '.join(d.variable_names[i] for i in bad)}"
        )
    return DataMatrix(centered / sd, d.variable_names)


def sample_cov(d: DataMatrix) -> CovMatrix:
    """Sample covariance ``(N-1)^-1 x^T x`` of the centered data.

    Centers internally; a sample with no more rows than variables (its
    covariance has rank at most N-1 < M), or whose covariance overflows or
    is not positive definite (collinear columns), raises :class:`DataError`.
    """
    if d.n_obs <= d.n_vars:
        raise DataError(
            f"{d.n_obs} rows for {d.n_vars} variables: the sample covariance "
            f"needs at least {d.n_vars + 1} rows"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        x = d.values - d.values.mean(axis=0)
        s = (x.T @ x) / (d.n_obs - 1)
    _check_overflow(np.diag(s), d.variable_names)
    s = (s + s.T) / 2.0
    return CovMatrix(s, d.variable_names)
