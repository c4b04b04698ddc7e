"""Wasserstein-based data quality signals and obfuscation bounds.

A dataset's quality is summarized by a budget epsilon: an upper bound on
W_p^p between the empirical distribution of the published samples and the
distribution they stand in for. Three ways to obtain epsilon are covered:

* additive noise with known law (analytic expectation of ||Z||^p),
* the Laplace mechanism for differential privacy (a special case of the
  above with scale = sensitivity / theta),
* direct empirical transport distance between an original and a published
  dataset, for protocols where the additive bound does not apply.

The downstream OPF pipeline consumes epsilon as given and fixes p = 1 with
the 1-norm; other (p, norm) combinations are supported here only.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedError


@dataclass
class QualitySignal:
    """Wasserstein budget for one feature: an upper bound on W_p^p."""

    epsilon: float
    p: int = 1

    def __post_init__(self):
        if self.epsilon < 0:
            raise InputError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass
class NoiseModel:
    """Additive noise description: laplace(scale), gaussian(stddev) or custom samples."""

    kind: str
    scale: float = 0.0
    stddev: float = 0.0
    samples: np.ndarray | None = None
    dimension: int = 1

    @classmethod
    def laplace(cls, scale: float, dimension: int = 1) -> "NoiseModel":
        if scale <= 0:
            raise InputError("laplace scale must be > 0")
        return cls(kind="laplace", scale=float(scale), dimension=dimension)

    @classmethod
    def gaussian(cls, stddev: float, dimension: int = 1) -> "NoiseModel":
        if stddev <= 0:
            raise InputError("gaussian stddev must be > 0")
        return cls(kind="gaussian", stddev=float(stddev), dimension=dimension)

    @classmethod
    def custom(cls, samples, dimension: int = 1) -> "NoiseModel":
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise InputError("custom noise needs at least one sample")
        return cls(kind="custom", samples=arr, dimension=dimension)


def _as_samples(values, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise InputError(f"{label} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{label} contains non-finite values")
    return arr


def empirical_wasserstein_1d(a, b, p: int = 1) -> float:
    """W_p^p between two equal-weight empirical distributions on the line.

    For equal lengths this is the mean of |sorted(a) - sorted(b)|^p.
    For unequal lengths the exact quantile coupling is evaluated: the
    optimal 1-D transport plan is the monotone one, so the distance is the
    integral of |F_a^{-1}(q) - F_b^{-1}(q)|^p over q in (0, 1).
    """
    xa = np.sort(_as_samples(a, "a"))
    xb = np.sort(_as_samples(b, "b"))
    if p < 1:
        raise InputError(f"order p must be >= 1, got {p}")
    n, m = len(xa), len(xb)
    if n == m:
        return float(np.mean(np.abs(xa - xb) ** p))
    # Merge the quantile breakpoints i/n and i/m and integrate segmentwise.
    # On the segment ending at q, F_a^{-1} is the first order statistic whose
    # breakpoint is >= q; q is one of the exact breakpoints, so the search
    # never rounds past it.
    qa = np.arange(1, n + 1) / n
    qb = np.arange(1, m + 1) / m
    q = np.union1d(qa, qb)
    ia = np.searchsorted(qa, q)
    ib = np.searchsorted(qb, q)
    width = np.diff(q, prepend=0.0)
    return float(np.sum(width * np.abs(xa[ia] - xb[ib]) ** p))


def additive_noise_bound(noise: NoiseModel, p: int = 1,
                         norm: str = "l1") -> QualitySignal:
    """Upper bound E||Z||^p on W_p^p induced by additive noise Z.

    Supported analytic cases (iid coordinates):

    ==========  =====  ====================================
    kind        p/norm  per-coordinate value
    ==========  =====  ====================================
    laplace     1/l1   scale
    laplace     2/l2   2 * scale**2
    gaussian    1/l1   stddev * sqrt(2/pi)
    gaussian    2/l2   stddev**2
    ==========  =====  ====================================

    Custom noise uses the sample mean of ||z||^p.
    """
    if (p, norm) not in ((1, "l1"), (2, "l2")):
        raise UnsupportedError(f"no bound implemented for p={p}, norm={norm!r}")
    d = noise.dimension
    if noise.kind == "laplace":
        per_coord = noise.scale if p == 1 else 2.0 * noise.scale ** 2
        eps = d * per_coord
    elif noise.kind == "gaussian":
        per_coord = noise.stddev * math.sqrt(2.0 / math.pi) if p == 1 \
            else noise.stddev ** 2
        eps = d * per_coord
    elif noise.kind == "custom":
        z = np.atleast_2d(np.asarray(noise.samples, dtype=float))
        eps = float(np.mean(np.sum(np.abs(z) ** p, axis=-1)))
    else:
        raise UnsupportedError(f"unknown noise kind {noise.kind!r}")
    return QualitySignal(epsilon=float(eps), p=p)


def laplace_mechanism(data, sensitivity: float, theta: float,
                      seed: int) -> tuple[np.ndarray, QualitySignal]:
    """Perturb each entry with iid Laplace(sensitivity/theta) noise.

    Returns the obfuscated samples and the matching quality signal
    (p=1, 1-norm), deterministic for a given seed.
    """
    if sensitivity <= 0 or theta <= 0:
        raise InputError("sensitivity and theta must be > 0")
    values = _as_samples(data, "data")
    scale = sensitivity / theta
    rng = np.random.default_rng(seed)
    noisy = values + rng.laplace(loc=0.0, scale=scale, size=values.shape)
    signal = additive_noise_bound(NoiseModel.laplace(scale), p=1, norm="l1")
    return noisy, signal


def aggregation_protocol_bound(original, published, p: int = 1) -> QualitySignal:
    """Empirical W_p^p between original and published samples.

    Covers masking or aggregation schemes where noise is not additive iid
    and the analytic bound may not hold.
    """
    eps = empirical_wasserstein_1d(original, published, p=p)
    return QualitySignal(epsilon=eps, p=p)


#: Everything a file of plain decimal rows can hold: numbers (with
#: exponents, nan and inf), commas, spaces, tabs and line ends.
_PLAIN_ROWS = re.compile(r"[-+.,0-9eEaAfFiInNtTyY \t\r\n]*")


def read_samples_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a standardized sample file.

    Expected layout: header ``xi_1,...,xi_D``, one row per shared sample
    index. Returns (feature names, D x N' array). Rows that are blank or
    hold only blank cells are skipped.

    Plain decimal rows (and empty lines) are parsed by ``np.loadtxt``.
    Anything else (quoted cells, other characters, blank cells, a ragged,
    unparsable or non-finite row) goes through the ``csv`` reader row by
    row, which accepts the same files and names the line of the first bad
    row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or not all(h.startswith("xi_") for h in header):
            raise InputError(
                f"{path}: expected header columns xi_1,...,xi_D, got {header}"
            )
        body = fh.read()
    values = _plain_rows(body, len(header))
    if values is None:
        values = _checked_rows(path, io.StringIO(body, newline=""), len(header))
    return header, values.T


def _plain_rows(body: str, width: int) -> np.ndarray | None:
    """The rows of ``body`` as an n x width array, or None unless every
    line is empty or holds ``width`` plain decimal numbers, all finite."""
    # Over these characters splitlines() breaks lines where csv does.
    rows = body.splitlines()
    if not any(rows) or not _PLAIN_ROWS.fullmatch(body):
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not np.all(np.isfinite(values)):
        return None
    return values


def _checked_rows(path, lines, width: int) -> np.ndarray:
    """Parse sample rows one by one (line numbers from 2, after the header);
    the first bad row raises ``InputError`` naming its line."""
    rows = []
    for lineno, row in enumerate(csv.reader(lines), start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise InputError(f"{path}:{lineno}: expected {width} columns")
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"{path}:{lineno}: non-finite sample value")
        rows.append(values)
    if not rows:
        raise InputError(f"{path}: no sample rows")
    return np.asarray(rows, dtype=float)


def write_samples_csv(path, samples: np.ndarray) -> None:
    """Write a D x N' sample array with the xi_1,...,xi_D header."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"xi_{j + 1}" for j in range(samples.shape[0])])
        for i in range(samples.shape[1]):
            writer.writerow([f"{samples[j, i]:.17g}" for j in range(samples.shape[0])])


def read_quality_csv(path) -> dict[str, float]:
    """Read a ``feature,epsilon`` file into an ordered mapping."""
    out: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        if header != ["feature", "epsilon"]:
            raise InputError(f"{path}: expected header 'feature,epsilon', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise InputError(f"{path}:{lineno}: expected 2 columns")
            try:
                eps = float(row[1])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if not (math.isfinite(eps) and eps >= 0):
                raise InputError(f"{path}:{lineno}: epsilon must be a finite "
                                 "number >= 0")
            out[row[0].strip()] = eps
    if not out:
        raise InputError(f"{path}: no quality rows")
    return out


def write_quality_csv(path, qualities: dict[str, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "epsilon"])
        for feature, eps in qualities.items():
            writer.writerow([feature, f"{eps:.17g}"])
