"""Wasserstein-based data quality signals and obfuscation bounds.

A dataset's quality is summarized by a budget epsilon: an upper bound on
W_p^p between the empirical distribution of the published samples and the
distribution they stand in for. Two ways to obtain epsilon are covered:

* additive noise with known law (analytic expectation of ||Z||^p), such
  as the Laplace noise of differential privacy, whose scale is
  sensitivity / theta,
* direct empirical transport distance between an original and a published
  dataset, for protocols where the additive bound does not apply.

The downstream OPF pipeline consumes epsilon as given and fixes p = 1 with
the 1-norm; other (p, norm) combinations are supported here only.

It is also the one module that reads and writes CSV tables: the sample and
quality files and, through ``write_csv``, every result table.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, is_integer, real


@dataclass
class QualitySignal:
    """Wasserstein budget for one feature: an upper bound on W_p^p."""

    epsilon: float

    def __post_init__(self):
        if not 0 <= real("epsilon", self.epsilon) < math.inf:
            raise InputError(
                f"epsilon must be finite and >= 0, got {self.epsilon}")


#: Name of each noise kind's parameter, for messages.
_NOISE_PARAM = {"laplace": "scale", "gaussian": "stddev"}


@dataclass(frozen=True)
class NoiseModel:
    """Additive iid noise in ``dimension`` (an integer >= 1) coordinates: a
    kind (laplace or gaussian) and its one parameter, the laplace scale or
    the gaussian stddev, kept as a float."""

    kind: str
    param: float
    dimension: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _NOISE_PARAM:
            raise InputError(f"unknown noise kind {self.kind!r}")
        label = f"{self.kind} {_NOISE_PARAM[self.kind]}"
        object.__setattr__(self, "param", real(label, self.param))
        if not 0 < self.param < math.inf:
            raise InputError(f"{label} must be finite and > 0, got {self.param}")
        if not is_integer(self.dimension) or self.dimension < 1:
            raise InputError(f"noise dimension must be an integer >= 1, got "
                             f"{self.dimension!r}")

    @classmethod
    def laplace(cls, scale: float, dimension: int = 1) -> "NoiseModel":
        return cls("laplace", scale, dimension)

    @classmethod
    def gaussian(cls, stddev: float, dimension: int = 1) -> "NoiseModel":
        return cls("gaussian", stddev, dimension)


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


#: E|z|^p of one noise coordinate, by (kind, p), from its parameter.
#: Products, not ``**``, so that an overflow gives inf instead of raising.
_NOISE_MOMENT = {
    ("laplace", 1): lambda scale: scale,
    ("laplace", 2): lambda scale: 2.0 * scale * scale,
    ("gaussian", 1): lambda stddev: stddev * math.sqrt(2.0 / math.pi),
    ("gaussian", 2): lambda stddev: stddev * stddev,
}


def additive_noise_bound(noise: NoiseModel, p: int = 1,
                         norm: str = "l1") -> QualitySignal:
    """Upper bound E||Z||^p on W_p^p induced by additive noise Z with iid
    coordinates, for p=1 with the 1-norm or p=2 with the 2-norm: the
    dimension times E|z|^p of one coordinate, which is the laplace scale or
    stddev*sqrt(2/pi) for p=1, and 2*scale**2 or stddev**2 for p=2.
    ``InputError`` when that bound overflows to inf."""
    if (p, norm) not in ((1, "l1"), (2, "l2")):
        raise InputError(f"no bound implemented for p={p}, norm={norm!r}")
    eps = noise.dimension * _NOISE_MOMENT[noise.kind, p](noise.param)
    return QualitySignal(epsilon=float(eps))


def aggregation_protocol_bound(original, published, p: int = 1) -> QualitySignal:
    """Empirical W_p^p between original and published samples.

    Covers masking or aggregation schemes where noise is not additive iid
    and the analytic bound may not hold.
    """
    eps = empirical_wasserstein_1d(original, published, p=p)
    return QualitySignal(epsilon=eps)


#: Everything a file of plain decimal rows can hold: numbers (with
#: exponents, nan and inf), commas, spaces, tabs and line ends.
_PLAIN_ROWS = re.compile(r"[-+.,0-9eEaAfFiInNtTyY \t\r\n]*")


#: The number grammar of every input: ASCII decimal text (a sign, digits
#: with a point, an exponent), nan or inf, with ASCII whitespace around it.
#: Python's ``float`` also takes underscores, other decimal digits and
#: Unicode spaces.
_NUMBER = re.compile(r"\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?"
                     r"|inf(?:inity)?|nan)\s*", re.ASCII | re.IGNORECASE)


def parse_float(label: str, text: str) -> float:
    """``text`` as a float if it is in the ``_NUMBER`` grammar; otherwise
    an ``InputError`` giving ``label`` (such as ``path:line``) and
    ``float``'s message for text it cannot read."""
    if not _NUMBER.fullmatch(text):
        raise InputError(f"{label}: could not convert string to float: "
                         f"{text!r}")
    return float(text)


def _read_header(path) -> tuple[list[str], str, int]:
    """A CSV file's header cells, stripped, the text after the header row,
    line ends as written, and the line that text starts on. A leading byte
    order mark is dropped; an empty file, or one that is not UTF-8, is an
    ``InputError`` naming it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            text = io.StringIO(fh.read(), newline="")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    return [h.strip() for h in header], text.read(), reader.line_num + 1


def _rows(path, body: str, width: int, first: int):
    """Each row of ``body``, text that starts on line ``first``, as its
    ``path:line`` label (the line the row starts on, which a quoted cell
    may carry over several lines) and its ``width`` cells. Rows that are
    blank or hold only blank cells are skipped; a row of another width is
    an ``InputError`` naming its line."""
    reader = csv.reader(io.StringIO(body, newline=""))
    start = first
    for row in reader:
        lineno, start = start, first + reader.line_num
        if all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise InputError(f"{path}:{lineno}: expected {width} columns")
        yield f"{path}:{lineno}", row


def read_samples_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a standardized sample file.

    Expected layout: a header naming ``xi_1``...``xi_D`` once each, in any
    order, and one row per shared sample index. Returns the names and the
    D x N' array, both in ``xi_1``...``xi_D`` order. Rows that are blank or
    hold only blank cells are skipped.

    Plain decimal rows (and empty lines) are parsed by ``np.loadtxt``.
    Anything else (quoted cells, other characters, blank cells, a ragged,
    unparsable or non-finite row) goes through the ``csv`` reader row by
    row, which accepts the same files and names the line of the first bad
    row.
    """
    header, body, first = _read_header(path)
    if not header or not all(h.startswith("xi_") for h in header):
        raise InputError(f"{path}: expected header columns xi_1,...,xi_D, "
                         f"got {header}")
    repeated = [h for j, h in enumerate(header) if h in header[:j]]
    if repeated:
        raise InputError(f"{path}:1: column {repeated[0]!r} repeated")
    names = [f"xi_{j + 1}" for j in range(len(header))]
    if set(header) != set(names):
        raise InputError(f"{path}:1: expected header columns xi_1,...,"
                         f"{names[-1]} in any order, got {header}")
    values = _plain_rows(body, len(header))
    if values is None:
        values = _checked_rows(path, body, len(header), first)
    return names, values[:, [header.index(name) for name in names]].T


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


def _checked_rows(path, body: str, width: int, first: int) -> np.ndarray:
    """Parse sample rows one by one, refusing the first bad one by line."""
    rows = []
    for label, row in _rows(path, body, width, first):
        values = [parse_float(label, cell) for cell in row]
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"{label}: non-finite sample value")
        rows.append(values)
    if not rows:
        raise InputError(f"{path}: no sample rows")
    return np.asarray(rows, dtype=float)


def write_samples_csv(path, samples: np.ndarray) -> None:
    """Write a D x N' sample array with the xi_1,...,xi_D header."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    write_csv(path, [f"xi_{j + 1}" for j in range(samples.shape[0])],
              ([f"{v:.17g}" for v in row] for row in samples.T.tolist()))


def read_quality_csv(path, features=None) -> dict[str, float]:
    """Read a ``feature,epsilon`` file into a mapping in file order. A
    feature named twice, or one outside ``features`` when given, is an
    ``InputError`` naming its line."""
    header, body, first = _read_header(path)
    if header != ["feature", "epsilon"]:
        raise InputError(f"{path}: expected header 'feature,epsilon', got {header}")
    out: dict[str, float] = {}
    for label, (feature, cell) in _rows(path, body, 2, first):
        eps = parse_float(label, cell)
        if not (math.isfinite(eps) and eps >= 0):
            raise InputError(f"{label}: epsilon must be a finite number >= 0")
        feature = feature.strip()
        if feature in out:
            raise InputError(f"{label}: feature {feature!r} repeated")
        if features is not None and feature not in features:
            raise InputError(f"{label}: feature {feature!r} is not one of "
                             f"{', '.join(features)}")
        out[feature] = eps
    if not out:
        raise InputError(f"{path}: no quality rows")
    return out


def write_quality_csv(path, qualities: dict[str, float]) -> None:
    write_csv(path, ["feature", "epsilon"],
              ([feature, f"{eps:.17g}"] for feature, eps in qualities.items()))


def fmt(x, nan: str = "nan") -> str:
    """A float with ten significant digits (``nan`` for NaN, ``0`` for
    -0.0), anything else with ``str``: how the CSVs and the CLI print
    values."""
    if not isinstance(x, float):
        return str(x)
    return nan if math.isnan(x) else f"{x + 0.0:.10g}"  # -0.0 + 0.0 is 0.0


def write_csv(path, header, rows, nan: str = "nan") -> None:
    """Write one table: the header, then every row's cells through
    ``fmt``. The solve tables keep the default ``nan``; the sweep tables
    pass ``nan=""`` so a failed cell's values are empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v, nan) for v in row] for row in rows)
