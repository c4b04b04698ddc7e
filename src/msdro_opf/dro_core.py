"""Worst-case expectations over the multi-source Wasserstein ambiguity set.

The ambiguity set holds joint distributions on a box support whose j-th
marginal lies within a 1-Wasserstein budget epsilon_j of the empirical
distribution of dataset j. Three formulations are implemented:

* ``wc_expectation_general``: the exact reformulation over multi-indices
  (one epigraph variable per combination of sample indices). Exponential
  in the number of features; used as the oracle for the other two.
* ``wc_expectation_separable``: for costs that split as sum_j c_j * xi_j,
  one epigraph variable per (feature, sample). Linear size.
* ``wc_expectation_standardized``: for datasets with a shared sample index
  (equal lengths), one epigraph variable per shared sample. Linear size.

All three resolve the inner supremum over the box support in closed form
for p = 1 with the 1-norm: per coordinate the maximizer is one of the two
support corners or the sample itself, giving three epigraph cuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModeError, SizeError
from .lp import GE, INFINITY, Model, align_left, family

#: Relative tolerance for objective-value equivalence between formulations.
VALUE_RTOL = 1e-6

#: Width of the band around the usefulness threshold flagged as degenerate.
DEGENERACY_BAND = 1e-9


@dataclass(frozen=True)
class BoxSupport:
    """Per-coordinate interval [lower_j, upper_j] containing the error vector.

    Both bounds must bracket zero in every coordinate (the forecast itself
    is always a feasible realization).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InputError("support bounds must be vectors of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise InputError("support bounds must be finite")
        if np.any(lower > upper):
            raise InputError("support has lower > upper")
        if np.any(lower > 0) or np.any(upper < 0):
            raise InputError("support must satisfy lower <= 0 <= upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def contains(self, points, tol: float = 1e-9) -> bool:
        """True when every column of ``points`` (D x n) lies in the box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(
            np.all(pts >= self.lower[:, None] - tol)
            and np.all(pts <= self.upper[:, None] + tol)
        )


@dataclass(frozen=True)
class PiecewiseMaxAffine:
    """Cost c(xi) = max_k (a_k . xi + b_k) with K affine pieces."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape[0] != b.shape[0] or a.shape[0] < 1:
            raise InputError("need one intercept per affine piece")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def num_pieces(self) -> int:
        return self.a.shape[0]

    @property
    def dimension(self) -> int:
        return self.a.shape[1]

    def evaluate(self, xi) -> np.ndarray:
        """Cost at each column of a D x n point array."""
        pts = np.atleast_2d(np.asarray(xi, dtype=float))
        return np.max(self.a @ pts + self.b[:, None], axis=0)


@dataclass(frozen=True)
class SeparableAffineCost:
    """Cost c(xi) = sum_j c_j * xi_j."""

    c: np.ndarray

    def __init__(self, c):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        object.__setattr__(self, "c", c)

    @property
    def dimension(self) -> int:
        return len(self.c)

    def evaluate(self, xi) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(xi, dtype=float))
        return self.c @ pts

    def as_piecewise(self) -> PiecewiseMaxAffine:
        return PiecewiseMaxAffine(self.c[None, :], [0.0])


class MultiDataset:
    """Per-feature sample sets with their Wasserstein budgets.

    samples : list of 1-D arrays, one per feature (lengths may differ)
    epsilons : per-feature budgets, all >= 0

    Standardized mode (equal lengths with a shared sample index) is
    required by ``wc_expectation_standardized`` and by the OPF model.
    """

    def __init__(self, samples, epsilons):
        self.samples = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
        if any(s.size == 0 for s in self.samples):
            raise InputError("every feature needs at least one sample")
        bad = [j for j, s in enumerate(self.samples) if not np.all(np.isfinite(s))]
        if bad:
            raise InputError(f"features {bad} have non-finite samples")
        self.epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
        if len(self.epsilons) != len(self.samples):
            raise InputError("need one epsilon per feature")
        if not np.all(np.isfinite(self.epsilons)):
            raise InputError("epsilons must be finite")
        if np.any(self.epsilons < 0):
            raise InputError("epsilons must be >= 0")

    @classmethod
    def from_matrix(cls, matrix, epsilons) -> "MultiDataset":
        """Build from a D x N' array of standardized samples."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        return cls(list(matrix), epsilons)

    @property
    def dimension(self) -> int:
        return len(self.samples)

    @property
    def counts(self) -> np.ndarray:
        return np.array([len(s) for s in self.samples])

    @property
    def is_standardized(self) -> bool:
        return len(set(len(s) for s in self.samples)) == 1

    def matrix(self) -> np.ndarray:
        if not self.is_standardized:
            raise ModeError("datasets have unequal lengths; no shared index")
        return np.vstack(self.samples)

    def validate_within(self, support: BoxSupport) -> None:
        if support.dimension != self.dimension:
            raise InputError("support and dataset dimensions differ")
        for j, s in enumerate(self.samples):
            if np.any(s < support.lower[j] - 1e-9) or np.any(s > support.upper[j] + 1e-9):
                raise InputError(f"feature {j} has samples outside the support")


def sup_affine_minus_l1(a, lam, sample, support: BoxSupport) -> float:
    """Exact value of sup over the box of a.xi - sum_j lam_j |xi_j - sample_j|.

    The objective separates per coordinate and each 1-D piece is concave
    piecewise linear with breakpoint at the sample, so the maximizer is the
    upper corner, the lower corner, or the sample itself.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    sample = np.atleast_1d(np.asarray(sample, dtype=float))
    if not (len(a) == len(lam) == len(sample) == support.dimension):
        raise InputError("dimension mismatch")
    if np.any(lam < 0):
        raise InputError("lambda must be >= 0")
    if not support.contains(sample[:, None]):
        raise InputError("sample lies outside the support")
    up = a * support.upper - lam * (support.upper - sample)
    lo = a * support.lower + lam * (support.lower - sample)
    av = a * sample
    return float(np.sum(np.maximum(np.maximum(up, lo), av)))


def wasserstein_cuts(model: Model, name: str, w, lam, sample, lower, upper,
                     const=None, cols=None, coefs=None, where=None) -> tuple:
    """Epigraph cuts w >= sup over [lower, upper] of a*xi - lam |xi - sample|.

    One cut block per entry of the column array ``w``: the 1-D supremum is
    attained at the upper corner, the lower corner or the sample, giving
    the families ``{name}_up``, ``{name}_lo`` and ``{name}_av`` (all >=),
    interleaved row by row. ``lam``, ``sample``, ``lower`` and ``upper``
    broadcast against ``w`` with axes lined up from the left. The slope is
    ``a = const + sum_t coefs[..., t] * x[cols[..., t]]``: ``const`` alone
    for a fixed cost, ``cols``/``coefs`` (one trailing axis beyond ``w``)
    when the slope is itself a decision; without ``const`` the rows have
    rhs 0. ``where`` keeps the corner cuts only where true (the sample cut
    always stays); dropping them is exact when lam is fixed to zero.
    Returns the three families.
    """
    w = np.asarray(w)
    nd = w.ndim
    up, lo, xs = (align_left(np.asarray(v, dtype=float), nd)
                  for v in (upper, lower, sample))
    lam = align_left(lam, nd)

    def rows(suffix, point, lam_coef, keep):
        terms = [(w, 1.0)]
        if cols is not None:
            terms.append((cols, -np.asarray(coefs) * point[..., None]))
        if lam_coef is not None:
            terms.append((lam, lam_coef))
        rhs = 0.0 if const is None else align_left(const, nd) * point
        return family(f"{name}_{suffix}", w.shape, terms, GE, rhs, keep)

    return model.add(rows("up", up, up - xs, where),
                     rows("lo", lo, -(lo - xs), where),
                     rows("av", xs, None, None))


def _add_sample_cuts(model: Model, w, lam, data: MultiDataset,
                     support: BoxSupport, slope) -> None:
    """Three cuts per sample of every feature (see ``wasserstein_cuts``).

    ``w`` stacks the features' epigraph columns along its first axis, one
    entry per sample in feature order; ``lam[j]`` is feature j's multiplier
    column and ``slope[j]`` its cost coefficient, per affine piece along any
    further axis of ``w``.
    """
    feature = np.repeat(np.arange(data.dimension), data.counts)
    wasserstein_cuts(model, "cut", w, lam[feature],
                     np.concatenate(data.samples), support.lower[feature],
                     support.upper[feature], const=slope[feature])


def _solve_shared_index(model: Model, lam, cost: PiecewiseMaxAffine,
                        data: MultiDataset, support: BoxSupport, solver):
    """Shared-index epigraph LP on top of the multiplier columns ``lam``.

    One epigraph variable per (feature, sample, piece) with its cuts, and
    one row per (shared sample, piece) adding them up. Returns the LP
    solution and the shared-sample epigraph columns.
    """
    d, n, k_pieces = data.dimension, int(data.counts[0]), cost.num_pieces
    w = model.add_vars("w", (d, n, k_pieces), lb=-INFINITY)
    s = model.add_vars("s", n, lb=-INFINITY, obj=1.0 / n)
    _add_sample_cuts(model, w.reshape(d * n, k_pieces), lam, data, support,
                     cost.a.T)
    model.add(family("idx", (n, k_pieces),
                     [(s, 1.0), (w.transpose(1, 2, 0), -1.0)], GE,
                     cost.b[None, :]))
    return model.solve(solver), s


def wc_expectation_general(cost: PiecewiseMaxAffine, data: MultiDataset,
                           support: BoxSupport, cap: int = 100_000,
                           solver: str | None = None) -> float:
    """Worst-case expectation via the exact multi-index linear program.

    One epigraph variable per element of the index product across datasets,
    so the instance size is prod_j N_j. Guarded by ``cap``; larger problems
    should use the separable or standardized reformulation instead.
    """
    if isinstance(cost, SeparableAffineCost):
        cost = cost.as_piecewise()
    if cost.dimension != support.dimension:
        raise InputError("cost and support dimensions differ")
    data.validate_within(support)
    counts = data.counts
    n_idx = int(np.prod(counts))
    if n_idx > cap:
        raise SizeError(
            f"index product {n_idx} exceeds cap {cap}; use the separable or "
            "standardized reformulation"
        )
    d = data.dimension
    k_pieces = cost.num_pieces

    model = Model("wc-general")
    lam = model.add_vars("lam", d, obj=data.epsilons)
    w = [model.add_vars(f"w{j}", (counts[j], k_pieces), lb=-INFINITY)
         for j in range(d)]
    s = model.add_vars("s", n_idx, lb=-INFINITY, obj=1.0 / n_idx)
    _add_sample_cuts(model, np.concatenate(w), lam, data, support, cost.a.T)
    multi = np.unravel_index(np.arange(n_idx), counts)
    picked = np.stack([w[j][multi[j]] for j in range(d)], axis=-1)
    model.add(family("idx", (n_idx, k_pieces), [(s, 1.0), (picked, -1.0)],
                     GE, cost.b[None, :]))

    sol = model.solve(solver)
    if not sol.optimal:
        raise RuntimeError(f"general worst-case LP ended {sol.status}")
    return float(sol.objective)


@dataclass
class SeparableResult:
    """Optimum of the separable-cost reformulation.

    value : worst-case expectation
    lam : optimal per-feature multipliers
    s : per-feature epigraph values (list of arrays, one per feature)
    thresholds : per-feature data-usefulness thresholds (mean distance of
        the samples to the cost-maximizing corner)
    degenerate : True where epsilon sits within DEGENERACY_BAND of the
        threshold; there the optimal lam is not unique and the reported
        value is the solver's pick
    """

    value: float
    lam: np.ndarray
    s: list
    thresholds: np.ndarray
    degenerate: np.ndarray


def separable_thresholds(cost: SeparableAffineCost, data: MultiDataset,
                         support: BoxSupport) -> np.ndarray:
    """Per-feature budget above which the data is ignored (robust regime).

    The worst corner is the lower bound for c_j <= 0 and the upper bound
    otherwise; the threshold is the mean absolute distance of the samples
    to that corner.
    """
    corners = np.where(cost.c <= 0, support.lower, support.upper)
    return np.array([np.mean(np.abs(s - corner))
                     for s, corner in zip(data.samples, corners)])


def wc_expectation_separable(cost: SeparableAffineCost, data: MultiDataset,
                             support: BoxSupport,
                             solver: str | None = None) -> SeparableResult:
    """Worst-case expectation for a separable cost (three cuts per sample)."""
    if cost.dimension != support.dimension:
        raise InputError("cost and support dimensions differ")
    data.validate_within(support)
    d = data.dimension
    counts = data.counts

    model = Model("wc-separable")
    lam = model.add_vars("lam", d, obj=data.epsilons)
    s = [model.add_vars(f"s{j}", counts[j], lb=-INFINITY, obj=1.0 / counts[j])
         for j in range(d)]
    _add_sample_cuts(model, np.concatenate(s), lam, data, support, cost.c)
    sol = model.solve(solver)
    if not sol.optimal:
        raise RuntimeError(f"separable worst-case LP ended {sol.status}")
    thresholds = separable_thresholds(cost, data, support)
    return SeparableResult(
        value=float(sol.objective),
        lam=np.asarray(sol.value(lam), dtype=float),
        s=[np.asarray(sol.value(sj), dtype=float) for sj in s],
        thresholds=thresholds,
        degenerate=np.abs(data.epsilons - thresholds) < DEGENERACY_BAND,
    )


@dataclass
class StandardizedResult:
    """Optimum of the shared-index reformulation."""

    value: float
    lam: np.ndarray
    s: np.ndarray


def wc_expectation_standardized(cost: PiecewiseMaxAffine, data: MultiDataset,
                                support: BoxSupport,
                                solver: str | None = None) -> StandardizedResult:
    """Worst-case expectation for standardized data (shared sample index)."""
    if isinstance(cost, SeparableAffineCost):
        cost = cost.as_piecewise()
    if cost.dimension != support.dimension:
        raise InputError("cost and support dimensions differ")
    if not data.is_standardized:
        raise ModeError("standardized reformulation needs equal sample counts")
    data.validate_within(support)
    model = Model("wc-standardized")
    lam = model.add_vars("lam", data.dimension, obj=data.epsilons)
    sol, s = _solve_shared_index(model, lam, cost, data, support, solver)
    if not sol.optimal:
        raise RuntimeError(f"standardized worst-case LP ended {sol.status}")
    return StandardizedResult(
        value=float(sol.objective),
        lam=np.asarray(sol.value(lam), dtype=float),
        s=np.asarray(sol.value(s), dtype=float),
    )


def wc_expectation_single_budget(cost: PiecewiseMaxAffine, data: MultiDataset,
                                 support: BoxSupport, epsilon: float,
                                 solver: str | None = None) -> float:
    """Classical single-ball Wasserstein DRO comparator.

    One shared multiplier and one total budget over the joint 1-norm,
    around the shared-index empirical distribution. With
    epsilon = sum_j epsilon_j this upper-bounds the multi-source value.
    """
    if isinstance(cost, SeparableAffineCost):
        cost = cost.as_piecewise()
    if not data.is_standardized:
        raise ModeError("single-budget comparator needs standardized data")
    data.validate_within(support)
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    model = Model("wc-single-budget")
    lam = model.add_var("lam", obj=float(epsilon))
    sol, _ = _solve_shared_index(model, np.full(data.dimension, lam), cost,
                                 data, support, solver)
    if not sol.optimal:
        raise RuntimeError(f"single-budget LP ended {sol.status}")
    return float(sol.objective)


def sample_average(cost, data: MultiDataset) -> float:
    """Cost averaged over the product empirical measure (the epsilon = 0 value)."""
    if isinstance(cost, SeparableAffineCost):
        return float(sum(cost.c[j] * np.mean(data.samples[j])
                         for j in range(data.dimension)))
    grids = np.meshgrid(*data.samples, indexing="ij")
    return float(np.mean(cost.evaluate(np.stack([g.ravel() for g in grids]))))


def robust_value(cost, support: BoxSupport) -> float:
    """Max of the cost over the box, by corner enumeration."""
    if isinstance(cost, SeparableAffineCost):
        cost = cost.as_piecewise()
    corners = np.array(list(itertools.product(*zip(support.lower, support.upper))))
    return float(np.max(cost.evaluate(corners.T)))
