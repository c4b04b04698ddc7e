"""Worst-case expectations over the multi-source Wasserstein ambiguity set.

The ambiguity set holds joint distributions on a box support whose j-th
marginal lies within a 1-Wasserstein budget epsilon_j of the empirical
distribution of dataset j. Three formulations are implemented:

* ``wc_expectation_general``: the exact reformulation over multi-indices
  (one epigraph variable per combination of sample indices). Exponential
  in the number of features; used as the oracle for the other two.
* ``wc_expectation_separable``: for costs that split as sum_j c_j * xi_j,
  a closed form per feature, whatever the sample counts: moving mass
  toward the worst support end gains |c_j| per unit of transport until the
  budget or the mean distance to that end runs out.
* ``wc_expectation_standardized``: for datasets with a shared sample index
  (equal lengths), one epigraph variable per shared sample. Linear size.

Every route resolves the inner supremum over the box support in closed
form for p = 1 with the 1-norm: per coordinate it is the sample term plus
the distance to one support end times a positive part that depends on the
slope and the multiplier only (``sample_worst_case``). So the LPs carry
two columns and two rows per (feature, affine piece), not per sample
(``wasserstein_block``).

The general, standardized and single-budget routes share one epigraph LP
over equally weighted anchor points (``_solve_anchored``). Each epigraph
s_t is written relative to the piece k0(t) that is largest at anchor t:
s_t = row(t, k0) + sigma_t with sigma_t >= 0. That is exact, since
s_t >= row(t, k0) is one of the epigraph's own rows, and it is invertible,
so the LP has the same optimum; but sigma = 0 is already the sample
average, so the solver starts next to the optimum instead of pivoting
every free s_t into the basis. From that start only a few of the
n_t (K - 1) rows sigma_t >= row(t, k) - row(t, k0) are ever violated, so
they are generated: the LP is first solved without them, and the rows the
solution violates are added until it violates none. The last LP is a
relaxation whose optimum meets every row, so it is the full LP's optimum.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, real
from .lp import GE, INFINITY, Model, SolverError, align_left, family

#: Width of the band around the usefulness threshold flagged as degenerate.
DEGENERACY_BAND = 1e-9

#: How far a sample may lie outside its support box and still count as in it.
SUPPORT_TOL = 1e-9

#: Largest index product ``wc_expectation_general`` builds an LP over.
INDEX_CAP = 100_000


def _floats(values, label: str) -> np.ndarray:
    """``values`` as an at least 1-D float array, or ``InputError``."""
    try:
        return np.atleast_1d(np.asarray(values, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{label} must be numbers ({exc})") from None


def _finite(values, label: str) -> np.ndarray:
    """``_floats(values, label)``, or ``InputError`` if any is not finite."""
    values = _floats(values, label)
    if not np.all(np.isfinite(values)):
        raise InputError(f"{label} must be finite")
    return values


@dataclass(frozen=True)
class BoxSupport:
    """Per-coordinate interval [lower_j, upper_j] containing the error vector.

    Both bounds must bracket zero in every coordinate (the forecast itself
    is always a feasible realization).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lower = _finite(lower, "support bounds")
        upper = _finite(upper, "support bounds")
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InputError("support bounds must be vectors of equal length")
        if np.any(lower > upper):
            raise InputError("support has lower > upper")
        if np.any(lower > 0) or np.any(upper < 0):
            raise InputError("support must satisfy lower <= 0 <= upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class PiecewiseMaxAffine:
    """Cost c(xi) = max_k (a_k . xi + b_k) with K affine pieces."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        a = _finite(a, "cost slopes")
        b = _finite(b, "cost intercepts")
        if a.ndim != 2 or b.ndim != 1:
            raise InputError("cost slopes must be a K x d matrix and "
                             "intercepts a K-vector")
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
        c = _finite(c, "cost coefficients")
        if c.ndim != 1:
            raise InputError("cost coefficients must be a vector")
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
        try:
            self.samples = [_floats(s, "samples") for s in samples]
        except TypeError:  # not iterable
            raise InputError(f"samples must be a list, got {samples!r}") from None
        if any(s.ndim != 1 for s in self.samples):
            raise InputError("each feature's samples must be one vector")
        if any(s.size == 0 for s in self.samples):
            raise InputError("every feature needs at least one sample")
        bad = [j for j, s in enumerate(self.samples, start=1)
               if not np.all(np.isfinite(s))]
        if bad:
            raise InputError(f"features {bad} have non-finite samples")
        self.epsilons = self._checked(epsilons)

    def _checked(self, epsilons) -> np.ndarray:
        """``epsilons`` as an array, one finite budget >= 0 per feature."""
        epsilons = _finite(epsilons, "epsilons")
        if epsilons.shape != (len(self.samples),):
            raise InputError("need one epsilon per feature")
        if np.any(epsilons < 0):
            raise InputError("epsilons must be >= 0")
        return epsilons

    def with_epsilons(self, epsilons) -> "MultiDataset":
        """The same samples (shared, not copied) under other budgets."""
        other = copy.copy(self)
        other.epsilons = self._checked(epsilons)
        return other

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
            raise InputError("datasets have unequal lengths; no shared index")
        return np.vstack(self.samples)

    def validate_within(self, support: BoxSupport) -> None:
        if support.dimension != self.dimension:
            raise InputError("support and dataset dimensions differ")
        for j, s in enumerate(self.samples):
            if (np.any(s < support.lower[j] - SUPPORT_TOL)
                    or np.any(s > support.upper[j] + SUPPORT_TOL)):
                raise InputError(
                    f"feature {j + 1} has samples outside the support")


def transport_room(sample, lower, upper) -> tuple:
    """Distances (upper - sample, sample - lower) from samples to the ends.

    Clipped at zero, so a sample inside the tolerance that
    ``validate_within`` allows beyond an end counts as lying on it.
    """
    sample = np.asarray(sample, dtype=float)
    return (np.maximum(np.asarray(upper, dtype=float) - sample, 0.0),
            np.maximum(sample - np.asarray(lower, dtype=float), 0.0))


def mean_transport_room(data: MultiDataset, support: BoxSupport) -> np.ndarray:
    """Per feature, the mean distance of its samples to the upper and to the
    lower support end (``transport_room``): shape (d, 2)."""
    if support.dimension != data.dimension:
        raise InputError("support and dataset dimensions differ")
    return np.array([[np.mean(r) for r in transport_room(s, lo, up)]
                     for s, lo, up in zip(data.samples, support.lower,
                                          support.upper)])


def sample_worst_case(a, p, q, sample, lower, upper) -> np.ndarray:
    """a xhat + (u - xhat) p + (xhat - l) q: with p = (a - lam)^+ and
    q = (-a - lam)^+, the sup over [l, u] of a*xi - lam |xi - xhat|."""
    up, lo = transport_room(sample, lower, upper)
    return a * np.asarray(sample, dtype=float) + up * p + lo * q


def wasserstein_block(model: Model, name: str, shape, lam, const=0.0,
                      cols=None, coefs=None, where=None,
                      obj=(0.0, 0.0)) -> tuple:
    """Columns p >= (a - lam)^+ and q >= (-a - lam)^+ for an array of slopes.

    Callers put ``sample_worst_case(a, p, q, xhat, l, u)`` into their rows
    in place of the sup over [l, u] of a*xi - lam |xi - xhat|, for every
    sample xhat. That is exact in rows bounding it from above, as lam >= 0
    and both distances are nonnegative: p and q fall to the positive parts.

    Adds columns p, q (>= 0, objective ``obj``) and the >= families
    ``{name}_up`` (p + lam - a) and ``{name}_lo`` (q + lam + a),
    interleaved, all of ``shape``; ``lam`` and ``where`` broadcast against
    it with axes lined up from the left. The slope is
    ``a = const + sum_t coefs[..., t] * x[cols[..., t]]`` (``cols`` and
    ``coefs`` with one trailing axis beyond ``shape``). Where ``where`` is
    false the rows are left out and p = q = 0, leaving the sample term:
    exact when lam is fixed to zero (the sample average). Returns (p, q).
    """
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    ub = (INFINITY if where is None else
          np.where(align_left(where, len(shape)), INFINITY, 0.0))
    p = model.add_vars(shape, ub=ub, obj=obj[0])
    q = model.add_vars(shape, ub=ub, obj=obj[1])
    const = np.asarray(const, dtype=float)

    def rows(suffix, col, sign):
        terms = [(col, 1.0), (lam, 1.0)]
        if cols is not None:
            terms.append((cols, -sign * np.asarray(coefs, dtype=float)))
        return family(f"{name}_{suffix}", shape, terms, GE, sign * const, where)

    model.add(rows("up", p, 1.0), rows("lo", q, -1.0))
    return p, q


def _checked_inputs(cost, data: MultiDataset, support: BoxSupport) -> None:
    """Dimensions agree and every sample lies in the support."""
    if data.dimension == 0:
        raise InputError("the dataset has no features")
    if cost.dimension != support.dimension:
        raise InputError("cost and support dimensions differ")
    data.validate_within(support)


def _checked_piecewise(cost, data: MultiDataset,
                       support: BoxSupport) -> PiecewiseMaxAffine:
    """The cost as affine pieces, once dimensions and samples are checked."""
    _checked_inputs(cost, data, support)
    if isinstance(cost, SeparableAffineCost):
        cost = cost.as_piecewise()
    return cost


def _solve_anchored(model: Model, lam, cost: PiecewiseMaxAffine, points,
                    support: BoxSupport) -> tuple:
    """Epigraph LP over equally weighted anchor points (rows of ``points``)
    on top of ``lam``: s_t >= row(t, k) = b_k + sum_j of the worst case of
    a_kj xi_j - lam_j |xi_j - x_tj|, for every anchor t and piece k.

    Each epigraph is anchored at the piece k0(t) that is largest at the
    anchor itself: s_t = row(t, k0) + sigma_t with sigma_t >= 0, an exact,
    invertible change of variables. Row k0 becomes the bound on sigma_t, the
    other rows read sigma_t >= row(t, k) - row(t, k0) (family ``idx``, k0
    entries absent), and mean_t row(t, k0) moves into the objective: mean
    distances on p and q plus the constant mean_t max_k (a_k . x_t + b_k).
    The solver's all-slack start, sigma = 0, is the sample average, and it
    is dual feasible: every column (lam, sigma, p, q) has lower bound 0
    and a nonnegative cost. So ``Model.solve`` leaves presolve off, whose
    cost here exceeds the few dual simplex iterations from that start.

    Few ``idx`` rows bind at the optimum, so they are generated: the first
    LP has the ``cut`` rows only, and after each solve every ``idx`` row is
    evaluated at the solution (from the family's coefficient table) and
    those violated by more than round-off (1e-12 (1 + |rhs|)) join the LP
    (``Model.without`` of the full model). Each round's LP is a relaxation
    of the full one, so its optimum is a lower bound; the last one's
    solution meets every row, so it is also feasible, hence optimal for the
    full LP. Each round adds a row, so the loop ends, at worst with the
    full LP. Every round keeps the bounds and costs, so presolve stays off.
    Returns (optimal value, LP solution of the last round, s values).
    """
    n_t, k_pieces = len(points), cost.num_pieces
    heights = cost.b[None, :] + points @ cost.a.T
    k0 = np.argmax(heights, axis=1)
    up, lo = transport_room(points, support.lower, support.upper)
    # Weight 1/n_t of each anchor on its own piece: up.T @ weight is, per
    # (feature j, piece k), the distance to u_j summed over the anchors
    # whose k0 is k, over n_t.
    weight = np.eye(k_pieces)[k0] / n_t
    sigma = model.add_vars(n_t, obj=1.0 / n_t)
    p, q = wasserstein_block(model, "cut", (len(lam), k_pieces), lam,
                             const=cost.a.T, obj=(up.T @ weight, lo.T @ weight))
    base = heights[np.arange(n_t), k0]
    model.add(family("idx", (n_t, k_pieces),
                     [(sigma, 1.0),
                      (p.T[None], -up[:, None, :]), (q.T[None], -lo[:, None, :]),
                      (p.T[k0][:, None, :], up[:, None, :]),
                      (q.T[k0][:, None, :], lo[:, None, :])],
                     GE, heights - base[:, None],
                     where=np.arange(k_pieces)[None, :] != k0[:, None]))
    idx = model.families["idx"]
    keep = np.ones(model.num_constraints, dtype=bool)
    keep[idx.index[idx.present]] = False
    round_off = 1e-12 * (1.0 + np.abs(idx.rhs))
    while True:
        sol = model.without(~keep, model.ub).solve()
        if not sol.optimal:
            raise SolverError(f"{model.name} LP ended {sol.status}")
        short = idx.rhs - np.bincount(idx.rows, idx.vals * sol.x[idx.cols],
                                      minlength=idx.size)
        rows = idx.index[idx.present & (short > round_off)]
        rows = rows[~keep[rows]]
        if not rows.size:
            break
        keep[rows] = True
    x = sol.x
    s = base + np.sum(up * x[p.T[k0]] + lo * x[q.T[k0]], axis=1) + x[sigma]
    return float(sol.objective + np.mean(base)), sol, s


def wc_expectation_general(cost: PiecewiseMaxAffine, data: MultiDataset,
                           support: BoxSupport) -> float:
    """Worst-case expectation via the exact multi-index linear program.

    One epigraph variable per element of the index product across datasets,
    so the instance size is prod_j N_j. Guarded by ``INDEX_CAP``; larger
    problems should use the separable or standardized reformulation instead.
    """
    cost = _checked_piecewise(cost, data, support)
    counts = data.counts
    n_idx = int(np.prod(counts))
    if n_idx > INDEX_CAP:
        raise InputError(
            f"index product {n_idx} exceeds cap {INDEX_CAP}; use the "
            "separable or standardized reformulation"
        )
    model = Model("wc-general")
    lam = model.add_vars(data.dimension, obj=data.epsilons)
    multi = np.unravel_index(np.arange(n_idx), counts)
    points = np.stack([s[m] for s, m in zip(data.samples, multi)], axis=-1)
    return _solve_anchored(model, lam, cost, points, support)[0]


@dataclass
class SeparableResult:
    """Optimum of the separable-cost reformulation.

    value : worst-case expectation
    lam : optimal per-feature multipliers
    s : per-feature epigraph values (list of arrays, one per feature)
    thresholds : per-feature data-usefulness thresholds (mean distance of
        the samples to the cost-maximizing corner)
    degenerate : True where epsilon sits within DEGENERACY_BAND of the
        threshold; there any lam_j in [0, |c_j|] is optimal and the value
        does not depend on the pick
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
    otherwise; the threshold is the mean distance of the samples to that
    corner.
    """
    up, lo = mean_transport_room(data, support).T
    return np.where(cost.c <= 0, lo, up)


def wc_expectation_separable(cost: SeparableAffineCost, data: MultiDataset,
                             support: BoxSupport) -> SeparableResult:
    """Worst-case expectation for a separable cost, in closed form.

    Per feature, min over lam_j >= 0 of eps_j lam_j plus the mean of
    ``sample_worst_case`` is piecewise linear in lam_j: below |c_j| it has
    slope eps_j - t_j (t_j the threshold), above it slope eps_j. So
    lam_j = |c_j| where eps_j < t_j and 0 otherwise, and the value is
    c_j mean_j + |c_j| min(eps_j, t_j) summed over the features.
    """
    _checked_inputs(cost, data, support)
    c = cost.c
    thresholds = separable_thresholds(cost, data, support)
    lam = np.where(data.epsilons < thresholds, np.abs(c), 0.0)
    s = [sample_worst_case(cj, max(cj - lj, 0.0), max(-cj - lj, 0.0), xs, lo, up)
         for cj, lj, xs, lo, up in zip(c, lam, data.samples, support.lower,
                                       support.upper)]
    return SeparableResult(
        value=float(data.epsilons @ lam + sum(np.mean(sj) for sj in s)),
        lam=lam,
        s=s,
        thresholds=thresholds,
        degenerate=np.abs(data.epsilons - thresholds) < DEGENERACY_BAND,
    )


@dataclass
class StandardizedResult:
    """Optimum of the shared-index reformulation.

    value : worst-case expectation, eps . lam + mean(s)
    lam : optimal per-feature multipliers
    s : per-sample epigraph values, max over pieces k of b_k plus the
        worst case of a_k . xi - sum_j lam_j |xi_j - x_j| at the sample
    """

    value: float
    lam: np.ndarray
    s: np.ndarray


def wc_expectation_standardized(cost: PiecewiseMaxAffine, data: MultiDataset,
                                support: BoxSupport) -> StandardizedResult:
    """Worst-case expectation for standardized data (shared sample index)."""
    cost = _checked_piecewise(cost, data, support)
    if not data.is_standardized:
        raise InputError("standardized reformulation needs equal sample counts")
    model = Model("wc-standardized")
    lam = model.add_vars(data.dimension, obj=data.epsilons)
    value, sol, s = _solve_anchored(model, lam, cost, data.matrix().T, support)
    return StandardizedResult(value=value, lam=sol.x[lam], s=s)


def wc_expectation_single_budget(cost: PiecewiseMaxAffine, data: MultiDataset,
                                 support: BoxSupport, epsilon: float) -> float:
    """Classical single-ball Wasserstein DRO comparator.

    One shared multiplier and one total budget over the joint 1-norm,
    around the shared-index empirical distribution. With
    epsilon = sum_j epsilon_j this upper-bounds the multi-source value.
    """
    cost = _checked_piecewise(cost, data, support)
    if not data.is_standardized:
        raise InputError("single-budget comparator needs standardized data")
    epsilon = real("epsilon", epsilon)
    if not 0 <= epsilon < math.inf:
        raise InputError(f"epsilon must be finite and >= 0, got {epsilon}")
    model = Model("wc-single-budget")
    lam = model.add_var(obj=epsilon)
    return _solve_anchored(model, np.full(data.dimension, lam), cost,
                           data.matrix().T, support)[0]


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
