"""Linear program built from constraint families, solved by HiGHS.

Variables are array blocks and constraints are *families* (named arrays
of rows sharing one sense). The matrix is assembled once, column-wise, and
handed as numpy arrays to the HiGHS object scipy bundles
(``scipy.optimize._highspy``) with the settings of
``linprog(method="highs")``: presolve on, dual simplex, no output. Only
``dro_core``'s anchored epigraph LPs turn presolve off, because their
all-slack start is dual feasible and already the sample average. HiGHS
returns primal values and one dual per row; duals are read back per
family, in the family's shape. Row names (``name[i,j]``) are made only
when asked for. A solution keeps its HiGHS object until
``LpSolution.resolve`` deletes rows and changes column bounds in it and
restarts from its final basis. Where scipy lacks the private bindings,
``linprog`` solves every model from scratch.

Dual sign convention
--------------------
For every constraint the reported dual is the sensitivity of the optimal
objective to the constraint's right-hand side, d(objective)/d(rhs), for a
minimization problem. Consequences:

* equality rows carry a free sign (shadow price of the rhs),
* ``<=`` rows have dual <= 0 (relaxing the rhs cannot increase the optimum),
* ``>=`` rows have dual >= 0.

The classical nonnegative KKT multiplier of an inequality is therefore
``-dual`` for ``<=`` rows and ``+dual`` for ``>=`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress, product, repeat
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

try:
    from scipy.optimize._highspy._core import MatrixFormat, ObjSense, _Highs
except ImportError:  # a scipy build without its private HiGHS bindings
    _Highs = None

INFINITY = float("inf")

LE = "<="
GE = ">="
EQ = "=="

_SENSES = (LE, GE, EQ)

#: ``linprog(method="highs")``'s options but presolve, which ``Model.solve``
#: sets; the rest are HiGHS's defaults.
_OPTIONS = (("simplex_strategy", 1),  # 1: dual simplex
            ("output_flag", False), ("log_to_console", False))

#: ``linprog``'s post-solve tolerance on bounds and rows, 10 * sqrt(1e-9).
CHECK_TOL = 10 * np.sqrt(1e-9)

#: The HiGHS model statuses a solve may end in, by enum name.
_ENDS = {"kOptimal": "optimal", "kInfeasible": "infeasible",
         "kUnbounded": "unbounded"}


class SolverError(Exception):
    """HiGHS failed to produce a usable answer."""


def align_left(array, ndim: int) -> np.ndarray:
    """Append unit axes so that ``array``'s axes line up from the left."""
    array = np.asarray(array)
    if array.ndim < ndim:
        array = array.reshape(array.shape + (1,) * (ndim - array.ndim))
    return array


def _labels(name: str, shape) -> list:
    """``name[i,j,...]`` for every position of ``shape``, in flat order."""
    if not shape:
        return [name]
    axes = [list(map(str, range(n))) for n in shape]
    return [f"{name}[{','.join(pos)}]" for pos in product(*axes)]


@dataclass(eq=False)
class Family:
    """Rows sharing a name, a shape and a sense.

    Row ``r`` (flat position in ``shape``) reads
    ``sum(vals[rows == r] * x[cols[rows == r]]) sense rhs[r]`` and is named
    ``name[i,j,...]``, or ``name`` for shape ``()``. Rows where ``present``
    is false are not part of the model. ``index`` maps each flat position
    to its row in the model (-1 when absent); ``Model.add`` sets it.
    """

    name: str
    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sense: str
    rhs: np.ndarray
    present: np.ndarray
    index: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.present)


def family(name: str, shape, terms, sense: str, rhs, where=None) -> Family:
    """A family of rows ``sum(terms) sense rhs`` over an array of positions.

    Each term is a pair (columns, coefficients) of arrays broadcast against
    each other. Their leading axes line up with ``shape`` from the left
    (missing trailing axes broadcast), and any axes beyond ``shape`` list
    further terms of the same row. ``rhs`` and the boolean ``where`` (rows
    to keep) broadcast the same way. Exact zero coefficients are dropped;
    repeated columns in a row are summed when the matrix is assembled.
    """
    if sense not in _SENSES:
        raise ValueError(f"unknown sense {sense!r}")
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    ndim = len(shape)
    flat = np.arange(int(np.prod(shape, dtype=np.int64))).reshape(shape)
    present = (np.ones(flat.size, dtype=bool) if where is None else
               _filled(where, shape, bool))
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for c, v in terms:
        c, v = np.asarray(c), np.asarray(v, dtype=float)
        k = max(ndim, c.ndim, v.ndim)
        c, v = align_left(c, k), align_left(v, k)
        full = shape + tuple(a if b == 1 else b
                             for a, b in zip(c.shape[ndim:], v.shape[ndim:]))
        rows.append(_filled(flat, full, np.int64))
        cols.append(_filled(c, full, np.int64))
        vals.append(_filled(v, full, float))
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    keep = (vals != 0.0) & present[rows]
    return Family(name, shape, rows[keep], cols[keep], vals[keep], sense,
                  _filled(np.asarray(rhs, dtype=float), shape, float), present)


def _filled(array, shape: tuple, dtype) -> np.ndarray:
    """``array`` broadcast to ``shape`` (axes lined up from the left), flat."""
    out = np.empty(shape, dtype=dtype)
    out[...] = align_left(array, len(shape))
    return out.ravel()


class Row(NamedTuple):
    """Read-only view of one constraint row."""

    name: str
    cols: np.ndarray
    vals: np.ndarray
    sense: str
    rhs: float


@dataclass
class LpSolution:
    """Primal values and one dual per row of a solved model."""

    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    model: "Model"
    _highs: object = field(default=None, repr=False, compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def family_duals(self, name: str) -> np.ndarray:
        """Duals of a family in its shape (0 at absent rows)."""
        fam = self.model.families[name]
        out = np.zeros(fam.size)
        out[fam.present] = self.duals[fam.index[fam.present]]
        return out.reshape(fam.shape)

    def family_multipliers(self, name: str) -> np.ndarray:
        """Nonnegative KKT multipliers of an inequality family, in its shape."""
        sense = self.model.families[name].sense
        if sense == EQ:
            raise ValueError(f"family {name!r} is an equality; use family_duals()")
        duals = self.family_duals(name)
        return -duals if sense == LE else duals

    def dual_objective(self) -> float:
        """Objective value recomputed from duals and reduced costs.

        Skips bound terms at infinite bounds (their multipliers are zero but
        0 * inf is nan). Used for strong-duality checks.
        """
        m = self.model
        total = float(self.duals @ m._senses()[1])
        # Bound contributions: reduced cost = obj coefficient minus dual row.
        red = m.obj - m._matrix().T @ self.duals
        at_lb = np.isfinite(m.lb) & (red > 0)
        at_ub = np.isfinite(m.ub) & (red < 0)
        total += float(np.sum(red[at_lb] * m.lb[at_lb]))
        total += float(np.sum(red[at_ub] * m.ub[at_ub]))
        return total

    def resolve(self, drop, ub) -> "LpSolution":
        """Solve ``self.model.without(drop, ub)``.

        HiGHS deletes the dropped rows from the LP it solved, changes the
        upper bounds and restarts the dual simplex from its final basis.
        The HiGHS object moves to the returned solution: a second call, or
        one on a solution without it, solves the derived model from scratch.
        """
        highs, self._highs = self._highs, None
        old = self.model
        model = old.without(drop, ub)
        if highs is None:
            return model.solve()
        gone = np.flatnonzero(drop[old._highs_rows()[0]]).astype(np.int32)
        moved = np.flatnonzero(old.ub != model.ub).astype(np.int32)
        for status in (highs.deleteRows(len(gone), gone),
                       highs.changeColsBounds(len(moved), moved,
                                              model.lb[moved], model.ub[moved])):
            if status.name == "kError":
                raise SolverError(f"HiGHS could not edit {old.summary()}")
        return _run_highs(highs, model)


class Model:
    """A linear program: min c'x s.t. families of linear rows and bounds."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.families: dict[str, Family] = {}
        self.lb = np.zeros(0)
        self.ub = np.zeros(0)
        self.obj = np.zeros(0)
        self._num_rows = 0
        self._cache: dict = {}

    @property
    def num_vars(self) -> int:
        return len(self.obj)

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    def add_vars(self, shape, lb=0.0, ub=INFINITY, obj=0.0) -> np.ndarray:
        """Add an array of variables; returns their column indices.

        ``lb``, ``ub`` and ``obj`` are scalars or arrays broadcast to ``shape``.
        """
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        start = self.num_vars
        self.lb, self.ub, self.obj = (
            np.concatenate([old, np.broadcast_to(np.asarray(new, dtype=float),
                                                 shape).ravel()])
            for old, new in ((self.lb, lb), (self.ub, ub), (self.obj, obj)))
        self._cache.clear()
        return np.arange(start, self.num_vars).reshape(shape)

    def add_var(self, lb: float = 0.0, ub: float = INFINITY,
                obj: float = 0.0) -> int:
        """Add one variable and return its column index."""
        return int(self.add_vars((), lb, ub, obj))

    def fix_var(self, index, value: float) -> None:
        """Pin one variable, or an array of them, to ``value``."""
        self.lb[index] = value
        self.ub[index] = value

    def add(self, *families: Family):
        """Append families; several families are interleaved row by row.

        With more than one family (all of the same shape), the rows are
        ordered by flat position and, within a position, by argument order:
        ``a[0], b[0], a[1], b[1], ...``. Returns the family, or the tuple.
        """
        size = families[0].size
        for fam in families:
            if fam.name in self.families:
                raise ValueError(f"duplicate constraint name {fam.name!r}")
            if fam.size != size:
                raise ValueError("interleaved families need equal shapes")
        present = np.stack([fam.present for fam in families], axis=1)
        pos = np.cumsum(present.ravel()).reshape(present.shape) - 1 + self._num_rows
        for k, fam in enumerate(families):
            fam.index = np.where(present[:, k], pos[:, k], -1)
            self.families[fam.name] = fam
        self._num_rows += int(np.count_nonzero(present))
        self._cache.clear()
        return families[0] if len(families) == 1 else families

    def without(self, drop, ub) -> "Model":
        """A copy with the rows where the boolean ``drop`` (one per row) is
        true left out, the kept rows renumbered in their order, and column
        upper bounds ``ub``."""
        m = Model(self.name)
        m.lb, m.obj = self.lb.copy(), self.obj.copy()
        m.ub = np.array(ub, dtype=float)
        at = np.cumsum(~drop) - 1
        for name, fam in self.families.items():
            present = fam.present.copy()
            present[present] = ~drop[fam.index[present]]
            keep = present[fam.rows]
            m.families[name] = Family(
                name, fam.shape, fam.rows[keep], fam.cols[keep], fam.vals[keep],
                fam.sense, fam.rhs, present, np.where(present, at[fam.index], -1))
        m._num_rows = int(np.count_nonzero(~drop))
        return m

    def with_values(self, obj, name: str, vals) -> "Model":
        """A copy with objective ``obj`` and ``vals`` for the coefficients
        family ``name`` stores (same count and order, none zero). The
        bounds are copied, so ``fix_var`` on either model leaves the other
        alone; the families, the row layout and the matrix's column
        structure are shared, and only values are recomputed."""
        fam = replace(self.families[name], vals=np.asarray(vals, dtype=float))
        obj = np.asarray(obj, dtype=float)
        if fam.vals.shape != fam.cols.shape or obj.shape != self.obj.shape:
            raise ValueError("with_values needs one value per coefficient "
                             "and per column")
        if not np.all(fam.vals != 0.0):
            raise ValueError(f"a zero in family {name!r} would change the "
                             "matrix's sparsity pattern")
        self._columns()  # built here so that every copy shares it
        m = Model(self.name)
        m.lb, m.ub, m.obj = self.lb.copy(), self.ub.copy(), obj
        m.families = dict(self.families)
        m.families[name] = fam
        m._num_rows = self._num_rows
        m._cache = {key: self._cache[key]
                    for key in ("senses", "highs_rows", "columns")}
        rows, cols, _ = self._coo()
        m._cache["coo"] = (rows, cols, m._values())
        return m

    def _values(self) -> np.ndarray:
        """Every family's coefficients, in ``_coo`` order."""
        return np.concatenate([np.zeros(0)]
                              + [f.vals for f in self.families.values()])

    def _coo(self):
        """(row, column, value) of every coefficient, built once per model."""
        if "coo" not in self._cache:
            fams = list(self.families.values())
            self._cache["coo"] = (
                np.concatenate([np.zeros(0, np.int64)]
                               + [f.index[f.rows] for f in fams]),
                np.concatenate([np.zeros(0, np.int64)] + [f.cols for f in fams]),
                self._values())
        return self._cache["coo"]

    def _senses(self):
        """(sense per row, rhs per row), built once per model."""
        if "senses" not in self._cache:
            sense = np.empty(self._num_rows, dtype="<U2")
            rhs = np.empty(self._num_rows)
            for f in self.families.values():
                at = f.index[f.present]
                sense[at] = f.sense
                rhs[at] = f.rhs[f.present]
            self._cache["senses"] = (sense, rhs)
        return self._cache["senses"]

    def _matrix(self) -> sp.csr_matrix:
        """The constraint matrix in CSR form, built once per model."""
        if "matrix" not in self._cache:
            rows, cols, vals = self._coo()
            self._cache["matrix"] = sp.csr_matrix(
                (vals, (rows, cols)), shape=(self._num_rows, self.num_vars))
        return self._cache["matrix"]

    def _highs_rows(self):
        """The row layout ``linprog`` gives HiGHS: ``<=`` rows, then ``>=``
        rows negated into ``<=`` form, then equalities, each in model order.

        Returns (order, flip, lower, upper): the model row of each HiGHS
        row, its sign (-1 where negated) and its bounds. Built once.
        """
        if "highs_rows" not in self._cache:
            sense, rhs = self._senses()
            order = np.concatenate([np.flatnonzero(sense == s) for s in _SENSES])
            flip = np.where(sense[order] == GE, -1.0, 1.0)
            upper = flip * rhs[order]
            lower = np.where(sense[order] == EQ, upper, -INFINITY)
            self._cache["highs_rows"] = (order, flip, lower, upper)
        return self._cache["highs_rows"]

    def _columns(self):
        """The ``_highs_rows`` layout's matrix structure, column-wise:
        (indptr, indices, take, sign, runs). ``take`` orders ``_coo()``'s
        coefficients by column and row, ``sign`` is their ``flip``, and
        ``runs`` numbers the position each one adds into (None when no
        position holds two). Built once per sparsity pattern;
        ``with_values`` shares it."""
        if "columns" not in self._cache:
            order, flip, _, _ = self._highs_rows()
            rows, cols, _ = self._coo()
            at = np.empty(self._num_rows, np.int64)
            at[order] = np.arange(self._num_rows)
            rows = at[rows]
            take = np.lexsort((rows, cols))
            rows, cols = rows[take], cols[take]
            new = np.ones(len(take), dtype=bool)
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new)
            indptr = np.searchsorted(cols[starts], np.arange(self.num_vars + 1))
            self._cache["columns"] = (
                indptr.astype(np.int32), rows[starts].astype(np.int32), take,
                flip[rows],
                None if len(starts) == len(take) else np.cumsum(new) - 1)
        return self._cache["columns"]

    def _csc(self):
        """(indptr, indices, data) of the ``_highs_rows`` layout's matrix
        column-wise, rows ascending in each column and repeats summed in
        table order: what ``scipy.sparse.csc_matrix`` makes of the
        coefficient table."""
        indptr, indices, take, sign, runs = self._columns()
        data = self._coo()[2][take] * sign
        if runs is not None:
            data = np.bincount(runs, weights=data, minlength=len(indices))
        return indptr, indices, data

    def _load(self, highs) -> None:
        """Pass the model to ``highs`` as arrays, in the ``_highs_rows``
        layout, its matrix column-wise (``_csc``)."""
        _, _, lower, upper = self._highs_rows()
        indptr, indices, data = self._csc()
        # HiGHS refuses an empty integrality array; zeros mark continuous.
        status = highs.passModel(
            self.num_vars, self._num_rows, len(data), int(MatrixFormat.kColwise),
            int(ObjSense.kMinimize), 0.0, self.obj, self.lb, self.ub, lower,
            upper, indptr, indices, data, np.zeros(self.num_vars, np.int32))
        if status.name == "kError":
            raise SolverError(f"HiGHS rejected {self.summary()}")

    def row_names(self) -> list:
        """Every row's name, in row order."""
        names = [None] * self._num_rows
        for fam in self.families.values():
            labels = compress(_labels(fam.name, fam.shape), fam.present)
            for row, label in zip(fam.index[fam.present].tolist(), labels):
                names[row] = label
        return names

    @property
    def constraints(self) -> list:
        """Every row as a ``Row`` (name, cols, vals, sense, rhs), columns in
        ascending order, read off the CSR matrix on first use; solving
        never needs them."""
        if "rows" not in self._cache:
            a, (sense, rhs) = self._matrix(), self._senses()
            spans = list(map(slice, a.indptr[:-1].tolist(), a.indptr[1:].tolist()))
            fields = zip(self.row_names(), map(a.indices.__getitem__, spans),
                         map(a.data.__getitem__, spans), sense.tolist(), rhs.tolist())
            # tuple.__new__ fills each Row without a Python-level call per row.
            self._cache["rows"] = list(map(tuple.__new__, repeat(Row), fields))
        return self._cache["rows"]

    def summary(self) -> str:
        """Rows, columns and nonzeros, and the row count of every family."""
        listing = ", ".join(f"{name}({k})" for name, fam in self.families.items()
                            if (k := int(np.count_nonzero(fam.present))))
        return (f"model {self.name!r}: {self._num_rows} rows, {self.num_vars} "
                f"columns, {self._matrix().nnz} nonzeros; rows in families "
                f"{listing}")

    def solve(self, *, _presolve: bool = True) -> LpSolution:
        """Solve with HiGHS from scratch.

        ``_presolve=False`` starts the dual simplex at the all-slack basis
        without presolving; only ``dro_core``'s anchored epigraph LPs ask
        for it, since that basis is their sample average.
        """
        if _Highs is None:
            return _solve_scipy_highs(self, _presolve)
        highs = _Highs()
        for option, value in _OPTIONS:
            highs.setOptionValue(option, value)
        highs.setOptionValue("presolve", "on" if _presolve else "off")
        self._load(highs)
        return _run_highs(highs, self)


def _run_highs(highs, model: Model) -> LpSolution:
    """Run HiGHS on ``model``'s LP, loaded in ``highs`` in the
    ``_highs_rows`` layout, and read the solution back in model order.

    An optimal solution passes ``linprog``'s check (no NaN; bounds, ``<=``
    slacks and equality residuals within ``CHECK_TOL``) and keeps
    ``highs``. Any status but optimal, infeasible or unbounded, or a failed
    check, raises ``SolverError`` with the status, its text and the model.
    """
    highs.run()
    status = highs.getModelStatus()
    end = _ENDS.get(status.name)
    fault = highs.modelStatusToString(status)
    if end == "optimal":
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        objective = float(highs.getObjectiveValue())
        _, _, lower, upper = model._highs_rows()
        fault = _check(model, x, objective, upper - np.array(solution.row_value),
                       lower == upper)
        if not fault:
            return _solution(model, end, x, objective,
                             np.array(solution.row_dual), highs)
    elif end:
        return _solution(model, end)
    raise SolverError(f"HiGHS status {int(status)} ({fault}) on "
                      f"{model.summary()}")


def _solution(model: Model, end: str, x=None, objective=None, row_duals=None,
              highs=None) -> LpSolution:
    """HiGHS's answer in the ``_highs_rows`` layout as an ``LpSolution`` in
    model order, the duals mapped back through ``order`` and ``flip``; zeros
    and a NaN objective for an LP that ends infeasible or unbounded."""
    if end != "optimal":
        return LpSolution(end, float("nan"), np.zeros(model.num_vars),
                          np.zeros(model.num_constraints), model)
    order, flip, _, _ = model._highs_rows()
    duals = np.empty(model.num_constraints)
    duals[order] = flip * np.asarray(row_duals)
    return LpSolution(end, float(objective), np.asarray(x, dtype=float), duals,
                      model, highs)


def _check(model: Model, x, objective: float, slack, eq) -> str:
    """Why an optimal point fails ``linprog``'s check, or "" if it passes.

    ``slack`` is each HiGHS row's upper bound minus its activity; ``eq``
    marks the equality rows, whose slack is the residual.
    """
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(slack).any():
        return "the solution contains NaN"
    if ((x < model.lb - CHECK_TOL) | (x > model.ub + CHECK_TOL)).any() or \
            (slack < -CHECK_TOL).any() or (np.abs(slack[eq]) > CHECK_TOL).any():
        return (f"the solution does not satisfy the constraints within "
                f"{CHECK_TOL:.2E}")
    return ""


def _solve_scipy_highs(model: Model, presolve: bool = True) -> LpSolution:
    """Solve through scipy's ``linprog``, in the ``_highs_rows`` layout: the
    fallback without the private HiGHS bindings, and the tests' reference
    for ``Model.solve``."""
    order, flip, lower, upper = model._highs_rows()
    a = model._matrix()[order]
    a.data *= np.repeat(flip, np.diff(a.indptr))
    eq = lower == upper
    res = linprog(
        c=model.obj, A_ub=a[~eq], b_ub=upper[~eq], A_eq=a[eq], b_eq=upper[eq],
        bounds=np.column_stack([model.lb, model.ub]), method="highs",
        options={"presolve": presolve},
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    if status is None:
        raise SolverError(f"HiGHS status {res.status} ({res.message}) on "
                          f"{model.summary()}")
    if status != "optimal":
        return _solution(model, status)
    return _solution(model, status, res.x, res.fun,
                     np.concatenate([res.ineqlin.marginals, res.eqlin.marginals]))
