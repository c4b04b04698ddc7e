"""Linear program built from constraint families, solved by HiGHS.

Variables are array blocks and constraints are *families* (named arrays
of rows sharing one sense). The matrix is assembled once and handed to
scipy's HiGHS interface, which returns primal values and one dual per row;
duals are read back per family, in the family's shape. Row names
(``name[i,j]``) are made only when asked for.

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

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, product, repeat
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

INFINITY = float("inf")

LE = "<="
GE = ">="
EQ = "=="

_SENSES = (LE, GE, EQ)


class LpError(Exception):
    """Base class for LP layer failures."""


class SolverError(LpError):
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


class _Rows(Sequence):
    """A model's rows as ``Row`` views over one row-sorted coefficient table."""

    def __init__(self, names, cols, vals, spans, sense, rhs):
        self._fields = (names, cols, vals, spans, sense, rhs)

    def __len__(self) -> int:
        return len(self._fields[0])

    def __getitem__(self, i: int) -> Row:
        names, cols, vals, spans, sense, rhs = self._fields
        return Row(names[i], cols[spans[i]], vals[spans[i]], sense[i], rhs[i])

    def __iter__(self):
        names, cols, vals, spans, sense, rhs = self._fields
        fields = zip(names, map(cols.__getitem__, spans),
                     map(vals.__getitem__, spans), sense, rhs)
        # tuple.__new__ fills each Row without a Python-level call per row.
        return map(tuple.__new__, repeat(Row), fields)


@dataclass
class LpSolution:
    """Primal values and one dual per row of a solved model."""

    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    model: "Model"

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
        a, _, rhs = m._assembled()
        total = float(self.duals @ rhs)
        # Bound contributions: reduced cost = obj coefficient minus dual row.
        red = m.obj - a.T @ self.duals
        at_lb = np.isfinite(m.lb) & (red > 0)
        at_ub = np.isfinite(m.ub) & (red < 0)
        total += float(np.sum(red[at_lb] * m.lb[at_lb]))
        total += float(np.sum(red[at_ub] * m.ub[at_ub]))
        return total


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

    def _assembled(self):
        """(CSR matrix, sense per row, rhs per row), built once per model."""
        if "matrix" not in self._cache:
            fams = list(self.families.values())
            rows = np.concatenate([np.zeros(0, np.int64)]
                                  + [f.index[f.rows] for f in fams])
            cols = np.concatenate([np.zeros(0, np.int64)] + [f.cols for f in fams])
            vals = np.concatenate([np.zeros(0)] + [f.vals for f in fams])
            sense = np.empty(self._num_rows, dtype="<U2")
            rhs = np.empty(self._num_rows)
            for f in fams:
                at = f.index[f.present]
                sense[at] = f.sense
                rhs[at] = f.rhs[f.present]
            matrix = sp.csr_matrix((vals, (rows, cols)),
                                   shape=(self._num_rows, self.num_vars))
            self._cache["matrix"] = (matrix, sense, rhs)
            self._cache["coo"] = (rows, cols, vals)
        return self._cache["matrix"]

    def _matrix(self) -> sp.csr_matrix:
        return self._assembled()[0]

    def row_names(self) -> list:
        """Every row's name, in row order."""
        names = [None] * self._num_rows
        for fam in self.families.values():
            labels = compress(_labels(fam.name, fam.shape), fam.present)
            for row, label in zip(fam.index[fam.present].tolist(), labels):
                names[row] = label
        return names

    @property
    def constraints(self) -> "_Rows":
        """Every row as a ``Row`` view (name, cols, vals, sense, rhs).

        The table behind the views is built on first use; solving never
        needs it, and each view is made only when it is read.
        """
        if "rows" not in self._cache:
            _, sense, rhs = self._assembled()
            rows, cols, vals = self._cache["coo"]
            order = np.argsort(rows, kind="stable")
            ends = np.searchsorted(rows[order], np.arange(self._num_rows + 1))
            spans = list(map(slice, ends[:-1].tolist(), ends[1:].tolist()))
            self._cache["rows"] = _Rows(self.row_names(), cols[order], vals[order],
                                        spans, sense.tolist(), rhs.tolist())
        return self._cache["rows"]

    def summary(self) -> str:
        """Rows, columns and nonzeros, and the row count of every family."""
        listing = ", ".join(f"{name}({k})" for name, fam in self.families.items()
                            if (k := int(np.count_nonzero(fam.present))))
        return (f"model {self.name!r}: {self._num_rows} rows, {self.num_vars} "
                f"columns, {self._matrix().nnz} nonzeros; rows in families "
                f"{listing}")

    def solve(self) -> LpSolution:
        """Solve with HiGHS through scipy."""
        return _solve_scipy_highs(self)


def _solve_scipy_highs(model: Model) -> LpSolution:
    """Adapter running a Model through scipy's HiGHS interface."""
    a, senses, rhs = model._assembled()
    eq = np.flatnonzero(senses == EQ)
    # <= rows first, then >= rows negated into <= form (their duals flip
    # sign back below).
    ub = np.concatenate([np.flatnonzero(senses == LE),
                         np.flatnonzero(senses == GE)])
    flip = np.where(senses[ub] == GE, -1.0, 1.0)
    a_ub = a[ub] if len(ub) else None
    if a_ub is not None:
        a_ub.data *= np.repeat(flip, np.diff(a_ub.indptr))
    res = linprog(
        c=model.obj,
        A_ub=a_ub, b_ub=flip * rhs[ub] if len(ub) else None,
        A_eq=a[eq] if len(eq) else None, b_eq=rhs[eq] if len(eq) else None,
        bounds=np.column_stack([model.lb, model.ub]), method="highs",
    )

    if res.status == 2:
        status = "infeasible"
    elif res.status == 3:
        status = "unbounded"
    elif res.status == 0:
        status = "optimal"
    else:
        raise SolverError(f"HiGHS status {res.status} ({res.message}) on "
                          f"{model.summary()}")

    duals = np.zeros(model.num_constraints)
    x = np.zeros(model.num_vars)
    objective = float("nan")
    if status == "optimal":
        x = np.asarray(res.x, dtype=float)
        objective = float(res.fun)
        duals[eq] = res.eqlin.marginals
        duals[ub] = flip * np.asarray(res.ineqlin.marginals, dtype=float)
    return LpSolution(status=status, objective=objective, x=x, duals=duals,
                      model=model)

