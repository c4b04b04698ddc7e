"""Random input below the command line.

Small LPs built through ``family`` and ``Model.add`` are solved by
``Model.solve`` and checked against ``linprog`` (``oracles.linprog_solve``)
and an optimality certificate computed in numpy from the coefficient
table; their ``resolve`` against a cold solve, and ``with_values`` against
a rebuild. The library's constructors, given arbitrary Python values, end
in a value or in ``InputError``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdro_opf.data_quality import NoiseModel, QualitySignal
from msdro_opf.dro_core import (BoxSupport, MultiDataset, PiecewiseMaxAffine,
                                SeparableAffineCost)
from msdro_opf.errors import InputError
from msdro_opf.evaluation import SweepConfig
from msdro_opf.lp import EQ, GE, INFINITY, LE, Model, SolverError, family
from msdro_opf.network import Generator, Line, Network, Resource

from oracles import bits, linprog_solve, optimality_faults, scipy_csc

#: Column bounds: nonnegative, free, negative lower, boxed, above zero.
BOUNDS = ((0.0, INFINITY), (-INFINITY, INFINITY), (-2.0, INFINITY),
          (-3.0, 1.0), (0.0, 2.0), (1.0, 4.0))
SHAPES = ((), (1,), (2,), (4,), (2, 2), (3, 2), (4, 3), (1, 3))
SMALL = st.integers(-3, 3)


def arrays(draw, shape, elements) -> np.ndarray:
    """A float array of ``shape`` drawn element by element."""
    size = int(np.prod(shape, dtype=int))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def families(draw, point: np.ndarray, name: str, shape: tuple):
    """One family over the columns of ``point``: 1-3 terms, some listing
    two columns per row, so that a row often names a column twice. Its
    right-hand sides hold at ``point``, with a slack of 0-2 in each
    inequality."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        full = shape + draw(st.sampled_from([(), (2,)]))
        cols = arrays(draw, full, st.integers(0, len(point) - 1)).astype(int)
        terms.append((cols, arrays(draw, full, SMALL)))
    where = draw(st.none() | st.just("mask"))
    if where:
        where = arrays(draw, shape, st.booleans()).astype(bool)
    sense = draw(st.sampled_from([LE, GE, EQ]))
    fam = family(name, shape, terms, sense, 0.0, where=where)
    slack = arrays(draw, (fam.size,), st.integers(0, 2))
    slack *= {LE: 1, GE: -1, EQ: 0}[sense]
    at_point = np.bincount(fam.rows, fam.vals * point[fam.cols], fam.size)
    return replace(fam, rhs=at_point + slack)


@st.composite
def lps(draw):
    """(model, groups): an LP of 1-6 families over 1-5 columns, and the
    families as added (a pair of equal shape is interleaved). The rows hold
    at a point within the bounds, but one in four LPs adds two rows no
    point meets, and one in four a free column with a cost and no row:
    infeasible or unbounded by construction."""
    n = draw(st.integers(1, 5))
    bounds = np.array(draw(st.lists(st.sampled_from(BOUNDS), min_size=n,
                                    max_size=n)))
    point = np.array([draw(st.integers(int(max(lo, -3)), int(min(up, 4))))
                      for lo, up in bounds], dtype=float)
    model = Model("fuzz")
    x = model.add_vars(n, lb=bounds[:, 0], ub=bounds[:, 1],
                       obj=arrays(draw, (n,), SMALL))
    twist = draw(st.sampled_from(["none", "none", "infeasible", "unbounded"]))
    if twist == "unbounded":
        model.add_var(lb=-INFINITY, obj=1.0)
    groups = []
    for k in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(SHAPES))
        size = draw(st.sampled_from([1, 1, 2]))
        groups.append(tuple(draw(families(point, f"f{k}{'ab'[i]}", shape))
                            for i in range(size)))
    if twist == "infeasible":
        j = int(x[draw(st.integers(0, n - 1))])
        groups.append((family("lo", (), [(j, 1.0)], GE, 3.0),))
        groups.append((family("hi", (), [(j, 1.0)], LE, 1.0),))
    for group in groups:
        model.add(*group)
    return model, groups


def end(solve):
    """A solve's status, or "error" for ``SolverError``, and the solution."""
    try:
        sol = solve()
    except SolverError:
        return "error", None
    return sol.status, sol


@settings(max_examples=150, deadline=None)
@given(case=lps(), data=st.data())
def test_random_lps_solve_as_linprog_and_certify(case, data):
    """Status and optimum as ``linprog`` with the same presolve setting,
    which follows the rule in ``Model.solve``; an optimality certificate;
    ``resolve`` as a cold solve; ``with_values`` as a rebuild."""
    model, groups = case
    presolve = bool((model.lb != 0).any() or (model.obj < 0).any())
    status, sol = end(model.solve)
    want, oracle = end(lambda: linprog_solve(model, presolve))
    assert status == want
    if status != "optimal":
        return
    assert sol.objective == pytest.approx(oracle.objective, rel=1e-9, abs=1e-9)
    assert optimality_faults(sol) == []
    assert sol._highs.getOptionValue("presolve")[1] == (
        "on" if presolve else "off")

    # A warm resolve ends as a cold solve of the same derived model.
    drop = arrays(data.draw, (model.num_constraints,), st.booleans()).astype(bool)
    caps = arrays(data.draw, (model.num_vars,),
                  st.sampled_from([0.0, 1.0, 3.0, INFINITY]))
    ub = np.minimum(model.ub, np.maximum(model.lb, caps))
    warm, resolved = end(lambda: sol.resolve(drop, ub))
    cold, solved = end(model.without(drop, ub).solve)
    assert warm == cold
    if warm == "optimal":
        assert resolved.objective == pytest.approx(solved.objective, rel=1e-9,
                                                   abs=1e-9)

    # New values in some of one family's columns, zeros among them: the
    # column arrays HiGHS gets are those of the model built with them,
    # zeros left out, and scipy's, repeated columns in a row summed.
    named = [f for group in groups for f in group if len(f.vals)]
    if not named:
        return
    edit = data.draw(st.sampled_from(named))
    cols = np.unique(edit.cols)
    cols = cols[arrays(data.draw, cols.shape, st.booleans()).astype(bool)]
    vals = arrays(data.draw, cols.shape,
                  st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]))
    obj = arrays(data.draw, (model.num_vars,), SMALL)
    edited = model.with_values(obj, edit.name, cols, vals)
    new = edit.vals.copy()
    for col, val in zip(cols, vals):
        new[edit.cols == col] = val
    keep = new != 0.0
    rebuilt = Model("fuzz")
    rebuilt.add_vars(model.num_vars, lb=model.lb, ub=model.ub, obj=obj)
    for group in groups:
        rebuilt.add(*(replace(f, index=None) if f is not edit else
                      replace(f, rows=f.rows[keep], cols=f.cols[keep],
                              vals=new[keep], index=None) for f in group))
    ref = scipy_csc(rebuilt)
    for got, want, by_scipy in zip(edited._csc(), rebuilt._csc(),
                                   (ref.indptr, ref.indices, ref.data)):
        assert bits(got) == bits(want) == bits(by_scipy)


#: Arbitrary Python values: scalars of every JSON type, text, and lists and
#: tuples of them.
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6)

#: Each constructor and a valid value for each of its arguments.
CONSTRUCTORS = [
    (SweepConfig, {"grid": (1.0, 0.1), "n_samples": 20, "seed": 1,
                   "gamma": 0.05, "oos_samples": 1000, "error_mean": "zero",
                   "oos_include_zero": True}),
    (NoiseModel, {"kind": "laplace", "param": 0.1, "dimension": 1}),
    (NoiseModel.gaussian, {"stddev": 0.1, "dimension": 2}),
    (QualitySignal, {"epsilon": 0.1}),
    (MultiDataset, {"samples": [[0.1, -0.2], [0.0, 0.3]],
                    "epsilons": [0.1, 0.0]}),
    (BoxSupport, {"lower": [-1.0, 0.0], "upper": [1.0, 2.0]}),
    (PiecewiseMaxAffine, {"a": [[1.0, -0.5], [0.0, 2.0]], "b": [0.1, 0.0]}),
    (SeparableAffineCost, {"c": [1.0, -0.5]}),
    (Network, {"buses": [1, 2], "lines": [Line(1, 2, 0.1, 5.0)],
               "generators": [Generator(1, 0.0, 4.0, 10.0, 1.0, 20.0)],
               "loads": {2: 3.0}, "resources": [Resource(2, 0.5, 0.0, 1.0, 0.5)],
               "base_mva": 100.0, "slack_bus": 1}),
    (lambda **line: Network([1, 2], [Line(**line)], [], {}, []),
     {"from_bus": 1, "to_bus": 2, "reactance": 0.1, "f_max": 5.0}),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_constructors_end_in_a_value_or_an_input_error(data):
    make, valid = data.draw(st.sampled_from(CONSTRUCTORS))
    kwargs = {name: data.draw(VALUES | st.just(good), label=name)
              for name, good in valid.items()}
    try:
        make(**kwargs)
    except InputError:
        pass
